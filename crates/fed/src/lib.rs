//! # com-fed
//!
//! The federated serving driver: runs one scenario through **two**
//! `matchd` daemons — each owning one platform, joined by the
//! inter-daemon outsourcing protocol (`outsource_offer` /
//! `outsource_accept` / `outsource_reject`) — and proves the federated
//! outcome is *byte-identical* to a single-process session over the same
//! instance and seed.
//!
//! ## The deterministic-replica federation model
//!
//! Both daemons receive the **full** event stream (every worker, every
//! request) and run the same matcher with the same seed, so their
//! replicas take identical decisions. Ownership (`hello.fed.platform`)
//! only changes *accountability*: a daemon's outer decision on a request
//! it owns must be confirmed by the rival daemon over the wire before it
//! is applied; a decision on a request it does not own is applied
//! immediately and, when it lends one of the daemon's own workers,
//! recorded so the inbound offer can be validated against the local
//! replica (the lender re-proves `v' ∈ (0, v_r]`, Definition 2.3).
//!
//! ## Driving: one pump per daemon, and the parking rule
//!
//! Each daemon gets its own connection and its own thread, and streams
//! the whole instance through `com_serve`'s one windowed [`pump`] — the
//! two streams run concurrently, neither waits for the other. So the
//! owner's offer for request *k* may reach the lender before the lender's
//! replica has ingested *k*. The protocol absorbs that: the offer carries
//! the borrower's event index, and the lender **parks** it until its own
//! replica has got past that index (the offer's deadline bounds the
//! wait). The lender answers from its session's lend book on a router
//! thread, never on the shard, which is what makes the pair
//! deadlock-free: when both daemons block in offers, the one blocked on
//! the lower index is answered at once — its rival's replica is already
//! past it — and the other is answered once the first catches up.
//!
//! Both sessions open before either stream starts, and a barrier holds
//! both `close`s until both streams are answered: a session that finished
//! while its rival could still offer to it would answer
//! `unknown-fed-session`. The two daemons' decisions on every request are
//! compared after streaming, from one compact record per request.
//!
//! ## What "verified" means
//!
//! [`verify`] replays the instance through the local batch engine
//! (`try_run_online`, same matcher and seed) and checks what the daemons
//! sent against it, and nothing else:
//!
//! * no live divergence — the two daemons' answers to every request,
//!   compared after streaming, before the byes;
//! * per daemon, the full replica against the reference
//!   ([`ByeMsg::disagreements`]: digest, silent server-side audit);
//! * per daemon, the owned `bye.fed` half's digest against that of
//!   [`com_core::project_platform_run`] of the reference
//!   ([`com_serve::FedByeMsg::disagreements`]);
//! * per daemon, the reported [`com_sim::PlatformLedger`] against books
//!   derived from the reference;
//! * per daemon, zero degraded offers.
//!
//! Each daemon audits its full replica server-side, and every decision
//! was already compared live, so a `bye` is a receipt: digests, not
//! canonical runs. A check that reads only the local reference could
//! never fail, so `verify` runs none.

use std::io;
use std::sync::Barrier;
use std::time::Instant;

use com_core::{project_platform_run, try_run_online, MatcherSpec, RunResult};
use com_serve::{
    bad_data, hello_msg, pump, serve, ByeMsg, Client, DeepStatsMsg, FedHello, ServerConfig,
    ServerHandle, WireFormat, DEFAULT_OFFER_DEADLINE_MS,
};
use com_sim::{Assignment, Instance, PlatformId, PlatformLedger};

/// Messages in flight per daemon: deep enough that neither daemon idles
/// while its client reads, shallow enough for any socket buffer.
const WINDOW: usize = 256;

/// How to drive the federated pair.
#[derive(Debug, Clone)]
pub struct FedOptions {
    /// Matcher spec string (see `com_core::MatcherSpec`).
    pub matcher: String,
    pub seed: u64,
    /// Wire framing for *both* client links and (echoed into
    /// `hello.fed.frame`) the inter-daemon peer links.
    pub frame: WireFormat,
    /// Per-offer deadline in milliseconds.
    pub deadline_ms: u64,
    /// Cross-daemon session binding stamped on every offer.
    pub fed_sid: u64,
}

impl Default for FedOptions {
    fn default() -> Self {
        FedOptions {
            matcher: "demcom".into(),
            seed: 42,
            frame: WireFormat::Ndjson,
            deadline_ms: DEFAULT_OFFER_DEADLINE_MS,
            fed_sid: 1,
        }
    }
}

/// One daemon's half of the run.
#[derive(Debug)]
pub struct DaemonReport {
    /// The platform this daemon owned.
    pub platform: u16,
    /// Final session report (`bye`), `fed` half included.
    pub bye: ByeMsg,
    /// Deep telemetry snapshot taken just before shutdown. Carries the
    /// `fed-offer` phase row and the federation counters.
    pub deep_stats: Option<DeepStatsMsg>,
}

/// What a federated drive produced.
#[derive(Debug)]
pub struct FedReport {
    /// Events streamed (each goes to both daemons).
    pub events: usize,
    /// Event-streaming wall time, teardown excluded: until both daemons
    /// answered every event.
    pub wall_secs: f64,
    /// Requests whose two answers (owner vs non-owner daemon) diverged
    /// in their canonical projection — live desync, fatal for identity.
    /// Compared after streaming, one record per request and daemon.
    pub divergent_responses: Vec<String>,
    /// Daemon halves, index = owned platform.
    pub daemons: Vec<DaemonReport>,
}

impl FedReport {
    /// Events per wall-clock second over the drive (each event counted
    /// once even though it is sent to both daemons).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.events as f64 / self.wall_secs
    }
}

/// One request's decision as both daemons must agree on it: the
/// assignment without its wall-clock `decision_nanos`, i.e. exactly what
/// its canonical projection keeps.
fn record(a: &Assignment) -> Assignment {
    Assignment {
        decision_nanos: 0,
        ..a.clone()
    }
}

/// Connect to one daemon and open its (bare) federated session: owner of
/// `platform`, dialling `peer` for outsourcing confirmation.
fn open_session(
    addr: &str,
    peer: Option<String>,
    platform: u16,
    instance: &Instance,
    options: &FedOptions,
) -> io::Result<Client> {
    let mut client = Client::connect(addr)?;
    let mut hello = hello_msg(instance, &options.matcher, options.seed, options.frame);
    hello.fed = Some(FedHello {
        platform,
        fed_sid: options.fed_sid,
        peer,
        deadline_ms: Some(options.deadline_ms),
    });
    client.open(None, hello)?;
    Ok(client)
}

/// One daemon's share of a drive: the whole instance through the one
/// pump, then — once `barrier` reports every daemon's stream answered —
/// its `close`. Returns the daemon's report, its per-request records and
/// when its stream was answered.
fn stream(
    mut client: Client,
    platform: u16,
    instance: &Instance,
    barrier: &Barrier,
) -> io::Result<(DaemonReport, Vec<Assignment>, Instant)> {
    let mut records = Vec::with_capacity(instance.request_count());
    let events = instance.stream.iter();
    let streamed = pump(&mut client, &[None], instance, events, WINDOW, |a| {
        records.push(record(a))
    })
    // A failed stream drops its connection here, before the barrier: its
    // session finishes, so the rival's offers to it are refused at once
    // instead of parking until their deadlines.
    .map(|_| (client, Instant::now()));
    barrier.wait();
    let (mut client, answered) = streamed?;
    let (deep_stats, bye) = client.close(None)?;
    let report = DaemonReport {
        platform,
        bye,
        deep_stats,
    };
    Ok((report, records, answered))
}

/// Drive `instance` through ONE federated daemon — the fault-path
/// harness. `peer` is whatever the daemon should dial for outsourcing
/// confirmation: a rival daemon, an unresponsive socket, or `None` for
/// lend-only mode. Every outer decision the daemon cannot confirm
/// degrades to a cooperative reject (which `validate_run` must stay
/// silent on — the degraded run is still a valid run).
pub fn drive_single(
    addr: &str,
    peer: Option<String>,
    platform: u16,
    instance: &Instance,
    options: &FedOptions,
) -> io::Result<DaemonReport> {
    let client = open_session(addr, peer, platform, instance, options)?;
    Ok(stream(client, platform, instance, &Barrier::new(1))?.0)
}

/// Drive `instance` through a federated daemon pair, both daemons at
/// once (see the module docs).
///
/// `addr_a` owns platform 0 and `addr_b` platform 1; the two addresses
/// are also handed to the rival daemon as its peer link, so the pair
/// negotiates real wire offers in both directions. The instance must
/// name exactly two platforms.
pub fn drive_federated(
    addr_a: &str,
    addr_b: &str,
    instance: &Instance,
    options: &FedOptions,
) -> io::Result<FedReport> {
    if instance.platform_names.len() != 2 {
        return Err(bad_data(format!(
            "federation needs exactly 2 platforms, instance has {}",
            instance.platform_names.len()
        )));
    }
    // Both sessions exist before either streams: an offer reaching a
    // daemon ahead of its session would be refused `unknown-fed-session`.
    let a = open_session(addr_a, Some(addr_b.to_string()), 0, instance, options)?;
    let b = open_session(addr_b, Some(addr_a.to_string()), 1, instance, options)?;
    let barrier = Barrier::new(2);
    let started = Instant::now();
    let (a, b) = std::thread::scope(|scope| {
        let b = scope.spawn(|| stream(b, 1, instance, &barrier));
        let a = stream(a, 0, instance, &barrier);
        let b = b
            .join()
            .unwrap_or_else(|_| Err(bad_data("daemon driver panicked")));
        (a, b)
    });
    let ((a, records_a, answered_a), (b, records_b, answered_b)) = (a?, b?);
    let divergent = instance
        .stream
        .requests()
        .zip(records_a.iter().zip(&records_b))
        .filter(|(_, (x, y))| x != y)
        .map(|(spec, (x, y))| {
            let (own, other) = if spec.platform == PlatformId(0) {
                (x, y)
            } else {
                (y, x)
            };
            format!(
                "request {}: owner decided {:?} but non-owner decided {:?}",
                spec.id.0, own.kind, other.kind
            )
        })
        .collect();
    Ok(FedReport {
        events: instance.stream.len(),
        wall_secs: answered_a
            .max(answered_b)
            .duration_since(started)
            .as_secs_f64(),
        divergent_responses: divergent,
        daemons: vec![a, b],
    })
}

fn reference_run(instance: &Instance, options: &FedOptions) -> Result<RunResult, String> {
    let mut matcher = MatcherSpec::parse(&options.matcher)
        .map_err(|e| format!("unknown matcher {}: {e:?}", options.matcher))?
        .build();
    Ok(try_run_online(instance, matcher.as_mut(), options.seed))
}

/// Verify a federated drive against a local single-process replay of the
/// same instance and seed. Returns the list of violated invariants, each
/// naming the daemon output it read — empty means the federated pair is
/// byte-identical to the reference (see the module docs for the checks).
pub fn verify(instance: &Instance, report: &FedReport, options: &FedOptions) -> Vec<String> {
    let mut failures = Vec::new();
    for d in &report.divergent_responses {
        failures.push(format!("live divergence: {d}"));
    }
    let reference = match reference_run(instance, options) {
        Ok(run) => run,
        Err(e) => {
            failures.push(e);
            return failures;
        }
    };

    for daemon in &report.daemons {
        let p = PlatformId(daemon.platform);
        let tag = format!("platform {}", daemon.platform);
        // Full replica: the served run IS the batch run, byte for byte.
        for d in daemon.bye.disagreements(&reference) {
            failures.push(format!("{tag}: full replica: {d}"));
        }
        // Owned half: digest, ledger, degradation.
        match &daemon.bye.fed {
            None => failures.push(format!("{tag}: bye carries no fed half")),
            Some(fed) => {
                if fed.platform != daemon.platform {
                    failures.push(format!("{tag}: fed half claims platform {}", fed.platform));
                }
                for d in fed.disagreements(&project_platform_run(&reference, p)) {
                    failures.push(format!("{tag}: owned projection: {d}"));
                }
                let books = PlatformLedger::for_platform(p, &reference.assignments);
                if !fed.ledger.agrees_with(&books) {
                    failures.push(format!(
                        "{tag}: reported ledger {:?} disagrees with local books {:?}",
                        fed.ledger, books
                    ));
                }
                if fed.degraded_offers != 0 {
                    failures.push(format!(
                        "{tag}: {} offers degraded to cooperative rejects",
                        fed.degraded_offers
                    ));
                }
            }
        }
    }
    failures
}

/// A federated daemon pair running in-process on ephemeral ports — the
/// loopback harness behind `matchfed` (no `--addr`) and the tests.
pub struct LoopbackPair {
    pub(crate) a: ServerHandle,
    pub(crate) b: ServerHandle,
}

impl LoopbackPair {
    /// Start two daemons with the given per-daemon config template (the
    /// bind address is overridden to an ephemeral port).
    pub fn start(template: &ServerConfig) -> io::Result<LoopbackPair> {
        let mut config = template.clone();
        config.addr = "127.0.0.1:0".into();
        let a = serve(config.clone())?;
        let b = serve(config)?;
        Ok(LoopbackPair { a, b })
    }

    pub fn addr_a(&self) -> String {
        self.a.addr().to_string()
    }

    pub fn addr_b(&self) -> String {
        self.b.addr().to_string()
    }

    /// Shut both daemons down, joining every thread.
    pub fn shutdown(self) {
        self.a.shutdown();
        self.b.shutdown();
    }
}

/// Drive + verify through a fresh in-process pair: the one-call harness.
/// Returns the drive report and the (empty when byte-identical) list of
/// violated invariants.
pub fn run_loopback(
    instance: &Instance,
    options: &FedOptions,
) -> io::Result<(FedReport, Vec<String>)> {
    let pair = LoopbackPair::start(&ServerConfig::default())?;
    let report = drive_federated(&pair.addr_a(), &pair.addr_b(), instance, options)?;
    let failures = verify(instance, &report, options);
    pair.shutdown();
    Ok((report, failures))
}
