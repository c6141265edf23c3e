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
//! ## The non-owner-first driving rule
//!
//! For every request the driver sends the event **first to the daemon
//! that does not own it**, then to the owner. By the time the owner's
//! replica decides to outsource and its offer crosses the wire, the
//! lender has already processed the same event and holds the matching
//! lendable entry — an offer can never arrive ahead of the event that
//! justifies it (offer-before-event is a `desync` reject by design).
//! Lockstep driving (one outstanding event per daemon) also makes the
//! offer round-trip deadlock-free: while the owner blocks inside its
//! decision, the lender's shard is idle and answers immediately.
//!
//! ## What "verified" means
//!
//! [`verify`] replays the instance through the local batch engine
//! (`try_run_online`, same matcher and seed) and checks what the daemons
//! sent against it, and nothing else:
//!
//! * no live divergence — the two daemons' answers to every request,
//!   compared while driving, before the byes;
//! * per daemon, the full replica against the reference
//!   ([`ByeMsg::disagreements`]: canonical run, digest, silent
//!   server-side audit);
//! * per daemon, the owned `bye.fed` half against
//!   [`com_core::project_platform_run`] of the reference
//!   ([`com_serve::FedByeMsg::disagreements`]);
//! * per daemon, the reported [`com_sim::PlatformLedger`] against books
//!   derived from the reference;
//! * per daemon, zero degraded offers.
//!
//! Each daemon audits its full replica server-side, and its owned half
//! is a projection of that replica; a check that reads only the local
//! reference could never fail, so `verify` runs none.

use std::io;
use std::time::Instant;

use com_core::{
    canonical_assignment_json, project_platform_run, try_run_online, MatcherSpec, RunResult,
};
use com_serve::{
    bad_data, event_msg, expect_ok, hello_msg, serve, ByeMsg, Client, DeepStatsMsg, FedHello,
    ServerConfig, ServerHandle, ServerMsg, WireFormat, DEFAULT_OFFER_DEADLINE_MS,
};
use com_sim::{ArrivalEvent, Assignment, Instance, PlatformId, PlatformLedger};

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
    /// `fed-offer`/`fed-lend` phase rows and the federation counters.
    pub deep_stats: Option<DeepStatsMsg>,
}

/// What a federated drive produced.
#[derive(Debug)]
pub struct FedReport {
    /// Events streamed (each goes to both daemons).
    pub events: usize,
    /// Event-streaming wall time, teardown excluded (both daemons
    /// answered every event).
    pub wall_secs: f64,
    /// Requests whose two answers (owner vs non-owner daemon) diverged
    /// in their canonical projection — live desync, fatal for identity.
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

/// The canonical (wall-clock-free) projection of one response, or `None`
/// for non-decision responses; used to byte-compare the two daemons'
/// answers to the same request while driving.
fn response_assignment(msg: &ServerMsg) -> Option<&Assignment> {
    match msg {
        ServerMsg::assign(a) | ServerMsg::reject(a) => Some(a),
        ServerMsg::timeout { assignment, .. } => Some(assignment),
        _ => None,
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

/// Drive `instance` through ONE federated daemon in lockstep — the
/// fault-path harness. `peer` is whatever the daemon should dial for
/// outsourcing confirmation: a rival daemon, an unresponsive socket, or
/// `None` for lend-only mode. Every outer decision the daemon cannot
/// confirm degrades to a cooperative reject (which `validate_run` must
/// stay silent on — the degraded run is still a valid run).
pub fn drive_single(
    addr: &str,
    peer: Option<String>,
    platform: u16,
    instance: &Instance,
    options: &FedOptions,
) -> io::Result<DaemonReport> {
    let mut client = open_session(addr, peer, platform, instance, options)?;
    for event in instance.stream.iter() {
        let response = client.rpc(&event_msg(instance, event))?;
        match event {
            ArrivalEvent::Worker(_) => expect_ok(response, "worker")?,
            ArrivalEvent::Request(spec) => {
                if response_assignment(&response).is_none() {
                    return Err(bad_data(format!(
                        "request {}: non-decision response {response:?}",
                        spec.id.0
                    )));
                }
            }
        }
    }
    let (deep_stats, bye) = client.close(None)?;
    Ok(DaemonReport {
        platform,
        bye,
        deep_stats,
    })
}

/// Drive `instance` through a federated daemon pair in lockstep.
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
    let mut a = open_session(addr_a, Some(addr_b.to_string()), 0, instance, options)?;
    let mut b = open_session(addr_b, Some(addr_a.to_string()), 1, instance, options)?;

    let started = Instant::now();
    let mut divergent = Vec::new();
    for event in instance.stream.iter() {
        let msg = event_msg(instance, event);
        match event {
            ArrivalEvent::Worker(_) => {
                expect_ok(a.rpc(&msg)?, "worker")?;
                expect_ok(b.rpc(&msg)?, "worker")?;
            }
            ArrivalEvent::Request(spec) => {
                // Non-owner first: the lender's replica must have seen
                // the request (and recorded the lendable entry) before
                // the owner's offer can cross the wire.
                let owner_is_a = spec.platform == PlatformId(0);
                let (non_owner, owner) = if owner_is_a {
                    (&mut b, &mut a)
                } else {
                    (&mut a, &mut b)
                };
                let lend_side = non_owner.rpc(&msg)?;
                let own_side = owner.rpc(&msg)?;
                match (
                    response_assignment(&lend_side),
                    response_assignment(&own_side),
                ) {
                    (Some(x), Some(y)) => {
                        if canonical_assignment_json(x) != canonical_assignment_json(y) {
                            divergent.push(format!(
                                "request {}: owner decided {:?} but non-owner decided {:?}",
                                spec.id.0, y.kind, x.kind
                            ));
                        }
                    }
                    _ => {
                        return Err(bad_data(format!(
                            "request {}: non-decision response(s): {lend_side:?} / {own_side:?}",
                            spec.id.0
                        )))
                    }
                }
            }
        }
    }
    let wall_secs = started.elapsed().as_secs_f64();

    let (deep_a, bye_a) = a.close(None)?;
    let (deep_b, bye_b) = b.close(None)?;
    Ok(FedReport {
        events: instance.stream.len(),
        wall_secs,
        divergent_responses: divergent,
        daemons: vec![
            DaemonReport {
                platform: 0,
                bye: bye_a,
                deep_stats: deep_a,
            },
            DaemonReport {
                platform: 1,
                bye: bye_b,
                deep_stats: deep_b,
            },
        ],
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
        // Owned half: canonical, digest, ledger, degradation.
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
    pub a: ServerHandle,
    pub b: ServerHandle,
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
