//! The one session driver: [`drive`] streams an [`Instance`]'s arrival
//! events through live `matchd` sessions and collects what the server
//! decided. `matchload`, the loopback tests and `com_fed` all push their
//! workload through this module's one [`pump`]. It is a correctness
//! driver: closed-loop, as fast as the window allows, reporting only
//! `wall_secs` / `events_per_sec`. Paced open-loop load and latency from
//! the intended send time are `benchmark/run.sh`'s job.
//!
//! **Sessions and connections.** `sessions` logical sessions replay the
//! *same* instance, session `k` with seed `seed + k`, so every session's
//! `bye` is independently verifiable against a local batch run. They ride
//! `connections` sockets (clamped to `1..=sessions` — here and nowhere
//! else), session `k` on connection `k % connections`. A run with one
//! session addresses it **bare** (no envelope on the wire); a run with
//! more tags session `k` with `sid = k` in the `{"sid":…,"msg":…}` mux
//! envelope. Which addressing goes on the wire is read off `sessions`,
//! not set by a flag.
//!
//! **The pump.** [`pump`] drives one connection (`drive` runs one per
//! connection, each on its own thread, and `com_fed` one per daemon). It
//! interleaves the connection's sessions event by event
//! — event *i* of every session before event *i+1* of any — which is the
//! adversarial pattern for the server's routing: consecutive wire
//! messages nearly always address different sids and, sharded, different
//! shard queues. At most `window` messages are in flight per connection,
//! checked after every queued message; a full window flushes the batched
//! sends in one write and drains down to half so sends and receives stay
//! interleaved. `window == 1` is therefore strict request-response
//! lockstep. Responses are ordered per session but interleave arbitrarily
//! across sessions, so each is matched to its session's oldest in-flight
//! message by the frame's sid, never by global position.
//!
//! **Flow control** is the transport's: the server answers every message
//! it accepts, in order, and a backlogged shard simply stops reading the
//! socket. `window` is therefore independent of the server's queue sizes
//! and bounded only by socket buffering, as in any pipelined TCP protocol
//! — the pump reads between bursts so the two directions cannot wedge
//! each other.

use std::collections::VecDeque;
use std::io;
use std::time::Instant;

use com_sim::{ArrivalEvent, Assignment, Instance};

use crate::client::{bad_data, unexpected, Client};
use crate::framing::WireFormat;
use crate::protocol::{ByeMsg, ClientMsg, DeepStatsMsg, Hello, ServerMsg, WorkerMsg};

/// How to drive.
#[derive(Debug, Clone)]
pub struct DriveOptions {
    /// Matcher spec string (see `com_core::MatcherSpec`).
    pub matcher: String,
    /// Session `k` runs with seed `seed + k`.
    pub seed: u64,
    /// TCP connections to open (all up front, before any traffic);
    /// clamped to `1..=sessions`.
    pub connections: usize,
    /// Logical sessions to drive. One session is addressed bare, more are
    /// multiplexed by sid.
    pub sessions: usize,
    /// Wire framing to request in every `hello`; the client only switches
    /// when the server echoes it back in `welcome`.
    pub frame: WireFormat,
    /// Max messages in flight per connection, shared across its
    /// sessions. `1` = strict lockstep.
    pub window: usize,
}

impl Default for DriveOptions {
    fn default() -> Self {
        DriveOptions {
            matcher: "demcom".into(),
            seed: 42,
            connections: 1,
            sessions: 1,
            frame: WireFormat::Ndjson,
            window: 1,
        }
    }
}

/// One logical session's outcome.
#[derive(Debug)]
pub struct SessionOutcome {
    /// How the session was addressed: `None` = bare (a one-session run).
    pub sid: Option<u64>,
    pub seed: u64,
    /// Which connection carried it.
    pub connection: usize,
    pub assigned: usize,
    pub rejected: usize,
    /// Engine-refused decisions (`timeout` responses).
    pub refused: usize,
    /// The server's final report for this session — compare its digest
    /// against `com_core::canonical_run_digest` of a local batch run
    /// ([`ByeMsg::disagreements`]).
    pub bye: ByeMsg,
}

/// What [`drive`] measured, aggregated across connections.
#[derive(Debug)]
pub struct DriveReport {
    /// Per-session outcomes; index = session number `k`.
    pub sessions: Vec<SessionOutcome>,
    /// Connections actually opened (the option, clamped).
    pub connections: usize,
    /// Total events delivered (events per session × sessions).
    pub events: usize,
    /// Slowest connection's event-streaming wall time: sessions open →
    /// last event response drained. Teardown (deep stats, shutdown,
    /// audit, digest, `bye`) is excluded — a per-session cost, not
    /// per-event serving work.
    pub wall_secs: f64,
    /// Session 0's deep server telemetry, fetched once streaming ended
    /// and before any session on its connection shut down — carries the
    /// phase table and the per-shard rows.
    pub deep_stats: Option<DeepStatsMsg>,
}

impl DriveReport {
    /// Aggregate events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.events as f64 / self.wall_secs
    }
}

/// The `hello` that opens a session over `instance`'s world.
pub fn hello_msg(instance: &Instance, matcher: &str, seed: u64, frame: WireFormat) -> Hello {
    Hello {
        matcher: matcher.to_string(),
        seed,
        world: instance.config.clone(),
        platforms: instance.platform_names.clone(),
        max_value: instance.max_value(),
        frame: Some(frame.as_str().to_string()),
        origin: None,
        fed: None,
    }
}

/// The wire message for one arrival event (a worker carries its
/// acceptance history).
pub fn event_msg(instance: &Instance, event: &ArrivalEvent) -> ClientMsg {
    match event {
        ArrivalEvent::Worker(spec) => ClientMsg::worker(WorkerMsg {
            spec: *spec,
            history: instance.histories.get(&spec.id).cloned(),
        }),
        ArrivalEvent::Request(spec) => ClientMsg::request(*spec),
    }
}

/// Require the plain acknowledgement a `worker` (or `tick`) is answered
/// with.
pub(crate) fn expect_ok(response: ServerMsg, what: &str) -> io::Result<()> {
    match response {
        ServerMsg::ok => Ok(()),
        other => Err(unexpected(what, other)),
    }
}

/// One session's decisions, by kind, once its stream is answered.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    assigned: usize,
    rejected: usize,
    /// Engine-refused decisions (`timeout` responses).
    refused: usize,
}

/// One in-flight message awaiting its session's next response.
#[derive(Clone, Copy)]
enum Pending {
    Worker,
    Request,
}

/// One session's client-side state while its stream is in flight.
struct SessionState {
    sid: Option<u64>,
    pending: VecDeque<Pending>,
    tally: Tally,
}

/// One connection mid-stream.
struct Pump<'c, F> {
    client: &'c mut Client,
    states: Vec<SessionState>,
    in_flight: usize,
    on_decision: F,
}

impl<F: FnMut(&Assignment)> Pump<'_, F> {
    /// Receive one response and settle it against the oldest in-flight
    /// message of the session it addresses.
    fn drain_one(&mut self) -> io::Result<()> {
        let frame = self.client.recv_frame()?;
        let Some(state) = self.states.iter_mut().find(|s| s.sid == frame.sid) else {
            return Err(bad_data(format!("response for unknown session: {frame:?}")));
        };
        let slot = state.pending.pop_front().ok_or_else(|| {
            bad_data(format!(
                "response for session {:?} with nothing in flight: {:?}",
                frame.sid, frame.msg
            ))
        })?;
        self.in_flight -= 1;
        if let Pending::Worker = slot {
            return expect_ok(frame.msg, "worker");
        }
        let tally = &mut state.tally;
        let (count, decided) = match frame.msg {
            ServerMsg::assign(a) => (&mut tally.assigned, a),
            ServerMsg::reject(a) => (&mut tally.rejected, a),
            ServerMsg::timeout { assignment, .. } => (&mut tally.refused, assignment),
            other => return Err(unexpected("request", other)),
        };
        *count += 1;
        (self.on_decision)(&decided);
        Ok(())
    }

    fn drain_to(&mut self, target: usize) -> io::Result<()> {
        self.client.flush()?;
        while self.in_flight > target {
            self.drain_one()?;
        }
        Ok(())
    }
}

/// The one pump: stream `events` (of `instance`, which supplies the
/// workers' histories) to every open session `sids` names on `client`,
/// and return once every message is answered. Sessions interleave event
/// by event and at most `window` messages are in flight (see the module
/// docs). `on_decision` sees every request's decision, in stream order
/// per session; a response of any other kind to a request is an error.
pub fn pump<'e>(
    client: &mut Client,
    sids: &[Option<u64>],
    instance: &Instance,
    events: impl IntoIterator<Item = &'e ArrivalEvent>,
    window: usize,
    on_decision: impl FnMut(&Assignment),
) -> io::Result<()> {
    tally(client, sids, instance, events, window, on_decision).map(drop)
}

/// [`pump`], returning each session's decisions by kind.
fn tally<'e>(
    client: &mut Client,
    sids: &[Option<u64>],
    instance: &Instance,
    events: impl IntoIterator<Item = &'e ArrivalEvent>,
    window: usize,
    on_decision: impl FnMut(&Assignment),
) -> io::Result<Vec<Tally>> {
    let mut pump = Pump {
        client,
        states: sids
            .iter()
            .map(|&sid| SessionState {
                sid,
                pending: VecDeque::new(),
                tally: Tally::default(),
            })
            .collect(),
        in_flight: 0,
        on_decision,
    };
    let window = window.max(1);
    for event in events {
        let msg = event_msg(instance, event);
        let slot = match event {
            ArrivalEvent::Worker(_) => Pending::Worker,
            ArrivalEvent::Request(_) => Pending::Request,
        };
        for index in 0..pump.states.len() {
            let state = &mut pump.states[index];
            pump.client.queue_for(state.sid, &msg);
            state.pending.push_back(slot);
            pump.in_flight += 1;
            if pump.in_flight >= window {
                pump.drain_to(window / 2)?;
            }
        }
    }
    pump.drain_to(0)?;
    Ok(pump.states.into_iter().map(|s| s.tally).collect())
}

/// Drive connection `conn`, carrying sessions `sids`, through the whole
/// instance; the report covers this connection alone.
fn drive_connection(
    mut client: Client,
    conn: usize,
    sids: Vec<Option<u64>>,
    instance: &Instance,
    options: &DriveOptions,
) -> io::Result<DriveReport> {
    let seed_of = |sid: Option<u64>| options.seed + sid.unwrap_or(0);
    for &sid in &sids {
        let hello = hello_msg(instance, &options.matcher, seed_of(sid), options.frame);
        client.open(sid, hello)?;
    }
    let started = Instant::now();
    let events = instance.stream.iter();
    let tallies = tally(&mut client, &sids, instance, events, options.window, |_| {})?;
    // Stop the throughput clock here: every event has been sent *and*
    // answered.
    let wall_secs = started.elapsed().as_secs_f64();

    // The first session's snapshot, taken while all of the connection's
    // sessions are still open.
    let mut deep_stats = None;
    let mut sessions = Vec::with_capacity(sids.len());
    for (sid, tally) in sids.into_iter().zip(tallies) {
        let (deep, bye) = client.close(sid)?;
        if sessions.is_empty() {
            deep_stats = deep;
        }
        sessions.push(SessionOutcome {
            sid,
            seed: seed_of(sid),
            connection: conn,
            assigned: tally.assigned,
            rejected: tally.rejected,
            refused: tally.refused,
            bye,
        });
    }
    Ok(DriveReport {
        events: instance.stream.len() * sessions.len(),
        sessions,
        connections: 1,
        wall_secs,
        deep_stats,
    })
}

/// Stream `instance` through `options.sessions` matchd sessions at `addr`
/// and collect the report. Every served session is exactly a batch
/// `try_run_online` over the same instance and its seed — in either
/// framing, at any window, bare or multiplexed.
pub fn drive(addr: &str, instance: &Instance, options: &DriveOptions) -> io::Result<DriveReport> {
    let sessions = options.sessions.max(1);
    // Never more connections than sessions — an idle connection would
    // have nothing to say.
    let connections = options.connections.clamp(1, sessions);
    // All sockets up front, so a `--once` server sees every connection
    // before any session finishes.
    let clients = (0..connections)
        .map(|_| Client::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, client)| {
                let sids: Vec<Option<u64>> = (conn..sessions)
                    .step_by(connections)
                    .map(|k| (sessions > 1).then_some(k as u64))
                    .collect();
                scope.spawn(move || drive_connection(client, conn, sids, instance, options))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(bad_data("connection driver panicked")))
            })
            .collect()
    });

    let mut report = DriveReport {
        sessions: Vec::with_capacity(sessions),
        connections,
        events: 0,
        wall_secs: 0.0,
        deep_stats: None,
    };
    for (conn, part) in outcomes.into_iter().enumerate() {
        let part = part?;
        report.events += part.events;
        report.wall_secs = report.wall_secs.max(part.wall_secs);
        if conn == 0 {
            report.deep_stats = part.deep_stats;
        }
        report.sessions.extend(part.sessions);
    }
    report.sessions.sort_by_key(|s| s.sid);
    Ok(report)
}
