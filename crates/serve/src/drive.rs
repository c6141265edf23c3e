//! The one session driver: [`drive`] streams an [`Instance`]'s arrival
//! events through live `matchd` sessions and collects what the server
//! decided. `matchload`, the loopback tests and (for its open / event /
//! close steps) `com_fed` all push their workload through this module. It
//! is a correctness driver: closed-loop, as fast as the window allows,
//! reporting only `wall_secs` / `events_per_sec`. Paced open-loop load and
//! latency from the intended send time are `benchmark/run.sh`'s job.
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
//! **The pump.** Each connection interleaves its sessions event by event
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

use com_sim::{ArrivalEvent, Instance};

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
    /// The server's final report for this session (canonical run JSON and
    /// digest included) — compare against
    /// `com_core::canonical_run_json` of a local batch run.
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
    /// audit, the canonical run in `bye`) is excluded — a fixed
    /// per-session cost, not per-event serving work.
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
pub fn expect_ok(response: ServerMsg, what: &str) -> io::Result<()> {
    match response {
        ServerMsg::ok => Ok(()),
        other => Err(unexpected(what, other)),
    }
}

/// One in-flight message awaiting its session's next response.
enum Pending {
    Worker,
    Request,
}

/// One session's client-side state while its stream is in flight.
struct SessionState {
    sid: Option<u64>,
    pending: VecDeque<Pending>,
    assigned: usize,
    rejected: usize,
    refused: usize,
}

/// One connection mid-stream.
struct Pump<'a> {
    client: Client,
    instance: &'a Instance,
    /// This connection's sessions: sids `conn, conn + M, …` of `M`
    /// connections, so sid `s` sits at index `s / M`.
    states: Vec<SessionState>,
    connections: u64,
    in_flight: usize,
}

impl Pump<'_> {
    fn queue(&mut self, index: usize, event: &ArrivalEvent) {
        let state = &mut self.states[index];
        self.client
            .queue_for(state.sid, &event_msg(self.instance, event));
        state.pending.push_back(match event {
            ArrivalEvent::Worker(_) => Pending::Worker,
            ArrivalEvent::Request(_) => Pending::Request,
        });
        self.in_flight += 1;
    }

    /// Receive one response and settle it against the oldest in-flight
    /// message of the session it addresses.
    fn drain_one(&mut self) -> io::Result<()> {
        let frame = self.client.recv_frame()?;
        let index = frame.sid.map_or(0, |s| s / self.connections) as usize;
        let Some(state) = self.states.get_mut(index).filter(|s| s.sid == frame.sid) else {
            return Err(bad_data(format!("response for unknown session: {frame:?}")));
        };
        let slot = state.pending.pop_front().ok_or_else(|| {
            bad_data(format!(
                "response for session {:?} with nothing in flight: {:?}",
                frame.sid, frame.msg
            ))
        })?;
        self.in_flight -= 1;
        match slot {
            Pending::Worker => expect_ok(frame.msg, "worker"),
            Pending::Request => {
                match frame.msg {
                    ServerMsg::assign(_) => state.assigned += 1,
                    ServerMsg::reject(_) => state.rejected += 1,
                    ServerMsg::timeout { .. } => state.refused += 1,
                    other => return Err(unexpected("request", other)),
                }
                Ok(())
            }
        }
    }

    fn drain_to(&mut self, target: usize) -> io::Result<()> {
        self.client.flush()?;
        while self.in_flight > target {
            self.drain_one()?;
        }
        Ok(())
    }
}

/// Drive connection `conn` of `connections`, carrying sessions `sids`,
/// through the whole instance; the report covers this connection alone.
fn drive_connection(
    mut client: Client,
    conn: usize,
    connections: usize,
    sids: Vec<Option<u64>>,
    instance: &Instance,
    options: &DriveOptions,
) -> io::Result<DriveReport> {
    let seed_of = |sid: Option<u64>| options.seed + sid.unwrap_or(0);
    for &sid in &sids {
        let hello = hello_msg(instance, &options.matcher, seed_of(sid), options.frame);
        client.open(sid, hello)?;
    }
    let mut pump = Pump {
        client,
        instance,
        states: sids
            .iter()
            .map(|&sid| SessionState {
                sid,
                pending: VecDeque::new(),
                assigned: 0,
                rejected: 0,
                refused: 0,
            })
            .collect(),
        connections: connections as u64,
        in_flight: 0,
    };
    let window = options.window.max(1);
    let started = Instant::now();
    for event in instance.stream.iter() {
        for index in 0..pump.states.len() {
            pump.queue(index, event);
            if pump.in_flight >= window {
                pump.drain_to(window / 2)?;
            }
        }
    }
    pump.drain_to(0)?;
    // Stop the throughput clock here: every event has been sent *and*
    // answered.
    let wall_secs = started.elapsed().as_secs_f64();

    let Pump {
        mut client, states, ..
    } = pump;
    // The first session's snapshot, taken while all of the connection's
    // sessions are still open.
    let mut deep_stats = None;
    let mut sessions = Vec::with_capacity(states.len());
    for state in states {
        let (deep, bye) = client.close(state.sid)?;
        if sessions.is_empty() {
            deep_stats = deep;
        }
        sessions.push(SessionOutcome {
            sid: state.sid,
            seed: seed_of(state.sid),
            connection: conn,
            assigned: state.assigned,
            rejected: state.rejected,
            refused: state.refused,
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
                scope.spawn(move || {
                    drive_connection(client, conn, connections, sids, instance, options)
                })
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
