//! One workload, end to end: *setup* → *engine* → served passes
//! (*saturate* and *openloop* blocks, then *teardown*), plus the traced
//! run's extra rungs, with every pass going through one correctness gate.

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use com_bench::runner::canonical_run_digest;
use com_core::{try_run_online, validate_run, MatcherRegistry};
use com_serve::{ClientMsg, DeepStatsMsg, ServerMsg, WireFormat};

use crate::daemon::{Daemon, DaemonEnv};
use crate::fed;
use crate::inputs::{self, block_bounds, block_schedule, is_open_loop, SessionInput, WirePlan};
use crate::ladder::{self, EngineTelemetry, Spans};
use crate::report::{Collector, PhaseOps, WorkloadResult};
use crate::spec::{
    Topology, Workload, BLOCKS, END_TO_END, FED_CALL_S, FED_SINGLE_RATE, LATENCY_LIMIT_US,
    OPEN_LOOP_SHARE, PER_LAYER, SATURATE_WINDOW, STAT_WINDOW,
};
use crate::stats::{median, Sorted};
use crate::wire::{self, BlockSpan, ByeSummary, Classified, Conn, Progress};

/// How often *setup* is repeated in one run; the median is reported.
pub const SETUP_REPS: usize = 3;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring budget, seconds (`BENCHMARK.json`'s `run_seconds`): the
    /// *engine* phase repeats until it has measured `seconds / 8`, and the
    /// number of served passes is chosen so that they take about
    /// `0.7 × seconds` (see [`RunConfig::served_passes`]). Every pass is a
    /// whole stream, so the digest can be checked.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub env: DaemonEnv,
    pub out_dir: PathBuf,
}

impl RunConfig {
    pub fn engine_floor(&self) -> f64 {
        self.seconds / 8.0
    }

    /// How many served passes a run makes. A function of constants only
    /// (stream length, frozen rate, `seconds`) — never of anything
    /// measured — so both sides of a comparison do the same work. The
    /// estimate: the open-loop blocks take `share × events / rate`, the
    /// closed-loop blocks about 0.6 of that (three times the events at
    /// roughly five times the rate), *teardown* about 15 µs per event, and
    /// decoding the `bye` and every response afterwards about 4 µs per
    /// event in binary and 11 µs in NDJSON.
    fn served_passes(&self, events: usize) -> usize {
        if self.trace {
            return 1;
        }
        let events = events as f64;
        let after_us = match self.workload.format {
            WireFormat::Binary => 15.0 + 4.0,
            WireFormat::Ndjson => 15.0 + 11.0,
        };
        let pass_s = 1.6 * OPEN_LOOP_SHARE * events / self.workload.rate + after_us * 1e-6 * events;
        ((0.7 * self.seconds / pass_s).round() as usize).clamp(1, 4)
    }

    /// How many `drive_federated` calls `fed_pair` makes; like
    /// [`RunConfig::served_passes`] a function of constants only.
    pub fn fed_calls(&self) -> usize {
        if self.trace {
            return 1;
        }
        ((self.seconds / FED_CALL_S).round() as usize).clamp(1, 8)
    }
}

/// The single place correctness is decided. Every phase reports how many
/// operations it attempted and which failed; a pass-level problem (wrong
/// digest, audit finding, undrained backlog, …) fails every operation of
/// that pass and is named.
#[derive(Default)]
pub struct Gate {
    phases: Vec<PhaseOps>,
    pub failures: Vec<String>,
}

impl Gate {
    /// `failed` counts individually failed operations; any entry in
    /// `problems` fails all `attempted` operations of the pass.
    pub fn record(&mut self, phase: &str, attempted: usize, failed: usize, problems: Vec<String>) {
        let failed = if problems.is_empty() {
            failed
        } else {
            attempted
        };
        for p in problems {
            self.failures.push(format!("{phase}: {p}"));
        }
        match self.phases.iter_mut().find(|p| p.phase == phase) {
            Some(p) => {
                p.ops_attempted += attempted as u64;
                p.ops_failed += failed as u64;
            }
            None => self.phases.push(PhaseOps {
                phase: phase.to_string(),
                ops_attempted: attempted as u64,
                ops_failed: failed as u64,
            }),
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty() && self.phases.iter().all(|p| p.ops_failed == 0)
    }
}

/// The *engine* phase: `try_run_online` per session on this thread, no
/// `com-obs` collector installed; audit and digest happen outside the
/// clock. Its first pass is the reference every served pass must
/// reproduce.
///
/// The passes are measured in two halves, one before the served passes
/// and one after, so that a few slow seconds on the host cannot cover all
/// of them; the median pass is reported.
pub struct Engine {
    /// `canonical_run_digest` per session, from the first pass.
    pub digests: Vec<String>,
    /// `(completed, revenue bits)` per session, from the first pass.
    fingerprints: Vec<(usize, u64)>,
    /// Wall of each pass (all sessions, serially), seconds.
    walls: Vec<f64>,
    events: usize,
}

impl Engine {
    pub fn new(sessions: &[SessionInput]) -> Engine {
        Engine {
            digests: Vec::new(),
            fingerprints: Vec::new(),
            walls: Vec::new(),
            events: sessions.iter().map(|s| s.instance.stream.len()).sum(),
        }
    }

    /// Run passes until all passes so far have measured `until_s` seconds
    /// (always at least one pass overall).
    pub fn measure(
        &mut self,
        sessions: &[SessionInput],
        matcher: &str,
        until_s: f64,
        gate: &mut Gate,
    ) {
        let registry = MatcherRegistry::builtin();
        while self.walls.is_empty() || self.walls.iter().sum::<f64>() < until_s {
            let first = self.walls.is_empty();
            let mut wall = 0.0;
            let mut problems = Vec::new();
            let mut refused = 0;
            for (i, s) in sessions.iter().enumerate() {
                let mut m = registry
                    .build(matcher)
                    .expect("workload matcher is builtin");
                let t = Instant::now();
                let run = try_run_online(&s.instance, m.as_mut(), s.seed);
                wall += t.elapsed().as_secs_f64();
                refused += run.failures.len();
                let fingerprint = (run.completed(), run.total_revenue().to_bits());
                if first {
                    let findings = validate_run(&s.instance, &run);
                    if !findings.is_empty() {
                        problems.push(format!("session {i}: audit found {}", findings.len()));
                    }
                    self.digests.push(canonical_run_digest(&run));
                    self.fingerprints.push(fingerprint);
                } else if self.fingerprints[i] != fingerprint {
                    problems.push(format!("session {i}: repeat pass decided differently"));
                }
            }
            gate.record("engine", self.events, refused, problems);
            self.walls.push(wall);
        }
    }

    /// Wall of the median pass, seconds.
    pub fn wall_s(&self) -> f64 {
        median(&self.walls)
    }

    /// Events ÷ wall of the median pass.
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_s()
    }
}

/// The program's own telemetry for the same stream: one more engine run
/// per session with a `com-obs` collector installed (traced run only;
/// never timed).
fn engine_telemetry(sessions: &[SessionInput], matcher: &str) -> EngineTelemetry {
    let registry = MatcherRegistry::builtin();
    let mut own = EngineTelemetry::default();
    com_obs::install();
    for s in sessions {
        let mut m = registry
            .build(matcher)
            .expect("workload matcher is builtin");
        let run = try_run_online(&s.instance, m.as_mut(), s.seed);
        if let Some(t) = &run.telemetry {
            own.absorb(t);
        }
    }
    com_obs::uninstall();
    own
}

/// What one served pass (one fresh daemon, one full stream) measured.
pub struct Served {
    /// The stream's blocks in order; even ones closed loop, odd ones open
    /// loop.
    blocks: Vec<BlockSpan>,
    /// Actual send instant of every open-loop event, ns since the epoch.
    sent_ns: Vec<u64>,
    teardown_s: f64,
    /// Daemon `VmHWM` after the last event response, before `shutdown`.
    rss_streamed_mib: f64,
    /// Daemon `VmHWM` after the last `bye` was read.
    rss_teardown_mib: f64,
    bye_bytes: usize,
    deep: Vec<DeepStatsMsg>,
    classified: Classified,
}

/// Send every session's `shutdown` and read every `bye`: the clock stops
/// when the last `bye` is fully read. Returns the seconds that took and
/// each connection's first `bye` index; decoding them is client work and
/// happens later ([`decode_byes`]).
fn teardown(conns: &mut [Conn], plan: &WirePlan, epoch: Instant) -> io::Result<(f64, Vec<usize>)> {
    let t = Instant::now();
    let mut first_bye = Vec::new();
    for (c, cp) in conns.iter_mut().zip(&plan.conns) {
        first_bye.push(c.rx.marks.len());
        for bye in &cp.shutdowns {
            c.send(bye)?;
        }
    }
    let totals: Vec<usize> = first_bye
        .iter()
        .zip(&plan.conns)
        .map(|(first, cp)| first + cp.shutdowns.len())
        .collect();
    wire::read_all_until(conns, &totals, epoch)?;
    Ok((t.elapsed().as_secs_f64(), first_bye))
}

/// Every message from each connection's `first_bye[c]` on, as a `bye`.
fn decode_byes(conns: &[Conn], first_bye: &[usize]) -> io::Result<Vec<ByeSummary>> {
    let mut byes = Vec::new();
    for (c, &first) in conns.iter().zip(first_bye) {
        for i in first..c.rx.marks.len() {
            byes.push(wire::bye_summary(c.rx.raw(i)).map_err(io::Error::other)?);
        }
    }
    Ok(byes)
}

/// Ask every session for `stats_deep` and decode the answers. Outside
/// every clock.
fn fetch_deep(
    conns: &mut [Conn],
    plan: &WirePlan,
    sessions: &[SessionInput],
    format: WireFormat,
    epoch: Instant,
) -> io::Result<Vec<DeepStatsMsg>> {
    let mut deep = Vec::new();
    for (c, cp) in conns.iter_mut().zip(&plan.conns) {
        for &s in &cp.sessions {
            let mut ask = Vec::new();
            inputs::put_msg(format, sessions[s].sid, ClientMsg::stats_deep, &mut ask);
            c.send(&ask)?;
            let want = c.rx.marks.len() + 1;
            c.read_until(want, epoch)?;
            let reply = wire::decode_raw(c.rx.raw(want - 1)).map_err(io::Error::other)?;
            match reply.msg {
                ServerMsg::stats_deep(d) => deep.push(*d),
                other => {
                    return Err(io::Error::other(format!(
                        "stats_deep answered with {other:?}"
                    )))
                }
            }
        }
    }
    Ok(deep)
}

/// One served pass against a fresh daemon: the stream in [`BLOCKS`]
/// consecutive blocks, alternately closed loop and open loop, so both
/// load modes see the whole simulated day; then `stats_deep` (traced
/// run), then *teardown*. An `Err` becomes a failed pass at the caller.
fn served_pass(
    cfg: &RunConfig,
    sessions: &[SessionInput],
    plan: &WirePlan,
    due_ns: &[u64],
    telemetry: bool,
    want_deep: bool,
) -> io::Result<(Served, Vec<ByeSummary>, Vec<String>)> {
    let shards = match cfg.workload.topology {
        Topology::Mux { shards, .. } => shards,
        _ => 1,
    };
    let mut daemon = Daemon::spawn(&cfg.env, shards, telemetry)?;
    let epoch = Instant::now();
    let mut conns = wire::connect_all(&daemon.addr, plan, epoch)?;
    let mut progress = Progress::new(&conns);
    let mut sent_ns = vec![0u64; plan.events()];
    let mut blocks = Vec::with_capacity(BLOCKS);
    let mut problems = Vec::new();
    let bounds = block_bounds(plan.events());
    for b in 0..BLOCKS {
        let upto = bounds[b + 1];
        let span = if is_open_loop(b) {
            wire::open_loop_block(
                &mut conns,
                plan,
                &mut progress,
                upto,
                due_ns,
                &mut sent_ns,
                epoch,
            )?
        } else {
            Some(wire::saturate_block(
                &mut conns,
                plan,
                &mut progress,
                upto,
                SATURATE_WINDOW,
                epoch,
            )?)
        };
        match span {
            Some(span) => blocks.push(span),
            None => {
                problems.push(format!(
                    "block {b}: backlog not drained {} s after the last scheduled send",
                    wire::DRAIN_LIMIT.as_secs()
                ));
                break;
            }
        }
    }
    let rss_streamed_mib = daemon.peak_rss_mib()?;
    // Event responses end here; whatever follows is stats and byes.
    let events_end: Vec<usize> = conns.iter().map(|c| c.rx.marks.len()).collect();
    let (deep, teardown_s, first_bye) = if problems.is_empty() {
        let deep = if want_deep {
            fetch_deep(&mut conns, plan, sessions, cfg.workload.format, epoch)?
        } else {
            Vec::new()
        };
        let (teardown_s, first_bye) = teardown(&mut conns, plan, epoch)?;
        (deep, teardown_s, first_bye)
    } else {
        (Vec::new(), 0.0, events_end.clone())
    };
    let rss_teardown_mib = daemon.peak_rss_mib()?;

    // The clocks have stopped: decode and classify the raw responses.
    let byes = decode_byes(&conns, &first_bye)?;
    let sids: Vec<Option<u64>> = sessions.iter().map(|s| s.sid).collect();
    let mut classified = wire::classify_range(&conns, progress.base(), &events_end, plan, &sids);
    drop(conns);
    if !daemon.wait_exit()? {
        classified.unexpected += 1;
        classified
            .notes
            .push("daemon did not exit cleanly after its last connection closed".into());
    }
    Ok((
        Served {
            blocks,
            sent_ns,
            teardown_s,
            rss_streamed_mib,
            rss_teardown_mib,
            bye_bytes: byes.iter().map(|b| b.bytes).sum(),
            deep,
            classified,
        },
        byes,
        problems,
    ))
}

/// Pass-level verdict for a served pass: digests equal to the engine's,
/// silent audits, nothing dropped, nothing refused.
fn served_problems(
    served: &Served,
    byes: &[ByeSummary],
    sessions: &[SessionInput],
    reference: &Engine,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, s) in sessions.iter().enumerate() {
        match byes.iter().find(|b| b.sid == s.sid) {
            None => problems.push(format!("session {i}: no bye")),
            Some(b) => {
                if b.digest != reference.digests[i] {
                    problems.push(format!(
                        "session {i}: bye.digest {} differs from the engine's {}",
                        b.digest, reference.digests[i]
                    ));
                }
                if b.audit_findings != 0 {
                    problems.push(format!(
                        "session {i}: audit_findings = {}",
                        b.audit_findings
                    ));
                }
            }
        }
    }
    if served.classified.busy > 0 {
        problems.push(format!(
            "{} events dropped with busy",
            served.classified.busy
        ));
    }
    for d in &served.deep {
        if d.busy_dropped > 0 || d.stats.refused > 0 {
            problems.push(format!(
                "stats_deep reports busy_dropped={} refused={}",
                d.busy_dropped, d.stats.refused
            ));
        }
    }
    problems
}

/// Run one served pass and put it through the gate: once as *saturate*
/// (the events of its closed-loop blocks) and once as *openloop*. An I/O
/// failure fails the whole pass by name instead of aborting the run.
fn gated_pass(
    cfg: &RunConfig,
    sessions: &[SessionInput],
    plan: &WirePlan,
    due_ns: &[u64],
    reference: &Engine,
    telemetry: bool,
    gate: &mut Gate,
) -> Option<Served> {
    let bounds = block_bounds(plan.events());
    let open_events: usize = (0..BLOCKS)
        .filter(|&b| is_open_loop(b))
        .map(|b| bounds[b + 1] - bounds[b])
        .sum();
    let closed_events = plan.events() - open_events;
    let want_deep = telemetry && cfg.trace;
    match served_pass(cfg, sessions, plan, due_ns, telemetry, want_deep) {
        Ok((served, byes, mut problems)) => {
            if problems.is_empty() {
                problems = served_problems(&served, &byes, sessions, reference);
            }
            let missing_in = |open: bool| {
                served
                    .blocks
                    .iter()
                    .enumerate()
                    .filter(|(b, _)| is_open_loop(*b) == open)
                    .flat_map(|(_, s)| &served.classified.arrival_ns[s.from..s.upto])
                    .filter(|&&t| t == u64::MAX)
                    .count()
            };
            let c = &served.classified;
            let other = c.failed() - c.missing;
            gate.record(
                "saturate",
                closed_events,
                missing_in(false),
                problems.clone(),
            );
            gate.record("openloop", open_events, missing_in(true) + other, problems);
            for note in &c.notes {
                gate.failures.push(format!("served: {note}"));
            }
            Some(served)
        }
        Err(e) => {
            let problem = vec![format!("pass aborted: {e}")];
            gate.record("saturate", closed_events, 0, problem.clone());
            gate.record("openloop", open_events, 0, problem);
            None
        }
    }
}

/// Samples pooled over every served pass of a run.
#[derive(Default)]
pub struct ServedStats {
    /// Closed-loop throughput of each [`STAT_WINDOW`]-response window, by
    /// block of the stream (index = block number; the open-loop blocks'
    /// lists stay empty), pooled over passes.
    block_rates: Vec<Vec<f64>>,
    /// Open-loop request latency from the scheduled send, ns.
    lat: Vec<u64>,
    /// Nearest-rank p95 and p99 of each window of about [`STAT_WINDOW`]
    /// consecutive open-loop requests, ns.
    window_p95: Vec<f64>,
    window_p99: Vec<f64>,
    /// From the actual send, ns.
    svc: Vec<u64>,
    gen_lag: Vec<u64>,
    open_events: usize,
    open_send_ns: u64,
    max_outstanding: usize,
    drain_ns: u64,
    missed_limit: usize,
    requests: usize,
    teardown_s: Vec<f64>,
    rss_streamed_mib: Vec<f64>,
}

impl ServedStats {
    fn absorb(&mut self, served: &Served, plan: &WirePlan, due_ns: &[u64]) {
        let arrival = &served.classified.arrival_ns;
        for (b, span) in served.blocks.iter().enumerate() {
            let range = span.from..span.upto;
            if !is_open_loop(b) {
                let mut t: Vec<u64> = arrival[range]
                    .iter()
                    .copied()
                    .filter(|&t| t != u64::MAX)
                    .collect();
                t.sort_unstable();
                if self.block_rates.len() <= b {
                    self.block_rates.resize(b + 1, Vec::new());
                }
                let rates = &mut self.block_rates[b];
                let mut prev = span.started_ns;
                for w in t.chunks_exact(STAT_WINDOW) {
                    let last = w[STAT_WINDOW - 1];
                    rates.push(STAT_WINDOW as f64 * 1e9 / (last - prev).max(1) as f64);
                    prev = last;
                }
                if t.len() < STAT_WINDOW && !t.is_empty() {
                    // A block shorter than one window (smoke runs) is its
                    // own window.
                    let wall = (t[t.len() - 1] - span.started_ns).max(1);
                    rates.push(t.len() as f64 * 1e9 / wall as f64);
                }
                continue;
            }
            let mut lat = Vec::new();
            let mut edges: Vec<(u64, i32)> = Vec::with_capacity(2 * range.len());
            let mut last_arrival = span.ended_ns;
            for k in range {
                let due = span.started_ns + due_ns[k];
                self.gen_lag.push(served.sent_ns[k].saturating_sub(due));
                edges.push((served.sent_ns[k], 1));
                if arrival[k] != u64::MAX {
                    edges.push((arrival[k], -1));
                    last_arrival = last_arrival.max(arrival[k]);
                }
                if !plan.order[k].is_request {
                    continue;
                }
                self.requests += 1;
                if arrival[k] == u64::MAX {
                    self.missed_limit += 1; // no response misses any limit
                    continue;
                }
                let l = arrival[k].saturating_sub(due);
                self.missed_limit += usize::from(l as f64 / 1e3 > LATENCY_LIMIT_US);
                lat.push(l);
                self.svc.push(arrival[k].saturating_sub(served.sent_ns[k]));
            }
            self.open_events += span.upto - span.from;
            self.open_send_ns += served.sent_ns[span.upto - 1].saturating_sub(span.started_ns);
            self.drain_ns = self.drain_ns.max(last_arrival - span.ended_ns);
            // Outstanding events over time: +1 at a send, -1 at an arrival.
            edges.sort_unstable();
            let (mut cur, mut peak) = (0i64, 0i64);
            for (_, d) in edges {
                cur += i64::from(d);
                peak = peak.max(cur);
            }
            self.max_outstanding = self.max_outstanding.max(peak as usize);
            let windows = ((lat.len() + STAT_WINDOW / 2) / STAT_WINDOW).max(1);
            for w in lat.chunks(lat.len().div_ceil(windows).max(1)) {
                let w = Sorted::new(w.to_vec());
                self.window_p95.push(w.p(95.0) as f64);
                self.window_p99.push(w.p(99.0) as f64);
            }
            self.lat.extend(lat);
        }
        self.teardown_s.push(served.teardown_s);
        self.rss_streamed_mib.push(served.rss_streamed_mib);
    }

    /// Closed-loop throughput, events/s: every block runs at its median
    /// window's rate, and the blocks add up as time (events ÷ seconds).
    ///
    /// The median within a block shrugs off the host's slow stretches the
    /// way a mean cannot; adding blocks up as time follows the day's cost
    /// profile (an event costs ≈8× more in the evening) the way one median
    /// over all windows cannot — that one sits on the steepest part of the
    /// profile and jumped by a fifth from run to run on `city_demcom`.
    fn serve_rate(&self) -> f64 {
        let (mut windows, mut secs) = (0.0, 0.0);
        for rates in self.block_rates.iter().filter(|r| !r.is_empty()) {
            windows += rates.len() as f64;
            secs += rates.len() as f64 / median(rates);
        }
        if secs > 0.0 {
            windows / secs
        } else {
            0.0
        }
    }

    fn windows(&self) -> usize {
        self.block_rates.iter().map(Vec::len).sum()
    }

    /// Closed-loop throughput of the slowest tenth of windows (their
    /// fastest member), events/s: what the frozen open-loop rates are a
    /// share of, since the open loop must also get through the densest
    /// part of the day.
    fn slowest_tenth_rate(&self) -> f64 {
        let mut rates = self.block_rates.concat();
        rates.sort_by(f64::total_cmp);
        rates.get(rates.len() / 10).copied().unwrap_or(0.0)
    }

    /// Nearest-rank median over every open-loop request, µs.
    fn lat_p50_us(&self) -> f64 {
        Sorted::new(self.lat.clone()).p(50.0) as f64 / 1e3
    }
}

/// How long one *setup* repetition took, seconds: all of it, and the two
/// `com-datagen`-side parts on their own.
#[derive(Clone, Copy)]
pub struct SetupTiming {
    pub total_s: f64,
    pub generate_s: f64,
    pub preencode_s: f64,
}

/// Median over repetitions of one column of [`SetupTiming`].
pub fn setup_median(timings: &[SetupTiming], column: fn(&SetupTiming) -> f64) -> f64 {
    median(&timings.iter().map(column).collect::<Vec<_>>())
}

/// Generate + pre-encode + spawn + connect + `hello`→`welcome`, timed as
/// one unit, `reps` times. Returns the last repetition's inputs and every
/// repetition's timing.
fn setup_phase(
    cfg: &RunConfig,
    reps: usize,
) -> io::Result<(Vec<SessionInput>, WirePlan, Vec<SetupTiming>)> {
    let w = &cfg.workload;
    let (connections, shards) = match w.topology {
        Topology::Mux {
            connections,
            shards,
            ..
        } => (connections, shards),
        _ => (1, 1),
    };
    let mut timings = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let sessions = inputs::sessions(w, cfg.seed);
        let generate_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let plan = inputs::wire_plan(&sessions, w.matcher, w.format, connections);
        let preencode_s = t1.elapsed().as_secs_f64();
        let daemon = Daemon::spawn(&cfg.env, shards, true)?;
        let conns = wire::connect_all(&daemon.addr, &plan, t0)?;
        timings.push(SetupTiming {
            total_s: t0.elapsed().as_secs_f64(),
            generate_s,
            preencode_s,
        });
        drop(conns);
        daemon.wait_exit()?;
        kept = Some((sessions, plan));
    }
    let (sessions, plan) = kept.expect("at least one setup repetition");
    Ok((sessions, plan, timings))
}

/// Run one workload and return everything it measured.
pub fn run_workload(cfg: &RunConfig) -> io::Result<WorkloadResult> {
    let started = Instant::now();
    let mut m = Collector::default();
    let mut gate = Gate::default();
    if cfg.workload.topology == Topology::FedPair {
        fed::run(cfg, &mut m, &mut gate)?;
    } else {
        run_single_daemon(cfg, &mut m, &mut gate)?;
    }
    let mut missing = Vec::new();
    let end_to_end = m.finish(
        END_TO_END.iter().map(|e| (e.name, e.unit)),
        |_| true,
        &mut missing,
    );
    let per_layer = if cfg.trace {
        m.finish(
            PER_LAYER.iter().copied(),
            |name| cfg.workload.measures(name),
            &mut missing,
        )
    } else {
        Default::default()
    };
    gate.failures.extend(missing);
    Ok(WorkloadResult {
        workload: cfg.workload.name.to_string(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace: cfg.trace,
        smoke: cfg.smoke,
        correct: gate.correct(),
        end_to_end,
        per_layer,
        info: m.info.clone(),
        samples: m.samples.clone(),
        phases: gate.phases,
        failures: gate.failures,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

fn run_single_daemon(cfg: &RunConfig, m: &mut Collector, gate: &mut Gate) -> io::Result<()> {
    let w = &cfg.workload;
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let (sessions, plan, setups) = setup_phase(cfg, reps)?;
    m.set("setup_s", setup_median(&setups, |t| t.total_s));
    m.sample_count("setup_reps", setups.len());

    let mut reference = Engine::new(&sessions);
    reference.measure(&sessions, w.matcher, cfg.engine_floor() / 2.0, gate);

    let due_ns = block_schedule(plan.events(), w.rate, cfg.seed);
    let mut stats = ServedStats::default();
    let mut first = None;
    for _ in 0..cfg.served_passes(plan.events()) {
        let Some(served) = gated_pass(cfg, &sessions, &plan, &due_ns, &reference, true, gate)
        else {
            break;
        };
        stats.absorb(&served, &plan, &due_ns);
        first.get_or_insert(served);
    }
    reference.measure(&sessions, w.matcher, cfg.engine_floor(), gate);
    m.set("engine_events_per_s", reference.events_per_s());
    m.sample_count("engine_passes", reference.walls.len());
    served_metrics(m, &stats);
    if !cfg.trace {
        return Ok(());
    }

    m.set(
        "datagen.generate_s",
        setup_median(&setups, |t| t.generate_s),
    );
    m.set(
        "datagen.preencode_s",
        setup_median(&setups, |t| t.preencode_s),
    );
    open_loop_metrics(m, &stats, w.rate);
    let on = first.map(|s| (s, stats.serve_rate()));
    traced_rungs(cfg, &sessions, &sessions, &reference, on, m, gate)?;
    Ok(())
}

/// The served end-to-end metrics from the pooled samples.
fn served_metrics(m: &mut Collector, stats: &ServedStats) {
    if stats.windows() > 0 {
        m.set("serve_events_per_s", stats.serve_rate());
        m.note(
            "serve_slowest_tenth_per_s",
            stats.slowest_tenth_rate(),
            "1/s",
        );
    }
    m.sample_count("saturate_windows", stats.windows());
    if !stats.lat.is_empty() {
        m.note("lat_p50_us", stats.lat_p50_us(), "us");
        m.note("lat_p95_us", median(&stats.window_p95) / 1e3, "us");
        m.note("lat_p99_us", median(&stats.window_p99) / 1e3, "us");
    }
    m.sample_count("lat_requests", stats.lat.len());
    m.sample_count("lat_windows", stats.window_p99.len());
    if !stats.teardown_s.is_empty() {
        m.note("teardown_s", median(&stats.teardown_s), "s");
        m.set("peak_rss_mb", median(&stats.rss_streamed_mib));
    }
    m.sample_count("served_passes", stats.teardown_s.len());
}

/// Open-loop validity: was the offered load really offered, and what did
/// the raw (un-windowed) tail look like.
fn open_loop_metrics(m: &mut Collector, stats: &ServedStats, rate: f64) {
    if stats.open_events == 0 {
        return;
    }
    let lat = Sorted::new(stats.lat.clone());
    let svc = Sorted::new(stats.svc.clone());
    let lag = Sorted::new(stats.gen_lag.clone());
    m.set("openloop.offered_rate", rate);
    m.set(
        "openloop.achieved_rate",
        stats.open_events as f64 * 1e9 / stats.open_send_ns.max(1) as f64,
    );
    m.set("openloop.gen_lag_p99_us", lag.p(99.0) as f64 / 1e3);
    m.set("openloop.svc_p50_us", svc.p(50.0) as f64 / 1e3);
    m.set("openloop.svc_p99_us", svc.p(99.0) as f64 / 1e3);
    m.set("openloop.lat_p50_us", stats.lat_p50_us());
    m.set("openloop.lat_p95_us", median(&stats.window_p95) / 1e3);
    m.set("openloop.lat_p99_us", median(&stats.window_p99) / 1e3);
    m.set("openloop.lat_p999_us", lat.p(99.9) as f64 / 1e3);
    m.set("openloop.max_outstanding", stats.max_outstanding as f64);
    m.set("openloop.drain_ms", stats.drain_ns as f64 / 1e6);
    m.set(
        "openloop.slo_miss_frac",
        stats.missed_limit as f64 / stats.requests.max(1) as f64,
    );
}

/// The traced run's ladder. Passes A–C step `sessions` through
/// `com-core`, `com-serve::session` and both codecs in process; pass D
/// serves `served_sessions` through a daemon with its collector on
/// (`on` with its closed-loop rate, or a fresh pass when the caller has
/// none) and once more with `--no-telemetry`. Returns the telemetry-on
/// closed-loop rate, events/s.
pub fn traced_rungs(
    cfg: &RunConfig,
    sessions: &[SessionInput],
    served_sessions: &[SessionInput],
    reference: &Engine,
    on: Option<(Served, f64)>,
    m: &mut Collector,
    gate: &mut Gate,
) -> io::Result<Option<f64>> {
    let w = &cfg.workload;
    let events: usize = sessions.iter().map(|s| s.instance.stream.len()).sum();
    let requests: usize = sessions.iter().map(|s| s.instance.request_count()).sum();
    let own = engine_telemetry(sessions, w.matcher);
    let mut spans = Spans::new();
    let a = ladder::pass_a(sessions, w.matcher, &mut spans);
    let mut problems = Vec::new();
    if a.digests != reference.digests {
        problems.push("pass A digest differs from the engine's".to_string());
    }
    if a.audit_findings != 0 {
        problems.push(format!("pass A audit found {}", a.audit_findings));
    }
    gate.record("ladder", events, 0, problems);
    let responses = ladder::pass_b(sessions, w.matcher, &mut spans);
    let codec: Vec<_> = [WireFormat::Binary, WireFormat::Ndjson]
        .into_iter()
        .map(|f| (f, ladder::pass_c(sessions, &responses, f, &mut spans)))
        .collect();
    drop(responses);
    ladder::summarise(
        m,
        &spans,
        &a,
        &own,
        &codec,
        events,
        requests,
        reference.wall_s(),
    );
    spans.write_slowest(&cfg.out_dir.join(format!("{}.slow.jsonl", w.name)), 20)?;
    let in_process_ns = ladder::in_process_ns_per_event(&spans, w.format);
    drop(spans);

    // Pass D: the served rung. `fed_pair` has no frozen rate of its own;
    // its single-daemon pass runs at [`FED_SINGLE_RATE`].
    let connections = match w.topology {
        Topology::Mux { connections, .. } => connections,
        _ => 1,
    };
    let plan = inputs::wire_plan(served_sessions, w.matcher, w.format, connections);
    let rate = if w.rate > 0.0 {
        w.rate
    } else {
        FED_SINGLE_RATE
    };
    let due_ns = block_schedule(plan.events(), rate, cfg.seed);
    let serve = |telemetry: bool, gate: &mut Gate| {
        let served = gated_pass(
            cfg,
            served_sessions,
            &plan,
            &due_ns,
            reference,
            telemetry,
            gate,
        )?;
        let mut stats = ServedStats::default();
        stats.absorb(&served, &plan, &due_ns);
        Some((served, stats.serve_rate()))
    };
    let Some((on, on_rate)) = on.or_else(|| serve(true, gate)) else {
        return Ok(None);
    };
    m.set("wire.residual_ns_per_event", 1e9 / on_rate - in_process_ns);
    wire_metrics(m, &on);
    if let Some((_, off_rate)) = serve(false, gate) {
        m.set(
            "obs.serve_overhead_pct",
            100.0 * (off_rate - on_rate) / on_rate,
        );
    }
    Ok(Some(on_rate))
}

/// The daemon's own view of a served pass (`stats_deep`), plus its memory
/// and `bye` size at teardown.
fn wire_metrics(m: &mut Collector, served: &Served) {
    m.set("serve.teardown_s", served.teardown_s);
    m.set("serve.teardown_rss_mb", served.rss_teardown_mib);
    m.set("serve.bye_bytes", served.bye_bytes as f64);
    // One phase table per shard thread: keep one reply per shard.
    let mut seen = Vec::new();
    let (mut flushes, mut flush_ns) = (0u64, 0u64);
    for d in &served.deep {
        if seen.contains(&d.shard) {
            continue;
        }
        seen.push(d.shard);
        if let Some(p) = d.phase(com_obs::PHASE_SERVE_FLUSH) {
            flushes += p.count;
            flush_ns += p.total_ns;
        }
    }
    m.set("wire.flush_count", flushes as f64);
    m.set(
        "wire.flush_mean_us",
        if flushes > 0 {
            flush_ns as f64 / flushes as f64 / 1e3
        } else {
            0.0
        },
    );
    let Some(last) = served.deep.last() else {
        return;
    };
    let high_water = served.deep.iter().map(|d| d.queue_high_water).max();
    m.set("wire.queue_high_water", high_water.unwrap_or(0) as f64);
    m.set("wire.busy_dropped", last.busy_dropped as f64);
    m.set(
        "wire.refused",
        served.deep.iter().map(|d| d.stats.refused).sum::<u64>() as f64,
    );
    let routed: Vec<f64> = last.shards.iter().map(|s| s.events_routed as f64).collect();
    let mean = routed.iter().sum::<f64>() / routed.len().max(1) as f64;
    let max = routed.iter().copied().fold(0.0, f64::max);
    m.set(
        "shard.events_max_over_mean",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
    let shard_high_water = last.shards.iter().map(|s| s.queue_high_water).max();
    m.set(
        "shard.queue_high_water_max",
        shard_high_water.unwrap_or(0) as f64,
    );
}
