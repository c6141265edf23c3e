//! Server-side session state: one connected client driving one
//! [`com_core::MatchSession`].
//!
//! Wraps the core session with what serving adds on top: the accumulated
//! event log (so the finished run can be audited against a reconstructed
//! [`Instance`]), per-worker histories fed over the wire, response
//! classification (assign / reject / timeout), and — when a
//! [`TraceRecorder`] is attached — the flight recorder: every accepted
//! event and every decision streamed to a session trace (see
//! [`crate::trace`]). `ingest` is timed once, by the com-obs
//! [`com_obs::PHASE_SERVE_INGEST`] span `stats_deep` reads.

use std::collections::HashMap;
use std::sync::Arc;

use com_core::{
    canonical_run_digest, validate_run, MatchSession, MatcherSpec, RunResult, SessionConfig,
    SessionOutput,
};
use com_pricing::WorkerHistory;
use com_sim::{
    ArrivalEvent, Assignment, ConstraintViolation, EventStream, Instance, PlatformId, RequestSpec,
    Timestamp,
};

use crate::fed::{LendBook, WireOutsource, DEFAULT_OFFER_DEADLINE_MS};
use crate::framing::WireFormat;
use crate::protocol::{ByeMsg, DeepStatsMsg, FedByeMsg, Hello, ServerMsg, StatsMsg, WorkerMsg};
use crate::trace::{
    decision_from_response, TraceEvent, TraceFinish, TraceLine, TraceMeta, TraceRecorder,
    TraceTick, TRACE_VERSION,
};

/// The federated-mode state of a session: the federation session id both
/// daemons share (the `hello.fed` one; stamped on outgoing offers, the
/// route inbound ones take) and the replica's lend book, which names the
/// owned platform (outer decisions on *owned* requests negotiate over the
/// wire; everything else applies locally — the session is a full
/// deterministic replica).
struct FedState {
    fed_sid: u64,
    book: Arc<LendBook>,
}

/// One live matching session and everything needed to audit it at the
/// end.
pub struct ServeSession {
    core: MatchSession<'static>,
    world_config: com_sim::WorldConfig,
    platform_names: Vec<String>,
    events: Vec<ArrivalEvent>,
    assigned: u64,
    rejected: u64,
    refused: u64,
    recorder: Option<TraceRecorder>,
    fed: Option<FedState>,
}

/// Everything a finished session reports: the run and its digest, the
/// audit verdict, and the instance it was audited against.
pub struct FinishedSession {
    pub run: RunResult,
    /// `com_core::canonical_run_digest` of `run`.
    pub digest: String,
    pub findings: Vec<String>,
    pub(crate) instance: Instance,
    /// Where the session trace landed, when one was recorded and survived.
    pub(crate) trace_path: Option<std::path::PathBuf>,
    /// The `bye`'s federation half, for a federated session: the owned
    /// platform's projection digest, ledger and degraded offers.
    pub(crate) fed: Option<FedByeMsg>,
}

/// The most grid cells a session's world may allocate across its waiting
/// lists (`platforms × cols × rows`). Every generated scenario stays far
/// below it: ≤ 30 km extents at ≥ 0.5 km radii give ≤ 60 × 60 cells per
/// list. It also keeps the roster inside `PlatformId`'s `u16` range.
const MAX_GRID_CELLS: f64 = 65_536.0;

/// Why `hello` cannot open a session: an empty roster, a non-finite
/// extent corner or radius, a grid over [`MAX_GRID_CELLS`], or a
/// `fed.platform` outside the roster.
fn check_hello(hello: &Hello) -> Result<(), String> {
    let world = &hello.world;
    if hello.platforms.is_empty() {
        return Err("hello names no platforms".into());
    }
    if let Some(f) = hello
        .fed
        .as_ref()
        .filter(|f| usize::from(f.platform) >= hello.platforms.len())
    {
        return Err(format!(
            "fed.platform {} out of range: hello names {} platform(s)",
            f.platform,
            hello.platforms.len()
        ));
    }
    if !(world.extent.min.is_finite()
        && world.extent.max.is_finite()
        && world.expected_radius.is_finite())
    {
        return Err(format!(
            "world extent {:?} and expected_radius {} must be finite",
            world.extent, world.expected_radius
        ));
    }
    if let Some(v) = hello.max_value.filter(|v| !v.is_finite()) {
        // Every threshold built from it would be ∞, and the trace could
        // not replay it: JSON renders it `null`.
        return Err(format!("max_value {v} must be finite"));
    }
    let (cols, rows) = com_sim::grid_shape(world.extent, world.expected_radius);
    let cells = hello.platforms.len() as f64 * cols * rows;
    if cells > MAX_GRID_CELLS {
        return Err(format!(
            "{} platform(s) × {cols} × {rows} grid cells = {cells} exceeds {MAX_GRID_CELLS}",
            hello.platforms.len()
        ));
    }
    Ok(())
}

impl ServeSession {
    /// Open a session from a `hello`, or refuse it with an error code and
    /// detail. `bad-hello`, before anything is built: an empty roster, a
    /// non-finite extent corner, `expected_radius` or `max_value`,
    /// waiting-list grids over 65,536 cells in all (`platforms × cols ×
    /// rows`, counted with [`com_sim::grid_shape`]), or a `fed.platform`
    /// outside the roster.
    /// `unknown-matcher`: the spec parser's own message (listing valid
    /// specs).
    pub fn open(hello: &Hello) -> Result<Self, (&'static str, String)> {
        check_hello(hello).map_err(|detail| ("bad-hello", detail))?;
        let spec =
            MatcherSpec::parse(&hello.matcher).map_err(|e| ("unknown-matcher", e.to_string()))?;
        let config = SessionConfig {
            world: hello.world.clone(),
            platform_names: hello.platforms.clone(),
            max_value_hint: hello.max_value,
        };
        let mut fed = None;
        let core = match &hello.fed {
            None => MatchSession::new(config, spec.build(), hello.seed),
            Some(f) => {
                let platform = PlatformId(f.platform);
                let book = Arc::new(LendBook::new(platform));
                // Offers go out in the session's negotiated framing; the
                // lender auto-detects per message and answers in kind.
                let format = hello
                    .frame
                    .as_deref()
                    .and_then(|token| token.parse::<WireFormat>().ok())
                    .unwrap_or_default();
                let channel = WireOutsource::new(
                    f.peer.clone(),
                    format,
                    f.fed_sid,
                    f.deadline_ms.unwrap_or(DEFAULT_OFFER_DEADLINE_MS),
                    Arc::clone(&book),
                );
                fed = Some(FedState {
                    fed_sid: f.fed_sid,
                    book,
                });
                MatchSession::new(config, spec.build(), hello.seed)
                    .with_federation(platform, Box::new(channel))
            }
        };
        Ok(ServeSession {
            core,
            world_config: hello.world.clone(),
            platform_names: hello.platforms.clone(),
            events: Vec::new(),
            assigned: 0,
            rejected: 0,
            refused: 0,
            recorder: None,
            fed,
        })
    }

    /// The daemon-wide federation route this session answers offers on —
    /// its shared federation session id and lend book — when federated.
    pub(crate) fn fed_route(&self) -> Option<(u64, &Arc<LendBook>)> {
        self.fed.as_ref().map(|f| (f.fed_sid, &f.book))
    }

    /// Count one accepted event in the lend book, when federated.
    fn record_lend(&self, decided: Option<&Assignment>) {
        if let Some(f) = &self.fed {
            f.book.record(decided);
        }
    }

    /// Attach a flight recorder and write the trace's meta line. `source`
    /// names the recording program (`"matchd"` / `"matchreplay"`); `sid`
    /// and `shard` record where a multiplexed session lived (both `None`
    /// for a bare session recorded outside the shard pool).
    pub(crate) fn attach_recorder(
        &mut self,
        mut recorder: TraceRecorder,
        hello: &Hello,
        source: &str,
        sid: Option<u64>,
        shard: Option<u64>,
    ) {
        recorder.write(&TraceLine::Meta(TraceMeta {
            v: TRACE_VERSION,
            source: source.to_string(),
            matcher: hello.matcher.clone(),
            algorithm: self.algorithm(),
            seed: hello.seed,
            max_value: hello.max_value,
            platforms: hello.platforms.clone(),
            world: hello.world.clone(),
            frame: hello.frame.clone(),
            sid,
            shard,
        }));
        self.recorder = Some(recorder);
    }

    /// The matcher's display name (for `welcome`).
    pub(crate) fn algorithm(&self) -> String {
        self.core.algorithm().to_string()
    }

    /// Record one accepted event line. Must run *after* a successful
    /// ingest so refused events never reach the trace.
    fn record_event(&mut self, event: &ArrivalEvent, history: Option<&WorkerHistory>) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        let line = TraceLine::Event(TraceEvent {
            i: self.events.len() as u64,
            at_ns: rec.at_ns(),
            event: *event,
            history: history.cloned(),
        });
        rec.write(&line);
    }

    /// Ingest a worker arrival. No output on success. The line's history
    /// is staged for this one ingest only: registration moves it into the
    /// world, and a line that is refused — or names a worker already
    /// registered — leaves nothing behind for a later line to pick up.
    pub fn worker(&mut self, msg: &WorkerMsg) -> Result<(), ConstraintViolation> {
        let event = ArrivalEvent::Worker(msg.spec);
        if let Some(history) = &msg.history {
            self.core.add_history(msg.spec.id, history.clone());
        }
        let ingested = {
            let _span = com_obs::span(com_obs::PHASE_SERVE_INGEST);
            self.core.ingest(&event)
        };
        self.core.discard_history(msg.spec.id);
        ingested?;
        self.record_lend(None);
        self.record_event(&event, msg.history.as_ref());
        self.events.push(event);
        Ok(())
    }

    /// Ingest a request arrival and classify the one decision it yields.
    pub fn request(&mut self, spec: &RequestSpec) -> Result<ServerMsg, ConstraintViolation> {
        let event = ArrivalEvent::Request(*spec);
        let output = {
            let _span = com_obs::span(com_obs::PHASE_SERVE_INGEST);
            self.core.ingest(&event)?
        }
        .expect("MatchSession::ingest yields a decision for every request event");
        let event_index = self.events.len() as u64;
        self.record_event(&event, None);
        self.events.push(event);
        let response = match output {
            SessionOutput::Decided(a) if a.is_completed() => {
                self.assigned += 1;
                ServerMsg::assign(a)
            }
            SessionOutput::Decided(a) => {
                self.rejected += 1;
                ServerMsg::reject(a)
            }
            SessionOutput::Refused {
                assignment,
                violation,
            } => {
                self.refused += 1;
                ServerMsg::timeout {
                    assignment,
                    violation: violation.to_string(),
                }
            }
        };
        // Federated replica: a non-owned request served by one of our
        // workers is a *lend*, which the rival's offer must match.
        self.record_lend(match &response {
            ServerMsg::assign(a) => Some(a),
            _ => None,
        });
        if let Some(rec) = self.recorder.as_mut() {
            if let Some(decision) = decision_from_response(event_index, &response) {
                rec.write(&TraceLine::Decision(decision));
            }
        }
        Ok(response)
    }

    /// Advance the session clock without an event. `to_secs` is wire
    /// input: a non-finite time — NaN, which `Timestamp::from_secs`
    /// asserts against, or ±∞, which would pin the clock past every later
    /// event and record as `null` — is refused like any other malformed
    /// event, before the clock moves.
    pub(crate) fn tick(&mut self, to_secs: f64) -> Result<(), ConstraintViolation> {
        if !to_secs.is_finite() {
            return Err(ConstraintViolation::MalformedEvent {
                problem: "tick time must be finite",
            });
        }
        self.core.drain_timers(Timestamp::from_secs(to_secs))?;
        if let Some(rec) = self.recorder.as_mut() {
            let line = TraceLine::Tick(TraceTick {
                at_ns: rec.at_ns(),
                to_secs,
            });
            rec.write(&line);
        }
        Ok(())
    }

    /// Current counters (`stats` response).
    pub(crate) fn stats(&self) -> StatsMsg {
        StatsMsg {
            events: self.core.events_ingested() as u64,
            assigned: self.assigned,
            rejected: self.rejected,
            refused: self.refused,
            // Frozen wire field: the server never drops a message.
            dropped: 0,
            now_secs: self.core.now().as_secs(),
        }
    }

    /// The session's half of a `stats_deep` response: its counters, the
    /// live phase tables ([`com_obs::snapshot_run`], not drained; empty
    /// with telemetry off) and its federation figures. The server's
    /// figures (queues, rejections, shards) read zero; the shard fills
    /// them in.
    pub(crate) fn deep_stats(&self) -> DeepStatsMsg {
        let mut deep = DeepStatsMsg {
            stats: self.stats(),
            algorithm: self.algorithm(),
            phases: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            queue_depth: 0,
            queue_high_water: 0,
            busy_dropped: 0,
            oversized_rejected: 0,
            bad_envelope_rejected: 0,
            general_frames: 0,
            general_lines: 0,
            shard: None,
            shards: Vec::new(),
            federation: self
                .fed
                .as_ref()
                .map(|f| f.book.stats.snapshot(f.book.platform.0)),
        };
        if let Some(telemetry) = com_obs::snapshot_run() {
            deep.set_telemetry(&telemetry);
        }
        deep
    }

    /// Close the run, rebuild the [`Instance`] the session actually
    /// played (the ingested event log is time-ordered by construction —
    /// out-of-order lines were refused at ingest), and audit it with
    /// `com_core::validate_run`. The audit reads the configuration and
    /// the stream only, so the histories — held once, by the world — are
    /// not copied into it. Writes the trace's `finish` line (run digest
    /// included) when a recorder is attached.
    pub(crate) fn finish(self) -> FinishedSession {
        let instance = Instance {
            config: self.world_config,
            platform_names: self.platform_names,
            histories: HashMap::new(),
            stream: EventStream::from_ordered(self.events),
        };
        // Offers still parked on the book are answered
        // `unknown-fed-session` from here on.
        let fed = self.fed.as_ref().map(|f| {
            f.book.close();
            (f.book.platform, self.core.degraded_offers())
        });
        let run = self.core.finish();
        let findings: Vec<String> = validate_run(&instance, &run)
            .iter()
            .map(|f| f.to_string())
            .collect();
        let digest = canonical_run_digest(&run);
        let fed = fed.map(|(platform, degraded_offers)| FedByeMsg {
            platform: platform.0,
            digest: canonical_run_digest(&com_core::project_platform_run(&run, platform)),
            ledger: com_sim::PlatformLedger::for_platform(platform, &run.assignments),
            degraded_offers,
        });
        let trace_path = self.recorder.and_then(|mut rec| {
            rec.write(&TraceLine::Finish(TraceFinish {
                events: instance.stream.len() as u64,
                decisions: self.assigned + self.rejected + self.refused,
                digest: digest.clone(),
                revenue: run.total_revenue(),
                completed: run.completed() as u64,
                audit_findings: findings.len() as u64,
            }));
            rec.finish()
        });
        FinishedSession {
            run,
            digest,
            findings,
            instance,
            trace_path,
            fed,
        }
    }
}

impl FinishedSession {
    /// The session's `bye`: the receipt for its run — counts, audit
    /// findings and digest, no canonical body.
    pub(crate) fn bye(&self) -> ByeMsg {
        let run = &self.run;
        ByeMsg {
            algorithm: run.algorithm.clone(),
            revenue: run.total_revenue(),
            completed: run.completed() as u64,
            cooperative: run.cooperative_count() as u64,
            events: self.instance.stream.len() as u64,
            refused: run.failures.len() as u64,
            audit_findings: self.findings.clone(),
            canonical: serde_json::Value::null(),
            digest: self.digest.clone(),
            fed: self.fed.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_datagen::{generate, profiles};
    use com_sim::WorkerSpec;

    /// `quick` through a RamCOM session with every history withheld. Each
    /// worker line may be preceded by a malformed twin and followed by a
    /// second copy of itself; both carry a history the run must never see.
    fn play(poisoned: bool, duplicated: bool) -> FinishedSession {
        let instance = generate(&profiles::quick());
        let mut session = ServeSession::open(&Hello {
            matcher: "ramcom".into(),
            seed: 42,
            world: instance.config.clone(),
            platforms: instance.platform_names.clone(),
            max_value: instance.max_value(),
            origin: None,
            frame: None,
            fed: None,
        })
        .expect("ramcom is builtin");
        let planted = Some(WorkerHistory::from_values(vec![0.1]));
        for event in instance.stream.iter() {
            let spec = match event {
                ArrivalEvent::Request(request) => {
                    session.request(request).expect("in-order request");
                    continue;
                }
                ArrivalEvent::Worker(spec) => *spec,
            };
            if poisoned {
                let twin = WorkerSpec {
                    radius: -1.0,
                    ..spec
                };
                let refusal = session.worker(&WorkerMsg {
                    spec: twin,
                    history: planted.clone(),
                });
                assert!(matches!(
                    refusal,
                    Err(ConstraintViolation::MalformedEvent { .. })
                ));
            }
            session
                .worker(&WorkerMsg {
                    spec,
                    history: None,
                })
                .expect("in-order worker");
            if duplicated {
                let refusal = session.worker(&WorkerMsg {
                    spec,
                    history: planted.clone(),
                });
                assert!(matches!(
                    refusal,
                    Err(ConstraintViolation::WorkerArrivedTwice { .. })
                ));
            }
        }
        session.finish()
    }

    #[test]
    fn refused_worker_lines_stage_no_history() {
        let clean = play(false, false);
        // A newcomer's only candidate is `v_r` itself (margin 0), so the
        // clean run lends nothing; a planted ¥0.1 floor that reached the
        // world would be lent against at once.
        assert_eq!(clean.run.cooperative_count(), 0);
        assert!(clean.findings.is_empty());
        assert_eq!(play(true, false).digest, clean.digest);
        assert_eq!(play(false, true).digest, clean.digest);
    }

    #[test]
    fn hostile_hellos_are_refused_before_the_world_is_built() {
        let base = Hello {
            matcher: "tota".into(),
            seed: 1,
            world: com_sim::WorldConfig::city(30.0),
            platforms: vec!["A".into(), "B".into()],
            max_value: None,
            origin: None,
            frame: None,
            fed: None,
        };
        let mut infinite = base.clone();
        infinite.world.expected_radius = f64::INFINITY;
        let mut nan_corner = base.clone();
        nan_corner.world.extent.max.x = f64::NAN;
        let mut wide = base.clone();
        wide.world.extent = com_geo::BoundingBox::square(100_000.0);
        let mut fine_grid = base.clone();
        fine_grid.world.extent = com_geo::BoundingBox::square(2_000.0);
        fine_grid.world.expected_radius = 0.05;
        let mut crowded = base.clone();
        crowded.platforms = (0..60_000).map(|i| format!("p{i}")).collect();
        let mut fed = base.clone();
        fed.fed = Some(crate::protocol::FedHello {
            platform: 2,
            fed_sid: 1,
            peer: None,
            deadline_ms: None,
        });
        let empty = Hello {
            platforms: Vec::new(),
            ..base.clone()
        };
        for (what, hello) in [
            ("no platforms", empty),
            ("infinite radius", infinite),
            ("NaN corner", nan_corner),
            ("100,000 km extent", wide),
            ("2,000 km extent at 50 m", fine_grid),
            ("60,000 platforms", crowded),
            ("fed.platform 2 of 2", fed),
        ] {
            let Err((code, detail)) = ServeSession::open(&hello) else {
                panic!("{what} was welcomed");
            };
            assert_eq!(code, "bad-hello", "{what}: {detail}");
        }
        // 30 km at 1 km is 900 cells per list: 72 platforms fit, 73 do not.
        let mut edge = base.clone();
        edge.platforms = (0..72).map(|i| format!("p{i}")).collect();
        assert!(ServeSession::open(&edge).is_ok());
        edge.platforms.push("p72".into());
        assert!(ServeSession::open(&edge).is_err());
        let unknown = Hello {
            matcher: "nope".into(),
            ..base
        };
        assert!(matches!(
            ServeSession::open(&unknown),
            Err(("unknown-matcher", _))
        ));
    }
}
