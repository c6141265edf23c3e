//! Incremental match sessions — the resumable core of the replay engine.
//!
//! A [`MatchSession`] owns everything one online run needs — the
//! [`World`], the seeded RNG, the matcher, and the accumulating
//! assignment log — and exposes the replay loop one event at a time:
//! [`MatchSession::ingest`] feeds a single [`ArrivalEvent`] and returns
//! the decisions it produced, [`MatchSession::drain_timers`] advances the
//! simulation clock without an event (processing re-entries and shift
//! ends), and [`MatchSession::finish`] closes the run into the same
//! [`RunResult`] the batch engine produces.
//!
//! [`run_online`](crate::run_online) and
//! [`try_run_online`](crate::try_run_online) are thin wrappers that feed
//! an [`Instance`]'s full stream through one session, so batch replay and
//! live serving (the `com-serve` daemon) share a single code path and
//! batch results are bit-identical to the pre-session engine (locked by
//! `tests/session_identity.rs`).
//!
//! Two registration modes cover the two callers:
//!
//! * [`MatchSession::for_instance`] pre-registers every worker of the
//!   instance up front (exactly what `Instance::build_world` did), so
//!   batch replays keep byte-identical memory accounting.
//! * [`MatchSession::new`] starts from an empty world and registers each
//!   worker when its arrival event is ingested — the honest accounting
//!   for a live stream where the roster is unknown in advance. A
//!   worker's history is staged before its arrival with
//!   [`MatchSession::add_history`].

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use com_pricing::WorkerHistory;
use com_sim::{
    ArrivalEvent, Assignment, ConstraintViolation, Instance, MatchKind, PlatformId, RequestSpec,
    Timestamp, Value, WorkerId, World, WorldConfig,
};

use crate::engine::{DecisionFailure, RunResult};
use crate::matcher::{Decision, OnlineMatcher, StreamInfo};
use crate::outsource::{OutsourceChannel, OutsourceOutcome};

/// How often (in processed stream events — worker arrivals count too) the
/// session samples `World::approx_bytes` for the peak-memory metric once
/// past the dense-sampling prefix. The first `MEMORY_SAMPLE_EVERY` events
/// are sampled individually so short runs still observe mid-run peaks,
/// and the final world state is always sampled. A sample is O(platforms):
/// the world keeps its footprint as running sums.
const MEMORY_SAMPLE_EVERY: usize = 512;

/// Everything a session needs to know before the first event arrives:
/// the world configuration, the platform roster, and the stream's largest
/// request value when known (RamCOM's threshold and the pricing grids
/// assume `max v_r`, exactly as the batch engine takes it from the
/// instance). Worker histories are staged per worker with
/// [`MatchSession::add_history`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    pub world: WorldConfig,
    pub platform_names: Vec<String>,
    /// `max v_r` of the stream when known in advance; defaults to 1.0.
    pub max_value_hint: Option<Value>,
}

/// What is wrong with `event`'s own fields, if anything. Events decoded
/// from the wire or a trace are untrusted input that never went through
/// `RequestSpec::new` / `WorkerSpec::new`; unchecked, a non-positive or
/// NaN value trips the pricing kernels' asserts, a platform outside the
/// roster indexes past the waiting lists, and a NaN time or place poisons
/// the clock or the grid. (A *worker's* platform is checked at
/// registration: `UnknownPlatform`.)
fn malformed(event: &ArrivalEvent, platforms: usize) -> Option<&'static str> {
    let positive = |x: f64| x.is_finite() && x > 0.0;
    let location = match event {
        ArrivalEvent::Request(r) if !positive(r.value) => {
            return Some("request value must be finite and positive")
        }
        ArrivalEvent::Request(r) if r.platform.index() >= platforms => {
            return Some("request platform is outside the roster")
        }
        ArrivalEvent::Worker(w) if !positive(w.radius) => {
            return Some("worker radius must be finite and positive")
        }
        ArrivalEvent::Request(r) => r.location,
        ArrivalEvent::Worker(w) => w.location,
    };
    if !location.is_finite() {
        Some("location must be finite")
    } else if !event.time().as_secs().is_finite() {
        Some("arrival time must be finite")
    } else {
        None
    }
}

/// One decision produced by [`MatchSession::ingest`]: `Some` for every
/// request event, `None` for every worker arrival.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutput {
    /// The matcher's decision was valid and applied (served or the
    /// matcher's own reject).
    Decided(Assignment),
    /// The matcher's decision breached a COM constraint and was refused:
    /// the request is logged as rejected, the world is untouched, and the
    /// session keeps going.
    Refused {
        assignment: Assignment,
        violation: ConstraintViolation,
    },
}

/// A resumable online matching run. See the module docs for the two
/// construction modes; in both, every algorithm-visible random draw flows
/// through the single seeded RNG, so sessions are exactly reproducible.
pub struct MatchSession<'m> {
    world: World,
    rng: StdRng,
    matcher: Box<dyn OnlineMatcher + 'm>,
    algorithm: String,
    histories: HashMap<WorkerId, WorkerHistory>,
    /// `Some((p, channel))` in federated mode: an outer decision on a
    /// request platform `p` owns is an offer `channel` must accept first;
    /// decisions on the peer's requests apply directly (the deterministic
    /// replica stays in lockstep). `None` (the default) applies every
    /// decision directly and never negotiates.
    federation: Option<(PlatformId, Box<dyn OutsourceChannel + 'm>)>,
    degraded_offers: u64,
    assignments: Vec<Assignment>,
    failures: Vec<DecisionFailure>,
    peak: usize,
    log_capacity: usize,
    total_nanos: u64,
    events: usize,
}

impl<'m> MatchSession<'m> {
    /// A live session over an initially empty world: workers register as
    /// their arrival events are ingested.
    pub fn new(config: SessionConfig, matcher: Box<dyn OnlineMatcher + 'm>, seed: u64) -> Self {
        let world = World::new(config.world, config.platform_names);
        Self::start(world, config.max_value_hint, matcher, seed)
    }

    /// A batch session with every worker of `instance` pre-registered
    /// (state `NotArrived`), exactly as the pre-session engine built its
    /// world — byte-identical memory accounting included.
    pub fn for_instance(
        instance: &Instance,
        matcher: Box<dyn OnlineMatcher + 'm>,
        seed: u64,
    ) -> Self {
        // `build_world` registered every worker with its history already;
        // nothing is left to stage.
        let world = instance.build_world();
        let mut session = Self::start(world, instance.max_value(), matcher, seed);
        session.assignments = Vec::with_capacity(instance.request_count());
        session.log_capacity = session.assignments.capacity();
        session.peak = session.world.approx_bytes() + log_bytes(&session.assignments);
        session
    }

    fn start(
        world: World,
        max_value_hint: Option<Value>,
        mut matcher: Box<dyn OnlineMatcher + 'm>,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let info = StreamInfo {
            max_value: max_value_hint.unwrap_or(1.0),
        };
        com_obs::begin_run(matcher.name());
        matcher.begin(&info, &mut rng);
        let assignments: Vec<Assignment> = Vec::new();
        let peak = world.approx_bytes() + log_bytes(&assignments);
        let log_capacity = assignments.capacity();
        let algorithm = matcher.name().to_string();
        MatchSession {
            world,
            rng,
            matcher,
            algorithm,
            histories: HashMap::new(),
            federation: None,
            degraded_offers: 0,
            assignments,
            failures: Vec::new(),
            peak,
            log_capacity,
            total_nanos: 0,
            events: 0,
        }
    }

    /// Federate the session as `platform`'s daemon: an outer decision on
    /// a request `platform` owns is offered through `channel` and applied
    /// only if the peer accepts; decisions on other platforms' requests
    /// apply directly, keeping this replica in lockstep with its peers.
    pub fn with_federation(
        mut self,
        platform: PlatformId,
        channel: Box<dyn OutsourceChannel + 'm>,
    ) -> Self {
        self.federation = Some((platform, channel));
        self
    }

    /// Outer decisions degraded to rejects because the peer declined or
    /// timed out.
    pub fn degraded_offers(&self) -> u64 {
        self.degraded_offers
    }

    /// Feed one arrival event. Worker arrivals register (if needed) and
    /// enqueue the worker; request arrivals invoke the matcher and apply
    /// its decision. On `Err` the session state is untouched — a live
    /// feed can reject the one bad event (malformed, time rewind,
    /// duplicate arrival) and keep going.
    ///
    /// A request event always yields `Some` decision and a worker arrival
    /// always `None` — callers that classify request outcomes rely on it.
    pub fn ingest(
        &mut self,
        event: &ArrivalEvent,
    ) -> Result<Option<SessionOutput>, ConstraintViolation> {
        if let Some(problem) = malformed(event, self.world.platform_count()) {
            return Err(ConstraintViolation::MalformedEvent { problem });
        }
        self.world.advance_to(event.time())?;
        let output = match event {
            ArrivalEvent::Worker(spec) => {
                if self.world.find_worker(spec.id).is_none() {
                    // Moved, not copied: from here on the world holds the
                    // worker's only history.
                    let history = self.histories.remove(&spec.id).unwrap_or_default();
                    self.world.register_worker(*spec, history)?;
                }
                self.world.worker_arrives(spec.id)?;
                None
            }
            ArrivalEvent::Request(request) => {
                let span = com_obs::span(com_obs::PHASE_DECISION);
                let started = Instant::now();
                let mut decision = self.matcher.decide(&self.world, request, &mut self.rng);
                let nanos = started.elapsed().as_nanos() as u64;
                drop(span);
                self.total_nanos += nanos;
                // An outer decision on an owned request is an offer to
                // the rival platform — the channel must accept before it
                // can be applied. Negotiation time is deliberately kept
                // out of `decision_nanos` (the paper's response-time
                // metric measures the algorithm, not the peer's RTT).
                if let (
                    Decision::Outer {
                        worker,
                        platform,
                        payment,
                    },
                    Some((owned, channel)),
                ) = (decision, &mut self.federation)
                {
                    if *owned == request.platform
                        && channel.offer(request, worker, platform, payment)
                            != OutsourceOutcome::Accepted
                    {
                        self.degraded_offers += 1;
                        decision = Decision::Reject {
                            was_cooperative_offer: true,
                        };
                    }
                }
                match try_apply_decision(&mut self.world, request, decision, nanos) {
                    Ok(assignment) => {
                        self.assignments.push(assignment.clone());
                        Some(SessionOutput::Decided(assignment))
                    }
                    Err(violation) => {
                        com_obs::counter_add("engine.constraint_violations", 1);
                        let assignment = Assignment {
                            request: *request,
                            kind: MatchKind::Rejected,
                            worker: None,
                            worker_platform: None,
                            outer_payment: 0.0,
                            was_cooperative_offer: false,
                            travel_km: 0.0,
                            decided_at: request.arrival,
                            decision_nanos: nanos,
                        };
                        self.assignments.push(assignment.clone());
                        self.failures.push(DecisionFailure {
                            request: *request,
                            violation: violation.clone(),
                        });
                        Some(SessionOutput::Refused {
                            assignment,
                            violation,
                        })
                    }
                }
            }
        };
        // Sample on every stream event (a burst of worker arrivals grows
        // the world without any request being processed). Dense for the
        // first `MEMORY_SAMPLE_EVERY` events so short runs still catch
        // mid-run peaks, sparse afterwards — plus whenever the
        // assignment log reallocates (a capacity jump is exactly when
        // the footprint steps).
        self.events += 1;
        let realloc = self.assignments.capacity() != self.log_capacity;
        if realloc
            || self.events < MEMORY_SAMPLE_EVERY
            || self.events.is_multiple_of(MEMORY_SAMPLE_EVERY)
        {
            self.log_capacity = self.assignments.capacity();
            self.sample_memory();
        }
        Ok(output)
    }

    /// Advance the simulation clock to `to` without an event, processing
    /// due re-entries and shift-end departures (a serving daemon's `tick`
    /// between arrivals). A rewind is refused and leaves the session
    /// untouched. The batch wrappers never call this — the event loop
    /// advances the clock per event — so batch results are unaffected.
    pub fn drain_timers(&mut self, to: Timestamp) -> Result<(), ConstraintViolation> {
        self.world.advance_to(to)?;
        self.sample_memory();
        Ok(())
    }

    /// Supply (or replace) a worker's acceptance history before its
    /// arrival event is ingested. Histories attach at registration time,
    /// which takes the staged entry; adding one for an already-registered
    /// worker has no effect.
    pub fn add_history(&mut self, id: WorkerId, history: WorkerHistory) {
        self.histories.insert(id, history);
    }

    /// Drop whatever history is still staged for `id`. A caller that stages
    /// one per arrival line (the serving layer) calls this once the line is
    /// answered, so a refused line's history cannot attach to a later line
    /// for the same worker.
    pub fn discard_history(&mut self, id: WorkerId) {
        self.histories.remove(&id);
    }

    /// Close the run: sample the final world state and assemble the same
    /// [`RunResult`] the batch engine returns.
    pub fn finish(self) -> RunResult {
        let final_bytes = self.world.approx_bytes() + log_bytes(&self.assignments);
        com_obs::gauge_set("world.approx_bytes", final_bytes as f64);
        RunResult {
            algorithm: self.algorithm,
            assignments: self.assignments,
            peak_memory_bytes: self.peak.max(final_bytes),
            final_memory_bytes: final_bytes,
            total_decision_nanos: self.total_nanos,
            telemetry: com_obs::end_run(),
            failures: self.failures,
        }
    }

    fn sample_memory(&mut self) {
        let bytes = self.world.approx_bytes() + log_bytes(&self.assignments);
        com_obs::gauge_set("world.approx_bytes", bytes as f64);
        self.peak = self.peak.max(bytes);
    }

    /// The algorithm's display name.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Current simulation time.
    pub fn now(&self) -> Timestamp {
        self.world.now()
    }

    /// Read access to the world (waiting lists, occupancy, clock).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Stream events ingested so far.
    pub fn events_ingested(&self) -> usize {
        self.events
    }
}

impl std::fmt::Debug for MatchSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchSession")
            .field("algorithm", &self.algorithm)
            .field("events", &self.events)
            .field("assignments", &self.assignments.len())
            .field("failures", &self.failures.len())
            .field("now", &self.world.now())
            .finish()
    }
}

/// The platform's working set: the world state plus the matching record M
/// it accumulates (the paper's memory metric covers both — its
/// Figs. 5(c)/(g) grow with |R| and |W| respectively).
fn log_bytes(assignments: &Vec<Assignment>) -> usize {
    assignments.capacity() * std::mem::size_of::<Assignment>()
}

/// Validate a matcher decision against the paper's constraints and, if
/// sound, apply it to the world and produce the assignment record. On
/// `Err` the world is unchanged.
pub(crate) fn try_apply_decision(
    world: &mut World,
    request: &RequestSpec,
    decision: Decision,
    nanos: u64,
) -> Result<Assignment, ConstraintViolation> {
    match decision {
        Decision::Inner { worker } => {
            let w = world
                .find_worker(worker)
                .ok_or(ConstraintViolation::UnknownWorker { worker })?;
            let spec_platform = w.spec.platform;
            let travel_km = world.config().metric.distance(w.location, request.location);
            if spec_platform != request.platform {
                return Err(ConstraintViolation::ForeignWorker {
                    worker,
                    worker_platform: spec_platform,
                    request: request.id,
                    request_platform: request.platform,
                });
            }
            world.assign(worker, request, request.value)?;
            Ok(Assignment {
                request: *request,
                kind: MatchKind::Inner,
                worker: Some(worker),
                worker_platform: Some(spec_platform),
                outer_payment: 0.0,
                was_cooperative_offer: false,
                travel_km,
                decided_at: request.arrival,
                decision_nanos: nanos,
            })
        }
        Decision::Outer {
            worker,
            platform,
            payment,
        } => {
            let w = world
                .find_worker(worker)
                .ok_or(ConstraintViolation::UnknownWorker { worker })?;
            let spec_platform = w.spec.platform;
            let travel_km = world.config().metric.distance(w.location, request.location);
            if spec_platform != platform {
                return Err(ConstraintViolation::PlatformMismatch {
                    worker,
                    claimed: platform,
                    actual: spec_platform,
                });
            }
            if spec_platform == request.platform {
                return Err(ConstraintViolation::InnerWorkerAsOuter {
                    worker,
                    request: request.id,
                    platform: spec_platform,
                });
            }
            if !(payment > 0.0 && payment <= request.value + 1e-9) {
                return Err(ConstraintViolation::PaymentOutOfBounds {
                    request: request.id,
                    payment,
                    value: request.value,
                });
            }
            world.assign(worker, request, payment)?;
            Ok(Assignment {
                request: *request,
                kind: MatchKind::Outer,
                worker: Some(worker),
                worker_platform: Some(spec_platform),
                outer_payment: payment,
                was_cooperative_offer: true,
                travel_km,
                decided_at: request.arrival,
                decision_nanos: nanos,
            })
        }
        Decision::Reject {
            was_cooperative_offer,
        } => Ok(Assignment {
            request: *request,
            kind: MatchKind::Rejected,
            worker: None,
            worker_platform: None,
            outer_payment: 0.0,
            was_cooperative_offer,
            travel_km: 0.0,
            decided_at: request.arrival,
            decision_nanos: nanos,
        }),
    }
}

#[cfg(test)]
impl SessionOutput {
    /// The per-request record, whichever way the decision went.
    fn assignment(&self) -> &Assignment {
        match self {
            SessionOutput::Decided(a) => a,
            SessionOutput::Refused { assignment, .. } => assignment,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DemCom, TotaGreedy};
    use com_geo::Point;
    use com_sim::RequestSpec as Rq;
    use com_sim::{EventStream, PlatformId, RequestId, ServiceModel, WorkerSpec};

    fn tiny_instance() -> Instance {
        let p0 = PlatformId(0);
        let p1 = PlatformId(1);
        let ts = Timestamp::from_secs;
        let workers = vec![
            WorkerSpec::new(WorkerId(1), p0, ts(1.0), Point::new(1.0, 1.0), 1.0),
            WorkerSpec::new(WorkerId(2), p1, ts(2.0), Point::new(2.0, 1.0), 1.0),
        ];
        let requests = vec![
            Rq::new(RequestId(1), p0, ts(3.0), Point::new(1.2, 1.0), 5.0),
            Rq::new(RequestId(2), p0, ts(4.0), Point::new(2.1, 1.0), 3.0),
        ];
        let mut histories = HashMap::new();
        histories.insert(WorkerId(2), WorkerHistory::from_values(vec![0.1]));
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::one_shot();
        Instance {
            config,
            platform_names: vec!["A".into(), "B".into()],
            histories,
            stream: EventStream::from_specs(workers, requests),
        }
    }

    /// Everything decision-determined about an assignment — i.e. the
    /// whole record minus the wall-clock `decision_nanos`.
    fn decision_key(a: &Assignment) -> impl PartialEq + std::fmt::Debug {
        (
            a.request,
            a.kind,
            a.worker,
            a.worker_platform,
            a.outer_payment.to_bits(),
            a.was_cooperative_offer,
            a.travel_km.to_bits(),
            a.decided_at,
        )
    }

    fn decision_keys(run: &crate::RunResult) -> Vec<impl PartialEq + std::fmt::Debug> {
        run.assignments.iter().map(decision_key).collect()
    }

    /// A live session over `instance`'s roster and value bound, with every
    /// worker's history staged before its arrival.
    fn live_session(
        instance: &Instance,
        matcher: Box<dyn OnlineMatcher>,
        seed: u64,
    ) -> MatchSession<'static> {
        let config = SessionConfig {
            world: instance.config.clone(),
            platform_names: instance.platform_names.clone(),
            max_value_hint: instance.max_value(),
        };
        let mut session = MatchSession::new(config, matcher, seed);
        for (&id, history) in &instance.histories {
            session.add_history(id, history.clone());
        }
        session
    }

    #[test]
    fn session_replay_matches_batch_engine() {
        let instance = tiny_instance();
        let batch = crate::run_online(&instance, &mut DemCom::default(), 7);

        let mut session = MatchSession::for_instance(&instance, Box::new(DemCom::default()), 7);
        for event in instance.stream.iter() {
            session.ingest(event).unwrap();
        }
        let run = session.finish();
        assert_eq!(decision_keys(&run), decision_keys(&batch));
        assert_eq!(run.total_revenue(), batch.total_revenue());
        assert_eq!(run.peak_memory_bytes, batch.peak_memory_bytes);
        assert_eq!(run.final_memory_bytes, batch.final_memory_bytes);
    }

    #[test]
    fn live_session_registers_workers_on_arrival() {
        let instance = tiny_instance();
        let mut session = live_session(&instance, Box::new(DemCom::default()), 7);
        let mut served = 0;
        for event in instance.stream.iter() {
            if let Some(out) = session.ingest(event).unwrap() {
                if out.assignment().is_completed() {
                    served += 1;
                }
            }
        }
        let run = session.finish();
        assert_eq!(run.completed(), served);
        // Decisions are identical to the pre-registered batch replay —
        // registration timing is invisible to the matcher.
        let batch = crate::run_online(&instance, &mut DemCom::default(), 7);
        assert_eq!(decision_keys(&run), decision_keys(&batch));
    }

    #[test]
    fn ingest_refuses_time_rewinds_without_corrupting_state() {
        let instance = tiny_instance();
        let mut session = live_session(&instance, Box::new(TotaGreedy), 1);
        let events: Vec<_> = instance.stream.iter().cloned().collect();
        session.ingest(&events[2]).unwrap(); // t = 2.0 (worker 2)
        let err = session.ingest(&events[0]).unwrap_err(); // t = 1.0
        assert!(matches!(err, ConstraintViolation::TimeRewind { .. }));
        assert_eq!(session.events_ingested(), 1);
        // The session still accepts in-order events afterwards.
        session.ingest(&events[3]).unwrap();
    }

    #[test]
    fn malformed_events_are_refused_before_they_touch_anything() {
        let instance = tiny_instance();
        let events: Vec<_> = instance.stream.iter().cloned().collect();
        let (ArrivalEvent::Worker(w), ArrivalEvent::Request(r)) = (events[1], events[3]) else {
            panic!("tiny_instance is workers then requests");
        };
        // What a decoder can build but `RequestSpec::new` /
        // `WorkerSpec::new` would not: struct literals, fields unchecked.
        let nowhere = Point::new(f64::NAN, 1.0);
        let never = Timestamp::from_secs(f64::INFINITY);
        let hostile = [
            ArrivalEvent::Request(Rq { value: -1.0, ..r }),
            ArrivalEvent::Request(Rq { value: 0.0, ..r }),
            ArrivalEvent::Request(Rq {
                value: f64::NAN,
                ..r
            }),
            ArrivalEvent::Request(Rq {
                value: f64::INFINITY,
                ..r
            }),
            ArrivalEvent::Request(Rq {
                platform: PlatformId(9),
                ..r
            }),
            ArrivalEvent::Request(Rq {
                location: nowhere,
                ..r
            }),
            ArrivalEvent::Request(Rq {
                arrival: never,
                ..r
            }),
            ArrivalEvent::Worker(WorkerSpec { radius: -1.0, ..w }),
            ArrivalEvent::Worker(WorkerSpec {
                radius: f64::NAN,
                ..w
            }),
            ArrivalEvent::Worker(WorkerSpec {
                location: nowhere,
                ..w
            }),
            ArrivalEvent::Worker(WorkerSpec {
                arrival: never,
                ..w
            }),
        ];

        let visible_state = |session: &MatchSession| {
            (
                session.events_ingested(),
                session.now(),
                session.world().worker_count(),
                session.world().approx_bytes(),
            )
        };
        let digest = |hostile: &[ArrivalEvent]| {
            let mut session = live_session(&instance, Box::new(DemCom::default()), 7);
            for event in &events {
                for bad in hostile {
                    let before = visible_state(&session);
                    let err = session.ingest(bad).unwrap_err();
                    assert!(
                        matches!(err, ConstraintViolation::MalformedEvent { .. }),
                        "{bad:?}: {err}"
                    );
                    assert_eq!(visible_state(&session), before, "{bad:?}");
                }
                session.ingest(event).unwrap();
            }
            crate::canonical_digest(&crate::canonical_run_json(&session.finish()))
        };
        // Seen between every two good events — including while the outer
        // worker is in range, where a bad value used to reach Algorithm 2's
        // assert — the hostile events leave no trace in the run.
        assert_eq!(digest(&hostile), digest(&[]));
    }

    #[test]
    fn duplicate_arrival_is_a_typed_error() {
        let instance = tiny_instance();
        let mut session = live_session(&instance, Box::new(TotaGreedy), 1);
        let first = instance.stream.iter().next().unwrap();
        session.ingest(first).unwrap();
        let err = session.ingest(first).unwrap_err();
        assert!(matches!(
            err,
            ConstraintViolation::WorkerArrivedTwice { .. }
        ));
    }

    #[test]
    fn declined_offer_degrades_to_cooperative_reject() {
        use crate::outsource::{OutsourceOutcome, ScriptedOutsource};
        let instance = tiny_instance();
        // DemCom on tiny_instance: r1 goes inner to w1, r2 finds only the
        // outer worker w2 — the one offer in the run.
        let baseline = crate::try_run_online(&instance, &mut DemCom::default(), 7);
        assert!(baseline
            .assignments
            .iter()
            .any(|a| a.kind == MatchKind::Outer));

        for script in [
            OutsourceOutcome::TimedOut,
            OutsourceOutcome::Rejected("desync".into()),
        ] {
            let mut session = MatchSession::for_instance(&instance, Box::new(DemCom::default()), 7)
                .with_federation(
                    PlatformId(0),
                    Box::new(ScriptedOutsource::new(vec![script])),
                );
            for event in instance.stream.iter() {
                session.ingest(event).unwrap();
            }
            assert_eq!(session.degraded_offers(), 1);
            let run = session.finish();
            let degraded = run
                .assignments
                .iter()
                .find(|a| a.request.id == RequestId(2))
                .unwrap();
            assert_eq!(degraded.kind, MatchKind::Rejected);
            assert!(degraded.was_cooperative_offer);
            assert_eq!(degraded.outer_payment, 0.0);
            // The degraded log still satisfies every paper invariant.
            assert!(crate::validate_run(&instance, &run).is_empty());
        }
    }

    #[test]
    fn non_owned_requests_bypass_the_channel() {
        use crate::outsource::{OutsourceOutcome, ScriptedOutsource};
        let instance = tiny_instance();
        // Owning platform 1 means the (platform 0) requests are the
        // peer's: outer decisions apply directly, the scripted timeout is
        // never consulted, and the run matches the unfederated baseline.
        let baseline = crate::try_run_online(&instance, &mut DemCom::default(), 7);
        let mut session = MatchSession::for_instance(&instance, Box::new(DemCom::default()), 7)
            .with_federation(
                PlatformId(1),
                Box::new(ScriptedOutsource::new(vec![OutsourceOutcome::TimedOut])),
            );
        for event in instance.stream.iter() {
            session.ingest(event).unwrap();
        }
        assert_eq!(session.degraded_offers(), 0);
        let run = session.finish();
        assert_eq!(decision_keys(&run), decision_keys(&baseline));
    }

    #[test]
    fn drain_timers_processes_reentries() {
        let mut instance = tiny_instance();
        instance.config.service = ServiceModel::taxi(36.0, 60.0);
        let mut session = live_session(&instance, Box::new(TotaGreedy), 1);
        for event in instance.stream.iter() {
            session.ingest(event).unwrap();
        }
        assert_eq!(session.world().pending_reentries(), 1);
        session
            .drain_timers(Timestamp::from_secs(10_000.0))
            .unwrap();
        assert_eq!(session.world().pending_reentries(), 0);
        assert!(session.drain_timers(Timestamp::from_secs(1.0)).is_err());
    }
}
