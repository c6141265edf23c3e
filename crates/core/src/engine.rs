//! The online replay engine — batch wrappers over [`MatchSession`].
//!
//! Replays an [`Instance`]'s arrival stream in order against any
//! [`OnlineMatcher`]. The engine — not the algorithms — is responsible for
//! enforcing COM's constraints, measuring per-request wall-clock decision
//! time (the paper's "response time"), and sampling the world's memory
//! footprint. Since the com-serve subsystem landed, all of that lives in
//! the incremental [`MatchSession`] (see [`crate::session`]); this module
//! keeps the batch entry points and the [`RunResult`] type.
//!
//! Enforcement comes in two flavours sharing one code path:
//! [`run_online`] panics on the first [`ConstraintViolation`] (programmer
//! error during development), while [`try_run_online`] converts each
//! violation into a structured [`DecisionFailure`] record — the request is
//! logged as rejected, the world stays untouched, and the replay
//! continues, so one misbehaving matcher cannot abort a whole sweep.

use rand::rngs::StdRng;

use com_sim::{Assignment, ConstraintViolation, Instance, RequestSpec, Value, World};

use crate::matcher::{Decision, OnlineMatcher, StreamInfo};
use crate::session::MatchSession;

/// A matcher decision the engine refused to apply: which request it was
/// deciding and which paper constraint the decision breached. Produced
/// only by [`try_run_online`]; the panicking [`run_online`] aborts on the
/// first violation instead.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionFailure {
    /// The request being decided when the violation occurred.
    pub(crate) request: RequestSpec,
    /// The constraint the decision breached.
    pub violation: ConstraintViolation,
}

/// The complete record of one online run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Algorithm display name.
    pub algorithm: String,
    /// One record per request, in arrival order.
    pub assignments: Vec<Assignment>,
    /// Peak sampled world footprint in bytes.
    pub peak_memory_bytes: usize,
    /// World footprint at the end of the run.
    pub final_memory_bytes: usize,
    /// Total wall-clock nanoseconds spent inside `decide`.
    pub(crate) total_decision_nanos: u64,
    /// Per-phase latency/counter/gauge report for this run. `None` unless
    /// a `com-obs` collector was installed (see [`com_obs::install`]);
    /// collection never changes the run's decisions or revenue.
    pub telemetry: Option<com_obs::RunTelemetry>,
    /// Constraint violations the engine refused to apply (always empty
    /// for [`run_online`], which panics instead). Each failed request is
    /// also logged as a rejected assignment so per-request accounting
    /// stays aligned with the stream.
    pub failures: Vec<DecisionFailure>,
}

impl RunResult {
    /// Total platform revenue over all platforms (Definition 2.5 / Eq. 1).
    pub fn total_revenue(&self) -> Value {
        self.assignments.iter().map(|a| a.platform_revenue()).sum()
    }

    /// Revenue attributed to one platform (its own requests).
    pub fn revenue_for(&self, platform: com_sim::PlatformId) -> Value {
        self.assignments
            .iter()
            .filter(|a| a.request.platform == platform)
            .map(|a| a.platform_revenue())
            .sum()
    }

    /// Completed requests for one platform.
    pub fn completed_for(&self, platform: com_sim::PlatformId) -> usize {
        self.assignments
            .iter()
            .filter(|a| a.request.platform == platform && a.is_completed())
            .count()
    }

    /// Total completed requests.
    pub fn completed(&self) -> usize {
        self.assignments.iter().filter(|a| a.is_completed()).count()
    }

    /// Successful cooperative assignments (`|CoR|`).
    pub fn cooperative_count(&self) -> usize {
        self.assignments
            .iter()
            .filter(|a| a.is_cooperative_success())
            .count()
    }

    /// Acceptance ratio of cooperative offers (`|AcpRt|`): successes over
    /// offers. `None` when no offer was made.
    pub fn acceptance_ratio(&self) -> Option<f64> {
        let offers = self
            .assignments
            .iter()
            .filter(|a| a.was_cooperative_offer)
            .count();
        if offers == 0 {
            return None;
        }
        Some(self.cooperative_count() as f64 / offers as f64)
    }

    /// Mean outer-payment rate `v'_r / v_r` over cooperative successes.
    pub fn mean_outer_payment_rate(&self) -> Option<f64> {
        let rates: Vec<f64> = self
            .assignments
            .iter()
            .filter_map(|a| a.outer_payment_rate())
            .collect();
        if rates.is_empty() {
            return None;
        }
        Some(rates.iter().sum::<f64>() / rates.len() as f64)
    }

    /// Total deadhead (pickup) travel across all served requests, km.
    pub(crate) fn total_travel_km(&self) -> f64 {
        self.assignments.iter().map(|a| a.travel_km).sum()
    }

    /// Mean pickup distance over served requests, km (`None` when
    /// nothing was served) — the travel metric of the route-aware
    /// extension (paper §VII).
    pub fn mean_pickup_km(&self) -> Option<f64> {
        let served = self.completed();
        if served == 0 {
            return None;
        }
        Some(self.total_travel_km() / served as f64)
    }

    /// Mean per-request decision time in milliseconds (the paper's
    /// response-time metric).
    pub fn mean_response_ms(&self) -> f64 {
        if self.assignments.is_empty() {
            return 0.0;
        }
        self.total_decision_nanos as f64 / self.assignments.len() as f64 / 1e6
    }
}

/// Replay `instance` against `matcher` with the given RNG seed: the run
/// [`try_run_online`] makes, audited. The strict run audits itself — it
/// panics with the first constraint a decision breached, or with the
/// first [`crate::validate_run`] finding; the lenient [`try_run_online`]
/// does neither (see `audit.rs`).
///
/// Every algorithm-visible random draw flows through the single seeded
/// RNG, so runs are exactly reproducible.
///
/// ```
/// use com_core::*;
/// use com_geo::Point;
/// use std::collections::HashMap;
///
/// // One platform-1 worker can serve the single platform-0 request.
/// let worker = WorkerSpec::new(
///     WorkerId(1), PlatformId(1), Timestamp::ZERO, Point::new(5.0, 5.0), 1.0);
/// let request = RequestSpec::new(
///     RequestId(1), PlatformId(0), Timestamp::from_secs(60.0),
///     Point::new(5.2, 5.0), 12.0);
/// let mut histories = HashMap::new();
/// histories.insert(WorkerId(1), com_pricing::WorkerHistory::from_values(vec![0.5]));
/// let instance = Instance {
///     config: WorldConfig::city(10.0),
///     platform_names: vec!["target".into(), "lender".into()],
///     histories,
///     stream: EventStream::from_specs(vec![worker], vec![request]),
/// };
///
/// // TOTA cannot borrow; DemCOM can.
/// assert_eq!(run_online(&instance, &mut TotaGreedy, 1).completed(), 0);
/// let run = run_online(&instance, &mut DemCom::default(), 1);
/// assert_eq!(run.completed(), 1);
/// assert!(run.total_revenue() > 0.0);
/// ```
pub fn run_online(instance: &Instance, matcher: &mut dyn OnlineMatcher, seed: u64) -> RunResult {
    let run = try_run_online(instance, matcher, seed);
    crate::audit::assert_sound(instance, &run, seed);
    run
}

/// Fallible replay: identical to [`run_online`] for a well-behaved
/// matcher (bit-identical `RunResult` with empty `failures`), but a
/// decision that breaches a COM constraint is refused instead of
/// aborting the process. The offending request is logged as rejected
/// (`was_cooperative_offer: false` — no valid offer was extended), the
/// violation is recorded in [`RunResult::failures`], the world state is
/// untouched, and the replay continues with the next event.
///
/// # Panics
///
/// On an event the instance itself gets wrong, whatever the matcher:
/// a malformed event (`ConstraintViolation::MalformedEvent` — a
/// non-finite or non-positive value or radius, a non-finite location or
/// arrival time, a platform outside the roster), a time rewind, or a
/// duplicate arrival. Validate untrusted input before it becomes an
/// [`Instance`]; `instance_from_csv` in `com-datagen` does.
pub fn try_run_online(
    instance: &Instance,
    matcher: &mut dyn OnlineMatcher,
    seed: u64,
) -> RunResult {
    let mut session =
        MatchSession::for_instance(instance, Box::new(BorrowedMatcher(matcher)), seed);
    for event in instance.stream.iter() {
        if let Err(violation) = session.ingest(event) {
            panic!("{violation}");
        }
    }
    session.finish()
}

/// Adapts the wrappers' historical `&mut dyn OnlineMatcher` signature to
/// the session's owned `Box<dyn OnlineMatcher + 'm>` by delegation.
struct BorrowedMatcher<'a>(&'a mut dyn OnlineMatcher);

impl OnlineMatcher for BorrowedMatcher<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn begin(&mut self, info: &StreamInfo, rng: &mut StdRng) {
        self.0.begin(info, rng);
    }
    fn decide(&mut self, world: &World, request: &RequestSpec, rng: &mut StdRng) -> Decision {
        self.0.decide(world, request, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DemCom, RamCom, TotaGreedy};
    use com_geo::Point;
    use com_pricing::WorkerHistory;
    use com_sim::RequestSpec as Rq;
    use com_sim::{
        EventStream, MatchKind, PlatformId, RequestId, ServiceModel, Timestamp, WorkerId,
        WorkerSpec, WorldConfig,
    };
    use std::collections::HashMap;

    /// The paper's Example 1 as an instance: 5 workers, 5 requests, the
    /// Table II arrival order, platform 0 as the target platform.
    /// Workers w3 and w5 belong to platform 1 (outer); their histories
    /// make them accept 50% of the value of the requests they serve in
    /// Fig. 3(c).
    fn example_1() -> Instance {
        let p0 = PlatformId(0);
        let p1 = PlatformId(1);
        let ts = Timestamp::from_secs;
        // Geometry: each worker covers exactly the requests the paper's
        // Fig. 3 allows (1 km radius).
        let workers = vec![
            // w1 covers r1 and r2.
            WorkerSpec::new(WorkerId(1), p0, ts(1.0), Point::new(1.0, 1.0), 1.0),
            // w2 covers r2 and r3.
            WorkerSpec::new(WorkerId(2), p0, ts(2.0), Point::new(2.6, 1.0), 1.0),
            // w3 (outer) covers r3.
            WorkerSpec::new(WorkerId(3), p1, ts(4.0), Point::new(3.4, 1.6), 1.0),
            // w4 covers r4.
            WorkerSpec::new(WorkerId(4), p0, ts(7.0), Point::new(5.0, 5.0), 1.0),
            // w5 (outer) covers r5.
            WorkerSpec::new(WorkerId(5), p1, ts(9.0), Point::new(7.0, 7.0), 1.0),
        ];
        let requests = vec![
            Rq::new(RequestId(1), p0, ts(3.0), Point::new(0.8, 1.6), 4.0), // r1: only w1
            Rq::new(RequestId(2), p0, ts(5.0), Point::new(1.9, 1.0), 9.0), // r2: w1, w2
            Rq::new(RequestId(3), p0, ts(6.0), Point::new(3.3, 1.0), 6.0), // r3: w2, w3
            Rq::new(RequestId(4), p0, ts(8.0), Point::new(5.5, 5.0), 3.0), // r4: w4
            Rq::new(RequestId(5), p0, ts(10.0), Point::new(7.5, 7.0), 4.0), // r5: w5
        ];
        let mut histories = HashMap::new();
        // Outer workers' histories: very low floors, so they accept any
        // offer Algorithm 2 produces (the paper's Example 2 likewise
        // assumes the borrowed workers are willing).
        histories.insert(WorkerId(3), WorkerHistory::from_values(vec![0.1]));
        histories.insert(WorkerId(5), WorkerHistory::from_values(vec![0.1]));

        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::one_shot();
        Instance {
            config,
            platform_names: vec!["target".into(), "lender".into()],
            histories,
            stream: EventStream::from_specs(workers, requests),
        }
    }

    #[test]
    fn tota_on_example_1_serves_three_requests() {
        let instance = example_1();
        let result = run_online(&instance, &mut TotaGreedy, 1);
        // Greedy (nearest-first) serves r1 with w1, r2 with w2, r4 with
        // w4 — revenue 4 + 9 + 3 = 16. (The offline TOTA optimum is 18;
        // greedy's myopia costs it r3.)
        assert_eq!(result.completed(), 3);
        assert_eq!(result.total_revenue(), 16.0);
        assert_eq!(result.cooperative_count(), 0);
    }

    #[test]
    fn demcom_on_example_1_follows_example_2_walkthrough() {
        // Example 2's walkthrough shape: w1→r1, w2→r2, w3→r3 (outer),
        // w4→r4, w5→r5 (outer) — all five requests completed, two of
        // them cooperatively.
        let instance = example_1();
        let mut demcom = DemCom::default();
        let result = run_online(&instance, &mut demcom, 7);
        assert_eq!(result.completed(), 5);
        assert_eq!(result.cooperative_count(), 2);
        let revenue = result.total_revenue();
        // Inner revenue alone is 4 + 9 + 3 = 16; the two cooperative
        // requests add (6 − v'₃) + (4 − v'₅) with small payments, so
        // revenue sits between 16 and the total value 26.
        assert!(
            revenue > 16.0 && revenue <= 26.0,
            "revenue {revenue} out of the expected band"
        );
        assert_eq!(result.acceptance_ratio(), Some(1.0));
    }

    #[test]
    fn demcom_dominates_tota_on_example_1() {
        let instance = example_1();
        let tota = run_online(&instance, &mut TotaGreedy, 1).total_revenue();
        let dem = run_online(&instance, &mut DemCom::default(), 1).total_revenue();
        assert!(dem > tota);
    }

    #[test]
    fn ramcom_runs_example_1() {
        let instance = example_1();
        let mut ramcom = RamCom::default();
        let result = run_online(&instance, &mut ramcom, 3);
        // RamCOM is stochastic; sanity-check invariants rather than the
        // exact outcome.
        assert_eq!(result.assignments.len(), 5);
        for a in &result.assignments {
            assert!(a.platform_revenue() >= 0.0);
        }
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let instance = example_1();
        let a = run_online(&instance, &mut RamCom::default(), 42);
        let b = run_online(&instance, &mut RamCom::default(), 42);
        assert_eq!(a.total_revenue(), b.total_revenue());
        assert_eq!(a.completed(), b.completed());
        let kinds_a: Vec<_> = a.assignments.iter().map(|x| x.kind).collect();
        let kinds_b: Vec<_> = b.assignments.iter().map(|x| x.kind).collect();
        assert_eq!(kinds_a, kinds_b);
    }

    #[test]
    fn response_time_and_memory_are_recorded() {
        let instance = example_1();
        let result = run_online(&instance, &mut TotaGreedy, 1);
        assert!(result.mean_response_ms() >= 0.0);
        assert!(result.peak_memory_bytes > 0);
        assert!(result.final_memory_bytes > 0);
        assert!(result.total_decision_nanos > 0);
    }

    #[test]
    fn travel_metrics_on_empty_and_rejected_runs() {
        // A request nobody can reach: everything rejected, no pickup
        // metric.
        let p0 = PlatformId(0);
        let workers = vec![WorkerSpec::new(
            WorkerId(1),
            p0,
            Timestamp::from_secs(0.0),
            Point::new(0.5, 0.5),
            1.0,
        )];
        let requests = vec![Rq::new(
            RequestId(1),
            p0,
            Timestamp::from_secs(10.0),
            Point::new(9.0, 9.0),
            5.0,
        )];
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::one_shot();
        let inst = Instance {
            config,
            platform_names: vec!["solo".into()],
            histories: HashMap::new(),
            stream: EventStream::from_specs(workers, requests),
        };
        let run = run_online(&inst, &mut TotaGreedy, 1);
        assert_eq!(run.completed(), 0);
        assert_eq!(run.mean_pickup_km(), None);
        assert_eq!(run.total_travel_km(), 0.0);
        assert_eq!(run.acceptance_ratio(), None);
        assert_eq!(run.mean_outer_payment_rate(), None);
    }

    #[test]
    fn travel_km_matches_geometry() {
        let inst = example_1();
        let run = run_online(&inst, &mut TotaGreedy, 1);
        // r1 is served by w1: 0.2 east, 0.6 north → √0.40 km.
        let a = &run.assignments[0];
        assert_eq!(a.request.id, RequestId(1));
        assert!((a.travel_km - 0.4f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn revenue_split_by_platform() {
        let instance = example_1();
        let result = run_online(&instance, &mut DemCom::default(), 7);
        // All requests belong to platform 0 in Example 1.
        assert_eq!(result.revenue_for(PlatformId(0)), result.total_revenue());
        assert_eq!(result.revenue_for(PlatformId(1)), 0.0);
        assert_eq!(result.completed_for(PlatformId(0)), result.completed());
    }

    /// A matcher that always claims the same worker — the second request
    /// is a 1-by-1 occupancy violation.
    struct StuckOnOne;
    impl OnlineMatcher for StuckOnOne {
        fn name(&self) -> &'static str {
            "StuckOnOne"
        }
        fn begin(&mut self, _: &StreamInfo, _: &mut StdRng) {}
        fn decide(&mut self, _: &World, _: &Rq, _: &mut StdRng) -> Decision {
            Decision::Inner {
                worker: WorkerId(1),
            }
        }
    }

    /// A matcher that lends out a worker below the payment floor.
    struct FreeLoader;
    impl OnlineMatcher for FreeLoader {
        fn name(&self) -> &'static str {
            "FreeLoader"
        }
        fn begin(&mut self, _: &StreamInfo, _: &mut StdRng) {}
        fn decide(&mut self, _: &World, _: &Rq, _: &mut StdRng) -> Decision {
            Decision::Outer {
                worker: WorkerId(3),
                platform: PlatformId(1),
                payment: 0.0,
            }
        }
    }

    #[test]
    fn try_run_online_matches_run_online_for_sound_matchers() {
        let instance = example_1();
        let strict = run_online(&instance, &mut DemCom::default(), 7);
        let lenient = try_run_online(&instance, &mut DemCom::default(), 7);
        assert!(lenient.failures.is_empty());
        assert_eq!(strict.total_revenue(), lenient.total_revenue());
        let kinds: Vec<_> = strict.assignments.iter().map(|a| a.kind).collect();
        let kinds2: Vec<_> = lenient.assignments.iter().map(|a| a.kind).collect();
        assert_eq!(kinds, kinds2);
        assert!(strict.failures.is_empty());
    }

    #[test]
    fn try_run_online_records_violations_and_continues() {
        let instance = example_1();
        let run = try_run_online(&instance, &mut StuckOnOne, 1);
        // Every request got a record; w1 only covers r1 and r2, so the
        // replay survives multiple distinct violations.
        assert_eq!(run.assignments.len(), 5);
        assert!(!run.failures.is_empty());
        // r1 succeeds (w1 idle and in range); r2 finds w1 busy.
        assert_eq!(run.assignments[0].kind, MatchKind::Inner);
        assert_eq!(run.assignments[1].kind, MatchKind::Rejected);
        assert!(!run.assignments[1].was_cooperative_offer);
        assert!(matches!(
            run.failures[0].violation,
            com_sim::ConstraintViolation::WorkerNotIdle { .. }
                | com_sim::ConstraintViolation::OutOfRange { .. }
        ));
        // Revenue only counts the requests that were actually served.
        assert_eq!(run.total_revenue(), 4.0);
    }

    #[test]
    fn try_run_online_rejects_zero_payments() {
        let instance = example_1();
        let run = try_run_online(&instance, &mut FreeLoader, 1);
        assert!(run.failures.iter().any(|f| matches!(
            f.violation,
            com_sim::ConstraintViolation::PaymentOutOfBounds { .. }
        )));
    }

    #[test]
    #[should_panic(expected = "not idle")]
    fn run_online_still_panics_on_violations() {
        let instance = example_1();
        run_online(&instance, &mut StuckOnOne, 1);
    }

    #[test]
    fn short_runs_capture_mid_run_memory_peaks() {
        // < 512 events: a burst of simultaneous assignments fills the
        // re-entry queue mid-run; by the final event every worker has
        // re-entered, so the true peak is strictly above both endpoints.
        let p0 = PlatformId(0);
        let ts = Timestamp::from_secs;
        let n = 40u64;
        let mut workers: Vec<WorkerSpec> = (1..=n)
            .map(|i| {
                WorkerSpec::new(
                    WorkerId(i),
                    p0,
                    ts(0.0),
                    Point::new(0.2 * i as f64, 5.0),
                    0.5,
                )
            })
            .collect();
        // A late straggler forces the clock far past every re-entry.
        workers.push(WorkerSpec::new(
            WorkerId(n + 1),
            p0,
            ts(50_000.0),
            Point::new(9.5, 9.5),
            0.5,
        ));
        let requests: Vec<Rq> = (1..=n)
            .map(|i| {
                Rq::new(
                    RequestId(i),
                    p0,
                    ts(10.0),
                    Point::new(0.2 * i as f64, 5.0),
                    1.0,
                )
            })
            .collect();
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::taxi(36.0, 600.0);
        let inst = Instance {
            config,
            platform_names: vec!["solo".into()],
            histories: HashMap::new(),
            stream: EventStream::from_specs(workers, requests),
        };
        let run = run_online(&inst, &mut TotaGreedy, 1);
        assert_eq!(run.completed(), n as usize);
        // Mid-run the re-entry queue held `n` timers; at the end it is
        // empty again. Before dense sampling the peak collapsed onto the
        // endpoints and this assertion failed.
        assert!(
            run.peak_memory_bytes > run.final_memory_bytes,
            "peak {} not above final {}",
            run.peak_memory_bytes,
            run.final_memory_bytes
        );
    }
}
