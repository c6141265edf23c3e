//! RamCOM — Algorithm 3, the randomized cross online matching algorithm.
//!
//! RamCOM fixes the two weaknesses of DemCOM (Section III-D): (1) inner
//! workers being spent on small-value requests, and (2) the minimum outer
//! payment being too small to actually attract outer workers.
//!
//! * A random value threshold `e^k` (with `k ~ Uniform{1, …, θ}`,
//!   `θ = ⌈ln(max v_r + 1)⌉`) routes requests: values above the threshold
//!   go to a **randomly chosen** feasible inner worker; values below go
//!   straight to the outer workers, preserving the inner pool for future
//!   big requests.
//! * Outer payments maximise the *expected* revenue
//!   `(v_r − v')·pr(v', W)` (Definition 4.1) instead of minimising `v'`,
//!   trading a ~10 p.p. higher payment rate for a ≈4× higher acceptance
//!   ratio in the paper's experiments.

use rand::rngs::StdRng;
use rand::Rng;

use com_pricing::max_expected_revenue;
use com_sim::{IdleWorker, PlatformId, RequestSpec, World};

use crate::config::RamComConfig;
use crate::cooperative;
use crate::matcher::{Decision, OnlineMatcher, StreamInfo};

/// Randomized cross online matching (Algorithm 3).
///
/// Holds reusable candidate scratch buffers so steady-state decisions do
/// not allocate for the inner/outer coverage queries (observer-only
/// state: decisions are a pure function of `(world, request, rng)`).
#[derive(Debug, Clone)]
pub struct RamCom {
    config: RamComConfig,
    /// θ = ⌈ln(max v_r + 1)⌉ for the current run.
    theta: u64,
    threshold: f64,
    inner: Vec<IdleWorker>,
    outer: Vec<(PlatformId, IdleWorker)>,
}

impl Default for RamCom {
    fn default() -> Self {
        Self::new(RamComConfig::default())
    }
}

impl RamCom {
    pub fn new(config: RamComConfig) -> Self {
        RamCom {
            config,
            theta: 1,
            threshold: 0.0,
            inner: Vec::new(),
            outer: Vec::new(),
        }
    }

    /// The current run's inner-routing threshold `e^k`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    pub fn config(&self) -> &RamComConfig {
        &self.config
    }

    /// Lines 10–11: price by maximum expected revenue, then run DemCOM's
    /// offer loop (Algorithm 1, lines 13–26) at that payment.
    fn try_outer(&mut self, world: &World, request: &RequestSpec, rng: &mut StdRng) -> Decision {
        {
            let _span = com_obs::span(com_obs::PHASE_CANDIDATES);
            world.outer_coverers_into(
                request.platform,
                request.location,
                &mut self.outer,
                &mut Vec::new(),
            );
        }
        // No payment in (0, v_r] with positive expected revenue ⇒ `None`.
        let candidates = self.config.candidates;
        cooperative::offer(
            world,
            &self.outer,
            |histories, _| {
                max_expected_revenue(request.value, histories, candidates).map(|p| p.payment)
            },
            rng,
        )
    }
}

impl OnlineMatcher for RamCom {
    fn name(&self) -> &'static str {
        "RamCOM"
    }

    fn begin(&mut self, info: &StreamInfo, rng: &mut StdRng) {
        // Line 1–2: θ = ⌈ln(max v_r + 1)⌉, k uniform in {1, …, θ}.
        self.theta = (info.max_value + 1.0).ln().ceil().max(1.0) as u64;
        let k = rng.random_range(1..=self.theta);
        self.threshold = (k as f64).exp();
    }

    fn decide(&mut self, world: &World, request: &RequestSpec, rng: &mut StdRng) -> Decision {
        if self.config.threshold == crate::config::ThresholdMode::PerRequest {
            let k = rng.random_range(1..=self.theta);
            self.threshold = (k as f64).exp();
        }
        if request.value > self.threshold {
            // Lines 4–8: big request — a random feasible inner worker.
            // The scratch list is sorted nearest-first, exactly as the
            // allocating query was: the RNG picks by *index*, so the
            // candidate order is part of the deterministic replay contract.
            {
                let _span = com_obs::span(com_obs::PHASE_CANDIDATES);
                world.inner_coverers_into(request.platform, request.location, &mut self.inner);
            }
            if !self.inner.is_empty() {
                let pick = rng.random_range(0..self.inner.len());
                return Decision::Inner {
                    worker: self.inner[pick].id,
                };
            }
            // No unoccupied inner worker: ask the outer workers
            // (Example 3 routes r_3 this way).
            return self.try_outer(world, request, rng);
        }

        // Line 9–11: small request — leave it to the outer workers.
        let outer_decision = self.try_outer(world, request, rng);
        if !outer_decision.is_served() && self.config.fallback_to_inner {
            // Extension (off by default): last-resort inner assignment.
            let _span = com_obs::span(com_obs::PHASE_CANDIDATES);
            if let Some(w) = world.nearest_inner_coverer(request.platform, request.location) {
                return Decision::Inner { worker: w.id };
            }
        }
        outer_decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_geo::Point;
    use com_pricing::{PriceCandidates, WorkerHistory};
    use com_sim::{
        PlatformId, RequestId, ServiceModel, Timestamp, WorkerId, WorkerSpec, WorldConfig,
    };
    use rand::SeedableRng;

    fn two_platform_world() -> World {
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::one_shot();
        World::new(config, vec!["A".into(), "B".into()])
    }

    fn add_worker(world: &mut World, id: u64, platform: u16, x: f64, history: Vec<f64>) {
        world.register_worker(
            WorkerSpec::new(
                WorkerId(id),
                PlatformId(platform),
                Timestamp::ZERO,
                Point::new(x, 5.0),
                1.0,
            ),
            WorkerHistory::from_values(history),
        );
        world.worker_arrives(WorkerId(id));
    }

    fn request(x: f64, value: f64) -> RequestSpec {
        RequestSpec::new(
            RequestId(1),
            PlatformId(0),
            Timestamp::from_secs(1.0),
            Point::new(x, 5.0),
            value,
        )
    }

    /// A per-run-threshold RamCOM (the literal Algorithm 3), begun.
    /// Tests that reason about `threshold()` need the per-run mode so
    /// `decide` does not redraw it.
    fn begun(max_value: f64, seed: u64) -> (RamCom, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = RamCom::new(RamComConfig {
            threshold: crate::config::ThresholdMode::PerRun,
            fallback_to_inner: false,
            ..Default::default()
        });
        m.begin(&StreamInfo { max_value }, &mut rng);
        (m, rng)
    }

    #[test]
    fn threshold_is_e_to_the_k() {
        for seed in 0..40 {
            let (m, _) = begun(100.0, seed);
            // θ = ceil(ln 101) = 5.
            let k = m.threshold().ln().round() as i64;
            assert!((1..=5).contains(&k));
        }
    }

    #[test]
    fn big_request_goes_to_inner_worker() {
        let mut world = two_platform_world();
        add_worker(&mut world, 1, 0, 5.2, vec![1.0]);
        add_worker(&mut world, 2, 1, 5.1, vec![1.0]);
        let (mut m, mut rng) = begun(100.0, 1);
        let big = request(5.0, m.threshold() * 2.0);
        match m.decide(&world, &big, &mut rng) {
            Decision::Inner { worker } => assert_eq!(worker, WorkerId(1)),
            other => panic!("expected inner, got {other:?}"),
        }
    }

    #[test]
    fn small_request_goes_to_outer_even_with_idle_inner() {
        // The defining behaviour of RamCOM: small-value requests bypass
        // idle inner workers to preserve them for big ones.
        let mut world = two_platform_world();
        add_worker(&mut world, 1, 0, 5.2, vec![1.0]); // idle inner
        add_worker(&mut world, 2, 1, 5.1, vec![0.5]); // cheap outer
        let (mut m, mut rng) = begun(100.0, 1);
        let small = request(5.0, m.threshold() * 0.9);
        match m.decide(&world, &small, &mut rng) {
            Decision::Outer { worker, .. } => assert_eq!(worker, WorkerId(2)),
            Decision::Reject { .. } => {} // outer may decline stochastically
            Decision::Inner { .. } => panic!("small request must not use inner worker"),
        }
    }

    #[test]
    fn big_request_falls_through_to_outer_when_inner_busy() {
        let mut world = two_platform_world();
        add_worker(&mut world, 2, 1, 5.1, vec![0.5]); // only outer exists
        let (mut m, mut rng) = begun(100.0, 2);
        let big = request(5.0, m.threshold() * 2.0);
        let d = m.decide(&world, &big, &mut rng);
        assert!(
            matches!(d, Decision::Outer { .. } | Decision::Reject { .. }),
            "must try outer path"
        );
    }

    #[test]
    fn fallback_to_inner_extension() {
        let mut world = two_platform_world();
        add_worker(&mut world, 1, 0, 5.2, vec![1.0]); // idle inner
                                                      // No outer worker at all.
        let mut m = RamCom::new(RamComConfig {
            candidates: PriceCandidates::Breakpoints,
            fallback_to_inner: true,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(3);
        m.begin(&StreamInfo { max_value: 100.0 }, &mut rng);
        let small = request(5.0, m.threshold() * 0.9);
        assert_eq!(
            m.decide(&world, &small, &mut rng),
            Decision::Inner {
                worker: WorkerId(1)
            }
        );
    }

    #[test]
    fn rejects_unpriceable_outer_requests() {
        let mut world = two_platform_world();
        // The outer worker's floor (50) exceeds the request value.
        add_worker(&mut world, 2, 1, 5.1, vec![50.0]);
        let (mut m, mut rng) = begun(100.0, 4);
        let small = request(5.0, (m.threshold() * 0.9).clamp(1.0, 10.0));
        let d = m.decide(&world, &small, &mut rng);
        // Pricing yields no viable payment, so no offer is ever made:
        // the rejection must NOT count toward AcpRt's denominator.
        assert_eq!(
            d,
            Decision::Reject {
                was_cooperative_offer: false
            }
        );
    }

    #[test]
    fn payment_is_expected_revenue_maximiser() {
        let mut world = two_platform_world();
        // History replicating Example 3's step CDF (see pricing tests):
        // at v_r = 6 the maximiser pays 4.
        add_worker(
            &mut world,
            2,
            1,
            5.1,
            vec![1.0, 1.0, 2.0, 3.0, 4.0, 4.0, 4.0, 4.0, 5.0, 9.0],
        );
        let mut m = RamCom::new(RamComConfig {
            candidates: PriceCandidates::IntegerGrid,
            ..Default::default()
        });
        // Find a seed whose offer round gets accepted to observe payment.
        let mut observed = None;
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            m.begin(&StreamInfo { max_value: 6.0 }, &mut rng);
            // No inner worker exists, so the outer path is taken for any
            // threshold draw; the pricing sees v_r = 6 either way.
            let r = request(5.0, 6.0);
            if let Decision::Outer { payment, .. } = m.decide(&world, &r, &mut rng) {
                observed = Some(payment);
                break;
            }
        }
        let payment = observed.expect("some seed should yield acceptance");
        assert_eq!(payment, 4.0);
    }
}
