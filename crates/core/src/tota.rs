//! The TOTA baselines: single-platform online matching.
//!
//! TOTA ("traditional online task assignment", Tong et al. ICDE'16) is the
//! special case of COM with `W_out = ∅` (Section II-A). The paper's
//! experimental baseline is the Greedy algorithm — Tong et al.'s own
//! comparison concluded Greedy beats the theoretically better algorithms
//! in practice — so [`TotaGreedy`] is the baseline used in every table and
//! figure. [`GreedyRt`] is the random-threshold variant (the source of
//! RamCOM's randomisation) provided for the ablation experiments.

use rand::rngs::StdRng;

use com_sim::{RequestSpec, World};

use crate::matcher::{Decision, OnlineMatcher, StreamInfo};
use crate::ramcom::{draw_threshold, theta};

/// Greedy single-platform matching: assign the nearest idle inner worker
/// whose circle covers the request, otherwise reject.
#[derive(Debug, Clone, Copy, Default)]
pub struct TotaGreedy;

impl OnlineMatcher for TotaGreedy {
    fn name(&self) -> &'static str {
        "TOTA"
    }

    fn begin(&mut self, _info: &StreamInfo, _rng: &mut StdRng) {}

    fn decide(&mut self, world: &World, request: &RequestSpec, _rng: &mut StdRng) -> Decision {
        let _span = com_obs::span(com_obs::PHASE_CANDIDATES);
        match world.nearest_inner_coverer(request.platform, request.location) {
            Some(w) => Decision::Inner { worker: w.id },
            None => Decision::Reject {
                was_cooperative_offer: false,
            },
        }
    }
}

/// Greedy-RT (Tong et al. ICDE'16): draw `k` uniformly from
/// `{1, …, ⌈ln(max v_r + 1)⌉}` once per run and only serve requests whose
/// value exceeds `e^k` — a random price threshold that protects the
/// worker pool for high-value requests, achieving a
/// `1 / (2e·⌈ln(U_max+1)⌉)` competitive ratio in the adversarial model.
/// It is [`TotaGreedy`] behind RamCOM's per-run threshold draw.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyRt {
    threshold: f64,
}

impl OnlineMatcher for GreedyRt {
    fn name(&self) -> &'static str {
        "Greedy-RT"
    }

    fn begin(&mut self, info: &StreamInfo, rng: &mut StdRng) {
        self.threshold = draw_threshold(theta(info), rng);
    }

    fn decide(&mut self, world: &World, request: &RequestSpec, rng: &mut StdRng) -> Decision {
        if request.value <= self.threshold {
            return Decision::Reject {
                was_cooperative_offer: false,
            };
        }
        TotaGreedy.decide(world, request, rng)
    }
}

#[cfg(test)]
impl GreedyRt {
    /// The current run's value threshold `e^k`.
    fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_geo::Point;
    use com_pricing::WorkerHistory;
    use com_sim::{
        PlatformId, RequestId, ServiceModel, Timestamp, WorkerId, WorkerSpec, WorldConfig,
    };
    use rand::SeedableRng;

    fn world_with_worker(platform: u16, x: f64) -> World {
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::one_shot();
        let mut w = World::new(config, vec!["A".into(), "B".into()]);
        w.register_worker(
            WorkerSpec::new(
                WorkerId(1),
                PlatformId(platform),
                Timestamp::ZERO,
                Point::new(x, 5.0),
                1.0,
            ),
            WorkerHistory::new(),
        )
        .unwrap();
        w.worker_arrives(WorkerId(1)).unwrap();
        w
    }

    fn request(platform: u16, x: f64, value: f64) -> RequestSpec {
        RequestSpec::new(
            RequestId(1),
            PlatformId(platform),
            Timestamp::from_secs(1.0),
            Point::new(x, 5.0),
            value,
        )
    }

    #[test]
    fn tota_assigns_inner_worker() {
        let world = world_with_worker(0, 5.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = TotaGreedy;
        m.begin(&StreamInfo { max_value: 10.0 }, &mut rng);
        let d = m.decide(&world, &request(0, 5.3, 10.0), &mut rng);
        assert_eq!(
            d,
            Decision::Inner {
                worker: WorkerId(1)
            }
        );
    }

    #[test]
    fn tota_never_borrows() {
        // Worker belongs to platform 1; request is on platform 0.
        let world = world_with_worker(1, 5.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = TotaGreedy;
        let d = m.decide(&world, &request(0, 5.0, 10.0), &mut rng);
        assert!(!d.is_served());
    }

    #[test]
    fn tota_rejects_out_of_range() {
        let world = world_with_worker(0, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let d = TotaGreedy.decide(&world, &request(0, 9.0, 10.0), &mut rng);
        assert!(!d.is_served());
    }

    #[test]
    fn greedy_rt_threshold_in_expected_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = GreedyRt::default();
        for _ in 0..50 {
            m.begin(&StreamInfo { max_value: 50.0 }, &mut rng);
            // theta = ceil(ln 51) = 4, so threshold in {e, e², e³, e⁴}.
            let t = m.threshold();
            let k = t.ln().round() as i64;
            assert!((1..=4).contains(&k), "unexpected threshold {t}");
            assert!((t - (k as f64).exp()).abs() < 1e-9);
        }
    }

    #[test]
    fn greedy_rt_filters_small_values() {
        let world = world_with_worker(0, 5.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = GreedyRt::default();
        m.begin(&StreamInfo { max_value: 50.0 }, &mut rng);
        let t = m.threshold();
        // A request below the threshold is rejected even though a worker
        // is available; one above is served.
        let low = m.decide(&world, &request(0, 5.0, t * 0.9), &mut rng);
        assert!(!low.is_served());
        let high = m.decide(&world, &request(0, 5.0, t * 1.1), &mut rng);
        assert!(high.is_served());
    }
}
