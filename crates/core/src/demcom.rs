//! DemCOM — Algorithm 1, the deterministic cross online matching
//! algorithm.
//!
//! For every arriving request, DemCOM:
//!
//! 1. greedily assigns the *nearest* idle inner worker covering the
//!    request (lines 2–6);
//! 2. otherwise collects the feasible outer workers `W_out^r` and, if any
//!    exist, estimates the minimum outer payment `v'_r` with the Monte
//!    Carlo dichotomy of Algorithm 2 (lines 8–12);
//! 3. rejects if the estimate exceeds `v_r` — the platform would lose
//!    money (lines 13–14);
//! 4. otherwise samples each outer worker's willingness at `v'_r`
//!    (`x ≤ pr(v'_r, w)`) and assigns the nearest willing worker, gaining
//!    `v_r − v'_r` (lines 15–26).
//!
//! Greedy in spirit: maximal immediate revenue, minimal payment — which is
//! precisely the weakness Section III-D documents (≈70% payment rate but
//! only ≈17% acceptance) and RamCOM fixes.

use rand::rngs::StdRng;

use com_sim::{IdleWorker, PlatformId, RequestSpec, World};

use crate::config::DemComConfig;
use crate::cooperative;
use crate::matcher::{Decision, OnlineMatcher, StreamInfo};

/// Deterministic cross online matching (Algorithm 1).
///
/// Holds a reusable candidate buffer so steady-state decisions do not
/// allocate for the outer-worker query (the buffer is observer-only
/// state: decisions are a pure function of `(world, request, rng)`).
#[derive(Debug, Clone, Default)]
pub struct DemCom {
    config: DemComConfig,
    outer: Vec<(PlatformId, IdleWorker)>,
}

impl DemCom {
    pub fn new(config: DemComConfig) -> Self {
        DemCom {
            config,
            outer: Vec::new(),
        }
    }

    pub fn config(&self) -> &DemComConfig {
        &self.config
    }
}

impl OnlineMatcher for DemCom {
    fn name(&self) -> &'static str {
        "DemCOM"
    }

    fn begin(&mut self, _info: &StreamInfo, _rng: &mut StdRng) {}

    fn decide(&mut self, world: &World, request: &RequestSpec, rng: &mut StdRng) -> Decision {
        // Lines 2–6: inner workers have priority; nearest feasible wins.
        // Line 8: W_out^r — feasible outer workers, nearest-first, into
        // the reused scratch buffer.
        let inner = {
            let _span = com_obs::span(com_obs::PHASE_CANDIDATES);
            let inner = world.nearest_inner_coverer(request.platform, request.location);
            if inner.is_none() {
                world.outer_coverers_into(
                    request.platform,
                    request.location,
                    &mut self.outer,
                    &mut Vec::new(),
                );
            } else {
                self.outer.clear();
            }
            inner
        };
        if let Some(w) = inner {
            return Decision::Inner { worker: w.id };
        }
        // Lines 9–26: price by the Monte Carlo minimum payment, then
        // offer it nearest-first.
        cooperative::offer(
            world,
            &self.outer,
            cooperative::min_payment(self.config.monte_carlo, request.value),
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_geo::Point;
    use com_pricing::{MonteCarloParams, WorkerHistory};
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

    fn demcom() -> DemCom {
        DemCom::new(DemComConfig {
            monte_carlo: MonteCarloParams::new(0.05, 0.5, 0.01),
        })
    }

    #[test]
    fn prefers_inner_worker_even_when_outer_is_closer() {
        let mut world = two_platform_world();
        add_worker(&mut world, 1, 0, 5.9, vec![1.0]); // inner, 0.9 km away
        add_worker(&mut world, 2, 1, 5.1, vec![1.0]); // outer, 0.1 km away
        let mut rng = StdRng::seed_from_u64(1);
        let d = demcom().decide(&world, &request(5.0, 10.0), &mut rng);
        assert_eq!(
            d,
            Decision::Inner {
                worker: WorkerId(1)
            }
        );
    }

    #[test]
    fn nearest_inner_wins_among_several() {
        let mut world = two_platform_world();
        add_worker(&mut world, 1, 0, 5.8, vec![1.0]);
        add_worker(&mut world, 2, 0, 5.2, vec![1.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let d = demcom().decide(&world, &request(5.0, 10.0), &mut rng);
        assert_eq!(
            d,
            Decision::Inner {
                worker: WorkerId(2)
            }
        );
    }

    #[test]
    fn borrows_willing_outer_worker() {
        // Graded history: acceptance rises smoothly from ¥0.5 to ¥5, so
        // the minimum-payment offer is accepted with decent probability.
        // DemCOM's offers are *designed* to sit near the acceptance floor
        // (the paper reports only ≈17% acceptance), so we scan seeds for
        // an accepting run and then check its invariants.
        let mut accepted = 0;
        let mut rejected = 0;
        for seed in 0..32 {
            let mut world = two_platform_world();
            add_worker(
                &mut world,
                2,
                1,
                5.1,
                vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0],
            );
            let mut rng = StdRng::seed_from_u64(seed);
            match demcom().decide(&world, &request(5.0, 10.0), &mut rng) {
                Decision::Outer {
                    worker,
                    platform,
                    payment,
                } => {
                    accepted += 1;
                    assert_eq!(worker, WorkerId(2));
                    assert_eq!(platform, PlatformId(1));
                    assert!(payment > 0.0 && payment <= 10.0);
                    // The estimate must sit near the low end of the CDF.
                    assert!(payment < 5.0, "payment {payment} too far above floor");
                }
                Decision::Reject {
                    was_cooperative_offer,
                } => {
                    rejected += 1;
                    assert!(was_cooperative_offer);
                }
                Decision::Inner { .. } => panic!("no inner worker exists"),
            }
        }
        assert!(accepted > 0, "no seed produced an accepted offer");
        // DemCOM's minimum-payment policy should also show its documented
        // weakness: some offers get declined.
        assert!(
            rejected > 0,
            "every offer accepted — floor pricing too generous"
        );
    }

    #[test]
    fn rejects_when_no_worker_in_range() {
        let mut world = two_platform_world();
        add_worker(&mut world, 1, 0, 1.0, vec![1.0]);
        add_worker(&mut world, 2, 1, 9.0, vec![1.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let d = demcom().decide(&world, &request(5.0, 10.0), &mut rng);
        assert_eq!(
            d,
            Decision::Reject {
                was_cooperative_offer: false
            }
        );
    }

    #[test]
    fn rejects_when_outer_floor_exceeds_value() {
        let mut world = two_platform_world();
        // The only reachable worker never worked for less than ¥50.
        add_worker(&mut world, 2, 1, 5.1, vec![50.0, 60.0]);
        let mut rng = StdRng::seed_from_u64(4);
        let d = demcom().decide(&world, &request(5.0, 5.0), &mut rng);
        // The estimated floor exceeds v_r, so the offer loop never runs:
        // no worker was asked, and the rejection must not inflate
        // AcpRt's denominator.
        assert_eq!(
            d,
            Decision::Reject {
                was_cooperative_offer: false
            }
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let mut world = two_platform_world();
        add_worker(&mut world, 2, 1, 5.1, vec![2.0, 4.0, 8.0]);
        let r = request(5.0, 10.0);
        let d1 = demcom().decide(&world, &r, &mut StdRng::seed_from_u64(7));
        let d2 = demcom().decide(&world, &r, &mut StdRng::seed_from_u64(7));
        assert_eq!(d1, d2);
    }

    #[test]
    fn outer_payment_never_negative_revenue() {
        // Whatever the histories, an accepted outer assignment keeps
        // payment ≤ v_r.
        for seed in 0..20 {
            let mut world = two_platform_world();
            add_worker(&mut world, 2, 1, 5.1, vec![3.0, 9.0, 15.0]);
            let mut rng = StdRng::seed_from_u64(seed);
            if let Decision::Outer { payment, .. } =
                demcom().decide(&world, &request(5.0, 12.0), &mut rng)
            {
                assert!(payment <= 12.0 + 1e-9);
                assert!(payment > 0.0);
            }
        }
    }
}
