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
//!
//! # Route-aware matching (§VII future work)
//!
//! "Besides obtaining the high total revenue, the cooperation can be
//! improved if the crowd workers can provide the service after short
//! travel distances."
//!
//! [`DemCom::with_pickup_cap`] is that extension (`route-aware:<cap-km>`):
//! a worker, inner or outer, is only considered when the request lies
//! within the cap of the worker's current position, even if the worker's
//! advertised service radius is larger. Both candidate lists are
//! nearest-first, so the cap only cuts their tails: the inner candidate is
//! the nearest coverer if it is within the cap, and the outer list keeps
//! its order. Tightening the cap trades completed requests and revenue
//! for shorter deadhead travel — the trade-off the `repro ablation`
//! experiment quantifies via [`crate::RunResult::mean_pickup_km`].

use rand::rngs::StdRng;

use com_geo::Km;
use com_sim::{IdleWorker, PlatformId, RequestSpec, World};

use crate::config::DemComConfig;
use crate::cooperative;
use crate::matcher::{Decision, OnlineMatcher, StreamInfo};

/// Deterministic cross online matching (Algorithm 1), optionally with a
/// pickup-distance cap (route-aware, see the module docs).
///
/// Holds a reusable candidate buffer so steady-state decisions do not
/// allocate for the outer-worker query (the buffer is observer-only
/// state: decisions are a pure function of `(world, request, rng)`).
#[derive(Debug, Clone, Default)]
pub struct DemCom {
    config: DemComConfig,
    /// Maximum pickup distance in km; `None` is plain Algorithm 1.
    pickup_cap_km: Option<Km>,
    outer: Vec<(PlatformId, IdleWorker)>,
}

impl DemCom {
    pub fn new(config: DemComConfig) -> Self {
        DemCom {
            config,
            pickup_cap_km: None,
            outer: Vec::new(),
        }
    }

    /// Route-aware COM: DemCOM with default Monte Carlo settings that
    /// ignores every worker further than `cap` km from the request.
    ///
    /// # Panics
    /// Panics unless `cap` is positive.
    pub fn with_pickup_cap(cap: Km) -> Self {
        assert!(cap > 0.0, "pickup cap must be positive");
        DemCom {
            pickup_cap_km: Some(cap),
            ..DemCom::default()
        }
    }
}

impl OnlineMatcher for DemCom {
    fn name(&self) -> &'static str {
        if self.pickup_cap_km.is_some() {
            "RouteAware"
        } else {
            "DemCOM"
        }
    }

    fn begin(&mut self, _info: &StreamInfo, _rng: &mut StdRng) {}

    fn decide(&mut self, world: &World, request: &RequestSpec, rng: &mut StdRng) -> Decision {
        let cap = self.pickup_cap_km;
        let metric = world.config().metric;
        let within_cap = |w: &IdleWorker| {
            cap.is_none_or(|cap| metric.distance(w.location, request.location) <= cap)
        };
        // Lines 2–6: inner workers have priority; nearest feasible wins.
        // Line 8: W_out^r — feasible outer workers, nearest-first, into
        // the reused scratch buffer.
        let inner = {
            let _span = com_obs::span(com_obs::PHASE_CANDIDATES);
            let inner = world
                .nearest_inner_coverer(request.platform, request.location)
                .filter(within_cap);
            if inner.is_none() {
                world.outer_coverers_into(
                    request.platform,
                    request.location,
                    &mut self.outer,
                    &mut Vec::new(),
                );
                if cap.is_some() {
                    self.outer.retain(|(_, w)| within_cap(w));
                }
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
    use crate::engine::run_online;
    use com_geo::{DistanceMetric, Point};
    use com_pricing::{MonteCarloParams, WorkerHistory};
    use com_sim::{
        EventStream, Instance, MatchKind, PlatformId, RequestId, ServiceModel, Timestamp, WorkerId,
        WorkerSpec, WorldConfig,
    };
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn two_platform_world() -> World {
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::one_shot();
        World::new(config, vec!["A".into(), "B".into()])
    }

    fn add_worker(world: &mut World, id: u64, platform: u16, x: f64, history: Vec<f64>) {
        world
            .register_worker(
                WorkerSpec::new(
                    WorkerId(id),
                    PlatformId(platform),
                    Timestamp::ZERO,
                    Point::new(x, 5.0),
                    1.0,
                ),
                WorkerHistory::from_values(history),
            )
            .unwrap();
        world.worker_arrives(WorkerId(id)).unwrap();
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

    #[test]
    fn cap_excludes_distant_workers() {
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::one_shot();
        let mut world = com_sim::World::new(config, vec!["A".into(), "B".into()]);
        // Inner worker 0.9 km away with a 1 km radius: feasible for
        // DemCOM, excluded by a 0.5 km pickup cap.
        world
            .register_worker(
                WorkerSpec::new(
                    WorkerId(1),
                    PlatformId(0),
                    ts(0.0),
                    Point::new(5.9, 5.0),
                    1.0,
                ),
                WorkerHistory::new(),
            )
            .unwrap();
        world.worker_arrives(WorkerId(1)).unwrap();
        let r = RequestSpec::new(
            RequestId(1),
            PlatformId(0),
            ts(1.0),
            Point::new(5.0, 5.0),
            9.0,
        );

        let mut rng = StdRng::seed_from_u64(1);
        let strict = DemCom::with_pickup_cap(0.5).decide(&world, &r, &mut rng);
        assert!(!strict.is_served());
        let loose = DemCom::with_pickup_cap(1.0).decide(&world, &r, &mut rng);
        assert_eq!(
            loose,
            Decision::Inner {
                worker: WorkerId(1)
            }
        );
    }

    #[test]
    fn pricing_failure_is_not_a_cooperative_offer() {
        // The only outer worker in range never worked for less than ¥50, so
        // Algorithm 2 prices a ¥5 request above its value: no offer is ever
        // extended and AcpRt's denominator must not grow.
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::one_shot();
        let mut world = com_sim::World::new(config, vec!["A".into(), "B".into()]);
        world
            .register_worker(
                WorkerSpec::new(
                    WorkerId(2),
                    PlatformId(1),
                    ts(0.0),
                    Point::new(5.1, 5.0),
                    1.0,
                ),
                WorkerHistory::from_values(vec![50.0, 60.0]),
            )
            .unwrap();
        world.worker_arrives(WorkerId(2)).unwrap();
        let r = RequestSpec::new(
            RequestId(1),
            PlatformId(0),
            ts(1.0),
            Point::new(5.0, 5.0),
            5.0,
        );
        let d = DemCom::with_pickup_cap(1.0).decide(&world, &r, &mut StdRng::seed_from_u64(4));
        assert_eq!(
            d,
            Decision::Reject {
                was_cooperative_offer: false
            }
        );
    }

    #[test]
    fn infinite_cap_behaves_like_demcom() {
        // Same decision on a deterministic single-candidate world.
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::one_shot();
        let mut world = com_sim::World::new(config, vec!["A".into(), "B".into()]);
        world
            .register_worker(
                WorkerSpec::new(
                    WorkerId(1),
                    PlatformId(0),
                    ts(0.0),
                    Point::new(5.4, 5.0),
                    1.0,
                ),
                WorkerHistory::new(),
            )
            .unwrap();
        world.worker_arrives(WorkerId(1)).unwrap();
        let r = RequestSpec::new(
            RequestId(1),
            PlatformId(0),
            ts(1.0),
            Point::new(5.0, 5.0),
            9.0,
        );
        let mut rng1 = StdRng::seed_from_u64(4);
        let mut rng2 = StdRng::seed_from_u64(4);
        let a = DemCom::with_pickup_cap(f64::INFINITY).decide(&world, &r, &mut rng1);
        let b = DemCom::default().decide(&world, &r, &mut rng2);
        assert_eq!(a, b);
    }

    #[test]
    fn tighter_caps_shorten_pickup_distance() {
        // A small random day: mean pickup distance must be monotone
        // non-increasing in the cap, completions monotone non-decreasing.
        let workers: Vec<WorkerSpec> = (0..40)
            .map(|i| {
                WorkerSpec::new(
                    WorkerId(i + 1),
                    PlatformId((i % 2) as u16),
                    ts(0.0),
                    Point::new((i as f64 * 0.37) % 8.0 + 1.0, (i as f64 * 0.61) % 8.0 + 1.0),
                    1.5,
                )
            })
            .collect();
        let requests: Vec<RequestSpec> = (0..120)
            .map(|i| {
                RequestSpec::new(
                    RequestId(i + 1),
                    PlatformId((i % 2) as u16),
                    ts(10.0 + i as f64 * 50.0),
                    Point::new((i as f64 * 0.53) % 8.0 + 1.0, (i as f64 * 0.29) % 8.0 + 1.0),
                    5.0 + (i % 20) as f64,
                )
            })
            .collect();
        let histories: HashMap<WorkerId, WorkerHistory> = (0..40)
            .map(|i| {
                (
                    WorkerId(i + 1),
                    WorkerHistory::from_values(vec![3.0, 6.0, 9.0]),
                )
            })
            .collect();
        let instance = Instance {
            config: WorldConfig::city(10.0),
            platform_names: vec!["A".into(), "B".into()],
            histories,
            stream: EventStream::from_specs(workers, requests),
        };

        let strict = run_online(&instance, &mut DemCom::with_pickup_cap(0.4), 9);
        let loose = run_online(&instance, &mut DemCom::with_pickup_cap(1.5), 9);
        assert!(loose.completed() >= strict.completed());
        if let (Some(s), Some(l)) = (strict.mean_pickup_km(), loose.mean_pickup_km()) {
            assert!(
                s <= l + 1e-9,
                "strict cap pickup {s} should not exceed loose cap pickup {l}"
            );
            assert!(s <= 0.4 + 1e-9, "cap violated: mean pickup {s}");
        }
        // Every individual pickup respects the cap.
        for a in &strict.assignments {
            assert!(a.travel_km <= 0.4 + 1e-9);
        }
    }

    /// The route-aware matcher as it was written before it became DemCOM
    /// with a pickup cap: every inner coverer nearest-first, the first
    /// within the cap wins; otherwise every outer coverer within the cap,
    /// priced and offered as DemCOM does.
    struct ReferenceRouteAware {
        pickup_cap_km: f64,
    }

    impl OnlineMatcher for ReferenceRouteAware {
        fn name(&self) -> &'static str {
            "RouteAware"
        }

        fn begin(&mut self, _info: &StreamInfo, _rng: &mut StdRng) {}

        fn decide(&mut self, world: &World, request: &RequestSpec, rng: &mut StdRng) -> Decision {
            let metric = world.config().metric;
            let cap = self.pickup_cap_km;

            // Inner first, nearest within the cap.
            let mut inner = Vec::new();
            world.inner_coverers_into(request.platform, request.location, &mut inner);
            if let Some(w) = inner
                .iter()
                .find(|w| metric.distance(w.location, request.location) <= cap)
            {
                return Decision::Inner { worker: w.id };
            }

            // Outer candidates within the cap (nearest-first already).
            let mut all = Vec::new();
            world.outer_coverers_into(
                request.platform,
                request.location,
                &mut all,
                &mut Vec::new(),
            );
            let outer: Vec<_> = all
                .into_iter()
                .filter(|(_, w)| metric.distance(w.location, request.location) <= cap)
                .collect();
            cooperative::offer(
                world,
                &outer,
                cooperative::min_payment(DemComConfig::default().monte_carlo, request.value),
                rng,
            )
        }
    }

    type Entity = (f64, f64, f64, f64, bool);

    /// A random two-platform day in a 10 km city, drawn as the engine
    /// property tests draw theirs.
    fn random_instance(
        workers: &[Entity],
        requests: &[Entity],
        one_shot: bool,
        metric: DistanceMetric,
    ) -> Instance {
        let side = 10.0;
        let workers: Vec<WorkerSpec> = workers
            .iter()
            .enumerate()
            .map(|(i, &(x, y, t, rad, plat))| {
                WorkerSpec::new(
                    WorkerId(i as u64 + 1),
                    PlatformId(plat as u16),
                    ts(t * 80_000.0),
                    Point::new(x * side, y * side),
                    0.3 + rad * 2.0,
                )
            })
            .collect();
        let requests: Vec<RequestSpec> = requests
            .iter()
            .enumerate()
            .map(|(i, &(x, y, t, v, plat))| {
                RequestSpec::new(
                    RequestId(i as u64 + 1),
                    PlatformId(plat as u16),
                    ts(t * 86_000.0),
                    Point::new(x * side, y * side),
                    1.0 + v * 50.0,
                )
            })
            .collect();
        let histories: HashMap<WorkerId, WorkerHistory> = workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let base = 2.0 + (i % 7) as f64 * 3.0;
                let values = vec![base, base + 4.0, base + 9.0];
                (w.id, WorkerHistory::from_values(values))
            })
            .collect();
        let mut config = WorldConfig::city(side);
        config.metric = metric;
        if one_shot {
            config.service = ServiceModel::one_shot();
        }
        Instance {
            config,
            platform_names: vec!["A".into(), "B".into()],
            histories,
            stream: EventStream::from_specs(workers, requests),
        }
    }

    /// Every decision of a run, payment to the bit.
    fn decisions(
        run: &crate::RunResult,
    ) -> Vec<(MatchKind, Option<WorkerId>, Option<PlatformId>, u64)> {
        run.assignments
            .iter()
            .map(|a| {
                (
                    a.kind,
                    a.worker,
                    a.worker_platform,
                    a.outer_payment.to_bits(),
                )
            })
            .collect()
    }

    fn entities(max: usize) -> impl Strategy<Value = Vec<Entity>> {
        proptest::collection::vec(
            (
                0.0..1.0f64,
                0.0..1.0f64,
                0.0..1.0f64,
                0.0..1.0f64,
                proptest::bool::ANY,
            ),
            1..max,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The capped DemCOM decides exactly as the route-aware matcher
        /// it replaced, under both metrics, one-shot and re-entry service
        /// and every cap; an infinite cap is plain DemCOM.
        #[test]
        fn capped_demcom_decides_as_the_route_aware_reference(
            workers in entities(16),
            requests in entities(40),
            one_shot in proptest::bool::ANY,
            manhattan in proptest::bool::ANY,
            seed in 0u64..1000,
        ) {
            let metric = if manhattan {
                DistanceMetric::Manhattan
            } else {
                DistanceMetric::Euclidean
            };
            let instance = random_instance(&workers, &requests, one_shot, metric);
            for cap in [0.3, 0.8, 2.5, f64::INFINITY] {
                let mut reference = ReferenceRouteAware { pickup_cap_km: cap };
                let expected = run_online(&instance, &mut reference, seed);
                let merged = run_online(&instance, &mut DemCom::with_pickup_cap(cap), seed);
                prop_assert_eq!(&merged.algorithm, &expected.algorithm);
                prop_assert_eq!(decisions(&merged), decisions(&expected), "cap {}", cap);
                if cap.is_infinite() {
                    let plain = run_online(&instance, &mut DemCom::default(), seed);
                    prop_assert_eq!(decisions(&plain), decisions(&expected));
                }
            }
        }
    }
}
