//! Route-aware cross online matching — the paper's §VII future work.
//!
//! "Besides obtaining the high total revenue, the cooperation can be
//! improved if the crowd workers can provide the service after short
//! travel distances."
//!
//! [`RouteAwareCom`] wraps DemCOM's decision structure with a *pickup
//! cap*: a worker (inner or outer) is only considered when the request
//! lies within `pickup_cap_km` of the worker's current position, even if
//! the worker's advertised service radius is larger. Tightening the cap
//! trades completed requests and revenue for shorter deadhead travel —
//! the trade-off the `repro ablation` experiment quantifies via
//! [`crate::RunResult::mean_pickup_km`].

use rand::rngs::StdRng;

use com_sim::{RequestSpec, World};

use crate::config::DemComConfig;
use crate::cooperative;
use crate::matcher::{Decision, OnlineMatcher, StreamInfo};

/// Route-aware COM: DemCOM with a pickup-distance cap.
#[derive(Debug, Clone, Copy)]
pub struct RouteAwareCom {
    config: DemComConfig,
    /// Maximum pickup distance in km. Workers further than this from the
    /// request are not considered even when their service circle covers
    /// it. `f64::INFINITY` recovers plain DemCOM.
    pub pickup_cap_km: f64,
}

impl RouteAwareCom {
    pub fn new(config: DemComConfig, pickup_cap_km: f64) -> Self {
        assert!(pickup_cap_km > 0.0, "pickup cap must be positive");
        RouteAwareCom {
            config,
            pickup_cap_km,
        }
    }

    /// A route-aware matcher with DemCOM's default Monte Carlo settings.
    pub fn with_cap(pickup_cap_km: f64) -> Self {
        Self::new(DemComConfig::default(), pickup_cap_km)
    }
}

impl OnlineMatcher for RouteAwareCom {
    fn name(&self) -> &'static str {
        "RouteAware"
    }

    fn begin(&mut self, _info: &StreamInfo, _rng: &mut StdRng) {}

    fn decide(&mut self, world: &World, request: &RequestSpec, rng: &mut StdRng) -> Decision {
        let metric = world.config().metric;
        let cap = self.pickup_cap_km;

        // Inner first, nearest within the cap.
        let inner = {
            let _span = com_obs::span(com_obs::PHASE_CANDIDATES);
            world.inner_coverers(request.platform, request.location)
        };
        if let Some(w) = inner
            .iter()
            .find(|w| metric.distance(w.location, request.location) <= cap)
        {
            return Decision::Inner { worker: w.id };
        }

        // Outer candidates within the cap (nearest-first already).
        let outer: Vec<_> = {
            let _span = com_obs::span(com_obs::PHASE_CANDIDATES);
            world
                .outer_coverers(request.platform, request.location)
                .into_iter()
                .filter(|(_, w)| metric.distance(w.location, request.location) <= cap)
                .collect()
        };
        cooperative::offer(
            world,
            &outer,
            cooperative::min_payment(self.config.monte_carlo, request.value),
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_online;
    use crate::DemCom;
    use com_geo::Point;
    use com_pricing::WorkerHistory;
    use com_sim::{
        EventStream, Instance, PlatformId, RequestId, ServiceModel, Timestamp, WorkerId,
        WorkerSpec, WorldConfig,
    };
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn cap_excludes_distant_workers() {
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::one_shot();
        let mut world = com_sim::World::new(config, vec!["A".into(), "B".into()]);
        // Inner worker 0.9 km away with a 1 km radius: feasible for
        // DemCOM, excluded by a 0.5 km pickup cap.
        world.register_worker(
            WorkerSpec::new(
                WorkerId(1),
                PlatformId(0),
                ts(0.0),
                Point::new(5.9, 5.0),
                1.0,
            ),
            WorkerHistory::new(),
        );
        world.worker_arrives(WorkerId(1));
        let r = RequestSpec::new(
            RequestId(1),
            PlatformId(0),
            ts(1.0),
            Point::new(5.0, 5.0),
            9.0,
        );

        let mut rng = StdRng::seed_from_u64(1);
        let strict = RouteAwareCom::with_cap(0.5).decide(&world, &r, &mut rng);
        assert!(!strict.is_served());
        let loose = RouteAwareCom::with_cap(1.0).decide(&world, &r, &mut rng);
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
        world.register_worker(
            WorkerSpec::new(
                WorkerId(2),
                PlatformId(1),
                ts(0.0),
                Point::new(5.1, 5.0),
                1.0,
            ),
            WorkerHistory::from_values(vec![50.0, 60.0]),
        );
        world.worker_arrives(WorkerId(2));
        let r = RequestSpec::new(
            RequestId(1),
            PlatformId(0),
            ts(1.0),
            Point::new(5.0, 5.0),
            5.0,
        );
        let d = RouteAwareCom::with_cap(1.0).decide(&world, &r, &mut StdRng::seed_from_u64(4));
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
        world.register_worker(
            WorkerSpec::new(
                WorkerId(1),
                PlatformId(0),
                ts(0.0),
                Point::new(5.4, 5.0),
                1.0,
            ),
            WorkerHistory::new(),
        );
        world.worker_arrives(WorkerId(1));
        let r = RequestSpec::new(
            RequestId(1),
            PlatformId(0),
            ts(1.0),
            Point::new(5.0, 5.0),
            9.0,
        );
        let mut rng1 = StdRng::seed_from_u64(4);
        let mut rng2 = StdRng::seed_from_u64(4);
        let a = RouteAwareCom::with_cap(f64::INFINITY).decide(&world, &r, &mut rng1);
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

        let strict = run_online(&instance, &mut RouteAwareCom::with_cap(0.4), 9);
        let loose = run_online(&instance, &mut RouteAwareCom::with_cap(1.5), 9);
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
}
