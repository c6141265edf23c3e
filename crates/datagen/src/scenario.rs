//! Declarative scenario configuration and the instance generator.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use com_geo::BoundingBox;
use com_pricing::WorkerHistory;
use com_sim::{
    EventStream, Instance, PlatformId, RequestId, RequestSpec, ServiceModel, WorkerId, WorkerSpec,
    WorldConfig,
};

use crate::hotspot::SpatialMixture;
use crate::temporal::DailyProfile;
use crate::values::ValueDistribution;

/// Per-platform generation parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    pub name: String,
    pub n_requests: usize,
    pub n_workers: usize,
    /// Service radius `rad` (km) of every worker on this platform.
    pub radius_km: f64,
    /// Where this platform's workers start their shift.
    pub worker_spatial: SpatialMixture,
    /// Where this platform's requests originate.
    pub request_spatial: SpatialMixture,
    /// Fare distribution of this platform's requests.
    pub values: ValueDistribution,
    /// Distribution of the *worker-side* payments recorded in acceptance
    /// histories. Calibrated separately from `values`: a worker's history
    /// holds what past jobs paid *the worker* — the same heavy-tailed
    /// shape as fares but centred at ≈ 0.79 of the mean fare (the
    /// worker's side of a ride; see
    /// [`ValueDistribution::worker_history`]). This calibration is what
    /// reproduces the paper's incentive shape: DemCOM's floor-hugging
    /// minimum payments get declined often while RamCOM's
    /// expected-revenue payments clear the histories' mass and get
    /// accepted at much higher rates.
    pub history_values: ValueDistribution,
    /// Uniform-inclusive range of history lengths per worker.
    pub history_len: (usize, usize),
}

/// A complete scenario: platforms + shared knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    pub extent: BoundingBox,
    pub platforms: Vec<PlatformSpec>,
    pub service: ServiceModel,
    pub request_profile: DailyProfile,
    pub worker_profile: DailyProfile,
    pub update_histories: bool,
    pub seed: u64,
}

impl ScenarioConfig {
    /// Total requests across platforms.
    pub fn total_requests(&self) -> usize {
        self.platforms.iter().map(|p| p.n_requests).sum()
    }

    /// Total workers across platforms.
    pub fn total_workers(&self) -> usize {
        self.platforms.iter().map(|p| p.n_workers).sum()
    }

    /// A copy with a different seed (for repeated trials).
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut c = self.clone();
        c.seed = seed;
        c
    }

    /// A density-preserving down-scale: divides every platform's counts
    /// by `factor` **and** shrinks the city area by the same factor
    /// (side length by `√factor`), so worker density — the quantity that
    /// drives coverage and completion ratios — is unchanged. Used by
    /// the `--quick` experiment modes.
    pub fn scaled(&self, factor: usize) -> Self {
        assert!(factor >= 1, "scale factor must be at least 1");
        let mut c = self.clone();
        let geo = 1.0 / (factor as f64).sqrt();
        c.extent = com_geo::BoundingBox::from_corners(
            com_geo::Point::new(self.extent.min.x * geo, self.extent.min.y * geo),
            com_geo::Point::new(self.extent.max.x * geo, self.extent.max.y * geo),
        );
        for p in &mut c.platforms {
            p.n_requests = (p.n_requests / factor).max(10);
            p.n_workers = (p.n_workers / factor).max(4);
            p.worker_spatial = p.worker_spatial.scaled(geo);
            p.request_spatial = p.request_spatial.scaled(geo);
        }
        c
    }
}

/// Generate a replayable [`Instance`] from a scenario.
///
/// Fully deterministic in `config.seed`. Workers and requests draw from
/// **independent per-platform RNG streams**, so sweeping one population's
/// size (e.g. Table IV's `|W|` axis) leaves the other population — and in
/// particular the total request value, the y-axis of Fig. 5(e) — exactly
/// unchanged.
pub fn generate(config: &ScenarioConfig) -> Instance {
    assert!(!config.platforms.is_empty(), "scenario needs platforms");

    let mut workers = Vec::with_capacity(config.total_workers());
    let mut requests = Vec::with_capacity(config.total_requests());
    let mut histories = HashMap::with_capacity(config.total_workers());

    let mut next_worker = 1u64;
    let mut next_request = 1u64;

    // SplitMix-style stream derivation: one independent substream per
    // (platform, population) pair.
    let substream = |pidx: u64, salt: u64| -> StdRng {
        let mut z = config
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(pidx * 2 + salt + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        StdRng::seed_from_u64(z ^ (z >> 31))
    };

    for (pidx, p) in config.platforms.iter().enumerate() {
        let platform = PlatformId(pidx as u16);
        assert!(p.radius_km > 0.0, "platform {} has no radius", p.name);
        assert!(
            p.history_len.0 <= p.history_len.1,
            "history range reversed for {}",
            p.name
        );

        let mut worker_rng = substream(pidx as u64, 0);
        for _ in 0..p.n_workers {
            let id = WorkerId(next_worker);
            next_worker += 1;
            let spec = WorkerSpec::new(
                id,
                platform,
                config.worker_profile.sample(&mut worker_rng),
                p.worker_spatial.sample(&mut worker_rng),
                p.radius_km,
            );
            let n_hist = worker_rng.random_range(p.history_len.0..=p.history_len.1);
            let values: Vec<f64> = (0..n_hist)
                .map(|_| p.history_values.sample(&mut worker_rng))
                .collect();
            histories.insert(id, WorkerHistory::from_values(values));
            workers.push(spec);
        }

        let mut request_rng = substream(pidx as u64, 1);
        for _ in 0..p.n_requests {
            let id = RequestId(next_request);
            next_request += 1;
            requests.push(RequestSpec::new(
                id,
                platform,
                config.request_profile.sample(&mut request_rng),
                p.request_spatial.sample(&mut request_rng),
                p.values.sample(&mut request_rng),
            ));
        }
    }

    let expected_radius = config
        .platforms
        .iter()
        .map(|p| p.radius_km)
        .fold(0.0f64, f64::max);

    let world_config = WorldConfig {
        extent: config.extent,
        expected_radius,
        service: config.service,
        update_histories: config.update_histories,
        // Scenarios generate in the Euclidean base model; callers opt
        // into the road-network surrogate by flipping
        // `instance.config.metric` (see the road_network example).
        metric: com_geo::DistanceMetric::Euclidean,
    };

    Instance {
        config: world_config,
        platform_names: config.platforms.iter().map(|p| p.name.clone()).collect(),
        histories,
        stream: EventStream::from_specs(workers, requests),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hotspot::Hotspot;
    use com_geo::Point;

    fn config(seed: u64) -> ScenarioConfig {
        let extent = BoundingBox::square(20.0);
        let m = SpatialMixture::new(
            extent,
            vec![Hotspot::new(Point::new(5.0, 10.0), 2.0, 1.0)],
            0.5,
        );
        ScenarioConfig {
            extent,
            platforms: vec![
                PlatformSpec {
                    name: "A".into(),
                    n_requests: 120,
                    n_workers: 30,
                    radius_km: 1.0,
                    worker_spatial: m.clone(),
                    request_spatial: m.complement(),
                    values: ValueDistribution::real_like(),
                    history_values: ValueDistribution::worker_history(),
                    history_len: (5, 20),
                },
                PlatformSpec {
                    name: "B".into(),
                    n_requests: 80,
                    n_workers: 25,
                    radius_km: 1.5,
                    worker_spatial: m.complement(),
                    request_spatial: m,
                    values: ValueDistribution::normal(),
                    history_values: ValueDistribution::worker_history(),
                    history_len: (5, 20),
                },
            ],
            service: ServiceModel::default_taxi(),
            request_profile: DailyProfile::two_peak(),
            worker_profile: DailyProfile::flat(),
            update_histories: false,
            seed,
        }
    }

    #[test]
    fn generates_requested_counts() {
        let inst = generate(&config(1));
        assert_eq!(inst.request_count(), 200);
        assert_eq!(inst.worker_count(), 55);
        assert_eq!(inst.platform_names, vec!["A", "B"]);
        assert_eq!(inst.histories.len(), 55);
    }

    #[test]
    fn ids_are_unique_and_dense() {
        let inst = generate(&config(2));
        let mut worker_ids: Vec<u64> = inst.stream.workers().map(|w| w.id.as_u64()).collect();
        worker_ids.sort_unstable();
        worker_ids.dedup();
        assert_eq!(worker_ids.len(), 55);
        let mut request_ids: Vec<u64> = inst.stream.requests().map(|r| r.id.as_u64()).collect();
        request_ids.sort_unstable();
        assert_eq!(request_ids, (1..=200).collect::<Vec<u64>>());
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&config(7));
        let b = generate(&config(7));
        assert_eq!(a.stream, b.stream);
        let c = generate(&config(8));
        assert_ne!(a.stream, c.stream);
    }

    #[test]
    fn per_platform_parameters_apply() {
        let inst = generate(&config(3));
        for w in inst.stream.workers() {
            let expected = if w.platform == PlatformId(0) {
                1.0
            } else {
                1.5
            };
            assert_eq!(w.radius, expected);
            assert!(inst.config.extent.contains(w.location));
        }
        for r in inst.stream.requests() {
            assert!(inst.config.extent.contains(r.location));
            assert!(r.value >= crate::values::MIN_FARE);
        }
    }

    #[test]
    fn histories_have_requested_lengths() {
        let inst = generate(&config(4));
        for h in inst.histories.values() {
            assert!((5..=20).contains(&h.len()));
        }
    }

    #[test]
    fn stream_is_time_ordered() {
        let inst = generate(&config(5));
        let times: Vec<f64> = inst.stream.iter().map(|e| e.time().as_secs()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn requests_invariant_under_worker_count_changes() {
        // The Fig. 5(e)/(f)/(g)/(h) sweeps vary |W| at fixed |R|; the
        // request population (and its total value) must not change.
        let mut a = config(9);
        let mut b = config(9);
        b.platforms[0].n_workers = 300;
        b.platforms[1].n_workers = 5;
        let ia = generate(&a);
        let ib = generate(&b);
        let ra: Vec<_> = ia.stream.requests().copied().collect();
        let rb: Vec<_> = ib.stream.requests().copied().collect();
        assert_eq!(ra, rb);
        // And symmetrically: worker draws are invariant under |R|.
        a.platforms[0].n_requests = 7;
        let ic = generate(&a);
        let wa: Vec<_> = ia.stream.workers().copied().collect();
        let wc: Vec<_> = ic.stream.workers().copied().collect();
        assert_eq!(wa, wc);
    }

    #[test]
    fn world_config_carries_scenario_knobs() {
        let inst = generate(&config(6));
        assert_eq!(inst.config.expected_radius, 1.5);
        assert!(inst.config.service.reentry);
        assert!(!inst.config.update_histories);
    }
}
