//! Named dataset profiles.
//!
//! Table III's six real datasets (two competing platforms × three
//! city-months) are reproduced as deterministic synthetic profiles at
//! **1/10 of the paper's daily volume** — the scale at which the exact
//! offline solvers remain tractable on a laptop while every ratio the
//! paper's conclusions depend on (request:worker ≈ 10 in Chengdu, ≈ 24 in
//! Xi'an; rad = 1 km; mean fare ≈ ¥19) is preserved. See DESIGN.md §2.
//!
//! Table IV's synthetic sweeps draw "equal numbers of requests and
//! workers from each platform" over the Chengdu geometry, defaults
//! `|R| = 2500`, `|W| = 500`.

use std::path::Path;

use serde::{Deserialize, Serialize};

use com_geo::{BoundingBox, Point};
use com_sim::ServiceModel;

use crate::hotspot::{Hotspot, SpatialMixture};
use crate::scenario::{PlatformSpec, ScenarioConfig};
use crate::temporal::DailyProfile;
use crate::values::ValueDistribution;

/// History lengths: each worker has completed between 20 and 120 past
/// requests — enough for a smooth empirical CDF.
const HISTORY_LEN: (usize, usize) = (20, 120);

/// Chengdu's core service area, modelled as a 30 × 30 km box.
fn chengdu_extent() -> BoundingBox {
    BoundingBox::square(30.0)
}

/// Xi'an's core service area, 25 × 25 km.
fn xian_extent() -> BoundingBox {
    BoundingBox::square(25.0)
}

/// Chengdu's demand hotspots (downtown, the software-park south cluster,
/// the railway-station north cluster) over a diffuse background.
fn chengdu_mixture(extent: BoundingBox) -> SpatialMixture {
    SpatialMixture::new(
        extent,
        vec![
            Hotspot::new(Point::new(10.0, 17.0), 3.0, 1.0),
            Hotspot::new(Point::new(8.0, 8.0), 2.5, 0.7),
            Hotspot::new(Point::new(13.0, 24.0), 2.0, 0.5),
        ],
        1.0,
    )
}

/// Xi'an hotspots: a dominant walled-city centre and the high-tech zone.
fn xian_mixture(extent: BoundingBox) -> SpatialMixture {
    SpatialMixture::new(
        extent,
        vec![
            Hotspot::new(Point::new(9.0, 13.0), 2.5, 1.0),
            Hotspot::new(Point::new(6.0, 6.0), 2.0, 0.6),
        ],
        0.8,
    )
}

/// Worker shifts skew towards the morning so supply exists before the
/// first demand peak.
fn worker_profile() -> DailyProfile {
    DailyProfile {
        morning: (7.0, 2.0),
        evening: (16.0, 2.5),
        weights: (0.45, 0.30, 0.25),
    }
}

fn city_profile(
    name_a: &str,
    name_b: &str,
    extent: BoundingBox,
    mixture: SpatialMixture,
    counts: [(usize, usize); 2],
    seed: u64,
) -> ScenarioConfig {
    // The Fig. 2 imbalance, *partial*: each platform's workers cover most
    // of its own demand, but a 35% minority of requests originates in the
    // rival's territory — the worker deserts that make borrowing
    // valuable. (Full complementarity would starve TOTA far below the
    // paper's ≈75% completion.)
    let m = mixture;
    let mc = m.complement();
    let requests_a = SpatialMixture::blend(&m, &mc, 0.65, 0.35);
    let requests_b = SpatialMixture::blend(&mc, &m, 0.65, 0.35);
    let platforms = vec![
        PlatformSpec {
            name: name_a.into(),
            n_requests: counts[0].0,
            n_workers: counts[0].1,
            radius_km: 1.0,
            worker_spatial: m.clone(),
            request_spatial: requests_a,
            values: ValueDistribution::real_like(),
            history_values: ValueDistribution::worker_history(),
            history_len: HISTORY_LEN,
        },
        PlatformSpec {
            name: name_b.into(),
            n_requests: counts[1].0,
            n_workers: counts[1].1,
            radius_km: 1.0,
            worker_spatial: mc,
            request_spatial: requests_b,
            values: ValueDistribution::real_like(),
            history_values: ValueDistribution::worker_history(),
            history_len: HISTORY_LEN,
        },
    ];
    ScenarioConfig {
        extent,
        platforms,
        service: ServiceModel::default_taxi(),
        request_profile: DailyProfile::two_peak(),
        worker_profile: worker_profile(),
        update_histories: false,
        seed,
    }
}

/// RDC10 + RYC10: Chengdu, October 2016 (paper: 91,321 + 90,589 requests,
/// 9,145 + 7,038 workers per day) at 1/10 scale.
pub fn chengdu_oct() -> ScenarioConfig {
    city_profile(
        "DiDi",
        "Yueche",
        chengdu_extent(),
        chengdu_mixture(chengdu_extent()),
        [(9_132, 915), (9_059, 704)],
        0xC0DE_0010,
    )
}

/// RDC11 + RYC11: Chengdu, November 2016 (paper: 100,973 + 100,448
/// requests, 11,199 + 9,333 workers) at 1/10 scale.
pub fn chengdu_nov() -> ScenarioConfig {
    city_profile(
        "DiDi",
        "Yueche",
        chengdu_extent(),
        chengdu_mixture(chengdu_extent()),
        [(10_097, 1_120), (10_045, 933)],
        0xC0DE_0011,
    )
}

/// RDX11 + RYX11: Xi'an, November 2016 (paper: 57,611 + 57,638 requests,
/// 2,441 + 2,686 workers — a much scarcer worker pool, ratio ≈ 24) at
/// 1/10 scale.
pub fn xian_nov() -> ScenarioConfig {
    city_profile(
        "DiDi",
        "Yueche",
        xian_extent(),
        xian_mixture(xian_extent()),
        [(5_761, 244), (5_764, 269)],
        0xC0DE_0021,
    )
}

/// Parameters of a Table IV synthetic scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticParams {
    /// Total requests across both platforms (Table IV: 500 … 100k,
    /// default 2500).
    pub n_requests: usize,
    /// Total workers across both platforms (Table IV: 100 … 20k, default
    /// 500).
    pub n_workers: usize,
    /// Service radius in km (Table IV: 0.5 … 2.5, default 1.0).
    pub radius_km: f64,
    /// Fare distribution ("real" or "normal").
    pub values: ValueDistribution,
    pub seed: u64,
}

impl Default for SyntheticParams {
    fn default() -> Self {
        SyntheticParams {
            n_requests: 2_500,
            n_workers: 500,
            radius_km: 1.0,
            values: ValueDistribution::real_like(),
            seed: 0x5EED_0001,
        }
    }
}

/// A Table IV synthetic scenario: two platforms, each holding half of the
/// requests and workers, over the Chengdu geometry.
pub fn synthetic(params: SyntheticParams) -> ScenarioConfig {
    assert!(
        params.n_requests >= 2,
        "need at least one request per platform"
    );
    assert!(
        params.n_workers >= 2,
        "need at least one worker per platform"
    );
    let extent = chengdu_extent();
    let m = chengdu_mixture(extent);
    let mc = m.complement();
    let requests_a = SpatialMixture::blend(&m, &mc, 0.65, 0.35);
    let requests_b = SpatialMixture::blend(&mc, &m, 0.65, 0.35);
    let half = |n: usize| (n / 2, n - n / 2);
    let (req_a, req_b) = half(params.n_requests);
    let (wrk_a, wrk_b) = half(params.n_workers);
    let platforms = vec![
        PlatformSpec {
            name: "DiDi".into(),
            n_requests: req_a,
            n_workers: wrk_a,
            radius_km: params.radius_km,
            worker_spatial: m,
            request_spatial: requests_a,
            values: params.values,
            history_values: ValueDistribution::worker_history(),
            history_len: HISTORY_LEN,
        },
        PlatformSpec {
            name: "Yueche".into(),
            n_requests: req_b,
            n_workers: wrk_b,
            radius_km: params.radius_km,
            worker_spatial: mc,
            request_spatial: requests_b,
            values: params.values,
            history_values: ValueDistribution::worker_history(),
            history_len: HISTORY_LEN,
        },
    ];
    ScenarioConfig {
        extent,
        platforms,
        service: ServiceModel::default_taxi(),
        request_profile: DailyProfile::two_peak(),
        worker_profile: worker_profile(),
        update_histories: false,
        seed: params.seed,
    }
}

/// The small synthetic smoke scenario behind every CLI's `--quick` (400
/// requests, 120 workers): what the CI serving smokes and the committed
/// trace corpus run.
pub fn quick() -> ScenarioConfig {
    synthetic(SyntheticParams {
        n_requests: 400,
        n_workers: 120,
        ..SyntheticParams::default()
    })
}

/// The full-scale synthetic city behind `--full-scale` (4000 requests,
/// 1200 workers — 10× [`quick`]).
pub fn full_scale() -> ScenarioConfig {
    synthetic(SyntheticParams {
        n_requests: 4_000,
        n_workers: 1_200,
        ..SyntheticParams::default()
    })
}

/// Resolve a `--profile` token (`chengdu-oct`, `chengdu-nov`, `xian-nov`,
/// `synthetic`, and the `quick` / `full-scale` presets behind the flags
/// of those names) to its scenario; `None` for an unknown name.
pub fn by_name(name: &str) -> Option<ScenarioConfig> {
    match name {
        "chengdu-oct" => Some(chengdu_oct()),
        "chengdu-nov" => Some(chengdu_nov()),
        "xian-nov" => Some(xian_nov()),
        "synthetic" => Some(synthetic(SyntheticParams::default())),
        "quick" => Some(quick()),
        "full-scale" => Some(full_scale()),
        _ => None,
    }
}

/// The scenario a CLI was asked for: the serialised [`ScenarioConfig`] in
/// `config` (`--config FILE`) when given, else the `profile` token. The
/// error is one line naming the file or token; every binary prints it and
/// exits 2.
pub fn load(config: Option<&Path>, profile: &str) -> Result<ScenarioConfig, String> {
    let Some(path) = config else {
        return by_name(profile).ok_or_else(|| format!("unknown profile {profile}"));
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::generate;

    #[test]
    fn named_lookups_resolve_the_cli_tokens() {
        assert_eq!(by_name("chengdu-oct").unwrap().seed, chengdu_oct().seed);
        assert_eq!(by_name("xian-nov").unwrap().total_workers(), 244 + 269);
        assert_eq!(by_name("synthetic").unwrap().total_requests(), 2_500);
        assert!(by_name("atlantis").is_none());
        assert_eq!(quick().total_requests(), 400);
        assert_eq!(quick().total_workers(), 120);
        assert_eq!(full_scale().total_requests(), 10 * quick().total_requests());
        assert_eq!(full_scale().total_workers(), 10 * quick().total_workers());
    }

    #[test]
    fn load_prefers_the_file_and_names_what_failed() {
        assert_eq!(load(None, "quick"), Ok(quick()));
        let err = load(None, "atlantis").unwrap_err();
        assert!(err.contains("atlantis"), "{err}");

        let dir = std::env::temp_dir().join(format!("com-datagen-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("missing.json");
        let err = load(Some(&missing), "quick").unwrap_err();
        assert!(err.contains("missing.json"), "{err}");

        let malformed = dir.join("malformed.json");
        std::fs::write(&malformed, "{ \"extent\": ").unwrap();
        let err = load(Some(&malformed), "quick").unwrap_err();
        assert!(err.contains("malformed.json"), "{err}");

        let good = dir.join("good.json");
        std::fs::write(&good, serde_json::to_string(&xian_nov()).unwrap()).unwrap();
        assert_eq!(load(Some(&good), "atlantis"), Ok(xian_nov()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn real_profiles_have_table_iii_ratios() {
        let cd10 = chengdu_oct();
        let ratio = cd10.total_requests() as f64 / cd10.total_workers() as f64;
        assert!((9.0..13.0).contains(&ratio), "Chengdu ratio {ratio}");

        let xa = xian_nov();
        let ratio = xa.total_requests() as f64 / xa.total_workers() as f64;
        assert!((20.0..26.0).contains(&ratio), "Xi'an ratio {ratio}");
    }

    #[test]
    fn profiles_generate() {
        // Generation is the expensive part; check the smallest profile.
        let inst = generate(&xian_nov());
        assert_eq!(inst.request_count(), 5_761 + 5_764);
        assert_eq!(inst.worker_count(), 244 + 269);
        assert_eq!(inst.platform_names, vec!["DiDi", "Yueche"]);
    }

    #[test]
    fn synthetic_defaults_match_table_iv() {
        let p = SyntheticParams::default();
        assert_eq!(p.n_requests, 2_500);
        assert_eq!(p.n_workers, 500);
        assert_eq!(p.radius_km, 1.0);
        let config = synthetic(p);
        assert_eq!(config.total_requests(), 2_500);
        assert_eq!(config.total_workers(), 500);
        // Equal split across the two platforms.
        assert_eq!(config.platforms[0].n_requests, 1_250);
        assert_eq!(config.platforms[1].n_requests, 1_250);
    }

    #[test]
    fn synthetic_radius_applies_to_both_platforms() {
        let config = synthetic(SyntheticParams {
            radius_km: 2.5,
            ..Default::default()
        });
        assert!(config.platforms.iter().all(|p| p.radius_km == 2.5));
    }

    #[test]
    fn profiles_are_deterministic() {
        let a = generate(&synthetic(SyntheticParams::default()));
        let b = generate(&synthetic(SyntheticParams::default()));
        assert_eq!(a.stream, b.stream);
    }

    #[test]
    fn partial_complementary_spatial_assignment() {
        // Each platform's workers are the mirror image of the other's,
        // and each platform's requests blend 65% own-territory mass with
        // 35% rival-territory mass (the Fig. 2 deserts).
        let config = chengdu_oct();
        assert_eq!(
            config.platforms[0].worker_spatial.complement(),
            config.platforms[1].worker_spatial
        );
        let ra = &config.platforms[0].request_spatial;
        // The blend contains hotspots from both sides: more components
        // than either pure mixture.
        assert!(
            ra.hotspots.len() > config.platforms[0].worker_spatial.hotspots.len(),
            "request mixture should blend both territories"
        );
    }
}
