//! # com — Cross Online Matching in Spatial Crowdsourcing
//!
//! A from-scratch Rust reproduction of Cheng, Li, Zhou, Yuan, Wang, Chen:
//! *"Real-Time Cross Online Matching in Spatial Crowdsourcing"*
//! (ICDE 2020).
//!
//! COM lets a spatial-crowdsourcing platform (ride hailing, food
//! delivery, couriers) **borrow unoccupied workers from competing
//! platforms** when its own workers cannot reach a request, paying the
//! borrowed worker an *outer payment* `v' ∈ (0, v]` and keeping `v − v'`.
//! The crate family implements the whole system: geometry and spatial
//! indexing, the online arrival model, multi-platform world simulation,
//! acceptance-history pricing, the DemCOM and RamCOM algorithms, the
//! TOTA/OFF baselines, dataset generators, and an experiment harness
//! regenerating every table and figure of the paper.
//!
//! ## Quick start
//!
//! ```
//! use com::prelude::*;
//!
//! // A Table IV-style synthetic city with two platforms.
//! let scenario = synthetic(SyntheticParams {
//!     n_requests: 300,
//!     n_workers: 80,
//!     ..Default::default()
//! });
//! let instance = generate(&scenario);
//!
//! // Algorithms are built from matcher specs: parse a spec string
//! // ("tota", "demcom", "ramcom", "greedy-rt", "route-aware:2.5") and
//! // build a fresh matcher per run.
//! let mut ramcom = MatcherSpec::parse("ramcom").unwrap().build();
//! let mut tota = MatcherSpec::parse("tota").unwrap().build();
//!
//! let ramcom_run = run_online(&instance, ramcom.as_mut(), 42);
//! let tota_run = run_online(&instance, tota.as_mut(), 42);
//! assert!(ramcom_run.total_revenue() >= tota_run.total_revenue());
//!
//! // Unknown specs are a `Result`, not a panic — the error lists the
//! // valid spec templates.
//! assert!(MatcherSpec::parse("uber-dispatch").is_err());
//!
//! // The always-on auditor re-derives every paper invariant from the
//! // finished log; a sound matcher leaves it silent (release builds too).
//! assert!(validate_run(&instance, &ramcom_run).is_empty());
//!
//! // Whole (matcher × seed) grids run through the deterministic sweep
//! // runner: identical results for any worker-thread count.
//! let runs = run_grid(
//!     &SweepRunner::new(2),
//!     &instance,
//!     &[MatcherSpec::Tota, MatcherSpec::RamCom],
//!     &[42, 43],
//! );
//! assert_eq!(runs.len(), 4);
//! ```
//!
//! See `examples/` for full scenarios and `crates/bench` for the
//! experiment harness (`cargo run -p com-bench --release --bin repro`,
//! `--threads N` to parallelise).

pub use com_bench as bench;
pub use com_core as core;
pub use com_datagen as datagen;
pub use com_geo as geo;
pub use com_obs as obs;
pub use com_pricing as pricing;
pub use com_sim as sim;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use com_bench::runner::{merged_telemetry, run_grid, CellPanic, SweepRunner};
    pub use com_bench::{SweepSeries, Table};
    pub use com_core::{
        canonical_run_json, competitive_ratio_random_order, offline_solve, run_online,
        try_run_online, validate_run, Assignment, AuditFinding, ConstraintViolation, Decision,
        DecisionFailure, DemCom, DemComConfig, EventStream, GreedyRt, Instance, MatchKind,
        MatcherRegistry, MatcherSpec, OfflineMode, OnlineMatcher, PlatformId, RamCom, RamComConfig,
        RequestId, RequestSpec, RunResult, ServiceModel, SpecError, StreamInfo, ThresholdMode,
        Timestamp, TotaGreedy, Value, WorkerId, WorkerSpec, World, WorldConfig,
    };
    pub use com_datagen::profiles::{
        chengdu_nov, chengdu_oct, synthetic, xian_nov, SyntheticParams,
    };
    pub use com_datagen::{
        generate, DailyProfile, Hotspot, PlatformSpec, ScenarioConfig, SpatialMixture,
        ValueDistribution,
    };
    pub use com_geo::{BoundingBox, Point};
    pub use com_pricing::{
        max_expected_revenue, MinPaymentEstimator, MonteCarloParams, PriceCandidates, WorkerHistory,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = TotaGreedy;
        let _ = DemCom::default();
        let _ = RamCom::default();
        let _ = Point::new(1.0, 2.0);
        let _ = MatcherRegistry::builtin();
        let _ = SweepRunner::serial();
        assert!(matches!(
            "route-aware:2.5".parse::<MatcherSpec>(),
            Ok(MatcherSpec::RouteAware { .. })
        ));
    }
}
