//! # com-core
//!
//! Cross Online Matching (COM): the algorithms of Cheng et al.,
//! *"Real-Time Cross Online Matching in Spatial Crowdsourcing"*,
//! ICDE 2020.
//!
//! COM lets a spatial-crowdsourcing platform "borrow" unoccupied workers
//! from competing platforms to serve requests its own workers cannot
//! reach, paying each borrowed worker an *outer payment* `v'_r ∈ (0, v_r]`
//! and keeping `v_r − v'_r`. This crate implements:
//!
//! * [`TotaGreedy`] — the single-platform greedy baseline (the paper's
//!   TOTA, after Tong et al. ICDE'16): nearest idle inner worker or
//!   reject.
//! * [`GreedyRt`] — the Greedy-RT random-threshold baseline (extension;
//!   the randomisation RamCOM borrows).
//! * [`DemCom`] — Algorithm 1, deterministic COM: inner first, then the
//!   minimum outer payment from Algorithm 2's Monte Carlo estimator.
//! * [`RamCom`] — Algorithm 3, randomized COM: a random value threshold
//!   `e^k` routes big requests to inner workers and small ones to outer
//!   workers priced by maximum expected revenue (Definition 4.1).
//! * [`offline`] — the OFF baseline: exact maximum-weight bipartite
//!   matching for one-shot instances and a full-knowledge scheduler for
//!   re-entry workloads.
//! * [`engine`] — replays an [`Instance`]'s arrival stream against any
//!   [`OnlineMatcher`], enforcing every constraint of Definition 2.6 and
//!   timing each decision.
//! * [`session`] — the incremental core under the engine: a resumable
//!   [`MatchSession`] ingests arrival events one at a time (the
//!   `com-serve` daemon's entry point; the batch engine is a thin
//!   wrapper over it).
//! * [`ratio`] — empirical competitive-ratio measurement under the
//!   adversarial and random-order models (Definitions 2.7/2.8).
//! * [`registry`] — the algorithm-construction API: [`MatcherSpec`]
//!   parses CLI strings like `"ramcom"` or `"route-aware:2.5"` and
//!   builds fresh matchers (or `Send + Sync` factories minting one per
//!   run) from them (`Result`-based parsing, no panics).
//! * [`travel`] — route-aware matching with a pickup-distance cap (the
//!   paper's §VII future-work direction), plus per-assignment travel
//!   accounting.
//! * [`canonical`] — the deterministic projection of a run
//!   ([`canonical_run_json`], [`canonical_run_digest`]): the bytes every
//!   serving mode is compared against the batch engine on.
//! * [`audit`] — the always-on post-run auditor: [`validate_run`]
//!   re-derives every paper invariant from a finished assignment log,
//!   independently of the engine's own enforcement, in release builds
//!   too.

pub mod audit;
pub mod batched;
pub mod canonical;
pub mod config;
mod cooperative;
pub mod demcom;
pub mod engine;
pub mod matcher;
pub mod offline;
pub mod outsource;
pub mod ramcom;
pub mod ratio;
pub mod registry;
pub mod session;
pub mod timeline;
pub mod tota;
pub mod travel;

pub use audit::{
    record_findings, take_findings, total_findings, validate_run, AuditFinding, RecordedFinding,
};
pub use batched::{run_batched, BatchedCom};
pub use canonical::{
    canonical_assignment_json, canonical_digest, canonical_run_digest, canonical_run_json, fnv1a64,
};
pub use config::{DemComConfig, RamComConfig, ThresholdMode};
pub use demcom::DemCom;
pub use engine::{run_online, try_run_online, DecisionFailure, RunResult};
pub use matcher::{Decision, OnlineMatcher, StreamInfo};
pub use offline::{offline_solve, OfflineMode, OfflineResult};
pub use outsource::{project_platform_run, OutsourceChannel, OutsourceOutcome};
pub use ramcom::RamCom;
pub use ratio::{competitive_ratio_random_order, CrReport};
pub use registry::{MatcherFactory, MatcherRegistry, MatcherSpec, SpecError};
pub use session::{MatchSession, SessionConfig, SessionOutput};
pub use timeline::{hourly_timeline, HourlyBucket};
pub use tota::{GreedyRt, TotaGreedy};
pub use travel::RouteAwareCom;

// Re-export the substrate façade so downstream users need only `com_core`.
pub use com_sim::{
    Assignment, ConstraintViolation, EventStream, Instance, MatchKind, PlatformId, RequestId,
    RequestSpec, ServiceModel, Timestamp, Value, WorkerId, WorkerSpec, World, WorldConfig,
};
