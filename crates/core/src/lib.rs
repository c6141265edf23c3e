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
//!   [`DemCom::with_pickup_cap`] is route-aware matching, the paper's
//!   §VII future-work direction: DemCOM that ignores workers further
//!   than a pickup cap from the request.
//! * [`RamCom`] — Algorithm 3, randomized COM: a random value threshold
//!   `e^k` routes big requests to inner workers and small ones to outer
//!   workers priced by maximum expected revenue (Definition 4.1).
//! * `offline.rs` — the OFF baseline: exact maximum-weight bipartite
//!   matching for one-shot instances and a full-knowledge scheduler for
//!   re-entry workloads.
//! * The bipartite matching substrate under OFF. Section II-B reduces the
//!   offline version of COM to *maximum weighted bipartite graph
//!   matching*: workers on one side, requests on the other, an edge
//!   wherever all of Definition 2.6's constraints hold, weighted by the
//!   revenue of that assignment (`v_r` for inner workers, `v_r − v'_r` for
//!   outer workers). `graph.rs` holds the sparse weighted graph and the
//!   `Matching` every solver returns. `hungarian.rs` is exact dense
//!   Kuhn–Munkres (`O(min(n,m)²·max(n,m))`): the solver behind
//!   [`OfflineMode::ExactBipartite`], which the competitive-ratio
//!   experiments use, and behind [`BatchedCom`]'s per-window matching.
//!   `ssp.rs` is exact successive shortest paths with potentials (sparse,
//!   `O(K·E·log V)`), behind [`OfflineMode::SparseExact`]; only tests
//!   select that mode, as the Hungarian solver's cross-check.
//!   `validate.rs` checks a matching against its graph: the auditor's
//!   one-shot cross-check. The two exact solvers cross-validate each other
//!   and are checked against brute-force enumeration and, in test builds,
//!   against a sort-by-weight greedy 1/2-approximation (`greedy.rs`) as a
//!   lower bound.
//! * `engine.rs` — replays an [`Instance`]'s arrival stream against any
//!   [`OnlineMatcher`], enforcing every constraint of Definition 2.6 and
//!   timing each decision.
//! * `session.rs` — the incremental core under the engine: a resumable
//!   [`MatchSession`] ingests arrival events one at a time (the
//!   `com-serve` daemon's entry point; the batch engine is a thin
//!   wrapper over it).
//! * `ratio.rs` — empirical competitive-ratio measurement under the
//!   adversarial and random-order models (Definitions 2.7/2.8).
//! * `registry.rs` — the algorithm-construction API: [`MatcherSpec`]
//!   parses CLI strings like `"ramcom"` or `"route-aware:2.5"` and
//!   builds a fresh matcher per run from them (`Result`-based parsing,
//!   no panics).
//! * `canonical.rs` — the deterministic projection of a run
//!   ([`canonical_run_json`], [`canonical_run_digest`]): the bytes every
//!   serving mode is compared against the batch engine on.
//! * `audit.rs` — the always-on post-run auditor: [`validate_run`]
//!   re-derives every paper invariant from a finished assignment log,
//!   independently of the engine's own enforcement, in release builds
//!   too.

mod audit;
mod batched;
mod canonical;
mod config;
mod cooperative;
mod demcom;
mod engine;
mod graph;
mod greedy;
mod hungarian;
mod matcher;
mod offline;
mod outsource;
mod ramcom;
mod ratio;
mod registry;
mod session;
mod ssp;
mod timeline;
mod tota;
mod validate;

pub use audit::{validate_run, AuditFinding};
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
pub use registry::{MatcherRegistry, MatcherSpec, SpecError};
pub use session::{MatchSession, SessionConfig, SessionOutput};
pub use timeline::{hourly_timeline, HourlyBucket};
pub use tota::{GreedyRt, TotaGreedy};

// Re-export the substrate façade so downstream users need only `com_core`.
pub use com_sim::{
    Assignment, ConstraintViolation, EventStream, Instance, MatchKind, PlatformId, RequestId,
    RequestSpec, ServiceModel, Timestamp, Value, WorkerId, WorkerSpec, World, WorldConfig,
};
