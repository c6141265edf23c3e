//! # com-datagen
//!
//! Workload generation for the COM experiments.
//!
//! The paper evaluates on DiDi/Yueche taxi traces from Chengdu and Xi'an
//! (Table III) plus synthetic sweeps sampled from them (Table IV). The
//! real traces are licence-gated, so this crate generates *structurally
//! equivalent* workloads (see DESIGN.md §2 for the substitution
//! rationale):
//!
//! * `dist.rs` — scalar samplers (normal, log-normal) built on
//!   Box–Muller so no external distribution crate is needed.
//! * `hotspot.rs` — spatial mixtures of Gaussian hotspots over a city box;
//!   platform-complementary mixtures reproduce the paper's Fig. 2
//!   supply/demand imbalance that makes borrowing valuable.
//! * `temporal.rs` — daily arrival-time profiles with morning/evening
//!   peaks.
//! * `values.rs` — request-fare distributions: the heavy-tailed
//!   `RealLike` log-normal (calibrated to a ≈¥19 mean fare) and the
//!   `Normal` alternative from Table IV.
//! * `scenario.rs` — declarative scenario configs and the generator that
//!   turns one into a replayable [`com_sim::Instance`].
//! * `csv.rs` — minimal CSV import/export so real trace data (an approved
//!   GAIA download, a company's own logs) can be replayed through every
//!   matcher.
//! * [`profiles`] — the named dataset profiles: `chengdu_oct` (RDC10 +
//!   RYC10), `chengdu_nov` (RDC11 + RYC11), `xian_nov` (RDX11 + RYX11),
//!   each at 1/10 of the paper's daily volume, plus the Table IV
//!   synthetic sweep configurations.
//! * [`Cli`] — the command-line grammar every binary of the workspace
//!   shares: one argument walker, `--profile NAME | --config FILE` for the
//!   scenario, one `--help` and exit-code policy.

mod cli;
mod csv;
mod dist;
mod hotspot;
pub mod profiles;
mod scenario;
mod temporal;
mod values;

pub use cli::Cli;
pub use csv::{instance_from_csv, requests_to_csv, workers_to_csv, CsvError};
pub use hotspot::{Hotspot, SpatialMixture};
pub use scenario::{generate, PlatformSpec, ScenarioConfig};
pub use temporal::DailyProfile;
pub use values::ValueDistribution;
