//! Experiment implementations, one module per paper artefact family.
//!
//! Matcher construction goes through `com-core`'s
//! [`MatcherSpec`](com_core::MatcherSpec) (one source of truth shared
//! with the `simulate` binary); its
//! [`standard`](com_core::MatcherSpec::standard) set is the three online
//! algorithms every experiment compares, in the paper's presentation
//! order. Every experiment takes a [`crate::runner::SweepRunner`] so the
//! (instance × matcher × seed) grid fans out across threads with
//! bit-identical results.

/// Every experiment `repro` runs, in the order `repro all` runs them.
pub const EXPERIMENTS: [&str; 9] = [
    "table5",
    "table6",
    "table7",
    "table5x30",
    "fig5r",
    "fig5w",
    "fig5rad",
    "cr",
    "ablation",
];

pub mod ablation;
pub mod cr;
pub mod figures;
pub mod tables;

/// The seed every headline experiment uses (results in EXPERIMENTS.md are
/// regenerated from exactly this value).
pub(crate) const EXPERIMENT_SEED: u64 = 20200420; // ICDE 2020 week
