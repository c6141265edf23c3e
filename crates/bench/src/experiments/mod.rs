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

pub mod ablation;
pub mod cr;
pub mod figures;
pub mod tables;

/// The seed every headline experiment uses (results in EXPERIMENTS.md are
/// regenerated from exactly this value).
pub(crate) const EXPERIMENT_SEED: u64 = 20200420; // ICDE 2020 week
