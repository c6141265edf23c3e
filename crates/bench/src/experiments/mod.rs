//! Experiment implementations, one module per paper artefact family.
//!
//! Matcher construction goes through `com-core`'s [`MatcherSpec`] (one
//! source of truth shared with the `simulate` binary), and every
//! experiment takes a [`crate::runner::SweepRunner`] so the (instance ×
//! matcher × seed) grid fans out across threads with bit-identical
//! results.

pub mod ablation;
pub mod cr;
pub mod figures;
pub mod tables;

use com_core::MatcherSpec;

/// The three online algorithms every experiment compares, in the paper's
/// presentation order.
pub fn standard_specs() -> [MatcherSpec; 3] {
    MatcherSpec::standard()
}

/// Display names of the standard matchers (presentation order).
pub const STANDARD_NAMES: [&str; 3] = ["TOTA", "DemCOM", "RamCOM"];

/// The seed every headline experiment uses (results in EXPERIMENTS.md are
/// regenerated from exactly this value).
pub const EXPERIMENT_SEED: u64 = 20200420; // ICDE 2020 week

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_specs_match_display_names() {
        let names: Vec<&str> = standard_specs().iter().map(|s| s.display_name()).collect();
        assert_eq!(names, STANDARD_NAMES);
    }
}
