//! Empirical competitive-ratio study (Theorems 1 and 2).
//!
//! The paper proves DemCOM matches the greedy TOTA ratio in the random
//! order model and RamCOM reaches `1/(8e) ≈ 0.046`. This study measures
//! the empirical ratios on small one-shot instances where the offline
//! optimum is computed exactly (Hungarian), sampling many random arrival
//! orders per instance.

use serde::{Deserialize, Serialize};

use com_core::{competitive_ratio_random_order, MatcherSpec};
use com_datagen::generate;
use com_datagen::profiles::{synthetic, SyntheticParams};
use com_sim::ServiceModel;

use crate::runner::SweepRunner;
use crate::Table;

use super::EXPERIMENT_SEED;

/// RamCOM's proven lower bound, `1 / (8e)`.
pub(crate) const RAMCOM_BOUND: f64 = 1.0 / (8.0 * std::f64::consts::E);

/// Per-algorithm competitive-ratio measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrRow {
    pub(crate) algorithm: String,
    /// Minimum ratio over every sampled (instance, order) pair.
    pub(crate) min_ratio: f64,
    /// Mean ratio (the random-order model's expectation, averaged over
    /// instances).
    pub(crate) mean_ratio: f64,
}

/// The full study result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrStudy {
    pub(crate) instances: usize,
    pub(crate) orders_per_instance: usize,
    pub(crate) rows: Vec<CrRow>,
}

impl CrStudy {
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Empirical competitive ratios ({} one-shot instances x {} orders; RamCOM bound 1/8e = {:.3})",
                self.instances, self.orders_per_instance, RAMCOM_BOUND
            ),
            &["Algorithm", "min ratio", "mean ratio"],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.algorithm.clone(),
                format!("{:.3}", r.min_ratio),
                format!("{:.3}", r.mean_ratio),
            ]);
        }
        t
    }
}

/// A small one-shot scenario for exact offline comparison.
fn cr_params(seed: u64) -> SyntheticParams {
    SyntheticParams {
        n_requests: 80,
        n_workers: 40,
        radius_km: 3.0,
        seed,
        ..Default::default()
    }
}

/// Run the study: `instances` random instances, `orders` sampled arrival
/// orders each, fanning the (instance × matcher) grid across
/// `runner`'s workers. Per-cell order sampling is seeded from the
/// instance index, and the cross-instance reduction folds in instance
/// order, so the study is bit-identical to serial execution.
pub fn run_cr_study(runner: &SweepRunner, instances: usize, orders: usize) -> CrStudy {
    // Phase 1: the one-shot instances (Fig. 4's strict bipartite model,
    // where the Hungarian OFF is exact), generated in parallel.
    let instance_jobs: Vec<usize> = (0..instances).collect();
    let generated = runner.map(instance_jobs, |_, &i| {
        let mut config = synthetic(cr_params(EXPERIMENT_SEED ^ (i as u64) << 8));
        config.service = ServiceModel::one_shot();
        generate(&config)
    });

    // Phase 2: one job per (instance, matcher) cell.
    let specs = MatcherSpec::standard();
    let cells: Vec<(usize, usize)> = (0..instances)
        .flat_map(|i| (0..specs.len()).map(move |si| (i, si)))
        .collect();
    let reports = runner.map(cells, |_, &(i, si)| {
        competitive_ratio_random_order(
            &generated[i],
            &mut || specs[si].build(),
            orders,
            EXPERIMENT_SEED + i as u64,
        )
    });

    // Reduce per matcher, visiting instances in ascending order exactly
    // as the serial loop did (float accumulation order preserved).
    let mut rows: Vec<CrRow> = specs
        .iter()
        .map(|s| CrRow {
            algorithm: s.display_name().to_string(),
            min_ratio: f64::INFINITY,
            mean_ratio: 0.0,
        })
        .collect();
    for (cell, report) in reports.iter().enumerate() {
        let row = &mut rows[cell % specs.len()];
        row.min_ratio = row.min_ratio.min(report.min);
        row.mean_ratio += report.mean / instances as f64;
    }

    CrStudy {
        instances,
        orders_per_instance: orders,
        rows,
    }
}

#[cfg(test)]
impl CrStudy {
    fn row(&self, algorithm: &str) -> Option<&CrRow> {
        self.rows.iter().find(|r| r.algorithm == algorithm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_produces_sane_ratios() {
        let study = run_cr_study(&SweepRunner::serial(), 2, 4);
        assert_eq!(study.rows.len(), 3);
        for r in &study.rows {
            assert!(
                r.min_ratio > 0.0 && r.min_ratio <= 1.0 + 1e-9,
                "{} min {}",
                r.algorithm,
                r.min_ratio
            );
            assert!(r.mean_ratio >= r.min_ratio - 1e-9);
            assert!(r.mean_ratio <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn ramcom_clears_its_theoretical_bound_empirically() {
        let study = run_cr_study(&SweepRunner::serial(), 2, 4);
        let ram = study.row("RamCOM").unwrap();
        // The 1/8e bound is a worst-case guarantee; empirical instances
        // sit far above it.
        assert!(
            ram.mean_ratio > RAMCOM_BOUND,
            "RamCOM mean {} below bound {}",
            ram.mean_ratio,
            RAMCOM_BOUND
        );
    }

    #[test]
    fn table_rendering() {
        let study = run_cr_study(&SweepRunner::serial(), 1, 2);
        let ascii = study.to_table().render_ascii();
        assert!(ascii.contains("Algorithm"));
        assert!(ascii.contains("RamCOM"));
    }
}
