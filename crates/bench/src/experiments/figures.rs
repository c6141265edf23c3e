//! Fig. 5: scalability sweeps over `|R|`, `|W|` and `rad`.
//!
//! Each sweep produces the four panels of its Fig. 5 column: total
//! revenue, average response time, memory cost, and cooperative-request
//! acceptance ratio, for TOTA / DemCOM / RamCOM (acceptance only for the
//! two COM algorithms — TOTA has no cooperative requests).

use serde::{Deserialize, Serialize};

use com_core::run_online;
use com_datagen::{generate, synthetic, SyntheticParams};
use com_metrics::SweepSeries;

use crate::runner::SweepRunner;

use super::{standard_specs, EXPERIMENT_SEED, STANDARD_NAMES};

/// The paper's swept values (Table IV; defaults bold: |R| = 2500,
/// |W| = 500, rad = 1.0).
pub const R_VALUES: [usize; 8] = [500, 1_000, 2_500, 5_000, 10_000, 20_000, 50_000, 100_000];
pub const W_VALUES: [usize; 8] = [100, 200, 500, 1_000, 2_500, 5_000, 10_000, 20_000];
pub const RAD_VALUES: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 2.5];

/// One measured point of a sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    pub x: f64,
    pub algorithm: String,
    pub revenue: f64,
    pub response_ms: f64,
    pub memory_bytes: usize,
    pub acceptance_ratio: Option<f64>,
}

/// A full sweep: the four Fig. 5 panels for one swept axis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    pub axis: String,
    pub points: Vec<SweepPoint>,
    pub revenue: SweepSeries,
    pub response: SweepSeries,
    pub memory: SweepSeries,
    pub acceptance: SweepSeries,
}

fn run_sweep(
    runner: &SweepRunner,
    axis: &str,
    figure_ids: [&str; 4],
    xs: Vec<f64>,
    params_for: impl Fn(f64) -> SyntheticParams + Send + Sync,
) -> SweepResult {
    // Phase 1: generate one instance per swept value, in parallel.
    let instances = runner.map(xs.clone(), |_, &x| generate(&synthetic(params_for(x))));

    // Phase 2: fan the (instance × matcher) grid. Each cell's RNG seed
    // depends only on the cell, so results match serial execution.
    let specs = standard_specs();
    let cells: Vec<(usize, usize)> = (0..xs.len())
        .flat_map(|xi| (0..specs.len()).map(move |si| (xi, si)))
        .collect();
    let runs = runner.map(cells, |_, &(xi, si)| {
        let mut matcher = specs[si].build();
        run_online(&instances[xi], matcher.as_mut(), EXPERIMENT_SEED)
    });

    let mut points = Vec::new();
    let mut revenue_cols: Vec<Vec<f64>> = vec![Vec::new(); STANDARD_NAMES.len()];
    let mut response_cols: Vec<Vec<f64>> = vec![Vec::new(); STANDARD_NAMES.len()];
    let mut memory_cols: Vec<Vec<f64>> = vec![Vec::new(); STANDARD_NAMES.len()];
    let mut acceptance_cols: Vec<Vec<f64>> = vec![Vec::new(); 2]; // DemCOM, RamCOM

    for (cell, run) in runs.iter().enumerate() {
        let (xi, i) = (cell / specs.len(), cell % specs.len());
        let (x, name) = (xs[xi], STANDARD_NAMES[i]);
        let revenue = run.total_revenue();
        let response = run.mean_response_ms();
        let memory = run.peak_memory_bytes;
        let acceptance = run.acceptance_ratio();
        points.push(SweepPoint {
            x,
            algorithm: name.to_string(),
            revenue,
            response_ms: response,
            memory_bytes: memory,
            acceptance_ratio: acceptance,
        });
        revenue_cols[i].push(revenue / 1.0e6);
        response_cols[i].push(response);
        memory_cols[i].push(memory as f64 / (1024.0 * 1024.0));
        if name == "DemCOM" {
            acceptance_cols[0].push(acceptance.unwrap_or(0.0));
        } else if name == "RamCOM" {
            acceptance_cols[1].push(acceptance.unwrap_or(0.0));
        }
    }

    let mut revenue = SweepSeries::new(
        format!("Fig 5({}): total revenue vs {axis}", figure_ids[0]),
        axis,
        "Revenue (x10^6)",
        xs.clone(),
    );
    let mut response = SweepSeries::new(
        format!("Fig 5({}): response time vs {axis}", figure_ids[1]),
        axis,
        "Response time (ms)",
        xs.clone(),
    );
    let mut memory = SweepSeries::new(
        format!("Fig 5({}): memory cost vs {axis}", figure_ids[2]),
        axis,
        "Memory (MB)",
        xs.clone(),
    );
    let mut acceptance = SweepSeries::new(
        format!("Fig 5({}): acceptance ratio vs {axis}", figure_ids[3]),
        axis,
        "Acceptance ratio",
        xs.clone(),
    );
    for (i, name) in STANDARD_NAMES.iter().enumerate() {
        revenue.push_column(*name, revenue_cols[i].clone());
        response.push_column(*name, response_cols[i].clone());
        memory.push_column(*name, memory_cols[i].clone());
    }
    acceptance.push_column("DemCOM", acceptance_cols[0].clone());
    acceptance.push_column("RamCOM", acceptance_cols[1].clone());

    SweepResult {
        axis: axis.to_string(),
        points,
        revenue,
        response,
        memory,
        acceptance,
    }
}

/// Fig. 5(a)–(d): sweep the total number of requests `|R|`.
pub fn sweep_requests(runner: &SweepRunner, quick: bool) -> SweepResult {
    let xs: Vec<f64> = if quick {
        vec![500.0, 1_000.0, 2_500.0, 5_000.0]
    } else {
        R_VALUES.iter().map(|&v| v as f64).collect()
    };
    run_sweep(runner, "|R|", ["a", "b", "c", "d"], xs, |x| {
        SyntheticParams {
            n_requests: x as usize,
            ..Default::default()
        }
    })
}

/// Fig. 5(e)–(h): sweep the total number of workers `|W|`.
pub fn sweep_workers(runner: &SweepRunner, quick: bool) -> SweepResult {
    let xs: Vec<f64> = if quick {
        vec![100.0, 200.0, 500.0, 1_000.0]
    } else {
        W_VALUES.iter().map(|&v| v as f64).collect()
    };
    run_sweep(runner, "|W|", ["e", "f", "g", "h"], xs, |x| {
        SyntheticParams {
            n_workers: x as usize,
            ..Default::default()
        }
    })
}

/// Fig. 5(i)–(l): sweep the service radius `rad`.
pub fn sweep_radius(runner: &SweepRunner, quick: bool) -> SweepResult {
    let xs: Vec<f64> = if quick {
        vec![0.5, 1.0, 1.5]
    } else {
        RAD_VALUES.to_vec()
    };
    run_sweep(runner, "rad", ["i", "j", "k", "l"], xs, |x| {
        SyntheticParams {
            radius_km: x,
            ..Default::default()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_request_sweep_has_expected_shape() {
        let s = sweep_requests(&SweepRunner::serial(), true);
        assert_eq!(s.revenue.xs.len(), 4);
        assert_eq!(s.points.len(), 4 * 3);
        // Revenue grows with |R| for every algorithm.
        for (name, ys) in &s.revenue.columns {
            assert!(
                ys.windows(2).all(|w| w[1] >= w[0] * 0.9),
                "{name} revenue not growing: {ys:?}"
            );
        }
        // The COM algorithms dominate TOTA (small tolerance for noise).
        assert_eq!(s.revenue.dominates("RamCOM", "TOTA", 0.02), Some(true));
        assert_eq!(s.revenue.dominates("DemCOM", "TOTA", 0.02), Some(true));
    }

    #[test]
    fn quick_radius_sweep_keeps_memory_flat() {
        let s = sweep_radius(&SweepRunner::serial(), true);
        for (name, ys) in &s.memory.columns {
            let min = ys.iter().copied().fold(f64::INFINITY, f64::min);
            let max = ys.iter().copied().fold(0.0f64, f64::max);
            assert!(
                max <= min * 1.5 + 0.5,
                "{name} memory not flat across rad: {ys:?}"
            );
        }
    }

    #[test]
    fn acceptance_series_only_tracks_com_algorithms() {
        let s = sweep_radius(&SweepRunner::serial(), true);
        assert_eq!(s.acceptance.columns.len(), 2);
        assert!(s.acceptance.column("DemCOM").is_some());
        assert!(s.acceptance.column("RamCOM").is_some());
        assert!(s.acceptance.column("TOTA").is_none());
    }
}
