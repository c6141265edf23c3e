//! Fig. 5: scalability sweeps over `|R|`, `|W|` and `rad`.
//!
//! Each sweep produces the four panels of its Fig. 5 column: total
//! revenue, average response time, memory cost, and cooperative-request
//! acceptance ratio, for TOTA / DemCOM / RamCOM (acceptance only for the
//! two COM algorithms — TOTA has no cooperative requests).

use serde::{Deserialize, Serialize};

use com_core::{run_online, MatcherSpec};
use com_datagen::generate;
use com_datagen::profiles::{synthetic, SyntheticParams};

use crate::runner::SweepRunner;
use crate::SweepSeries;

use super::EXPERIMENT_SEED;

/// The paper's swept values (Table IV; defaults bold: |R| = 2500,
/// |W| = 500, rad = 1.0).
pub(crate) const R_VALUES: [usize; 8] = [500, 1_000, 2_500, 5_000, 10_000, 20_000, 50_000, 100_000];
pub(crate) const W_VALUES: [usize; 8] = [100, 200, 500, 1_000, 2_500, 5_000, 10_000, 20_000];
pub(crate) const RAD_VALUES: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 2.5];

/// One measured point of a sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    pub(crate) x: f64,
    pub(crate) algorithm: String,
    pub(crate) revenue: f64,
    pub(crate) response_ms: f64,
    pub(crate) memory_bytes: usize,
    pub(crate) acceptance_ratio: Option<f64>,
}

/// A full sweep: the four Fig. 5 panels for one swept axis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    pub(crate) axis: String,
    pub(crate) points: Vec<SweepPoint>,
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
    let specs = MatcherSpec::standard();
    let cells: Vec<(usize, usize)> = (0..xs.len())
        .flat_map(|xi| (0..specs.len()).map(move |si| (xi, si)))
        .collect();
    let runs = runner.map(cells, |_, &(xi, si)| {
        let mut matcher = specs[si].build();
        run_online(&instances[xi], matcher.as_mut(), EXPERIMENT_SEED)
    });

    let points: Vec<SweepPoint> = runs
        .iter()
        .enumerate()
        .map(|(cell, run)| SweepPoint {
            x: xs[cell / specs.len()],
            algorithm: specs[cell % specs.len()].display_name().to_string(),
            revenue: run.total_revenue(),
            response_ms: run.mean_response_ms(),
            memory_bytes: run.peak_memory_bytes,
            acceptance_ratio: run.acceptance_ratio(),
        })
        .collect();

    // One Fig. 5 panel: `value` of each named algorithm's points, in `xs`
    // order.
    let panel =
        |id: &str, what: &str, y_label: &str, names: &[&str], value: fn(&SweepPoint) -> f64| {
            let title = format!("Fig 5({id}): {what} vs {axis}");
            let mut series = SweepSeries::new(title, axis, y_label, xs.clone());
            for name in names {
                let ys = points.iter().filter(|p| p.algorithm == *name).map(value);
                series.push_column(*name, ys.collect());
            }
            series
        };
    let [a, b, c, d] = figure_ids;
    let all = &specs.map(|s| s.display_name());
    SweepResult {
        axis: axis.to_string(),
        revenue: panel(a, "total revenue", "Revenue (x10^6)", all, |p| {
            p.revenue / 1.0e6
        }),
        response: panel(b, "response time", "Response time (ms)", all, |p| {
            p.response_ms
        }),
        memory: panel(c, "memory cost", "Memory (MB)", all, |p| {
            p.memory_bytes as f64 / (1024.0 * 1024.0)
        }),
        // TOTA has no cooperative requests.
        acceptance: panel(d, "acceptance ratio", "Acceptance ratio", &all[1..], |p| {
            p.acceptance_ratio.unwrap_or(0.0)
        }),
        points,
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
