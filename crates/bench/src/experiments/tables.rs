//! Tables V–VII: effectiveness and efficiency on the (simulated) real
//! datasets.
//!
//! Each table compares OFF / TOTA / DemCOM / RamCOM on a two-platform
//! city-day and reports the paper's nine metrics: per-platform revenue,
//! response time, memory, per-platform completed requests, cooperative
//! requests, acceptance ratio, and outer payment rate.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use com_core::{offline_solve, Instance, MatcherSpec, OfflineMode, PlatformId, RunResult};
use com_datagen::profiles::{chengdu_nov, chengdu_oct, xian_nov};
use com_datagen::{generate, ScenarioConfig};

use crate::runner::{run_grid, SweepRunner};
use crate::{fmt_mega, fmt_mib, Table};

use super::EXPERIMENT_SEED;

/// One method's measured row (serialisable so EXPERIMENTS.md numbers can
/// be regenerated from JSON dumps).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodRow {
    pub(crate) method: String,
    pub(crate) revenue_d: f64,
    pub(crate) revenue_y: f64,
    pub(crate) response_ms: f64,
    pub(crate) memory_bytes: usize,
    pub(crate) completed_d: usize,
    pub(crate) completed_y: usize,
    pub(crate) cooperative: Option<usize>,
    pub(crate) acceptance_ratio: Option<f64>,
    pub(crate) payment_rate: Option<f64>,
}

/// A complete table experiment result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableResult {
    pub(crate) id: String,
    pub(crate) title: String,
    pub(crate) rows: Vec<MethodRow>,
}

impl TableResult {
    /// Render in the layout of the paper's Tables V–VII.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            self.title.clone(),
            &[
                "Methods",
                "Rev_D(x10^6)",
                "Rev_Y(x10^6)",
                "Response Time (ms)",
                "Memory (MB)",
                "|CpR(D)|",
                "|CpR(Y)|",
                "|CoR|",
                "|AcpRt|",
                "v'_r/v_r",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.method.clone(),
                fmt_mega(r.revenue_d),
                fmt_mega(r.revenue_y),
                format!("{:.3}", r.response_ms),
                fmt_mib(r.memory_bytes),
                r.completed_d.to_string(),
                r.completed_y.to_string(),
                r.cooperative.map_or("-".into(), |v| v.to_string()),
                r.acceptance_ratio.map_or("-".into(), |v| format!("{v:.2}")),
                r.payment_rate.map_or("-".into(), |v| format!("{v:.2}")),
            ]);
        }
        t
    }
}

/// How many seeded replays each online method is averaged over — the
/// paper's tables average a month of daily runs; five replays keep the
/// randomized algorithms' variance out of the headline numbers at
/// tolerable cost.
pub(crate) const TABLE_REPEATS: u64 = 5;

fn averaged_method_row(runs: &[RunResult]) -> MethodRow {
    assert!(!runs.is_empty());
    let n = runs.len() as f64;
    let mean_opt = |xs: Vec<Option<f64>>| -> Option<f64> {
        let vals: Vec<f64> = xs.into_iter().flatten().collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    };
    MethodRow {
        method: runs[0].algorithm.clone(),
        revenue_d: runs
            .iter()
            .map(|r| r.revenue_for(PlatformId(0)))
            .sum::<f64>()
            / n,
        revenue_y: runs
            .iter()
            .map(|r| r.revenue_for(PlatformId(1)))
            .sum::<f64>()
            / n,
        response_ms: runs.iter().map(|r| r.mean_response_ms()).sum::<f64>() / n,
        memory_bytes: runs.iter().map(|r| r.peak_memory_bytes).max().unwrap_or(0),
        completed_d: (runs
            .iter()
            .map(|r| r.completed_for(PlatformId(0)))
            .sum::<usize>() as f64
            / n)
            .round() as usize,
        completed_y: (runs
            .iter()
            .map(|r| r.completed_for(PlatformId(1)))
            .sum::<usize>() as f64
            / n)
            .round() as usize,
        cooperative: Some(
            (runs.iter().map(|r| r.cooperative_count()).sum::<usize>() as f64 / n).round() as usize,
        ),
        acceptance_ratio: mean_opt(runs.iter().map(|r| r.acceptance_ratio()).collect()),
        payment_rate: mean_opt(runs.iter().map(|r| r.mean_outer_payment_rate()).collect()),
    }
}

/// Run one table experiment, fanning the (matcher × seed) grid across
/// `runner`'s workers. Online results are bit-identical to serial
/// execution; only wall-clock fields (response time) vary.
pub(crate) fn run_table(
    runner: &SweepRunner,
    id: &str,
    title: &str,
    config: &ScenarioConfig,
    quick: bool,
) -> TableResult {
    let config = if quick {
        config.scaled(10)
    } else {
        config.clone()
    };
    let instance = generate(&config);
    let seeds: Vec<u64> = (0..TABLE_REPEATS).map(|i| EXPERIMENT_SEED + i).collect();
    TableResult {
        id: id.into(),
        title: title.into(),
        rows: method_rows(runner, &instance, &seeds),
    }
}

/// One instance's rows: OFF, then each standard method averaged over
/// `seeds`.
fn method_rows(runner: &SweepRunner, instance: &Instance, seeds: &[u64]) -> Vec<MethodRow> {
    let n_requests = instance.request_count().max(1);

    // OFF: full-knowledge scheduler (workers re-enter during a day run).
    let started = Instant::now();
    let off = offline_solve(instance, OfflineMode::GreedySchedule);
    let off_ms = started.elapsed().as_secs_f64() * 1e3 / n_requests as f64;
    let mut rows = vec![MethodRow {
        method: "OFF".into(),
        revenue_d: off.revenue_by_platform[0],
        revenue_y: off.revenue_by_platform[1],
        response_ms: off_ms,
        memory_bytes: instance.build_world().approx_bytes(),
        completed_d: off.completed_by_platform[0],
        completed_y: off.completed_by_platform[1],
        cooperative: None,
        acceptance_ratio: None,
        payment_rate: None,
    }];

    // The (matcher × seed) grid: every cell builds a fresh matcher from
    // its spec and uses the cell's own seed, so the fan-out is exact.
    let runs = run_grid(runner, instance, &MatcherSpec::standard(), seeds);
    rows.extend(runs.chunks(seeds.len()).map(averaged_method_row));
    rows
}

/// A multi-day study: regenerate the scenario with `days` different
/// seeds (the paper's tables average a month of days) and report each
/// method's per-day rows averaged across days, with the total revenue's
/// population std in the method name. Quantifies day-to-day variance
/// that the single-instance tables hide. Fanned across `runner`'s
/// workers, one job per day (each day regenerates its instance and
/// replays every method once, with seed `EXPERIMENT_SEED + day`), and
/// folded in day order so float accumulation matches serial execution.
pub(crate) fn run_table_multiday(
    runner: &SweepRunner,
    id: &str,
    title: &str,
    config: &ScenarioConfig,
    days: usize,
    quick: bool,
) -> TableResult {
    assert!(days >= 1);
    let base = if quick {
        config.scaled(10)
    } else {
        config.clone()
    };

    let per_day: Vec<Vec<MethodRow>> = runner.map((0..days).collect(), |_, &day| {
        let instance = generate(&base.with_seed(base.seed ^ (day as u64) << 16));
        let seed = EXPERIMENT_SEED + day as u64;
        method_rows(&SweepRunner::serial(), &instance, &[seed])
    });

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let std = |xs: &[f64]| {
        let m = mean(xs);
        (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len().max(1) as f64).sqrt()
    };

    let rows = (0..per_day[0].len())
        .map(|i| {
            let days: Vec<&MethodRow> = per_day.iter().map(|rows| &rows[i]).collect();
            let over =
                |f: fn(&MethodRow) -> f64| mean(&days.iter().map(|r| f(r)).collect::<Vec<_>>());
            let over_present = |f: fn(&MethodRow) -> Option<f64>| {
                let xs: Vec<f64> = days.iter().filter_map(|r| f(r)).collect();
                (!xs.is_empty()).then(|| mean(&xs))
            };
            let totals: Vec<f64> = days.iter().map(|r| r.revenue_d + r.revenue_y).collect();
            MethodRow {
                method: format!(
                    "{} (±{:.1}%)",
                    days[0].method,
                    100.0 * std(&totals) / mean(&totals).max(1e-9)
                ),
                revenue_d: over(|r| r.revenue_d),
                revenue_y: over(|r| r.revenue_y),
                response_ms: over(|r| r.response_ms),
                memory_bytes: 0,
                completed_d: over(|r| r.completed_d as f64).round() as usize,
                completed_y: over(|r| r.completed_y as f64).round() as usize,
                cooperative: over_present(|r| r.cooperative.map(|c| c as f64))
                    .map(|c| c.round() as usize),
                acceptance_ratio: over_present(|r| r.acceptance_ratio),
                payment_rate: over_present(|r| r.payment_rate),
            }
        })
        .collect();
    TableResult {
        id: id.into(),
        title: format!("{title} — {days}-day mean (±std of total revenue)"),
        rows,
    }
}

const TABLE5_TITLE: &str = "Table V: Results on RDC10 and RYC10 (simulated, 1/10 scale)";

/// Table V: results on RDC10 and RYC10 (Chengdu, October).
pub fn table5(runner: &SweepRunner, quick: bool) -> TableResult {
    run_table(runner, "table5", TABLE5_TITLE, &chengdu_oct(), quick)
}

/// Table V as a 30-day mean ± std study (5 days under `--quick`).
pub fn table5x30(runner: &SweepRunner, quick: bool) -> TableResult {
    let days = if quick { 5 } else { 30 };
    run_table_multiday(
        runner,
        "table5x30",
        TABLE5_TITLE,
        &chengdu_oct(),
        days,
        quick,
    )
}

/// Table VI: results on RDC11 and RYC11 (Chengdu, November).
pub fn table6(runner: &SweepRunner, quick: bool) -> TableResult {
    run_table(
        runner,
        "table6",
        "Table VI: Results on RDC11 and RYC11 (simulated, 1/10 scale)",
        &chengdu_nov(),
        quick,
    )
}

/// Table VII: results on RDX11 and RYX11 (Xi'an, November).
pub fn table7(runner: &SweepRunner, quick: bool) -> TableResult {
    run_table(
        runner,
        "table7",
        "Table VII: Results on RDX11 and RYX11 (simulated, 1/10 scale)",
        &xian_nov(),
        quick,
    )
}

#[cfg(test)]
impl TableResult {
    /// Row lookup by method name.
    fn row(&self, method: &str) -> Option<&MethodRow> {
        self.rows.iter().find(|r| r.method == method)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table5_reproduces_paper_shape() {
        let t = table5(&SweepRunner::serial(), true);
        assert_eq!(t.rows.len(), 4);
        let off = t.row("OFF").unwrap();
        let tota = t.row("TOTA").unwrap();
        let dem = t.row("DemCOM").unwrap();
        let ram = t.row("RamCOM").unwrap();

        let total = |r: &MethodRow| r.revenue_d + r.revenue_y;
        // Paper shape: OFF ≥ RamCOM ≥ DemCOM ≥ TOTA on total revenue.
        // At quick (1/100) scale the two COM algorithms sit within a few
        // percent of each other and sampling noise can flip them; the
        // full-scale runs recorded in EXPERIMENTS.md are within ±1%.
        assert!(total(off) >= total(ram), "OFF should dominate RamCOM");
        assert!(total(off) >= total(dem), "OFF should dominate DemCOM");
        assert!(
            total(ram) >= total(dem) * 0.93,
            "RamCOM {} too far below DemCOM {}",
            total(ram),
            total(dem)
        );
        assert!(
            total(ram) > total(tota),
            "RamCOM {} should dominate TOTA {}",
            total(ram),
            total(tota)
        );
        assert!(
            total(dem) >= total(tota),
            "DemCOM {} should dominate TOTA {}",
            total(dem),
            total(tota)
        );
        // COM algorithms complete at least as many requests as TOTA.
        assert!(dem.completed_d + dem.completed_y >= tota.completed_d + tota.completed_y);
        // Only COM methods have cooperative metrics.
        assert!(off.cooperative.is_none() && tota.cooperative == Some(0));
        assert!(
            dem.cooperative.unwrap_or(0) > 0,
            "DemCOM should borrow workers"
        );
        // RamCOM's incentive mechanism beats DemCOM's on acceptance.
        if let (Some(ad), Some(ar)) = (dem.acceptance_ratio, ram.acceptance_ratio) {
            assert!(ar > ad, "RamCOM acceptance {ar} ≤ DemCOM {ad}");
        }
    }

    #[test]
    fn table_renders_all_columns() {
        let t = table7(&SweepRunner::serial(), true);
        let ascii = t.to_table().render_ascii();
        assert!(ascii.contains("Rev_D"));
        assert!(ascii.contains("OFF"));
        assert!(ascii.contains("RamCOM"));
        let md = t.to_table().render_markdown();
        assert!(md.contains("| Methods |"));
    }

    #[test]
    fn multiday_reports_every_method_with_variance() {
        let t = run_table_multiday(
            &SweepRunner::serial(),
            "md",
            "Multi-day",
            &chengdu_oct(),
            3,
            true,
        );
        assert_eq!(t.rows.len(), 4);
        for r in &t.rows {
            assert!(r.method.contains('%'), "{} lacks variance", r.method);
            assert!(r.revenue_d + r.revenue_y > 0.0);
        }
        // The paper-shape ordering holds for the day-averaged means too.
        let total = |m: &str| {
            let r = t.rows.iter().find(|r| r.method.starts_with(m)).unwrap();
            r.revenue_d + r.revenue_y
        };
        assert!(total("OFF") >= total("RamCOM"));
        assert!(total("DemCOM") >= total("TOTA"));
    }

    #[test]
    fn multiday_reports_each_platforms_completions() {
        let t = run_table_multiday(
            &SweepRunner::serial(),
            "md",
            "One day",
            &chengdu_oct(),
            1,
            true,
        );
        let instance = generate(&chengdu_oct().scaled(10));
        for spec in MatcherSpec::standard() {
            let run = com_core::run_online(&instance, spec.build().as_mut(), EXPERIMENT_SEED);
            let row = t
                .rows
                .iter()
                .find(|r| r.method.starts_with(&run.algorithm))
                .unwrap();
            assert_eq!(
                (row.completed_d, row.completed_y),
                (
                    run.completed_for(PlatformId(0)),
                    run.completed_for(PlatformId(1))
                ),
                "{}",
                row.method
            );
        }
    }

    #[test]
    fn scaled_down_respects_floors() {
        let c = chengdu_oct().scaled(1_000_000);
        assert!(c.platforms.iter().all(|p| p.n_requests == 10));
        assert!(c.platforms.iter().all(|p| p.n_workers == 4));
    }
}
