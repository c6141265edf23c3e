//! Tables V–VII: effectiveness and efficiency on the (simulated) real
//! datasets.
//!
//! Each table compares OFF / TOTA / DemCOM / RamCOM on a two-platform
//! city-day and reports the paper's nine metrics: per-platform revenue,
//! response time, memory, per-platform completed requests, cooperative
//! requests, acceptance ratio, and outer payment rate.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use com_core::{offline_solve, run_online, OfflineMode, PlatformId, RunResult};
use com_datagen::{chengdu_nov, chengdu_oct, generate, xian_nov, ScenarioConfig};
use com_metrics::{fmt_mega, fmt_mib, Table};

use crate::runner::{run_grid, SweepRunner};

use super::{standard_specs, EXPERIMENT_SEED, STANDARD_NAMES};

/// One method's measured row (serialisable so EXPERIMENTS.md numbers can
/// be regenerated from JSON dumps).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodRow {
    pub method: String,
    pub revenue_d: f64,
    pub revenue_y: f64,
    pub response_ms: f64,
    pub memory_bytes: usize,
    pub completed_d: usize,
    pub completed_y: usize,
    pub cooperative: Option<usize>,
    pub acceptance_ratio: Option<f64>,
    pub payment_rate: Option<f64>,
}

/// A complete table experiment result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableResult {
    pub id: String,
    pub title: String,
    pub rows: Vec<MethodRow>,
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

    /// Row lookup by method name.
    pub fn row(&self, method: &str) -> Option<&MethodRow> {
        self.rows.iter().find(|r| r.method == method)
    }
}

/// How many seeded replays each online method is averaged over — the
/// paper's tables average a month of daily runs; five replays keep the
/// randomized algorithms' variance out of the headline numbers at
/// tolerable cost.
pub const TABLE_REPEATS: u64 = 5;

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
pub fn run_table(
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
    let n_requests = instance.request_count().max(1);

    let mut rows = Vec::new();

    // OFF: full-knowledge scheduler (workers re-enter during a day run).
    let started = Instant::now();
    let off = offline_solve(&instance, OfflineMode::GreedySchedule);
    let off_ms = started.elapsed().as_secs_f64() * 1e3 / n_requests as f64;
    rows.push(MethodRow {
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
    });

    // The (matcher × seed) grid: every cell builds a fresh matcher from
    // its spec and uses the cell's own seed, so the fan-out is exact.
    let seeds: Vec<u64> = (0..TABLE_REPEATS).map(|i| EXPERIMENT_SEED + i).collect();
    let runs = run_grid(runner, &instance, &standard_specs(), &seeds);
    for per_method in runs.chunks(seeds.len()) {
        rows.push(averaged_method_row(per_method));
    }

    TableResult {
        id: id.into(),
        title: title.into(),
        rows,
    }
}

/// One day's measurements: OFF plus every standard online method.
struct DayMeasurements {
    /// (revenue_d, revenue_y, completed_d, completed_y) for OFF then each
    /// standard method, in presentation order.
    per_method: Vec<(f64, f64, usize, usize)>,
    response_ms: Vec<f64>,
    coop: Vec<f64>,
    acc: Vec<Option<f64>>,
    rate: Vec<Option<f64>>,
}

/// A multi-day study: regenerate the scenario with `days` different
/// seeds (the paper's tables average a month of days) and report each
/// method's total-revenue mean ± population std across days, plus the
/// mean completion count. Quantifies day-to-day variance that the
/// single-instance tables hide. Fanned across `runner`'s workers, one job
/// per day (each day regenerates its instance and replays every method,
/// so the grain is chunky and cross-day aggregation folds in day order).
pub fn run_table_multiday(
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

    let day_jobs: Vec<usize> = (0..days).collect();
    let measured: Vec<DayMeasurements> = runner.map(day_jobs, |_, &day| {
        let instance = generate(&base.with_seed(base.seed ^ (day as u64) << 16));
        let started = Instant::now();
        let off = offline_solve(&instance, OfflineMode::GreedySchedule);
        let off_ms = started.elapsed().as_secs_f64() * 1e3 / instance.request_count().max(1) as f64;
        let mut m = DayMeasurements {
            per_method: vec![(
                off.revenue_by_platform[0],
                off.revenue_by_platform[1],
                off.completed_by_platform[0],
                off.completed_by_platform[1],
            )],
            response_ms: vec![off_ms],
            coop: Vec::new(),
            acc: Vec::new(),
            rate: Vec::new(),
        };
        for spec in standard_specs() {
            let mut matcher = spec.build();
            let run = run_online(&instance, matcher.as_mut(), EXPERIMENT_SEED + day as u64);
            m.per_method.push((
                run.revenue_for(PlatformId(0)),
                run.revenue_for(PlatformId(1)),
                run.completed_for(PlatformId(0)),
                run.completed_for(PlatformId(1)),
            ));
            m.response_ms.push(run.mean_response_ms());
            m.coop.push(run.cooperative_count() as f64);
            m.acc.push(run.acceptance_ratio());
            m.rate.push(run.mean_outer_payment_rate());
        }
        m
    });

    // method -> per-day (revenue_d, revenue_y, completed_d, completed_y),
    // folded in day order so float accumulation matches serial execution.
    let mut per_day: Vec<Vec<(f64, f64, usize, usize)>> =
        vec![Vec::new(); STANDARD_NAMES.len() + 1];
    let mut response: Vec<Vec<f64>> = vec![Vec::new(); STANDARD_NAMES.len() + 1];
    let mut coop: Vec<Vec<f64>> = vec![Vec::new(); STANDARD_NAMES.len()];
    let mut acc: Vec<Vec<f64>> = vec![Vec::new(); STANDARD_NAMES.len()];
    let mut rate: Vec<Vec<f64>> = vec![Vec::new(); STANDARD_NAMES.len()];
    for m in &measured {
        for (i, v) in m.per_method.iter().enumerate() {
            per_day[i].push(*v);
            response[i].push(m.response_ms[i]);
        }
        for i in 0..STANDARD_NAMES.len() {
            coop[i].push(m.coop[i]);
            if let Some(a) = m.acc[i] {
                acc[i].push(a);
            }
            if let Some(r) = m.rate[i] {
                rate[i].push(r);
            }
        }
    }

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let std = |xs: &[f64]| {
        let m = mean(xs);
        (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len().max(1) as f64).sqrt()
    };

    let mut rows = Vec::new();
    let names: Vec<&str> = std::iter::once("OFF").chain(STANDARD_NAMES).collect();
    for (i, name) in names.iter().enumerate() {
        let rev_d: Vec<f64> = per_day[i].iter().map(|d| d.0).collect();
        let rev_y: Vec<f64> = per_day[i].iter().map(|d| d.1).collect();
        let totals: Vec<f64> = per_day[i].iter().map(|d| d.0 + d.1).collect();
        let completed: Vec<f64> = per_day[i].iter().map(|d| (d.2 + d.3) as f64).collect();
        let method = format!(
            "{name} (±{:.1}%)",
            100.0 * std(&totals) / mean(&totals).max(1e-9)
        );
        rows.push(MethodRow {
            method,
            revenue_d: mean(&rev_d),
            revenue_y: mean(&rev_y),
            response_ms: mean(&response[i]),
            memory_bytes: 0,
            completed_d: (mean(&completed) / 2.0).round() as usize,
            completed_y: (mean(&completed) / 2.0).round() as usize,
            cooperative: (i > 0).then(|| mean(&coop[i - 1]).round() as usize),
            acceptance_ratio: (i > 0 && !acc[i - 1].is_empty()).then(|| mean(&acc[i - 1])),
            payment_rate: (i > 0 && !rate[i - 1].is_empty()).then(|| mean(&rate[i - 1])),
        });
    }
    TableResult {
        id: id.into(),
        title: format!("{title} — {days}-day mean (±std of total revenue)"),
        rows,
    }
}

/// Table V: results on RDC10 and RYC10 (Chengdu, October).
pub fn table5(runner: &SweepRunner, quick: bool) -> TableResult {
    run_table(
        runner,
        "table5",
        "Table V: Results on RDC10 and RYC10 (simulated, 1/10 scale)",
        &chengdu_oct(),
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
    fn scaled_down_respects_floors() {
        let c = chengdu_oct().scaled(1_000_000);
        assert!(c.platforms.iter().all(|p| p.n_requests == 10));
        assert!(c.platforms.iter().all(|p| p.n_workers == 4));
    }
}
