//! `simulate` — run COM on a scenario described by a JSON config file.
//!
//! ```text
//! cargo run -p com-bench --release --bin simulate -- \
//!     [--config scenario.json \
//!      | --profile chengdu-oct|chengdu-nov|xian-nov|synthetic|quick|full-scale \
//!      | --workers-csv W.csv --requests-csv R.csv [--platforms "A,B"]] \
//!     [--matcher tota|demcom|ramcom|greedy-rt|route-aware:<cap-km>|all[,…]] \
//!     [--seed N] [--metric euclidean|manhattan] [--json out.json] \
//!     [--stats] [--trace out.jsonl] [--threads N]
//! ```
//!
//! `--matcher` takes a comma-separated list (default `all`, the standard
//! three). Each name parses through `com-core`'s `MatcherSpec` — the
//! same source of truth the `repro` harness and the serving binaries use
//! — so an unknown spec exits 2 with an error listing the valid specs.
//!
//! `--threads N` replays the requested algorithms on N workers via the
//! deterministic sweep runner (default 1; `0` = all cores). Results are
//! bit-identical to serial for every N: each run's RNG is seeded from
//! `--seed` alone.
//!
//! `--stats` collects per-run `com-obs` telemetry (one collector per
//! worker thread) and prints a per-algorithm, per-phase latency table
//! (candidate search, pricing, offer, full decision) plus counters and
//! gauges — and, when several algorithms ran, one merged report across
//! all runs. `--trace FILE` streams every span as one JSON object per
//! line (single collector, so it forces `--threads 1`). Neither flag
//! changes any decision or revenue: identical seeds give identical
//! results with instrumentation on or off.
//!
//! The runs are `com_bench::runner::run_grid`'s, the grid `repro` uses,
//! so every run audits itself: a refused decision or an audit finding
//! fails the process with the algorithm, the seed and the first finding.
//!
//! The config file is a serialised `com_datagen::ScenarioConfig` — dump a
//! starting point with `--emit-config`, edit, and re-run. This is the
//! adoption path for users with their own city data: express it as a
//! scenario (or build an `Instance` programmatically) and replay any
//! matcher over it.

use std::fs;
use std::path::PathBuf;

use com_bench::runner::{merged_telemetry, run_grid, SweepRunner};
use com_bench::Table;
use com_core::{MatcherSpec, RunResult, SpecError};
use com_datagen::{generate, instance_from_csv, Cli};
use com_geo::DistanceMetric;
use com_sim::{Instance, PlatformId, WorldConfig};

const USAGE: &str = "usage: simulate [--config FILE | --profile NAME \
     | --workers-csv W.csv --requests-csv R.csv [--platforms NAMES]] \
     [--matcher LIST] [--seed N] [--metric euclidean|manhattan] \
     [--json FILE] [--stats] [--trace FILE.jsonl] [--threads N] \
     [--emit-config]";

struct Args {
    workers_csv: Option<PathBuf>,
    requests_csv: Option<PathBuf>,
    platforms: Vec<String>,
    specs: Vec<MatcherSpec>,
    seed: u64,
    metric: DistanceMetric,
    json_out: Option<PathBuf>,
    emit_config: bool,
    stats: bool,
    trace: Option<PathBuf>,
    threads: usize,
}

fn parse_args(cli: &mut Cli) -> Args {
    let mut args = Args {
        workers_csv: None,
        requests_csv: None,
        platforms: vec!["A".into(), "B".into()],
        specs: MatcherSpec::standard().to_vec(),
        seed: 42,
        metric: DistanceMetric::Euclidean,
        json_out: None,
        emit_config: false,
        stats: false,
        trace: None,
        threads: 1,
    };
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--workers-csv" => args.workers_csv = Some(cli.value().into()),
            "--requests-csv" => args.requests_csv = Some(cli.value().into()),
            "--platforms" => args.platforms = cli.value().split(',').map(String::from).collect(),
            "--matcher" => args.specs = cli.parse_with(parse_specs),
            "--seed" => args.seed = cli.parse(),
            "--metric" => {
                args.metric = cli.parse_with(|metric| match metric {
                    "euclidean" => Ok(DistanceMetric::Euclidean),
                    "manhattan" => Ok(DistanceMetric::Manhattan),
                    _ => Err("must be euclidean or manhattan"),
                })
            }
            "--json" => args.json_out = Some(cli.value().into()),
            "--stats" => args.stats = true,
            "--trace" => args.trace = Some(cli.value().into()),
            "--threads" => args.threads = cli.parse(),
            "--emit-config" => args.emit_config = true,
            _ => cli.unknown(&arg),
        }
    }
    if args.workers_csv.is_some() != args.requests_csv.is_some() {
        cli.usage_error("--workers-csv and --requests-csv must be given together")
    }
    args
}

/// A `--matcher` list: comma-separated specs, `all` for the standard
/// three.
fn parse_specs(list: &str) -> Result<Vec<MatcherSpec>, SpecError> {
    if list.split(',').any(|name| name == "all") {
        return Ok(MatcherSpec::standard().to_vec());
    }
    list.split(',').map(MatcherSpec::parse).collect()
}

fn report_row(run: &RunResult, platforms: usize) -> Vec<String> {
    let per_platform: Vec<String> = (0..platforms)
        .map(|p| format!("{:.0}", run.revenue_for(PlatformId(p as u16))))
        .collect();
    vec![
        run.algorithm.clone(),
        format!("{:.0}", run.total_revenue()),
        per_platform.join("/"),
        run.completed().to_string(),
        run.cooperative_count().to_string(),
        run.acceptance_ratio()
            .map_or("-".into(), |v| format!("{v:.2}")),
        run.mean_pickup_km()
            .map_or("-".into(), |v| format!("{v:.2}")),
        format!("{:.4}", run.mean_response_ms()),
    ]
}

fn build_instance(cli: &Cli, args: &Args) -> Instance {
    let (Some(w), Some(r)) = (&args.workers_csv, &args.requests_csv) else {
        return generate(&cli.scenario());
    };
    let read = |path: &PathBuf| {
        fs::read_to_string(path)
            .unwrap_or_else(|e| cli.fail(format!("cannot read {}: {e}", path.display())))
    };
    instance_from_csv(
        &read(w),
        &read(r),
        args.platforms.clone(),
        WorldConfig::city(30.0),
    )
    .unwrap_or_else(|e| cli.fail(format!("CSV error: {e}")))
}

/// Nanoseconds rendered as microseconds with one decimal.
fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

/// The `--stats` report: one per-phase latency table plus one
/// counter/gauge table covering every instrumented run.
fn print_telemetry(reports: &[com_obs::RunTelemetry]) {
    let mut phases = Table::new(
        "per-phase latency (µs)",
        &[
            "Algorithm",
            "Phase",
            "Count",
            "p50 µs",
            "p90 µs",
            "p99 µs",
            "max µs",
            "total ms",
        ],
    );
    let mut meters = Table::new(
        "counters and gauges",
        &["Algorithm", "Name", "Value", "Max"],
    );
    for t in reports {
        for p in &t.phases {
            phases.push_row(vec![
                t.algorithm.clone(),
                p.phase.clone(),
                p.count.to_string(),
                us(p.p50_ns),
                us(p.p90_ns),
                us(p.p99_ns),
                us(p.max_ns),
                format!("{:.2}", p.total_ns as f64 / 1e6),
            ]);
        }
        for c in &t.counters {
            meters.push_row(vec![
                t.algorithm.clone(),
                c.name.clone(),
                c.value.to_string(),
                "-".into(),
            ]);
        }
        for g in &t.gauges {
            meters.push_row(vec![
                t.algorithm.clone(),
                g.name.clone(),
                format!("{:.0}", g.last),
                format!("{:.0}", g.max),
            ]);
        }
    }
    println!("{}", phases.render_ascii());
    println!("{}", meters.render_ascii());
}

fn main() {
    let mut cli = Cli::new("simulate", USAGE).with_scenario("synthetic");
    let args = parse_args(&mut cli);

    if args.emit_config {
        println!(
            "{}",
            serde_json::to_string_pretty(&cli.scenario()).expect("serialise scenario")
        );
        return;
    }

    let threads = if args.trace.is_some() && args.threads != 1 {
        eprintln!("--trace streams through a single collector; forcing --threads 1");
        1
    } else {
        args.threads
    };

    let mut instance = build_instance(&cli, &args);
    instance.config.metric = args.metric;
    println!(
        "scenario: {} requests, {} workers, {} platforms ({}), metric {:?}, seed {}",
        instance.request_count(),
        instance.worker_count(),
        instance.platform_names.len(),
        instance.platform_names.join(", "),
        args.metric,
        args.seed,
    );

    let mut table = Table::new(
        "simulate",
        &[
            "Algorithm",
            "Revenue",
            "Rev/platform",
            "Completed",
            "|CoR|",
            "|AcpRt|",
            "Pickup km",
            "ms/req",
        ],
    );
    if let Some(path) = &args.trace {
        com_obs::install_with_trace(path).unwrap_or_else(|e| {
            cli.fail(format!("cannot open trace file {}: {e}", path.display()))
        });
    }

    // One run per algorithm, fanned across the sweep runner. Every run
    // is seeded from `--seed` alone, so results are bit-identical for any
    // thread count. With `--trace` the collector installed above stays
    // active (the runner never clobbers a live collector); with `--stats`
    // the runner installs one per worker.
    let runner = SweepRunner::new(threads).with_telemetry(args.stats || args.trace.is_some());
    let runs = run_grid(&runner, &instance, &args.specs, &[args.seed]);

    let mut dumps = Vec::new();
    let mut reports = Vec::new();
    for run in &runs {
        table.push_row(report_row(run, instance.platform_names.len()));
        reports.extend(run.telemetry.clone());
        dumps.push(serde_json::json!({
            "algorithm": run.algorithm,
            "revenue": run.total_revenue(),
            "completed": run.completed(),
            "cooperative": run.cooperative_count(),
            "acceptance_ratio": run.acceptance_ratio(),
            "payment_rate": run.mean_outer_payment_rate(),
            "mean_pickup_km": run.mean_pickup_km(),
            "mean_response_ms": run.mean_response_ms(),
            "peak_memory_bytes": run.peak_memory_bytes,
        }));
    }
    println!("{}", table.render_ascii());

    if args.stats || args.trace.is_some() {
        if reports.len() > 1 {
            reports.extend(merged_telemetry("all algorithms (merged)", &runs));
        }
        print_telemetry(&reports);
        com_obs::uninstall();
        if let Some(path) = &args.trace {
            println!("trace written to {}", path.display());
        }
    }

    if let Some(path) = &args.json_out {
        fs::write(
            path,
            serde_json::to_string_pretty(&serde_json::json!({
                "seed": args.seed,
                "requests": instance.request_count(),
                "workers": instance.worker_count(),
                "runs": dumps,
            }))
            .expect("serialise results"),
        )
        .unwrap_or_else(|e| cli.fail(format!("cannot write {}: {e}", path.display())));
        println!("results written to {}", path.display());
    }
}
