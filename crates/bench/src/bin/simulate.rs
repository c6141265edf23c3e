//! `simulate` — run COM on a scenario described by a JSON config file.
//!
//! ```text
//! cargo run -p com-bench --release --bin simulate -- \
//!     [--config scenario.json | --profile chengdu-oct|chengdu-nov|xian-nov|synthetic \
//!      | --workers-csv W.csv --requests-csv R.csv [--platforms "A,B"]] \
//!     [--algo tota|demcom|ramcom|greedy-rt|route-aware:<cap-km>|all] \
//!     [--seed N] [--metric euclidean|manhattan] [--json out.json] \
//!     [--stats] [--trace out.jsonl] [--threads N]
//! ```
//!
//! Algorithm names parse through `com-core`'s `MatcherSpec` — the
//! same source of truth the `repro` harness uses — so an unknown
//! `--algo` produces an error listing the valid specs instead of a
//! panic.
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
use com_core::{MatcherSpec, RunResult};
use com_datagen::{generate, instance_from_csv, profiles, ScenarioConfig};
use com_geo::DistanceMetric;
use com_sim::{Instance, PlatformId, WorldConfig};

struct Args {
    config: Option<PathBuf>,
    profile: String,
    workers_csv: Option<PathBuf>,
    requests_csv: Option<PathBuf>,
    platforms: Vec<String>,
    algos: Vec<String>,
    seed: u64,
    metric: DistanceMetric,
    json_out: Option<PathBuf>,
    emit_config: bool,
    stats: bool,
    trace: Option<PathBuf>,
    threads: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: simulate [--config FILE | --profile NAME \
         | --workers-csv W.csv --requests-csv R.csv [--platforms NAMES]] \
         [--algo LIST] [--seed N] [--metric euclidean|manhattan] \
         [--json FILE] [--stats] [--trace FILE.jsonl] [--threads N] \
         [--emit-config]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        config: None,
        profile: "synthetic".into(),
        workers_csv: None,
        requests_csv: None,
        platforms: vec!["A".into(), "B".into()],
        algos: vec!["all".into()],
        seed: 42,
        metric: DistanceMetric::Euclidean,
        json_out: None,
        emit_config: false,
        stats: false,
        trace: None,
        threads: 1,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        let mut next = |flag: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--config" => args.config = Some(PathBuf::from(next("--config"))),
            "--profile" => args.profile = next("--profile"),
            "--workers-csv" => args.workers_csv = Some(PathBuf::from(next("--workers-csv"))),
            "--requests-csv" => args.requests_csv = Some(PathBuf::from(next("--requests-csv"))),
            "--platforms" => {
                args.platforms = next("--platforms")
                    .split(',')
                    .map(|s| s.to_string())
                    .collect()
            }
            "--algo" => args.algos = next("--algo").split(',').map(|s| s.to_string()).collect(),
            "--seed" => {
                args.seed = next("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed must be an integer");
                    usage()
                })
            }
            "--metric" => {
                args.metric = match next("--metric").as_str() {
                    "euclidean" => DistanceMetric::Euclidean,
                    "manhattan" => DistanceMetric::Manhattan,
                    other => {
                        eprintln!("unknown metric {other}");
                        usage()
                    }
                }
            }
            "--json" => args.json_out = Some(PathBuf::from(next("--json"))),
            "--stats" => args.stats = true,
            "--trace" => args.trace = Some(PathBuf::from(next("--trace"))),
            "--threads" => {
                args.threads = next("--threads").parse().unwrap_or_else(|_| {
                    eprintln!("--threads must be an integer (0 = all cores)");
                    usage()
                })
            }
            "--emit-config" => args.emit_config = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

/// Print a one-line error and exit 2 (bad input, not a bug).
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("simulate: {message}");
    std::process::exit(2)
}

/// Parse every requested `--algo` spec (`all` is the standard three),
/// exiting with the parser's own error message (which lists the valid
/// specs) on the first unknown name.
fn parse_algos(names: &[String]) -> Vec<MatcherSpec> {
    if names.iter().any(|a| a == "all") {
        return MatcherSpec::standard().to_vec();
    }
    names
        .iter()
        .map(|name| MatcherSpec::parse(name).unwrap_or_else(|e| fail(e)))
        .collect()
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

fn build_instance(args: &Args, scenario: &ScenarioConfig) -> Instance {
    match (&args.workers_csv, &args.requests_csv) {
        (Some(w), Some(r)) => {
            let read = |path: &PathBuf| {
                fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())))
            };
            let (workers, requests) = (read(w), read(r));
            instance_from_csv(
                &workers,
                &requests,
                args.platforms.clone(),
                WorldConfig::city(30.0),
            )
            .unwrap_or_else(|e| fail(format!("CSV error: {e}")))
        }
        (None, None) => generate(scenario),
        _ => {
            eprintln!("--workers-csv and --requests-csv must be given together");
            usage()
        }
    }
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
    let args = parse_args();
    let scenario =
        profiles::load(args.config.as_deref(), &args.profile).unwrap_or_else(|e| fail(e));

    if args.emit_config {
        println!(
            "{}",
            serde_json::to_string_pretty(&scenario).expect("serialise scenario")
        );
        return;
    }

    let specs = parse_algos(&args.algos);

    let threads = if args.trace.is_some() && args.threads != 1 {
        eprintln!("--trace streams through a single collector; forcing --threads 1");
        1
    } else {
        args.threads
    };

    let mut instance = build_instance(&args, &scenario);
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
            eprintln!("cannot open trace file {}: {e}", path.display());
            std::process::exit(2)
        });
    }

    // One run per algorithm, fanned across the sweep runner. Every run
    // is seeded from `--seed` alone, so results are bit-identical for any
    // thread count. With `--trace` the collector installed above stays
    // active (the runner never clobbers a live collector); with `--stats`
    // the runner installs one per worker.
    let runner = SweepRunner::new(threads).with_telemetry(args.stats || args.trace.is_some());
    let runs = run_grid(&runner, &instance, &specs, &[args.seed]);

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
        .expect("write json output");
        println!("results written to {}", path.display());
    }
}
