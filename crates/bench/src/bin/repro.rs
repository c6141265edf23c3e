//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p com-bench --release --bin repro -- <experiment> [--quick] [--out DIR] [--threads N]
//!
//! experiments:
//!   table5 table6 table7        the paper's Tables V–VII
//!   table5x30                    Table V as a 30-day mean ± std study
//!   fig5r  fig5w  fig5rad       Fig. 5 sweeps over |R|, |W|, rad
//!   cr                          empirical competitive ratios (Thms 1–2)
//!   ablation                    design ablations (§III-D discussion)
//!   all                         everything above
//! flags:
//!   --quick                     1/10-scale smoke run (minutes, not hours)
//!   --out DIR                   write markdown + JSON dumps (default: results/)
//!   --threads N                 fan the (instance × matcher × seed) grid
//!                               across N workers (default: all cores;
//!                               --threads 1 = old serial behaviour).
//!                               Decided results are bit-identical for
//!                               every N; only wall-clock fields vary.
//! ```
//!
//! Every run audits itself (`com_core::audit` states the contract): a
//! refused decision or an audit finding in any cell fails the process
//! through the sweep runner's re-raised `CellPanic`.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use com_bench::experiments::{ablation, cr, figures, tables};
use com_bench::runner::SweepRunner;
use com_bench::{CountingAllocator, Table};
use serde::Serialize;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Every experiment `all` runs, in order.
const EXPERIMENTS: [&str; 9] = [
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

struct Args {
    experiments: Vec<String>,
    quick: bool,
    out: PathBuf,
    threads: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: repro <table5|table6|table7|fig5r|fig5w|fig5rad|cr|ablation|all> \
         [--quick] [--out DIR] [--threads N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut experiments = Vec::new();
    let mut quick = false;
    let mut out = PathBuf::from("results");
    let mut threads = 0; // all cores
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = PathBuf::from(argv.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    usage()
                }));
            }
            "--threads" => {
                threads = argv
                    .next()
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs a worker count");
                        usage()
                    })
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("--threads must be an integer (0 = all cores)");
                        usage()
                    });
            }
            "--help" | "-h" => {
                println!("usage: repro <table5|table6|table7|fig5r|fig5w|fig5rad|cr|ablation|all> [--quick] [--out DIR] [--threads N]");
                std::process::exit(0);
            }
            // Every name is checked here, before anything runs, so a typo
            // anywhere on the command line writes nothing.
            name if name == "all" || EXPERIMENTS.contains(&name) => {
                experiments.push(name.to_string())
            }
            other => {
                eprintln!("unknown experiment `{other}` (see --help)");
                std::process::exit(2);
            }
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    Args {
        experiments,
        quick,
        out,
        threads,
    }
}

/// Print each table, then save them as `name.md` (a lone table as is,
/// several each followed by a blank line) beside the pretty `name.json`.
fn emit(out: &Path, name: &str, tables: &[Table], json: &impl Serialize) {
    let mut markdown = String::new();
    for t in tables {
        println!("{}", t.render_ascii());
        markdown.push_str(&t.render_markdown());
        if tables.len() > 1 {
            markdown.push('\n');
        }
    }
    fs::create_dir_all(out).expect("create output directory");
    fs::write(out.join(format!("{name}.md")), markdown).expect("write markdown");
    let json = serde_json::to_string_pretty(json).expect("serialise");
    fs::write(out.join(format!("{name}.json")), json).expect("write json");
}

fn run(runner: &SweepRunner, name: &str, quick: bool, out: &Path) {
    let table = |result: tables::TableResult| emit(out, name, &[result.to_table()], &result);
    let sweep = |result: figures::SweepResult| {
        let panels = [
            &result.revenue,
            &result.response,
            &result.memory,
            &result.acceptance,
        ];
        emit(out, name, &panels.map(|p| p.to_table(3)), &result)
    };
    match name {
        "table5" => table(tables::table5(runner, quick)),
        "table6" => table(tables::table6(runner, quick)),
        "table7" => table(tables::table7(runner, quick)),
        "table5x30" => table(tables::table5x30(runner, quick)),
        "fig5r" => sweep(figures::sweep_requests(runner, quick)),
        "fig5w" => sweep(figures::sweep_workers(runner, quick)),
        "fig5rad" => sweep(figures::sweep_radius(runner, quick)),
        "cr" => {
            let (instances, orders) = if quick { (4, 8) } else { (16, 32) };
            let study = cr::run_cr_study(runner, instances, orders);
            emit(out, name, &[study.to_table()], &study);
        }
        "ablation" => {
            let results = ablation::run_all(runner, quick);
            let tables: Vec<Table> = results.iter().map(|a| a.to_table()).collect();
            emit(out, name, &tables, &results);
        }
        other => unreachable!("`{other}` is checked against EXPERIMENTS in parse_args"),
    }
}

fn main() {
    let args = parse_args();
    let runner = SweepRunner::new(args.threads);
    let list: Vec<String> = if args.experiments.iter().any(|e| e == "all") {
        EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args.experiments.clone()
    };

    println!(
        "repro: {} experiment(s), {} mode, {} worker thread(s), output -> {}",
        list.len(),
        if args.quick { "quick" } else { "full" },
        runner.threads(),
        args.out.display()
    );

    for name in &list {
        let started = Instant::now();
        CountingAllocator::reset_peak();
        run(&runner, name, args.quick, &args.out);
        println!(
            "[{name}] done in {:.1}s (process peak heap {:.1} MiB)\n",
            started.elapsed().as_secs_f64(),
            CountingAllocator::peak_bytes() as f64 / (1024.0 * 1024.0)
        );
    }
}
