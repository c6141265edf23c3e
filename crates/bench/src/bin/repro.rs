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
use com_metrics::{CountingAllocator, Table};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

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
            other => experiments.push(other.to_string()),
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

fn save(out: &Path, name: &str, markdown: &str, json: &serde_json::Value) {
    fs::create_dir_all(out).expect("create output directory");
    fs::write(out.join(format!("{name}.md")), markdown).expect("write markdown");
    fs::write(
        out.join(format!("{name}.json")),
        serde_json::to_string_pretty(json).expect("serialise"),
    )
    .expect("write json");
}

fn emit_table(out: &Path, name: &str, table: &Table, json: &serde_json::Value) {
    println!("{}", table.render_ascii());
    save(out, name, &table.render_markdown(), json);
}

fn run_table(runner: &SweepRunner, name: &str, quick: bool, out: &Path) {
    let result = match name {
        "table5" => tables::table5(runner, quick),
        "table6" => tables::table6(runner, quick),
        "table7" => tables::table7(runner, quick),
        "table5x30" => tables::run_table_multiday(
            runner,
            "table5x30",
            "Table V: Results on RDC10 and RYC10 (simulated, 1/10 scale)",
            &com_datagen::chengdu_oct(),
            if quick { 5 } else { 30 },
            quick,
        ),
        _ => unreachable!(),
    };
    emit_table(
        out,
        name,
        &result.to_table(),
        &serde_json::to_value(&result).expect("serialise table"),
    );
}

fn run_sweep(runner: &SweepRunner, name: &str, quick: bool, out: &Path) {
    let result = match name {
        "fig5r" => figures::sweep_requests(runner, quick),
        "fig5w" => figures::sweep_workers(runner, quick),
        "fig5rad" => figures::sweep_radius(runner, quick),
        _ => unreachable!(),
    };
    let mut markdown = String::new();
    for series in [
        &result.revenue,
        &result.response,
        &result.memory,
        &result.acceptance,
    ] {
        let t = series.to_table(3);
        println!("{}", t.render_ascii());
        markdown.push_str(&t.render_markdown());
        markdown.push('\n');
    }
    save(
        out,
        name,
        &markdown,
        &serde_json::to_value(&result).expect("serialise sweep"),
    );
}

fn run_cr(runner: &SweepRunner, quick: bool, out: &Path) {
    let (instances, orders) = if quick { (4, 8) } else { (16, 32) };
    let study = cr::run_cr_study(runner, instances, orders);
    emit_table(
        out,
        "cr",
        &study.to_table(),
        &serde_json::to_value(&study).expect("serialise cr"),
    );
}

fn run_ablation(runner: &SweepRunner, quick: bool, out: &Path) {
    let results = ablation::run_all(runner, quick);
    let mut markdown = String::new();
    for a in &results {
        let t = a.to_table();
        println!("{}", t.render_ascii());
        markdown.push_str(&t.render_markdown());
        markdown.push('\n');
    }
    save(
        out,
        "ablation",
        &markdown,
        &serde_json::to_value(&results).expect("serialise ablations"),
    );
}

fn main() {
    let args = parse_args();
    let runner = SweepRunner::new(args.threads);
    let all = [
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
    let list: Vec<String> = if args.experiments.iter().any(|e| e == "all") {
        all.iter().map(|s| s.to_string()).collect()
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
        match name.as_str() {
            "table5" | "table6" | "table7" | "table5x30" => {
                run_table(&runner, name, args.quick, &args.out)
            }
            "fig5r" | "fig5w" | "fig5rad" => run_sweep(&runner, name, args.quick, &args.out),
            "cr" => run_cr(&runner, args.quick, &args.out),
            "ablation" => run_ablation(&runner, args.quick, &args.out),
            other => {
                eprintln!("unknown experiment `{other}` (see --help)");
                std::process::exit(2);
            }
        }
        println!(
            "[{name}] done in {:.1}s (process peak heap {:.1} MiB)\n",
            started.elapsed().as_secs_f64(),
            CountingAllocator::peak_bytes() as f64 / (1024.0 * 1024.0)
        );
    }
}
