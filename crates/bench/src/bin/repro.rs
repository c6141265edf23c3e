//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p com-bench --release --bin repro -- [experiment...] [--quick] [--out DIR] [--threads N]
//!
//! experiments:
//!   table5 table6 table7        the paper's Tables V–VII
//!   table5x30                    Table V as a 30-day mean ± std study
//!   fig5r  fig5w  fig5rad       Fig. 5 sweeps over |R|, |W|, rad
//!   cr                          empirical competitive ratios (Thms 1–2)
//!   ablation                    design ablations (§III-D discussion)
//!   all                         everything above (the default)
//! flags:
//!   --quick                     1/10-scale smoke run (minutes, not hours)
//!   --out DIR                   write markdown + JSON dumps (default: results/);
//!                               created before anything runs
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

use com_bench::experiments::{ablation, cr, figures, tables, EXPERIMENTS};
use com_bench::runner::SweepRunner;
use com_bench::{CountingAllocator, Table};
use com_datagen::Cli;
use serde::Serialize;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Args {
    experiments: Vec<String>,
    quick: bool,
    out: PathBuf,
    threads: usize,
}

fn parse_args(cli: &mut Cli) -> Args {
    let mut args = Args {
        experiments: Vec::new(),
        quick: false,
        out: PathBuf::from("results"),
        threads: 0, // all cores
    };
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = cli.value().into(),
            "--threads" => args.threads = cli.parse(),
            // Every name is checked here, before anything runs, so a typo
            // anywhere on the command line writes nothing.
            name if name == "all" || EXPERIMENTS.contains(&name) => args.experiments.push(arg),
            flag if flag.starts_with('-') => cli.unknown(flag),
            name => cli.usage_error(format!("unknown experiment `{name}`")),
        }
    }
    if args.experiments.is_empty() || args.experiments.iter().any(|e| e == "all") {
        args.experiments = EXPERIMENTS.map(String::from).to_vec();
    }
    args
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
    let usage = format!(
        "usage: repro [EXPERIMENT...] [--quick] [--out DIR] [--threads N]\n\
         \x20 experiments: {} all (the default: every one)",
        EXPERIMENTS.join(" ")
    );
    let mut cli = Cli::new("repro", usage);
    let args = parse_args(&mut cli);
    // The output directory exists before the first experiment runs, so an
    // unwritable `--out` costs nothing.
    fs::create_dir_all(&args.out)
        .unwrap_or_else(|e| cli.fail(format!("cannot create --out {}: {e}", args.out.display())));
    let runner = SweepRunner::new(args.threads);

    println!(
        "repro: {} experiment(s), {} mode, {} worker thread(s), output -> {}",
        args.experiments.len(),
        if args.quick { "quick" } else { "full" },
        runner.threads(),
        args.out.display()
    );

    for name in &args.experiments {
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
