//! `perfladder` — the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! perfladder run --matchd PATH [--workload NAME|all] [--seed N]
//!                [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
//! perfladder compare A.json [A2.json ...] -- B.json [B2.json ...]
//! ```

mod affinity;
mod compare;
mod daemon;
mod fed;
mod inputs;
mod ladder;
mod report;
mod run;
mod spec;
mod stats;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use affinity::Placement;
use daemon::DaemonEnv;
use report::{Host, ResultsFile};
use run::RunConfig;
use spec::{Workload, WORKLOADS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfladder run --matchd PATH [--workload NAME|all] [--seed N] \
         [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]\n       \
         perfladder compare A.json [...] -- B.json [...]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    matchd: PathBuf,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: WORKLOADS.to_vec(),
        seed: 42,
        seconds: spec::RUN_SECONDS,
        trace: false,
        smoke: false,
        matchd: PathBuf::new(),
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if name != "all" {
                    let w = Workload::by_name(&name)
                        .ok_or_else(|| format!("unknown workload {name}"))?;
                    parsed.workloads = vec![w];
                }
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--matchd" => parsed.matchd = value("--matchd")?.into(),
            "--out" => parsed.out = value("--out")?.into(),
            "--smoke" => parsed.smoke = true,
            // `--trace` alone or `--trace 0|1` (the driver's form).
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if parsed.matchd.as_os_str().is_empty() {
        return Err("--matchd PATH is required (benchmark/run.sh builds and passes it)".into());
    }
    Ok(parsed)
}

fn run(args: &[String]) -> ExitCode {
    let args = match parse_run(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfladder: {e}");
            return usage();
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfladder: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    // `Host::detect` counts the CPUs, so it runs before the pin.
    let mut host = Host::detect();
    let placement = Placement::pin();
    host.pinned_cpus = placement.cpus.clone();
    let env = DaemonEnv {
        matchd: args.matchd.clone(),
        scratch: args.out.clone(),
        placement,
    };
    println!(
        "perfladder: {} core(s) (harness and daemons pinned to {:?}), {}, commit {}, {}, \
         {} harness threads{}",
        host.host_cores,
        host.pinned_cpus,
        host.cpu_model,
        host.commit,
        host.rustc,
        host.harness_threads,
        if host.oversubscribed {
            " — OVERSUBSCRIBED: latencies are not trustworthy"
        } else {
            ""
        }
    );
    let started = Instant::now();
    let mut results = Vec::new();
    for w in &args.workloads {
        let cfg = RunConfig {
            workload: if args.smoke { w.smoke() } else { *w },
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
            env: env.clone(),
            out_dir: args.out.clone(),
        };
        match run::run_workload(&cfg) {
            Ok(r) => {
                report::print_workload(&r);
                results.push(r);
            }
            Err(e) => {
                // Nothing could be measured (no daemon binary, no
                // loopback, …): no result line, non-zero exit.
                eprintln!("perfladder: {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    let file = ResultsFile::new(host, results, started.elapsed().as_secs_f64());
    let path = args.out.join("results.json");
    if let Err(e) = file.write(&path) {
        eprintln!("perfladder: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "summary: {}",
        serde_json::to_string(&file.summary).expect("summary serializes")
    );
    // Single-workload runs end with the machine-readable result line.
    if let [only] = file.results.as_slice() {
        println!("{}", report::contract_line(only));
    }
    if file.summary.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare::main(rest),
        _ => usage(),
    }
}
