//! `matchreplay` — deterministic re-execution of recorded session traces.
//!
//! ```text
//! # replay (the default): re-run traces and compare decisions
//! cargo run -p com-serve --release --bin matchreplay -- TRACE.jsonl...
//!
//! # record: write a trace by playing a scenario locally (no server)
//! cargo run -p com-serve --release --bin matchreplay -- \
//!     --record TRACE.jsonl [--matcher SPEC] [--seed N] \
//!     [--profile NAME | --config FILE]
//! ```
//!
//! Replay drives each trace's events straight through a `ServeSession` —
//! no sockets, no protocol framing — and byte-compares every decision
//! against the recording (canonical projection, wall-clock excluded).
//! Divergences are reported with the first mismatching event index and
//! both decisions side by side. Any divergence, digest mismatch,
//! `validate_run` finding, or trace that cannot be read exits 1 — CI runs
//! it over the committed `traces/` corpus on every push.
//!
//! Recording plays the scenario `--profile` / `--config` name (default
//! `synthetic`; `quick` is the corpus's) with `--matcher` (default
//! `demcom`) and `--seed` (default 42).

use std::path::{Path, PathBuf};

use com_core::MatcherSpec;
use com_datagen::{generate, Cli};
use com_serve::{record_session, replay_trace, TraceReplayReport};

const USAGE: &str = "usage: matchreplay TRACE.jsonl...\n\
     \x20      matchreplay --record TRACE.jsonl [--matcher SPEC] [--seed N] \
     [--profile NAME | --config FILE]";

struct Args {
    traces: Vec<PathBuf>,
    record: Option<PathBuf>,
    matcher: MatcherSpec,
    seed: u64,
}

fn parse_args(cli: &mut Cli) -> Args {
    let mut args = Args {
        traces: Vec::new(),
        record: None,
        matcher: MatcherSpec::DemCom,
        seed: 42,
    };
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--record" => args.record = Some(cli.value().into()),
            "--matcher" => args.matcher = cli.parse(),
            "--seed" => args.seed = cli.parse(),
            flag if flag.starts_with('-') => cli.unknown(flag),
            _ => args.traces.push(arg.into()),
        }
    }
    if args.record.is_none() && args.traces.is_empty() {
        cli.usage_error("nothing to do: give trace files to replay, or --record")
    }
    if args.record.is_some() && !args.traces.is_empty() {
        cli.usage_error("--record and trace replay are mutually exclusive")
    }
    args
}

fn record(cli: &Cli, args: &Args, path: &Path) {
    let instance = generate(&cli.scenario());
    let matcher = args.matcher.to_string();
    let finished = record_session(path, &instance, &matcher, args.seed).unwrap_or_else(|e| {
        eprintln!("matchreplay: recording failed: {e}");
        std::process::exit(1)
    });
    println!(
        "recorded {}: {} events -> {} ({} findings)",
        path.display(),
        instance.stream.len(),
        finished.run.algorithm,
        finished.findings.len(),
    );
    if !finished.findings.is_empty() {
        for finding in &finished.findings {
            eprintln!("  audit: {finding}");
        }
        std::process::exit(1);
    }
}

/// Print one trace's report; true when it failed.
fn report_one(report: &TraceReplayReport) -> bool {
    let verdict = if report.is_clean() {
        "identical"
    } else {
        "DIVERGED"
    };
    println!(
        "{}: {} [{} seed {}] {} events, {} decisions in {:.3}s — {:.0} events/s — {}",
        report.path,
        report.algorithm,
        report.matcher,
        report.seed,
        report.events,
        report.decisions,
        report.wall_secs,
        report.events_per_sec(),
        verdict,
    );
    for finding in &report.audit_findings {
        eprintln!("  audit: {finding}");
    }
    if let Some(first) = report.first_divergence() {
        eprintln!("  first divergence: {first}");
        for d in report.divergences.iter().skip(1) {
            eprintln!("  then: {d}");
        }
    }
    !report.is_clean()
}

fn main() {
    let mut cli = Cli::new("matchreplay", USAGE).with_scenario("synthetic");
    let args = parse_args(&mut cli);
    if let Some(path) = &args.record {
        record(&cli, &args, path);
        return;
    }

    let mut any_failed = false;
    for path in &args.traces {
        match replay_trace(path) {
            Ok(report) => any_failed |= report_one(&report),
            Err(e) => {
                eprintln!("matchreplay: {e}");
                any_failed = true;
            }
        }
    }

    if any_failed {
        std::process::exit(1);
    }
}
