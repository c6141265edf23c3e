//! `matchreplay` — deterministic re-execution of recorded session traces.
//!
//! ```text
//! # replay (the default): re-run traces and compare decisions
//! cargo run -p com-serve --release --bin matchreplay -- TRACE.jsonl...
//!
//! # record: write a trace by playing a scenario locally (no server)
//! cargo run -p com-serve --release --bin matchreplay -- \
//!     --record TRACE.jsonl --matcher SPEC [--seed N] \
//!     [--quick | --profile NAME | --config FILE]
//! ```
//!
//! Replay drives each trace's events straight through a `ServeSession` —
//! no sockets, no protocol framing — and byte-compares every decision
//! against the recording (canonical projection, wall-clock excluded).
//! Divergences are reported with the first mismatching event index and
//! both decisions side by side. Any divergence, digest mismatch,
//! `validate_run` finding, or trace that cannot be read exits 1 — CI runs
//! it over the committed `traces/` corpus on every push.

use std::path::{Path, PathBuf};

use com_datagen::{generate, profiles};
use com_serve::{record_session, replay_trace, TraceReplayReport};

struct Args {
    traces: Vec<PathBuf>,
    record: Option<PathBuf>,
    matcher: String,
    seed: u64,
    profile: String,
    config: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: matchreplay TRACE.jsonl...\n\
         \x20      matchreplay --record TRACE.jsonl --matcher SPEC [--seed N] \
         [--quick | --profile NAME | --config FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        traces: Vec::new(),
        record: None,
        matcher: "demcom".into(),
        seed: 42,
        profile: "synthetic".into(),
        config: None,
    };
    let mut quick = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut next = |flag: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--record" => args.record = Some(next("--record").into()),
            "--matcher" => args.matcher = next("--matcher"),
            "--seed" => {
                args.seed = next("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed must be an integer");
                    usage()
                })
            }
            "--profile" => args.profile = next("--profile"),
            "--config" => args.config = Some(next("--config")),
            "--quick" => quick = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                usage()
            }
            trace => args.traces.push(trace.into()),
        }
    }
    if args.record.is_none() && args.traces.is_empty() {
        eprintln!("nothing to do: give trace files to replay, or --record");
        usage()
    }
    if args.record.is_some() && !args.traces.is_empty() {
        eprintln!("--record and trace replay are mutually exclusive");
        usage()
    }
    // The preset is a profile token that beats --config and --profile.
    if quick {
        args.config = None;
        args.profile = "quick".into();
    }
    args
}

fn record(args: &Args, path: &Path) {
    let scenario = profiles::load(args.config.as_deref().map(Path::new), &args.profile)
        .unwrap_or_else(|e| {
            eprintln!("matchreplay: {e}");
            std::process::exit(2)
        });
    let instance = generate(&scenario);
    let finished = record_session(path, &instance, &args.matcher, args.seed).unwrap_or_else(|e| {
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
    let args = parse_args();
    if let Some(path) = args.record.clone() {
        record(&args, &path);
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
