//! `matchload` — scenario replay client and load generator for `matchd`.
//!
//! ```text
//! cargo run -p com-serve --release --bin matchload -- \
//!     --addr HOST:PORT \
//!     [--profile chengdu-oct|chengdu-nov|xian-nov|synthetic|quick|full-scale \
//!      | --config FILE] [--matcher SPEC] [--seed N] \
//!     [--frame ndjson|binary] [--window N] \
//!     [--connections M] [--sessions K] \
//!     [--json FILE]
//! ```
//!
//! Streams a `com-datagen` scenario through a live matchd — one front-end
//! over [`com_serve::drive()`], whatever the session count — as fast as
//! the window allows, and checks what came back. It is the correctness
//! front-end; timings to quote come from `benchmark/run.sh`. Before
//! shutdown it asks the server for `stats_deep` and prints the per-shard
//! rows and the serving phase table (decode/ingest/decision/encode/flush
//! latencies, queue high-water); the same tables land in the
//! `--json` report as `server_shards` and `server_phases`.
//!
//! * `--profile` / `--config` — the scenario (default `synthetic`),
//!   named through `com_datagen::Cli`: `quick` is the small
//!   synthetic scenario (400 requests, 120 workers) CI's serve-smoke job
//!   runs, `full-scale` the 10× city (4000 requests, 1200 workers).
//! * `--matcher` — a `com_core::MatcherSpec` (default `demcom`); an
//!   unknown spec exits 2 before any connection opens.
//! * `--frame` — wire framing to negotiate in `hello` (default
//!   `ndjson`); `binary` switches to length-prefixed frames after the
//!   server's `welcome` confirms.
//! * `--window` — max messages in flight per connection, shared by its
//!   sessions (default 1 = strict lockstep). Larger windows pipeline
//!   sends in batched writes; the served outcome is identical, only
//!   transport overlap changes. Independent of the server's `--queue`:
//!   a backlogged shard stops reading the socket, it never drops.
//! * `--sessions K` — drive K logical sessions, session `k` with seed
//!   `--seed + k` (default 1). One session is addressed bare; K > 1 are
//!   multiplexed as sids `0..K` in the mux envelope.
//! * `--connections M` — spread the sessions over M connections, session
//!   `k` on connection `k % M` (default 1). Never more connections than
//!   sessions: M is clamped to K.
//! * `--json` — write the report. One schema whatever K and M: run
//!   parameters (`scenario` — the profile name or config path —
//!   `matcher`, `seed`, `connections`,
//!   `sessions`, `requests`, `workers`, `events`, `frame`, `window`),
//!   results (`wall_secs`, `events_per_sec`, `queue_high_water`,
//!   `general_frames` — binary frames the server read through `Content`
//!   rather than a typed hot layout: cold messages and refusals, so a
//!   binary run's cold messages only —
//!   and `general_lines`, the same for NDJSON lines),
//!   `per_session[]` (`sid` — null when bare —
//!   `connection`, `seed`, `assigned`, `rejected`, `refused`, `revenue`,
//!   `completed`, `audit_findings`, `digest`), the server's
//!   `server_shards[]` and `server_phases[]` tables, `host_cores` and
//!   `note`.
//!
//! Every served session is verified end to end: the same instance goes
//! through the local batch engine (`try_run_online`, per-session seed)
//! and `ByeMsg::disagreements` must be empty — the served run's digest
//! equal to the batch run's, zero audit findings; exit 1 otherwise.

use std::fs;

use com_core::{try_run_online, MatcherSpec};
use com_datagen::{generate, Cli};
use com_serve::{drive, DeepStatsMsg, DriveOptions, ShardRow};

const USAGE: &str = "usage: matchload --addr HOST:PORT [--profile NAME | --config FILE] \
     [--matcher SPEC] [--seed N] [--frame ndjson|binary] [--window N] [--connections M] \
     [--sessions K] [--json FILE]\n\
     \x20 --window N       max messages in flight per connection (1 = lockstep)\n\
     \x20 --sessions K     logical sessions, seed N+k each; one is addressed bare,\n\
     \x20                  more are multiplexed as sids 0..K\n\
     \x20 --connections M  sockets to spread them over (clamped to K)";

struct Args {
    addr: String,
    json_out: Option<String>,
    drive: DriveOptions,
}

fn parse_args(cli: &mut Cli) -> Args {
    let mut args = Args {
        addr: String::new(),
        json_out: None,
        drive: DriveOptions::default(),
    };
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--addr" => args.addr = cli.value(),
            "--matcher" => args.drive.matcher = cli.parse::<MatcherSpec>().to_string(),
            "--seed" => args.drive.seed = cli.parse(),
            "--frame" => args.drive.frame = cli.parse(),
            "--window" => args.drive.window = cli.count(),
            "--connections" => args.drive.connections = cli.count(),
            "--sessions" => args.drive.sessions = cli.count(),
            "--json" => args.json_out = Some(cli.value()),
            _ => cli.unknown(&arg),
        }
    }
    if args.addr.is_empty() {
        cli.usage_error("--addr is required")
    }
    args
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The live server-side latency breakdown from `stats_deep`: where each
/// microsecond of a request's server time goes.
fn print_phase_table(deep: &DeepStatsMsg) {
    println!(
        "server phases ({}, queue depth {} / high-water {}, general frames {} / lines {}):",
        deep.algorithm,
        deep.queue_depth,
        deep.queue_high_water,
        deep.general_frames,
        deep.general_lines,
    );
    println!(
        "  {:<18} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "phase", "count", "p50 us", "p90 us", "p99 us", "mean us"
    );
    for p in &deep.phases {
        println!(
            "  {:<18} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            p.phase,
            p.count,
            us(p.p50_ns),
            us(p.p90_ns),
            us(p.p99_ns),
            p.mean_ns / 1e3,
        );
    }
}

/// The sharded server's health rows from `stats_deep`.
fn print_shard_table(shards: &[ShardRow]) {
    println!("server shards ({}):", shards.len());
    println!(
        "  {:<6} {:>9} {:>10} {:>14} {:>9}",
        "shard", "sessions", "total", "events_routed", "queue_hw"
    );
    for s in shards {
        println!(
            "  {:<6} {:>9} {:>10} {:>14} {:>9}",
            s.shard, s.sessions, s.sessions_total, s.events_routed, s.queue_high_water,
        );
    }
}

fn write_json(cli: &Cli, path: &str, json: &serde_json::Value) {
    fs::write(
        path,
        serde_json::to_string_pretty(json).expect("serialise report"),
    )
    .unwrap_or_else(|e| cli.fail(format!("cannot write {path}: {e}")));
    println!("report written to {path}");
}

fn main() {
    let mut cli = Cli::new("matchload", USAGE).with_scenario("synthetic");
    let args = parse_args(&mut cli);
    let instance = generate(&cli.scenario());
    let options = &args.drive;
    println!(
        "matchload: {} events ({} requests, {} workers) x {} sessions -> {} \
         [{}, seed {}, frame {}, window {}]",
        instance.stream.len(),
        instance.request_count(),
        instance.worker_count(),
        options.sessions,
        args.addr,
        options.matcher,
        options.seed,
        options.frame,
        options.window,
    );
    let report = drive(&args.addr, &instance, options).unwrap_or_else(|e| {
        eprintln!("matchload: replay failed: {e}");
        std::process::exit(1)
    });

    println!(
        "served {} events across {} sessions over {} connections in {:.2}s — \
         {:.0} events/s",
        report.events,
        report.sessions.len(),
        report.connections,
        report.wall_secs,
        report.events_per_sec(),
    );
    for s in &report.sessions {
        println!(
            "  session {} (conn {}, seed {}): {} assigned, {} rejected, {} timed out, \
             revenue {:.1}, completed {}, cooperative {}, {} audit findings",
            s.sid.map_or("bare".to_string(), |sid| sid.to_string()),
            s.connection,
            s.seed,
            s.assigned,
            s.rejected,
            s.refused,
            s.bye.revenue,
            s.bye.completed,
            s.bye.cooperative,
            s.bye.audit_findings.len(),
        );
        for finding in &s.bye.audit_findings {
            eprintln!("    audit: {finding}");
        }
    }
    if let Some(deep) = &report.deep_stats {
        if !deep.shards.is_empty() {
            print_shard_table(&deep.shards);
        }
        print_phase_table(deep);
    }

    if let Some(path) = &args.json_out {
        let deep = report.deep_stats.as_ref();
        // Empty tables when the server sent no `stats_deep`.
        let shards = deep.map_or(&[][..], |d| &d.shards[..]);
        let phases = deep.map_or(&[][..], |d| &d.phases[..]);
        let per_session: Vec<serde_json::Value> = report
            .sessions
            .iter()
            .map(|s| {
                serde_json::json!({
                    "sid": s.sid,
                    "connection": s.connection,
                    "seed": s.seed,
                    "assigned": s.assigned,
                    "rejected": s.rejected,
                    "refused": s.refused,
                    "revenue": s.bye.revenue,
                    "completed": s.bye.completed,
                    "audit_findings": s.bye.audit_findings.len(),
                    "digest": s.bye.digest.clone(),
                })
            })
            .collect();
        let json = serde_json::json!({
            "scenario": cli.scenario_name(),
            "matcher": options.matcher,
            "seed": options.seed,
            "connections": report.connections,
            "sessions": report.sessions.len(),
            "requests": instance.request_count(),
            "workers": instance.worker_count(),
            "events": report.events,
            "frame": options.frame.as_str(),
            "window": options.window,
            "wall_secs": report.wall_secs,
            "events_per_sec": report.events_per_sec(),
            "queue_high_water": deep.map_or(0, |d| d.queue_high_water),
            "general_frames": deep.map_or(0, |d| d.general_frames),
            "general_lines": deep.map_or(0, |d| d.general_lines),
            "per_session": per_session,
            "server_shards": shards,
            "server_phases": phases,
            "host_cores": std::thread::available_parallelism().map_or(1, |n| n.get()),
            "note": "loopback; every session replays the same instance with seed \
                     seed+k; window 1 = synchronous request-response, window > 1 \
                     pipelines with batched writes; client and server share the \
                     listed cores, so throughput is a protocol-overhead floor, not \
                     a capacity ceiling — quote benchmark/run.sh for timings",
        });
        write_json(&cli, path, &json);
    }

    // The ground truth: the same instance, matcher and seed through the
    // local batch engine must be the served run, byte for byte.
    let spec = MatcherSpec::parse(&options.matcher).expect("--matcher was parsed");
    let mut failures = Vec::new();
    for (k, s) in report.sessions.iter().enumerate() {
        let batch = try_run_online(&instance, spec.build().as_mut(), s.seed);
        for d in s.bye.disagreements(&batch) {
            failures.push(format!("session {k}: {d}"));
        }
    }
    if !failures.is_empty() {
        eprintln!("matchload: verification failed: {}", failures.join("; "));
        std::process::exit(1);
    }
    println!(
        "verified: all {} served sessions match their local batch runs exactly \
         (canonical run digest); audit clean",
        report.sessions.len()
    );
}
