//! `matchfed` — the federated loopback driver and byte-identity
//! verifier.
//!
//! Runs one `com-datagen` scenario through TWO federated `matchd`
//! daemons — each owning one platform, joined by the inter-daemon
//! outsourcing protocol — and verifies the federated outcome against a
//! local single-process batch run of the same instance and seed:
//! canonical runs, digests, per-platform projections, ledgers, audits,
//! and zero degraded offers. Any failed invariant exits 1.
//!
//! ```text
//! matchfed --profile quick                       # in-process pair
//! matchfed --profile quick --addr-file-a a.addr \
//!          --addr-file-b b.addr                  # two external matchd
//! ```
//!
//! Flags:
//!
//! * `--profile NAME` / `--config FILE` — the scenario (default `quick`,
//!   400 requests and 120 workers; `full-scale` is the 10× city),
//!   named through `com_datagen::Cli`.
//! * `--matcher <spec>` / `--seed <n>` — matcher and seed (both the
//!   daemons and the local reference use them).
//! * `--frame ndjson|binary` — wire framing for the client links (the
//!   peer links follow the session's framing).
//! * `--addr-a`, `--addr-b` — two external daemons instead of the
//!   in-process pair; `--addr-file-a` / `--addr-file-b` poll a
//!   `matchd --addr-file` drop instead (CI orchestration).
//! * `--deadline-ms <n>` — per-offer deadline (0 is refused).
//! * `--json <path>` — write the machine-readable report.

use std::fs;
use std::time::{Duration, Instant};

use com_core::MatcherSpec;
use com_datagen::{generate, Cli};
use com_fed::{drive_federated, verify, FedOptions, FedReport, LoopbackPair};
use com_serve::ServerConfig;

const USAGE: &str =
    "usage: matchfed [--profile NAME | --config FILE] [--matcher SPEC] [--seed N]\n\
     \x20               [--frame ndjson|binary] [--deadline-ms N] [--json PATH]\n\
     \x20               [--addr-a HOST:PORT --addr-b HOST:PORT]\n\
     \x20               [--addr-file-a PATH --addr-file-b PATH]";

struct Args {
    options: FedOptions,
    json_out: Option<String>,
    addr_a: Option<String>,
    addr_b: Option<String>,
    addr_file_a: Option<String>,
    addr_file_b: Option<String>,
}

fn parse_args(cli: &mut Cli) -> Args {
    let mut args = Args {
        options: FedOptions::default(),
        json_out: None,
        addr_a: None,
        addr_b: None,
        addr_file_a: None,
        addr_file_b: None,
    };
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--matcher" => args.options.matcher = cli.parse::<MatcherSpec>().to_string(),
            "--seed" => args.options.seed = cli.parse(),
            "--frame" => args.options.frame = cli.parse(),
            "--deadline-ms" => args.options.deadline_ms = cli.count() as u64,
            "--json" => args.json_out = Some(cli.value()),
            "--addr-a" => args.addr_a = Some(cli.value()),
            "--addr-b" => args.addr_b = Some(cli.value()),
            "--addr-file-a" => args.addr_file_a = Some(cli.value()),
            "--addr-file-b" => args.addr_file_b = Some(cli.value()),
            _ => cli.unknown(&arg),
        }
    }
    let external_a = args.addr_a.is_some() || args.addr_file_a.is_some();
    let external_b = args.addr_b.is_some() || args.addr_file_b.is_some();
    if external_a != external_b {
        cli.usage_error("provide both daemon addresses or neither")
    }
    args
}

/// Poll a `matchd --addr-file` drop until it holds an address (the
/// daemon writes it atomically once the listener is live).
fn wait_addr_file(path: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(text) = fs::read_to_string(path) {
            let addr = text.trim();
            if !addr.is_empty() {
                return addr.to_string();
            }
        }
        if Instant::now() >= deadline {
            eprintln!("no address appeared in {path} within 10s");
            std::process::exit(2);
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn report_json(
    scenario: &str,
    options: &FedOptions,
    report: &FedReport,
    failures: &[String],
) -> serde_json::Value {
    let daemons: Vec<serde_json::Value> = report
        .daemons
        .iter()
        .map(|d| {
            let fed = d.bye.fed.as_ref();
            let stats = d.deep_stats.as_ref().and_then(|s| s.federation.as_ref());
            let offer_phase = d
                .deep_stats
                .as_ref()
                .and_then(|s| s.phases.iter().find(|p| p.phase == "fed-offer"));
            serde_json::json!({
                "platform": d.platform,
                "revenue": fed.map(|f| f.ledger.revenue),
                "outsource_paid": fed.map(|f| f.ledger.outsource_paid),
                "outsource_earned": fed.map(|f| f.ledger.outsource_earned),
                "degraded_offers": fed.map(|f| f.degraded_offers),
                "digest": fed.map(|f| f.digest.clone()),
                "offers_sent": stats.map(|s| s.offers_sent),
                "offers_accepted": stats.map(|s| s.offers_accepted),
                "lends_granted": stats.map(|s| s.lends_granted),
                "lends_parked": stats.map(|s| s.lends_parked),
                "offer_rtt_p50_us": offer_phase.map(|p| p.p50_ns as f64 / 1e3),
                "offer_rtt_p99_us": offer_phase.map(|p| p.p99_ns as f64 / 1e3),
            })
        })
        .collect();
    serde_json::json!({
        "scenario": scenario,
        "matcher": options.matcher,
        "seed": options.seed,
        "frame": options.frame.as_str(),
        "events": report.events,
        "events_per_sec": report.events_per_sec(),
        "daemons": daemons,
        "verified": failures.is_empty(),
        "failures": failures,
    })
}

fn main() {
    let mut cli = Cli::new("matchfed", USAGE).with_scenario("quick");
    let args = parse_args(&mut cli);
    let scenario_name = cli.scenario_name();
    let instance = generate(&cli.scenario());
    let options = &args.options;

    // Resolve the daemon pair: external addresses, addr-file drops, or a
    // fresh in-process pair.
    let external_a = args
        .addr_a
        .clone()
        .or_else(|| args.addr_file_a.as_deref().map(wait_addr_file));
    let external_b = args
        .addr_b
        .clone()
        .or_else(|| args.addr_file_b.as_deref().map(wait_addr_file));
    let (pair, addr_a, addr_b) = match (external_a, external_b) {
        (Some(a), Some(b)) => (None, a, b),
        _ => {
            let pair = LoopbackPair::start(&ServerConfig::default()).unwrap_or_else(|e| {
                eprintln!("cannot start in-process pair: {e}");
                std::process::exit(2)
            });
            let (a, b) = (pair.addr_a(), pair.addr_b());
            (Some(pair), a, b)
        }
    };

    let report = drive_federated(&addr_a, &addr_b, &instance, options).unwrap_or_else(|e| {
        eprintln!("federated drive failed: {e}");
        std::process::exit(1)
    });
    let failures = verify(&instance, &report, options);
    if let Some(pair) = pair {
        pair.shutdown();
    }

    println!(
        "matchfed {scenario_name}: {} events through 2 daemons in {:.2}s ({:.0} events/s, frame={})",
        report.events,
        report.wall_secs,
        report.events_per_sec(),
        options.frame.as_str(),
    );
    for d in &report.daemons {
        let fed = d.bye.fed.as_ref();
        let stats = d.deep_stats.as_ref().and_then(|s| s.federation.as_ref());
        println!(
            "  platform {}: revenue {:.2}  paid {:.2}  earned {:.2}  offers {}→{} accepted  lent {} ({} parked)  degraded {}  digest {}",
            d.platform,
            fed.map(|f| f.ledger.revenue).unwrap_or(f64::NAN),
            fed.map(|f| f.ledger.outsource_paid).unwrap_or(f64::NAN),
            fed.map(|f| f.ledger.outsource_earned).unwrap_or(f64::NAN),
            stats.map(|s| s.offers_sent).unwrap_or(0),
            stats.map(|s| s.offers_accepted).unwrap_or(0),
            stats.map(|s| s.lends_granted).unwrap_or(0),
            stats.map(|s| s.lends_parked).unwrap_or(0),
            fed.map(|f| f.degraded_offers).unwrap_or(0),
            fed.map(|f| f.digest.as_str()).unwrap_or("-"),
        );
    }
    if failures.is_empty() {
        println!("  verified: federated run is byte-identical to the single-process run");
    } else {
        println!("  VERIFICATION FAILED:");
        for f in &failures {
            println!("    - {f}");
        }
    }

    if let Some(path) = &args.json_out {
        let value = report_json(&scenario_name, options, &report, &failures);
        let text = serde_json::to_string(&value).expect("report serializes");
        fs::write(path, text).unwrap_or_else(|e| cli.fail(format!("cannot write {path}: {e}")));
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
