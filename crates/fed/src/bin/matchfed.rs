//! `matchfed` — the federated loopback driver and byte-identity
//! verifier.
//!
//! Runs one `com-datagen` scenario through TWO federated `matchd`
//! daemons — each owning one platform, joined by the inter-daemon
//! outsourcing protocol — and verifies the federated outcome against a
//! local single-process batch run of the same instance and seed:
//! canonical runs, digests, per-platform projections, ledgers, audits,
//! and zero degraded offers.
//!
//! ```text
//! matchfed --quick --strict                      # in-process pair
//! matchfed --quick --addr-file-a a.addr \
//!          --addr-file-b b.addr --strict         # two external matchd
//! ```
//!
//! Flags:
//!
//! * `--quick` — small synthetic scenario (400 requests, 120 workers).
//! * `--full-scale` — the full-scale city scenario (4000 requests, 1200
//!   workers).
//! * `--matcher <spec>` / `--seed <n>` — matcher and seed (both the
//!   daemons and the local reference use them).
//! * `--frame ndjson|binary` — wire framing for the client links (the
//!   peer links follow the session's framing).
//! * `--addr-a`, `--addr-b` — two external daemons instead of the
//!   in-process pair; `--addr-file-a` / `--addr-file-b` poll a
//!   `matchd --addr-file` drop instead (CI orchestration).
//! * `--deadline-ms <n>` — per-offer deadline.
//! * `--strict` — exit non-zero if any byte-identity invariant fails.
//! * `--json <path>` — write the machine-readable report.

use std::fs;
use std::time::{Duration, Instant};

use com_datagen::{generate, profiles};
use com_fed::{drive_federated, verify, FedOptions, FedReport, LoopbackPair};
use com_serve::{ServerConfig, WireFormat};

struct Args {
    quick: bool,
    full_scale: bool,
    matcher: String,
    seed: u64,
    frame: WireFormat,
    deadline_ms: u64,
    strict: bool,
    json_out: Option<String>,
    addr_a: Option<String>,
    addr_b: Option<String>,
    addr_file_a: Option<String>,
    addr_file_b: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: matchfed [--quick | --full-scale] [--matcher SPEC] [--seed N]\n\
         \x20               [--frame ndjson|binary] [--deadline-ms N] [--strict]\n\
         \x20               [--json PATH]\n\
         \x20               [--addr-a HOST:PORT --addr-b HOST:PORT]\n\
         \x20               [--addr-file-a PATH --addr-file-b PATH]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        full_scale: false,
        matcher: "demcom".into(),
        seed: 42,
        frame: WireFormat::Ndjson,
        deadline_ms: com_serve::DEFAULT_OFFER_DEADLINE_MS,
        strict: false,
        json_out: None,
        addr_a: None,
        addr_b: None,
        addr_file_a: None,
        addr_file_b: None,
    };
    let mut argv = std::env::args().skip(1);
    let next = |flag: &str, argv: &mut dyn Iterator<Item = String>| -> String {
        argv.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage()
        })
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--full-scale" => args.full_scale = true,
            "--matcher" => args.matcher = next("--matcher", &mut argv),
            "--seed" => {
                args.seed = next("--seed", &mut argv).parse().unwrap_or_else(|_| {
                    eprintln!("--seed needs an integer");
                    usage()
                })
            }
            "--frame" => {
                let token = next("--frame", &mut argv);
                args.frame = WireFormat::parse(&token).unwrap_or_else(|| {
                    eprintln!("--frame must be ndjson or binary");
                    usage()
                })
            }
            "--deadline-ms" => {
                args.deadline_ms = next("--deadline-ms", &mut argv)
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("--deadline-ms needs an integer");
                        usage()
                    })
            }
            "--strict" => args.strict = true,
            "--json" => args.json_out = Some(next("--json", &mut argv)),
            "--addr-a" => args.addr_a = Some(next("--addr-a", &mut argv)),
            "--addr-b" => args.addr_b = Some(next("--addr-b", &mut argv)),
            "--addr-file-a" => args.addr_file_a = Some(next("--addr-file-a", &mut argv)),
            "--addr-file-b" => args.addr_file_b = Some(next("--addr-file-b", &mut argv)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
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
    args: &Args,
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
                "offer_rtt_p50_us": offer_phase.map(|p| p.p50_ns as f64 / 1e3),
                "offer_rtt_p99_us": offer_phase.map(|p| p.p99_ns as f64 / 1e3),
            })
        })
        .collect();
    serde_json::json!({
        "scenario": scenario,
        "matcher": args.matcher,
        "seed": args.seed,
        "frame": args.frame.as_str(),
        "events": report.events,
        "events_per_sec": report.events_per_sec(),
        "daemons": daemons,
        "verified": failures.is_empty(),
        "failures": failures,
    })
}

fn main() {
    let args = parse_args();
    let scenario_name = if args.full_scale {
        "full-scale"
    } else {
        "quick"
    };
    let scenario = if args.full_scale {
        profiles::full_scale()
    } else {
        // --quick and the default are the same small scenario.
        profiles::quick()
    };
    let instance = generate(&scenario);
    let options = FedOptions {
        matcher: args.matcher.clone(),
        seed: args.seed,
        frame: args.frame,
        deadline_ms: args.deadline_ms,
        fed_sid: 1,
    };

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
        (None, None) => {
            let pair = LoopbackPair::start(&ServerConfig::default()).unwrap_or_else(|e| {
                eprintln!("cannot start in-process pair: {e}");
                std::process::exit(2)
            });
            let (a, b) = (pair.addr_a(), pair.addr_b());
            (Some(pair), a, b)
        }
        _ => {
            eprintln!("provide both daemon addresses or neither");
            usage()
        }
    };

    let report = drive_federated(&addr_a, &addr_b, &instance, &options).unwrap_or_else(|e| {
        eprintln!("federated drive failed: {e}");
        std::process::exit(1)
    });
    let failures = verify(&instance, &report, &options);
    if let Some(pair) = pair {
        pair.shutdown();
    }

    println!(
        "matchfed {scenario_name}: {} events through 2 daemons in {:.2}s ({:.0} events/s, frame={})",
        report.events,
        report.wall_secs,
        report.events_per_sec(),
        args.frame.as_str(),
    );
    for d in &report.daemons {
        let fed = d.bye.fed.as_ref();
        let stats = d.deep_stats.as_ref().and_then(|s| s.federation.as_ref());
        println!(
            "  platform {}: revenue {:.2}  paid {:.2}  earned {:.2}  offers {}→{} accepted  lent {}  degraded {}  digest {}",
            d.platform,
            fed.map(|f| f.ledger.revenue).unwrap_or(f64::NAN),
            fed.map(|f| f.ledger.outsource_paid).unwrap_or(f64::NAN),
            fed.map(|f| f.ledger.outsource_earned).unwrap_or(f64::NAN),
            stats.map(|s| s.offers_sent).unwrap_or(0),
            stats.map(|s| s.offers_accepted).unwrap_or(0),
            stats.map(|s| s.lends_granted).unwrap_or(0),
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
        let value = report_json(scenario_name, &args, &report, &failures);
        let text = serde_json::to_string(&value).expect("report serializes");
        fs::write(path, text).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2)
        });
    }
    if args.strict && !failures.is_empty() {
        std::process::exit(1);
    }
}
