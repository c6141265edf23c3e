//! Federated loopback identity: one scenario through two in-process
//! `matchd` daemons joined by the inter-daemon outsourcing protocol is
//! byte-identical — canonical run, digest, ledgers — to a single-process
//! batch run over the same instance and seed, in both wire framings.

use com_core::canonical_run_json;
use com_core::{try_run_online, MatcherRegistry};
use com_datagen::{generate, synthetic, SyntheticParams};
use com_fed::{drive_federated, run_loopback, verify, FedOptions, FedReport, LoopbackPair};
use com_serve::{ByeMsg, FedByeMsg, ServerConfig, WireFormat};
use com_sim::{Instance, MatchKind};

fn quick_instance() -> Instance {
    generate(&synthetic(SyntheticParams {
        n_requests: 200,
        n_workers: 60,
        ..SyntheticParams::default()
    }))
}

/// The fixture must actually exercise the wire: a scenario with no outer
/// assignments would pass identity vacuously.
fn assert_fixture_outsources(instance: &Instance, options: &FedOptions) {
    let registry = MatcherRegistry::builtin();
    let mut matcher = registry.resolve(&options.matcher).unwrap()();
    let run = try_run_online(instance, matcher.as_mut(), options.seed);
    assert!(
        run.assignments.iter().any(|a| a.kind == MatchKind::Outer),
        "fixture never outsources — no offer would cross the wire"
    );
}

#[test]
fn federated_pair_is_byte_identical_to_batch_run_ndjson() {
    let instance = quick_instance();
    let options = FedOptions {
        seed: 9,
        ..FedOptions::default()
    };
    assert_fixture_outsources(&instance, &options);
    let (report, failures) = run_loopback(&instance, &options).expect("federated drive");
    assert_eq!(failures, Vec::<String>::new());
    assert_eq!(report.events, instance.stream.len());

    // Offers actually crossed the wire in at least one direction and
    // none degraded.
    let mut sent = 0u64;
    for daemon in &report.daemons {
        let fed = daemon.bye.fed.as_ref().expect("fed half present");
        assert_eq!(fed.degraded_offers, 0);
        let stats = daemon
            .deep_stats
            .as_ref()
            .and_then(|d| d.federation.as_ref())
            .expect("federation counters present");
        sent += stats.offers_sent;
        assert_eq!(stats.offers_sent, stats.offers_accepted);
        assert_eq!(stats.offers_timed_out, 0);
        assert_eq!(stats.offers_rejected, 0);
        assert_eq!(
            fed.degraded_offers,
            stats.offers_rejected + stats.offers_timed_out
        );
    }
    assert!(sent > 0, "no offer ever crossed the wire");
}

#[test]
fn federated_pair_is_byte_identical_to_batch_run_binary() {
    let instance = quick_instance();
    let options = FedOptions {
        seed: 9,
        frame: WireFormat::Binary,
        ..FedOptions::default()
    };
    let (report, failures) = run_loopback(&instance, &options).expect("federated drive");
    assert_eq!(failures, Vec::<String>::new());
    assert!(report.daemons.iter().any(|d| d
        .deep_stats
        .as_ref()
        .and_then(|s| s.federation.as_ref())
        .map(|f| f.offers_sent)
        .unwrap_or(0)
        > 0));
}

#[test]
fn ledgers_split_the_reference_revenue() {
    let instance = quick_instance();
    let options = FedOptions {
        seed: 11,
        ..FedOptions::default()
    };
    let (report, failures) = run_loopback(&instance, &options).expect("federated drive");
    assert_eq!(failures, Vec::<String>::new());

    let registry = MatcherRegistry::builtin();
    let mut matcher = registry.resolve(&options.matcher).unwrap()();
    let reference = try_run_online(&instance, matcher.as_mut(), options.seed);
    let split: f64 = report
        .daemons
        .iter()
        .map(|d| d.bye.fed.as_ref().unwrap().ledger.revenue)
        .sum();
    assert!((split - reference.total_revenue()).abs() < 1e-6);
    // The outsourcing side-channel nets to zero across the pair.
    let net: f64 = report
        .daemons
        .iter()
        .map(|d| d.bye.fed.as_ref().unwrap().ledger.outsource_net())
        .sum();
    assert!(net.abs() < 1e-6);
}

#[test]
fn verify_catches_a_wrong_seed_reference() {
    let instance = quick_instance();
    let options = FedOptions {
        seed: 9,
        ..FedOptions::default()
    };
    let pair = LoopbackPair::start(&ServerConfig::default()).expect("bind");
    let report =
        drive_federated(&pair.addr_a(), &pair.addr_b(), &instance, &options).expect("drive");
    // Same drive verified against a different-seed reference must fail:
    // the check is not vacuous.
    let skewed = FedOptions {
        seed: 10,
        ..options.clone()
    };
    let skewed_reference_differs = {
        let registry = MatcherRegistry::builtin();
        let mut m9 = registry.resolve("demcom").unwrap()();
        let mut m10 = registry.resolve("demcom").unwrap()();
        let r9 = try_run_online(&instance, m9.as_mut(), 9);
        let r10 = try_run_online(&instance, m10.as_mut(), 10);
        serde_json::to_string(&canonical_run_json(&r9)).unwrap()
            != serde_json::to_string(&canonical_run_json(&r10)).unwrap()
    };
    if skewed_reference_differs {
        assert!(!verify(&instance, &report, &skewed).is_empty());
    }
    assert_eq!(verify(&instance, &report, &options), Vec::<String>::new());
    pair.shutdown();
}

/// Every check `verify` runs reads something a daemon sent: tamper with
/// one reported fact at a time and `verify` names it (and nothing else);
/// restore it and the report verifies clean again.
#[test]
fn verify_names_each_tampered_daemon_fact() {
    let instance = quick_instance();
    let options = FedOptions {
        seed: 9,
        ..FedOptions::default()
    };
    let pair = LoopbackPair::start(&ServerConfig::default()).expect("bind");
    let mut report =
        drive_federated(&pair.addr_a(), &pair.addr_b(), &instance, &options).expect("drive");
    pair.shutdown();
    assert_eq!(verify(&instance, &report, &options), Vec::<String>::new());

    fn fed_half(report: &mut FedReport) -> &mut FedByeMsg {
        report.daemons[0]
            .bye
            .fed
            .as_mut()
            .expect("fed half present")
    }
    type Tamper = fn(&mut FedReport);
    let tamperings: [(&str, Tamper); 7] = [
        ("live divergence", |r| {
            r.divergent_responses.push("request 0: tampered".into())
        }),
        ("full replica", |r| {
            r.daemons[0].bye.canonical = serde_json::json!({ "tampered": true })
        }),
        ("full replica", |r| r.daemons[0].bye.digest.push('0')),
        ("full replica", |r| {
            r.daemons[0].bye.audit_findings.push("tampered".into())
        }),
        ("owned projection", |r| fed_half(r).digest.push('0')),
        ("ledger", |r| fed_half(r).ledger.revenue += 1.0),
        ("degraded", |r| fed_half(r).degraded_offers = 1),
    ];
    let byes: Vec<ByeMsg> = report.daemons.iter().map(|d| d.bye.clone()).collect();
    for (fact, tamper) in tamperings {
        tamper(&mut report);
        let failures = verify(&instance, &report, &options);
        assert!(
            !failures.is_empty() && failures.iter().all(|f| f.contains(fact)),
            "{fact}: {failures:?}"
        );
        report.divergent_responses.clear();
        for (daemon, bye) in report.daemons.iter_mut().zip(&byes) {
            daemon.bye = bye.clone();
        }
        assert_eq!(verify(&instance, &report, &options), Vec::<String>::new());
    }
}
