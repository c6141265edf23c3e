//! Federated loopback identity: one scenario through two in-process
//! `matchd` daemons joined by the inter-daemon outsourcing protocol is
//! byte-identical — canonical run, digest, ledgers — to a single-process
//! batch run over the same instance and seed, in both wire framings.

use com_core::{canonical_digest, canonical_run_json, try_run_online, MatcherSpec, RunResult};
use com_datagen::generate;
use com_datagen::profiles::{synthetic, SyntheticParams};
use com_fed::{drive_federated, run_loopback, verify, FedOptions, FedReport, LoopbackPair};
use com_serve::{
    hello_msg, pump, ByeMsg, Client, ClientMsg, FedByeMsg, FedHello, ServerConfig, ServerMsg,
    WireFormat,
};
use com_sim::{ArrivalEvent, Instance, MatchKind};

fn quick_instance() -> Instance {
    generate(&synthetic(SyntheticParams {
        n_requests: 200,
        n_workers: 60,
        ..SyntheticParams::default()
    }))
}

/// The batch run every federated run must reproduce.
fn reference(instance: &Instance, matcher: &str, seed: u64) -> RunResult {
    let mut matcher = MatcherSpec::parse(matcher).unwrap().build();
    try_run_online(instance, matcher.as_mut(), seed)
}

/// The fixture must actually exercise the wire: a scenario with no outer
/// assignments would pass identity vacuously.
fn assert_fixture_outsources(instance: &Instance, options: &FedOptions) {
    let run = reference(instance, &options.matcher, options.seed);
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

    let reference = reference(&instance, &options.matcher, options.seed);
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
        let r9 = reference(&instance, "demcom", 9);
        let r10 = reference(&instance, "demcom", 10);
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
        ("full replica", |r| r.daemons[0].bye.digest.push('0')),
        ("full replica", |r| r.daemons[1].bye.digest.push('0')),
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

/// The parking rule, deterministically: the owner streams up to and
/// including the first request it outsources before the lender has seen
/// a single event, so its offer reaches a replica that has not decided
/// the request. The lender parks it (as its `stats_deep` shows), then
/// streams, and the offer is accepted once the replica gets there: both
/// replicas are the batch run and nothing degrades. Without parking the
/// offer would be refused `desync`.
#[test]
fn an_offer_ahead_of_the_lenders_replica_parks_until_it_is_decided() {
    let instance = quick_instance();
    let (matcher, seed) = ("demcom", 9);
    let batch = reference(&instance, matcher, seed);
    let first = batch
        .assignments
        .iter()
        .find(|a| a.kind == MatchKind::Outer)
        .expect("fixture outsources");
    let owner = first.request.platform.0;
    let k = instance
        .stream
        .iter()
        .position(|e| matches!(e, ArrivalEvent::Request(r) if r.id == first.request.id))
        .expect("the request is in the stream");

    let pair = LoopbackPair::start(&ServerConfig::default()).expect("bind");
    let addrs = [pair.addr_a(), pair.addr_b()];
    let open = |platform: u16| {
        let mut client = Client::connect(&addrs[platform as usize]).expect("connect");
        let mut hello = hello_msg(&instance, matcher, seed, WireFormat::Binary);
        hello.fed = Some(FedHello {
            platform,
            fed_sid: 1,
            peer: Some(addrs[1 - platform as usize].clone()),
            // Far past anything the test waits: a late verdict would
            // degrade the offer and fail the digests below.
            deadline_ms: Some(30_000),
        });
        client.open(None, hello).expect("hello");
        client
    };
    let mut lender = open(1 - owner);
    let mut owning = open(owner);
    let mut events = instance.stream.iter();
    std::thread::scope(|scope| {
        let owner_stream = scope.spawn(|| {
            // Sends all k + 1 events at once, then waits for their answers.
            pump(
                &mut owning,
                &[None],
                &instance,
                events.by_ref().take(k + 1),
                k + 2,
                |_| {},
            )?;
            pump(&mut owning, &[None], &instance, events, 64, |_| {})
        });
        let mut parked = || match lender.rpc(&ClientMsg::stats_deep) {
            Ok(ServerMsg::stats_deep(deep)) => deep.federation.expect("federated").lends_parked,
            other => panic!("stats_deep: {other:?}"),
        };
        while parked() == 0 {}
        pump(
            &mut lender,
            &[None],
            &instance,
            instance.stream.iter(),
            64,
            |_| {},
        )
        .expect("lender streams");
        owner_stream.join().unwrap().expect("owner streams");
    });

    let digest = canonical_digest(&canonical_run_json(&batch));
    for (platform, mut client) in [(1 - owner, lender), (owner, owning)] {
        let (deep, bye) = client.close(None).expect("close");
        let stats = deep
            .and_then(|d| d.federation)
            .expect("federation counters");
        assert_eq!(bye.digest, digest, "platform {platform}");
        assert_eq!(bye.fed.expect("fed half").degraded_offers, 0);
        assert_eq!(stats.offers_rejected + stats.offers_timed_out, 0);
        if platform != owner {
            assert!(stats.lends_parked >= 1, "{stats:?}");
        }
    }
    pair.shutdown();
}

#[test]
fn matchfed_verifies_the_quick_pair() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_matchfed"))
        .args(["--profile", "quick"])
        .output()
        .expect("run matchfed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("verified: federated run is byte-identical"),
        "{stdout}"
    );
}
