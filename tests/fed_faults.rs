//! Federation fault paths: whatever the peer link does — never exists,
//! never answers, drops every connection, or rejects offers outright —
//! the borrowing daemon degrades each unconfirmed outer decision to a
//! cooperative reject, finishes the session normally, and its audit
//! stays silent (a degraded run is still a valid run, Definition 2.3).

use std::io::Read;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use com_core::{try_run_online, MatcherRegistry};
use com_datagen::{generate, synthetic, SyntheticParams};
use com_fed::{drive_single, FedOptions};
use com_serve::{
    serve, Client, ClientMsg, FedHello, Hello, OfferMsg, ServerConfig, ServerMsg, WireFormat,
};
use com_sim::{Instance, MatchKind, PlatformId, RequestId, RequestSpec, Timestamp, WorkerId};

fn small_instance() -> Instance {
    generate(&synthetic(SyntheticParams {
        n_requests: 200,
        n_workers: 60,
        ..SyntheticParams::default()
    }))
}

/// The no-fault reference must outsource at least once on platform 0 —
/// otherwise no offer would ever hit the faulty link and the test is
/// vacuous. (The exact offer count under faults is NOT the reference's
/// outer count: after the first degraded decision the replica's worker
/// availability diverges, so later decisions differ too.)
fn assert_fixture_outsources(instance: &Instance, options: &FedOptions) {
    let registry = MatcherRegistry::builtin();
    let mut matcher = registry.resolve(&options.matcher).unwrap()();
    let run = try_run_online(instance, matcher.as_mut(), options.seed);
    assert!(
        run.assignments
            .iter()
            .any(|a| a.kind == MatchKind::Outer && a.request.platform == PlatformId(0)),
        "fixture never outsources on platform 0"
    );
}

/// Degradation happened, nothing was confirmed, and the finished run
/// still passes the full audit. Returns the federation counters for
/// fault-specific assertions.
fn assert_degraded_but_audit_silent(
    report: &com_fed::DaemonReport,
    instance: &Instance,
) -> com_serve::FedStatsMsg {
    assert_eq!(
        report.bye.audit_findings,
        Vec::<String>::new(),
        "degraded run must still audit silently"
    );
    // Every event still got its answer; the session finished normally.
    assert_eq!(report.bye.events as usize, instance.stream.len());
    let fed = report.bye.fed.as_ref().expect("fed half present");
    assert!(fed.degraded_offers > 0, "no offer ever degraded");
    let stats = report
        .deep_stats
        .as_ref()
        .and_then(|d| d.federation.as_ref())
        .expect("federation counters present")
        .clone();
    assert_eq!(stats.offers_accepted, 0);
    assert_eq!(fed.degraded_offers, stats.offers_sent);
    // Every degraded offer was refused or ran out of time, nothing else.
    assert_eq!(
        fed.degraded_offers,
        stats.offers_rejected + stats.offers_timed_out
    );
    stats
}

#[test]
fn no_peer_link_degrades_every_offer_and_audits_silent() {
    let instance = small_instance();
    let options = FedOptions {
        seed: 7,
        ..FedOptions::default()
    };
    assert_fixture_outsources(&instance, &options);
    let handle = serve(ServerConfig::default()).expect("bind");
    let report = drive_single(
        &handle.addr().to_string(),
        None, // lend-only: no peer to dial
        0,
        &instance,
        &options,
    )
    .expect("drive");
    assert_degraded_but_audit_silent(&report, &instance);
    handle.shutdown();
}

#[test]
fn unresponsive_peer_times_out_mid_offer_and_audits_silent() {
    let instance = small_instance();
    let options = FedOptions {
        seed: 7,
        deadline_ms: 60,
        ..FedOptions::default()
    };
    assert_fixture_outsources(&instance, &options);

    // A peer that accepts the link and then never answers: every offer
    // must ride out its full deadline and degrade.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind silent peer");
    let peer_addr = listener.local_addr().unwrap().to_string();
    listener.set_nonblocking(true).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let held = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => held.push(stream),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            drop(held);
        })
    };

    let handle = serve(ServerConfig::default()).expect("bind");
    let started = Instant::now();
    let report = drive_single(
        &handle.addr().to_string(),
        Some(peer_addr),
        0,
        &instance,
        &options,
    )
    .expect("drive");
    let stats = assert_degraded_but_audit_silent(&report, &instance);
    assert_eq!(stats.offers_timed_out, stats.offers_sent);
    // Each degraded offer waited its deadline, nothing hung past it.
    assert!(started.elapsed() >= Duration::from_millis(60));

    handle.shutdown();
    stop.store(true, Ordering::Relaxed);
    held.join().unwrap();
}

#[test]
fn peer_dropping_every_connection_mid_negotiation_degrades_fast() {
    let instance = small_instance();
    let options = FedOptions {
        seed: 7,
        deadline_ms: 400,
        ..FedOptions::default()
    };
    assert_fixture_outsources(&instance, &options);

    // A peer that accepts and immediately slams the connection shut:
    // the borrower's idempotent retry reconnects once, loses the link
    // again, and degrades without waiting out the 400ms deadline.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind flaky peer");
    let peer_addr = listener.local_addr().unwrap().to_string();
    listener.set_nonblocking(true).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let slammer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        // Drain whatever partial offer arrived, then drop.
                        stream.set_read_timeout(Some(Duration::from_millis(5))).ok();
                        let mut sink = [0u8; 1024];
                        let _ = stream.read(&mut sink);
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        })
    };

    let handle = serve(ServerConfig::default()).expect("bind");
    let report = drive_single(
        &handle.addr().to_string(),
        Some(peer_addr),
        0,
        &instance,
        &options,
    )
    .expect("drive");
    let stats = assert_degraded_but_audit_silent(&report, &instance);
    // Every offer burned its one idempotent retry on the second dead
    // link before degrading.
    assert_eq!(stats.offers_retried, stats.offers_sent);

    handle.shutdown();
    stop.store(true, Ordering::Relaxed);
    slammer.join().unwrap();
}

/// Lender-side typed rejects over a real wire: an offer whose deadline
/// already lapsed is refused `expired`; an offer naming a federation
/// session the daemon never saw is refused `unknown-fed-session`. Both
/// are protocol outcomes, not protocol errors.
#[test]
fn lender_rejects_expired_and_unknown_session_offers() {
    let instance = small_instance();
    let options = FedOptions {
        seed: 7,
        ..FedOptions::default()
    };
    let handle = serve(ServerConfig::default()).expect("bind");

    // A lend-only federated session owning platform 0.
    let mut lender = Client::connect(&handle.addr().to_string()).expect("connect");
    let hello = ClientMsg::hello(Hello {
        matcher: options.matcher.clone(),
        seed: options.seed,
        world: instance.config.clone(),
        platforms: instance.platform_names.clone(),
        max_value: instance.max_value(),
        frame: Some(WireFormat::Ndjson.as_str().to_string()),
        origin: None,
        fed: Some(FedHello {
            platform: 0,
            fed_sid: options.fed_sid,
            peer: None,
            deadline_ms: None,
        }),
    });
    let response = lender.rpc(&hello).expect("hello");
    assert!(matches!(response, ServerMsg::welcome { .. }));

    // A second connection plays the rival daemon's peer link.
    let mut peer = Client::connect(&handle.addr().to_string()).expect("connect peer");
    let offer = |fed_sid: u64, deadline_ms: u64| {
        ClientMsg::outsource_offer(OfferMsg {
            fed_sid,
            offer: 1,
            request: RequestSpec::new(
                RequestId(999),
                PlatformId(1),
                Timestamp::from_secs(1.0),
                com_geo::Point::new(0.0, 0.0),
                5.0,
            ),
            worker: WorkerId(1),
            worker_platform: PlatformId(0),
            payment: 2.5,
            deadline_ms,
        })
    };

    let response = peer.rpc(&offer(options.fed_sid, 0)).expect("expired offer");
    match response {
        ServerMsg::outsource_reject { code, .. } => assert_eq!(code, "expired"),
        other => panic!("expected outsource_reject, got {other:?}"),
    }

    let response = peer
        .rpc(&offer(options.fed_sid + 999, 1_000))
        .expect("unknown-session offer");
    match response {
        ServerMsg::outsource_reject { code, .. } => assert_eq!(code, "unknown-fed-session"),
        other => panic!("expected outsource_reject, got {other:?}"),
    }

    drop(peer);
    drop(lender);
    handle.shutdown();
}

/// A `hello` opening a lend-only federated session that owns platform 0.
fn lend_only_hello(instance: &Instance, matcher: &str, options: &FedOptions) -> ClientMsg {
    ClientMsg::hello(Hello {
        matcher: matcher.to_string(),
        seed: options.seed,
        world: instance.config.clone(),
        platforms: instance.platform_names.clone(),
        max_value: instance.max_value(),
        frame: Some(WireFormat::Ndjson.as_str().to_string()),
        origin: None,
        fed: Some(FedHello {
            platform: 0,
            fed_sid: options.fed_sid,
            peer: None,
            deadline_ms: None,
        }),
    })
}

/// The verdict code a fresh peer connection gets for a well-formed offer
/// on `fed_sid` that the (empty) replica cannot have decided.
fn offer_verdict(addr: &str, fed_sid: u64) -> String {
    let mut peer = Client::connect(addr).expect("connect peer");
    let offer = ClientMsg::outsource_offer(OfferMsg {
        fed_sid,
        offer: 1,
        request: RequestSpec::new(
            RequestId(999),
            PlatformId(1),
            Timestamp::from_secs(1.0),
            com_geo::Point::new(0.0, 0.0),
            5.0,
        ),
        worker: WorkerId(1),
        worker_platform: PlatformId(0),
        payment: 2.5,
        deadline_ms: 1_000,
    });
    match peer.rpc(&offer).expect("offer") {
        ServerMsg::outsource_reject { code, .. } => code,
        other => panic!("expected outsource_reject, got {other:?}"),
    }
}

/// The daemon-wide `fed_sid` route belongs to the session that opened
/// it. A `hello` the daemon refuses must not re-point it (every later
/// offer would be answered `unknown-fed-session`, degrading the rival
/// daemon's every outsourcing decision), and a second *valid* `hello`
/// naming a live `fed_sid` is a `duplicate-hello`.
#[test]
fn refused_fed_hello_does_not_hijack_a_live_route() {
    let instance = small_instance();
    let options = FedOptions {
        seed: 7,
        ..FedOptions::default()
    };
    let handle = serve(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    let mut lender = Client::connect(&addr).expect("connect");
    let response = lender
        .rpc(&lend_only_hello(&instance, &options.matcher, &options))
        .expect("hello");
    assert!(matches!(response, ServerMsg::welcome { .. }));

    // Fresh connections hash to either shard, so the strangers' refused
    // hellos land on both the lender's shard and the other one.
    for attempt in 0..8 {
        let mut stranger = Client::connect(&addr).expect("connect stranger");
        let refused = stranger
            .rpc(&lend_only_hello(&instance, "no-such-matcher", &options))
            .expect("refused hello");
        match refused {
            ServerMsg::error(e) => assert_eq!(e.code, "unknown-matcher"),
            other => panic!("expected a refusal, got {other:?}"),
        }
        // The replica has decided nothing, so it lends nothing: `desync`
        // is the live session validating the offer.
        assert_eq!(
            offer_verdict(&addr, options.fed_sid),
            "desync",
            "attempt {attempt}"
        );
    }

    let mut rival = Client::connect(&addr).expect("connect rival");
    let refused = rival
        .rpc(&lend_only_hello(&instance, &options.matcher, &options))
        .expect("duplicate hello");
    match refused {
        ServerMsg::error(e) => assert_eq!(e.code, "duplicate-hello"),
        other => panic!("expected duplicate-hello, got {other:?}"),
    }
    // The first session is untouched: it still answers its own
    // connection and still validates offers.
    assert!(matches!(
        lender.rpc(&ClientMsg::stats).expect("stats"),
        ServerMsg::stats(_)
    ));
    assert_eq!(offer_verdict(&addr, options.fed_sid), "desync");

    // Closing it frees the fed_sid for a successor.
    assert!(matches!(
        lender.rpc(&ClientMsg::shutdown).expect("shutdown"),
        ServerMsg::bye(_)
    ));
    let response = rival
        .rpc(&lend_only_hello(&instance, &options.matcher, &options))
        .expect("successor hello");
    assert!(matches!(response, ServerMsg::welcome { .. }));
    handle.shutdown();
}
