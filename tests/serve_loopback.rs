//! End-to-end loopback test: an in-process `matchd` server on an
//! ephemeral port serves a real datagen scenario streamed by the
//! `matchload` client library, and the served run is *exactly* the batch
//! `try_run_online` run — same decisions, same payments, same canonical
//! JSON — with a silent auditor and zero backpressure drops.

use com_core::canonical_run_json;
use com_core::{try_run_online, MatcherRegistry};
use com_datagen::{generate, synthetic, SyntheticParams};
use com_serve::{drive, event_msg, hello_msg, serve, DriveOptions, ServerConfig, ServerMsg};
use com_sim::Instance;

fn quick_instance() -> Instance {
    generate(&synthetic(SyntheticParams {
        n_requests: 200,
        n_workers: 60,
        ..SyntheticParams::default()
    }))
}

/// Round-trip a canonical value through text so both comparison sides use
/// the parsed representation.
fn canonical_text(value: &serde_json::Value) -> String {
    let text = serde_json::to_string(value).expect("serialise");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("round-trip");
    serde_json::to_string(&parsed).expect("serialise")
}

#[test]
fn served_run_equals_batch_run_and_audits_clean() {
    let instance = quick_instance();
    let handle = serve(ServerConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    let options = DriveOptions {
        matcher: "demcom".into(),
        seed: 9,
        sessions: 1,
        ..DriveOptions::default()
    };
    let report = drive(&addr, &instance, &options).expect("loopback replay");
    let [session] = &report.sessions[..] else {
        panic!("one session driven, got {}", report.sessions.len());
    };

    // The auditor is silent.
    assert_eq!(session.bye.audit_findings, Vec::<String>::new());

    // Per-request accounting is consistent end to end.
    assert_eq!(report.events, instance.stream.len());
    assert_eq!(session.assigned as u64, session.bye.completed);
    assert_eq!(session.refused as u64, session.bye.refused);
    assert_eq!(
        session.assigned + session.rejected + session.refused,
        instance.request_count()
    );

    // The served run IS the batch run.
    let registry = MatcherRegistry::builtin();
    let mut matcher = registry.resolve("demcom").unwrap()();
    let batch = try_run_online(&instance, matcher.as_mut(), 9);
    assert_eq!(
        canonical_text(&canonical_run_json(&batch)),
        canonical_text(&session.bye.canonical),
    );
    assert_eq!(session.bye.revenue, batch.total_revenue());

    assert_eq!(handle.counters().connections(), 1);
    assert_eq!(handle.counters().sessions_finished(), 1);
    assert_eq!(handle.counters().protocol_errors(), 0);
    // Shutdown joins every thread; returning at all is the leak check.
    handle.shutdown();
}

#[test]
fn sequential_sessions_on_one_server_are_independent() {
    let instance = quick_instance();
    let handle = serve(ServerConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    let mut canonicals = Vec::new();
    for _ in 0..2 {
        let options = DriveOptions {
            matcher: "ramcom".into(),
            seed: 4242,
            sessions: 1,
            ..DriveOptions::default()
        };
        let report = drive(&addr, &instance, &options).expect("loopback replay");
        let bye = &report.sessions[0].bye;
        assert_eq!(bye.audit_findings, Vec::<String>::new());
        canonicals.push(canonical_text(&bye.canonical));
    }
    // Same seed, fresh session: deterministic across connections.
    assert_eq!(canonicals[0], canonicals[1]);
    assert_eq!(handle.counters().sessions_finished(), 2);
    handle.shutdown();
}

#[test]
fn stats_reports_live_counters_mid_session() {
    let instance = quick_instance();
    let handle = serve(ServerConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    let mut client = com_serve::Client::connect(&addr).expect("connect");
    let hello = hello_msg(&instance, "tota", 1, com_serve::WireFormat::Ndjson);
    client.open(None, hello).expect("hello");

    let mut sent = 0u64;
    for event in instance.stream.iter().take(50) {
        client.rpc(&event_msg(&instance, event)).expect("event");
        sent += 1;
    }
    let response = client.rpc(&com_serve::ClientMsg::stats).expect("stats");
    let ServerMsg::stats(stats) = response else {
        panic!("expected stats, got {response:?}");
    };
    assert_eq!(stats.events, sent);
    assert_eq!(stats.dropped, 0);

    let response = client
        .rpc(&com_serve::ClientMsg::shutdown)
        .expect("shutdown");
    assert!(matches!(response, ServerMsg::bye(_)));
    handle.shutdown();
}
