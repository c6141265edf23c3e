//! End-to-end loopback test: an in-process `matchd` server on an
//! ephemeral port serves a real datagen scenario streamed by the
//! `matchload` client library, and the served run is *exactly* the batch
//! `try_run_online` run — same decisions, same payments, same canonical
//! run digest — with a silent auditor and zero backpressure drops.

use com_core::canonical_run_digest;
use com_core::{try_run_online, MatcherRegistry};
use com_datagen::generate;
use com_datagen::profiles::{synthetic, SyntheticParams};
use com_serve::{drive, event_msg, hello_msg, serve, DriveOptions, ServerConfig, ServerMsg};
use com_sim::Instance;

fn quick_instance() -> Instance {
    generate(&synthetic(SyntheticParams {
        n_requests: 200,
        n_workers: 60,
        ..SyntheticParams::default()
    }))
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
    let mut matcher = registry.build("demcom").unwrap();
    let batch = try_run_online(&instance, matcher.as_mut(), 9);
    assert_eq!(session.bye.digest, canonical_run_digest(&batch));
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

    let mut digests = Vec::new();
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
        digests.push(bye.digest.clone());
    }
    // Same seed, fresh session: deterministic across connections.
    assert_eq!(digests[0], digests[1]);
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

#[test]
fn matchload_checks_every_served_session_against_its_batch_run() {
    let handle = serve(ServerConfig::default()).expect("bind ephemeral port");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_matchload"))
        .args(["--addr", &handle.addr().to_string(), "--profile", "quick"])
        .output()
        .expect("run matchload");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("served sessions match their local batch runs exactly"),
        "{stdout}"
    );
    handle.shutdown();
}

/// `matchd` under the exact command line the benchmark harness spawns:
/// the address file appears within a deadline, one connection is
/// accepted, and `--once` exits 0 after it closes.
#[test]
fn matchd_takes_the_harness_command_line_and_exits_once() {
    use std::time::{Duration, Instant};

    let dir = std::env::temp_dir().join(format!("com-matchd-once-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let addr_file = dir.join("matchd.addr");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_matchd"))
        .args(["--once", "--addr", "127.0.0.1:0", "--addr-file"])
        .arg(&addr_file)
        .args(["--queue", "16384", "--shards", "2", "--no-telemetry"])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn matchd");
    let deadline = Instant::now() + Duration::from_secs(10);
    let expire = |child: &mut std::process::Child, what: &str| {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("matchd: {what} within 10 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    };

    while !addr_file.exists() {
        let exited = child.try_wait().expect("poll matchd");
        assert!(
            exited.is_none(),
            "matchd exited before listening: {exited:?}"
        );
        expire(&mut child, "no address");
    }
    let addr = std::fs::read_to_string(&addr_file).expect("read addr file");
    drop(std::net::TcpStream::connect(addr.trim()).expect("connect"));
    let status = loop {
        match child.try_wait().expect("poll matchd") {
            Some(status) => break status,
            None => expire(&mut child, "no exit after its one connection"),
        }
    };
    assert!(status.success(), "{status}");
    let _ = std::fs::remove_dir_all(&dir);
}
