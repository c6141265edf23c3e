//! Shard-pool serving, end to end: logical sessions multiplexed over one
//! connection land on shared-nothing shard threads, and the shard count
//! is *unobservable* in the results — every builtin spec's per-session
//! canonical run digest is identical across `--shards 1`, `--shards 4`,
//! and the bare one-session path, with a silent auditor throughout.
//! Mux edge cases (unknown sid, duplicate hello, interleaved sids,
//! mid-stream disconnect with sessions open on several shards) get typed
//! errors and clean drains, never wedged connections.

use std::time::{Duration, Instant};

use com_core::canonical_run_digest;
use com_core::{try_run_online, validate_run, MatcherRegistry, MatcherSpec};
use com_datagen::generate;
use com_datagen::profiles::{synthetic, SyntheticParams};
use com_geo::Point;
use com_serve::{
    drive, event_msg, hello_msg, serve, Client, ClientMsg, DriveOptions, Hello, ServerConfig,
    ServerHandle, ServerMsg, WireFormat,
};
use com_sim::Instance;

fn quick_instance() -> Instance {
    generate(&synthetic(SyntheticParams {
        n_requests: 150,
        n_workers: 50,
        ..SyntheticParams::default()
    }))
}

fn shard_server(shards: usize) -> ServerHandle {
    serve(ServerConfig {
        shards,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

fn hello_for(instance: &Instance, matcher: &str, seed: u64) -> ClientMsg {
    ClientMsg::hello(hello_msg(instance, matcher, seed, WireFormat::Ndjson))
}

/// One strict mux round-trip: send the enveloped message and require the
/// next frame to carry the same sid (`rpc_for` errors otherwise).
fn mux_rpc(client: &mut Client, sid: u64, msg: ClientMsg) -> ServerMsg {
    client.rpc_for(Some(sid), &msg).expect("mux round-trip")
}

/// The acceptance gate for the shard refactor: for every builtin matcher
/// spec, the per-session canonical run digest is identical across a
/// 1-shard server, a 4-shard server, and the bare one-session path — all
/// equal to the local batch engine's, whose run the auditor
/// (`validate_run`) also finds sound.
#[test]
fn every_builtin_is_shard_count_invariant() {
    let instance = quick_instance();
    let registry = MatcherRegistry::builtin();
    let base_seed = 71u64;
    let sessions = 3usize;

    let one = shard_server(1);
    let four = shard_server(4);

    for spec in MatcherSpec::all_builtin() {
        let matcher = spec.canonical();

        // Local ground truth, one batch run per logical session seed.
        let mut truth = Vec::new();
        for sid in 0..sessions as u64 {
            let mut local = registry.build(&matcher).expect("builtin builds");
            let batch = try_run_online(&instance, local.as_mut(), base_seed + sid);
            assert!(
                validate_run(&instance, &batch).is_empty(),
                "{matcher}: local batch run must audit clean"
            );
            truth.push(canonical_run_digest(&batch));
        }

        // The bare path: a one-session run puts no envelope on the wire.
        let bare = drive(
            &one.addr().to_string(),
            &instance,
            &DriveOptions {
                matcher: matcher.clone(),
                seed: base_seed,
                sessions: 1,
                ..DriveOptions::default()
            },
        )
        .expect("bare replay");
        let [bare] = &bare.sessions[..] else {
            panic!("{matcher}: one bare session expected");
        };
        assert_eq!(bare.sid, None, "{matcher}: one session is addressed bare");
        assert_eq!(bare.bye.audit_findings, Vec::<String>::new());
        assert_eq!(bare.bye.digest, truth[0], "{matcher}: bare digest");

        // The mux path, 3 sessions over 2 connections, on both servers.
        for (label, handle, shards) in [("1 shard", &one, 1), ("4 shards", &four, 4)] {
            let report = drive(
                &handle.addr().to_string(),
                &instance,
                &DriveOptions {
                    matcher: matcher.clone(),
                    seed: base_seed,
                    connections: 2,
                    sessions,
                    window: 32,
                    ..DriveOptions::default()
                },
            )
            .expect("mux replay");
            assert_eq!(report.sessions.len(), sessions);
            for (outcome, digest) in report.sessions.iter().zip(&truth) {
                let sid = outcome.sid.expect("several sessions are addressed by sid");
                assert_eq!(outcome.seed, base_seed + sid, "{matcher} on {label}");
                assert_eq!(
                    outcome.bye.audit_findings,
                    Vec::<String>::new(),
                    "{matcher} on {label}: sid {sid} audit",
                );
                assert_eq!(
                    &outcome.bye.digest, digest,
                    "{matcher} on {label}: sid {sid} digest",
                );
            }
            let deep = report.deep_stats.expect("stats_deep over conn 0");
            assert_eq!(
                deep.shards.len(),
                shards,
                "{matcher} on {label}: shard rows"
            );
        }
    }
    one.shutdown();
    four.shutdown();
}

#[test]
fn message_for_unknown_sid_gets_typed_error_and_connection_survives() {
    let instance = quick_instance();
    let handle = shard_server(4);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    // No hello ever happened for sid 7.
    let response = mux_rpc(&mut client, 7, ClientMsg::stats);
    let ServerMsg::error(e) = response else {
        panic!("expected error, got {response:?}");
    };
    assert_eq!(e.code, "unknown-sid");
    assert!(e.detail.contains('7'), "detail names the sid: {}", e.detail);

    // The connection is not wedged: a real session opens and closes.
    let response = mux_rpc(&mut client, 1, hello_for(&instance, "demcom", 5));
    assert!(matches!(response, ServerMsg::welcome { .. }));
    let response = mux_rpc(&mut client, 1, ClientMsg::shutdown);
    assert!(matches!(response, ServerMsg::bye(_)));
    handle.shutdown();
}

#[test]
fn duplicate_hello_for_live_sid_is_refused_without_killing_the_session() {
    let instance = quick_instance();
    let handle = shard_server(4);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    let response = mux_rpc(&mut client, 3, hello_for(&instance, "demcom", 5));
    assert!(matches!(response, ServerMsg::welcome { .. }));

    // A second hello for the same live sid — even with a different seed
    // and an origin — is refused by the session's owning shard.
    let re_hello = Hello {
        matcher: "ramcom".into(),
        seed: 99,
        world: instance.config.clone(),
        platforms: instance.platform_names.clone(),
        max_value: instance.max_value(),
        origin: Some(Point::new(9.0, 9.0)),
        frame: None,
        fed: None,
    };
    let response = mux_rpc(&mut client, 3, ClientMsg::hello(re_hello));
    let ServerMsg::error(e) = response else {
        panic!("expected error, got {response:?}");
    };
    assert_eq!(e.code, "duplicate-hello");

    // The original session is intact and still answers.
    let response = mux_rpc(&mut client, 3, ClientMsg::stats);
    let ServerMsg::stats(stats) = response else {
        panic!("expected stats, got {response:?}");
    };
    assert_eq!(stats.events, 0);
    let response = mux_rpc(&mut client, 3, ClientMsg::shutdown);
    assert!(matches!(response, ServerMsg::bye(_)));
    assert_eq!(handle.counters().sessions_finished(), 1);
    handle.shutdown();
}

/// Many sids interleaved message-by-message on one connection: every
/// response comes back addressed to the sid that asked, and because all
/// sids replay the same stream with the same seed, every bye carries the
/// identical digest — equal to the local batch engine's.
#[test]
fn interleaved_sids_on_one_connection_stay_isolated() {
    let instance = quick_instance();
    let handle = shard_server(4);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let sids: Vec<u64> = (0..6).collect();

    for &sid in &sids {
        let response = mux_rpc(&mut client, sid, hello_for(&instance, "greedy-rt", 13));
        assert!(matches!(response, ServerMsg::welcome { .. }));
    }
    // Lockstep interleave: consecutive wire messages address different
    // sids (and so, usually, different shards).
    for event in instance.stream.iter().take(40) {
        for &sid in &sids {
            let response = mux_rpc(&mut client, sid, event_msg(&instance, event));
            assert!(
                !matches!(response, ServerMsg::error(_)),
                "sid {sid}: unexpected error {response:?}"
            );
        }
    }

    let registry = MatcherRegistry::builtin();
    let matcher = registry.build("greedy-rt").expect("builtin builds");
    let mut session = com_core::MatchSession::for_instance(&instance, matcher, 13);
    for event in instance.stream.iter().take(40) {
        session.ingest(event).expect("in-order stream");
    }
    let local_digest = canonical_run_digest(&session.finish());

    for &sid in &sids {
        let response = mux_rpc(&mut client, sid, ClientMsg::shutdown);
        let ServerMsg::bye(bye) = response else {
            panic!("sid {sid}: expected bye, got {response:?}");
        };
        assert_eq!(bye.audit_findings, Vec::<String>::new(), "sid {sid}");
        assert_eq!(bye.digest, local_digest, "sid {sid}: digest");
    }
    assert_eq!(handle.counters().sessions_finished(), sids.len() as u64);
    assert_eq!(handle.counters().protocol_errors(), 0);
    handle.shutdown();
}

#[test]
fn disconnect_with_sessions_open_on_several_shards_drains_them_all() {
    let instance = quick_instance();
    let handle = shard_server(4);
    let addr = handle.addr().to_string();
    {
        let mut client = Client::connect(&addr).expect("connect");
        for sid in 0..6u64 {
            let response = mux_rpc(&mut client, sid, hello_for(&instance, "demcom", sid));
            assert!(matches!(response, ServerMsg::welcome { .. }));
        }
        for event in instance.stream.iter().take(10) {
            for sid in 0..6u64 {
                let response = mux_rpc(&mut client, sid, event_msg(&instance, event));
                assert!(!matches!(response, ServerMsg::error(_)));
            }
        }
        // Drop the connection with all six sessions still open.
    }
    // Every shard finishes and audits its share of the sessions.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.counters().sessions_finished() < 6 {
        assert!(
            Instant::now() < deadline,
            "sessions not drained after disconnect: {}",
            handle.counters().sessions_finished()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The server is still healthy afterwards.
    let mut client = Client::connect(&addr).expect("connect");
    let response = mux_rpc(&mut client, 0, hello_for(&instance, "demcom", 1));
    assert!(matches!(response, ServerMsg::welcome { .. }));
    let response = mux_rpc(&mut client, 0, ClientMsg::shutdown);
    assert!(matches!(response, ServerMsg::bye(_)));
    assert_eq!(handle.counters().sessions_finished(), 7);
    handle.shutdown();
}

/// The window is independent of the server's queue sizes: 8 sessions ×
/// window 64 into shard queues that hold 2 messages each is drop-free and
/// every session is the batch run, because a full queue stops the
/// connection's reader instead of dropping. (A server that drops and
/// answers `busy` kills this run at the first overflow: with 64 messages
/// in flight the driver cannot tell which one was lost.)
#[test]
fn window_is_per_message_so_a_full_window_never_overflows_the_shard_queue() {
    let instance = quick_instance();
    let registry = MatcherRegistry::builtin();
    for (shards, connections) in [(1, 1), (2, 2)] {
        let handle = serve(ServerConfig {
            shards,
            queue_capacity: 2,
            ..ServerConfig::default()
        })
        .expect("bind ephemeral port");
        let options = DriveOptions {
            matcher: "demcom".into(),
            seed: 5,
            connections,
            sessions: 8,
            window: 64,
            ..DriveOptions::default()
        };
        let report = drive(&handle.addr().to_string(), &instance, &options).expect("mux replay");
        assert_eq!(report.sessions.len(), 8);
        for outcome in &report.sessions {
            let mut matcher = registry.build("demcom").expect("builtin builds");
            let batch = try_run_online(&instance, matcher.as_mut(), outcome.seed);
            assert_eq!(outcome.bye.digest, canonical_run_digest(&batch));
            assert_eq!(outcome.bye.audit_findings, Vec::<String>::new());
        }
        let deep = report.deep_stats.expect("stats_deep over conn 0");
        assert!(deep.shards.iter().all(|s| s.busy_dropped == 0));
        handle.shutdown();
    }
}

/// Drive through a byte-recording TCP proxy in front of `server` and
/// return the mux address of every message the client put on the wire,
/// plus how many of them were binary frames.
fn wire_addresses(server: &ServerHandle, options: &DriveOptions) -> (Vec<Option<u64>>, usize) {
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};

    let instance = quick_instance();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let proxy_addr = listener.local_addr().unwrap().to_string();
    let upstream_addr = server.addr();
    let proxy = std::thread::spawn(move || {
        let (mut client, _) = listener.accept().expect("accept");
        let mut upstream = TcpStream::connect(upstream_addr).expect("connect upstream");
        let (mut client_out, mut upstream_in) = (
            client.try_clone().expect("clone"),
            upstream.try_clone().expect("clone"),
        );
        let back = std::thread::spawn(move || {
            let _ = std::io::copy(&mut upstream_in, &mut client_out);
            let _ = client_out.shutdown(Shutdown::Write);
        });
        let (mut recorded, mut chunk) = (Vec::new(), [0u8; 4096]);
        loop {
            match client.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    recorded.extend_from_slice(&chunk[..n]);
                    upstream.write_all(&chunk[..n]).expect("forward");
                }
            }
        }
        let _ = upstream.shutdown(Shutdown::Write);
        back.join().expect("proxy return leg");
        recorded
    });
    drive(&proxy_addr, &instance, options).expect("drive through proxy");
    let recorded = proxy.join().expect("proxy");

    let (mut sids, mut binary, mut rest) = (Vec::new(), 0usize, &recorded[..]);
    while let Some(&first) = rest.first() {
        let frame = if first == com_serve::FRAME_MAGIC {
            binary += 1;
            let len = u32::from_le_bytes(rest[1..5].try_into().unwrap()) as usize;
            let content = com_serve::decode_payload(&rest[5..5 + len]).expect("payload");
            rest = &rest[5 + len..];
            com_serve::client_frame_from_content(&content).expect("client frame")
        } else {
            let nl = rest
                .iter()
                .position(|&b| b == b'\n')
                .expect("terminated line");
            let line = std::str::from_utf8(&rest[..nl]).expect("utf-8 line");
            rest = &rest[nl + 1..];
            com_serve::decode_client_frame(line).expect("client line")
        };
        sids.push(frame.sid);
    }
    (sids, binary)
}

/// Which addressing goes on the wire is read off the session count, in
/// both framings: one session never sends an envelope, K > 1 sessions
/// tag every message — `hello`, events, `stats_deep`, `shutdown` — with
/// their sid.
#[test]
fn one_session_is_bare_on_the_wire_and_k_sessions_tag_every_message() {
    let server = shard_server(2);
    let per_session = quick_instance().stream.len() + 3;
    for frame in [WireFormat::Ndjson, WireFormat::Binary] {
        let options = DriveOptions {
            matcher: "tota".into(),
            frame,
            window: 16,
            ..DriveOptions::default()
        };
        let (sids, binary) = wire_addresses(&server, &options);
        assert_eq!(sids.len(), per_session, "{frame}: one session");
        assert!(sids.iter().all(Option::is_none), "{frame}: envelope sent");
        // Only the hello that negotiates the framing is NDJSON.
        let expect_binary = |n: usize| {
            if frame == WireFormat::Binary {
                n - 1
            } else {
                0
            }
        };
        assert_eq!(binary, expect_binary(sids.len()), "{frame}: framing");

        let (sids, binary) = wire_addresses(
            &server,
            &DriveOptions {
                sessions: 3,
                ..options
            },
        );
        assert_eq!(sids.len(), 3 * per_session, "{frame}: three sessions");
        for sid in 0..3u64 {
            let tagged = sids.iter().filter(|s| **s == Some(sid)).count();
            assert_eq!(tagged, per_session, "{frame}: sid {sid}");
        }
        assert_eq!(binary, expect_binary(sids.len()), "{frame}: framing");
    }
    server.shutdown();
}

/// A `bye` is one `serve-bye` sample, not an `encode`: it is written once
/// per session, and the `encode` and `flush` histograms are shared by
/// every session on the shard. A sibling's `finish` ends the shard
/// collector's run (`com_obs::end_run`), so the table the other session
/// reads after the close starts there: one `serve-bye` sample and no
/// `encode` at all; the next `stats_deep` adds exactly the previous
/// answer's `encode`.
#[test]
fn a_siblings_bye_is_timed_as_serve_bye_not_encode() {
    let instance = quick_instance();
    let server = shard_server(1);
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    for sid in 0..2 {
        let hello = hello_msg(&instance, "tota", sid, WireFormat::Binary);
        client.open(Some(sid), hello).expect("hello");
    }
    for event in instance.stream.iter().take(60) {
        mux_rpc(&mut client, 0, event_msg(&instance, event));
    }
    let phases = |client: &mut Client| match mux_rpc(client, 1, ClientMsg::stats_deep) {
        ServerMsg::stats_deep(deep) => {
            let count = |phase| deep.phase(phase).map_or(0, |p| p.count);
            (
                count(com_obs::PHASE_SERVE_ENCODE),
                count(com_obs::PHASE_SERVE_BYE),
            )
        }
        other => panic!("expected stats_deep, got {other:?}"),
    };
    let (encoded, byes) = phases(&mut client);
    assert!(encoded >= 60, "{encoded}");
    assert_eq!(byes, 0);
    assert!(matches!(
        mux_rpc(&mut client, 0, ClientMsg::shutdown),
        ServerMsg::bye(_)
    ));
    assert_eq!(phases(&mut client), (0, 1));
    assert_eq!(phases(&mut client), (1, 1));
    mux_rpc(&mut client, 1, ClientMsg::shutdown);
    server.shutdown();
}
