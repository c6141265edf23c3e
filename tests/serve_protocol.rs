//! Protocol robustness: malformed lines, out-of-protocol messages,
//! out-of-order timestamps, and mid-stream disconnects must each produce
//! a structured error response or a clean audited teardown — never a
//! panic, a wedged session, or a leaked thread. Thread hygiene is
//! observable: `ServerHandle::shutdown` joins every spawned thread, so
//! each test ending in `shutdown()` would hang if a thread leaked.

use std::time::{Duration, Instant};

use com_core::{try_run_online, DemCom, RamCom};
use com_datagen::{generate, profiles};
use com_geo::Point;
use com_pricing::WorkerHistory;
use com_serve::{
    decode_client_frame, event_msg, replay_trace, serve, Client, ClientMsg, DecodeError, Hello,
    ServerConfig, ServerHandle, ServerMsg, WorkerMsg,
};
use com_sim::{
    ArrivalEvent, EventStream, Instance, PlatformId, RequestId, RequestSpec, Timestamp, WorkerId,
    WorkerSpec, WorldConfig,
};

fn start_server() -> ServerHandle {
    serve(ServerConfig::default()).expect("bind ephemeral port")
}

fn hello_msg() -> ClientMsg {
    ClientMsg::hello(Hello {
        matcher: "demcom".into(),
        seed: 7,
        world: WorldConfig::city(10.0),
        platforms: vec!["A".into(), "B".into()],
        max_value: Some(20.0),
        origin: None,
        frame: None,
        fed: None,
    })
}

fn open_session(addr: &str) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    let response = client.rpc(&hello_msg()).expect("hello");
    assert!(matches!(response, ServerMsg::welcome { .. }));
    client
}

fn expect_error(client: &mut Client, code: &str) {
    match client.recv().expect("response") {
        ServerMsg::error(e) => assert_eq!(e.code, code, "detail: {}", e.detail),
        other => panic!("expected {code} error, got {other:?}"),
    }
}

fn worker(id: u64, at_secs: f64) -> WorkerSpec {
    WorkerSpec::new(
        WorkerId(id),
        PlatformId(0),
        Timestamp::from_secs(at_secs),
        Point::new(5.0, 5.0),
        1.0,
    )
}

#[test]
fn malformed_json_gets_structured_error_and_session_survives() {
    let handle = start_server();
    let mut client = open_session(&handle.addr().to_string());

    client.send_raw("{this is not json").expect("send");
    expect_error(&mut client, "bad-json");

    // The session is still usable afterwards.
    let msg = ClientMsg::worker(WorkerMsg {
        spec: worker(1, 1.0),
        history: None,
    });
    let response = client.rpc(&msg).expect("worker");
    assert!(matches!(response, ServerMsg::ok));

    let response = client.rpc(&ClientMsg::shutdown).expect("shutdown");
    assert!(matches!(response, ServerMsg::bye(_)));
    assert_eq!(handle.counters().protocol_errors(), 1);
    handle.shutdown();
}

#[test]
fn unknown_message_type_gets_structured_error() {
    let handle = start_server();
    let mut client = open_session(&handle.addr().to_string());

    client
        .send_raw("{\"frobnicate\": {\"x\": 1}}")
        .expect("send");
    expect_error(&mut client, "unknown-message");
    client.send_raw("42").expect("send");
    expect_error(&mut client, "unknown-message");
    handle.shutdown();
}

#[test]
fn integral_floats_out_of_range_are_unknown_messages_not_saturated() {
    let line = |id: &str, platform: &str| {
        format!(
            "{{\"request\":{{\"id\":{id},\"platform\":{platform},\"arrival\":1.0,\
             \"location\":{{\"x\":1.0,\"y\":1.0}},\"value\":5.0}}}}"
        )
    };
    // A float that is exactly an in-range integer still decodes.
    let ok = decode_client_frame(&line("3.0", "1")).expect("integral float id");
    let ClientMsg::request(spec) = ok.msg else {
        panic!("wrong variant: {ok:?}");
    };
    assert_eq!((spec.id, spec.platform), (RequestId(3), PlatformId(1)));
    for (id, platform, problem) in [
        ("-1.0", "1", "-1 out of range for u64"),
        ("18446744073709551616", "1", "out of range for u64"),
        ("3", "70000.0", "70000 out of range for u16"),
        ("3", "70000", "70000 out of range for u16"),
    ] {
        match decode_client_frame(&line(id, platform)) {
            Err(DecodeError::UnknownMessage(detail)) => {
                assert!(detail.contains(problem), "id {id}: {detail}")
            }
            other => panic!("id {id}, platform {platform}: {other:?}"),
        }
    }
}

/// One line of 10,000 nested arrays used to overflow the JSON parser's
/// stack and abort the whole daemon. It is answered `bad-json` now, and
/// the daemon keeps serving.
#[test]
fn a_deeply_nested_line_is_bad_json_not_a_crash() {
    let handle = start_server();
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    client
        .send_raw(&format!("{}{}", "[".repeat(10_000), "]".repeat(10_000)))
        .expect("send");
    match client.recv().expect("response") {
        ServerMsg::error(e) => {
            assert_eq!(e.code, "bad-json");
            assert_eq!(e.detail, "recursion limit exceeded at byte 129");
        }
        other => panic!("expected bad-json, got {other:?}"),
    }
    let mut fresh = open_session(&addr);
    let response = fresh.rpc(&ClientMsg::shutdown).expect("shutdown");
    assert!(matches!(response, ServerMsg::bye(_)));
    handle.shutdown();
}

#[test]
fn malformed_envelopes_get_typed_error_and_are_counted() {
    let handle = start_server();
    let mut client = open_session(&handle.addr().to_string());

    // sid without msg, then a non-integer sid: both structurally broken
    // envelopes, each answered with the typed `bad-envelope` error.
    client.send_raw("{\"sid\":3}").expect("send");
    expect_error(&mut client, "bad-envelope");
    client
        .send_raw("{\"sid\":\"x\",\"msg\":\"stats\"}")
        .expect("send");
    expect_error(&mut client, "bad-envelope");

    // The session survives, and deep stats report exactly the two
    // rejected envelopes on this connection.
    let response = client.rpc(&ClientMsg::stats_deep).expect("stats_deep");
    let ServerMsg::stats_deep(deep) = response else {
        panic!("expected stats_deep, got {response:?}");
    };
    assert_eq!(deep.bad_envelope_rejected, 2);

    let response = client.rpc(&ClientMsg::shutdown).expect("shutdown");
    assert!(matches!(response, ServerMsg::bye(_)));
    assert_eq!(handle.counters().protocol_errors(), 2);
    handle.shutdown();
}

#[test]
fn events_before_hello_and_duplicate_hello_are_refused() {
    let handle = start_server();
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    let response = client
        .rpc(&ClientMsg::request(RequestSpec::new(
            RequestId(1),
            PlatformId(0),
            Timestamp::from_secs(1.0),
            Point::new(1.0, 1.0),
            5.0,
        )))
        .expect("request");
    let ServerMsg::error(e) = response else {
        panic!("expected error, got {response:?}");
    };
    assert_eq!(e.code, "no-session");

    let response = client.rpc(&hello_msg()).expect("hello");
    assert!(matches!(response, ServerMsg::welcome { .. }));
    let response = client.rpc(&hello_msg()).expect("second hello");
    let ServerMsg::error(e) = response else {
        panic!("expected error, got {response:?}");
    };
    assert_eq!(e.code, "duplicate-hello");
    handle.shutdown();
}

#[test]
fn unknown_matcher_is_refused_with_the_registry_message() {
    let handle = start_server();
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let response = client
        .rpc(&ClientMsg::hello(Hello {
            matcher: "does-not-exist".into(),
            seed: 1,
            world: WorldConfig::city(10.0),
            platforms: vec!["A".into()],
            max_value: None,
            origin: None,
            frame: None,
            fed: None,
        }))
        .expect("hello");
    let ServerMsg::error(e) = response else {
        panic!("expected error, got {response:?}");
    };
    assert_eq!(e.code, "unknown-matcher");
    // The registry's error lists valid specs, so the client can recover.
    assert!(e.detail.contains("demcom"), "detail: {}", e.detail);
    handle.shutdown();
}

#[test]
fn out_of_order_timestamps_are_refused_without_corrupting_the_session() {
    let handle = start_server();
    let mut client = open_session(&handle.addr().to_string());

    let response = client
        .rpc(&ClientMsg::worker(WorkerMsg {
            spec: worker(1, 10.0),
            history: None,
        }))
        .expect("worker");
    assert!(matches!(response, ServerMsg::ok));

    // Clock is at t=10; an event at t=5 is a time rewind.
    let response = client
        .rpc(&ClientMsg::worker(WorkerMsg {
            spec: worker(2, 5.0),
            history: None,
        }))
        .expect("worker");
    let ServerMsg::error(e) = response else {
        panic!("expected error, got {response:?}");
    };
    assert_eq!(e.code, "constraint");
    assert!(e.detail.contains("monotone"), "detail: {}", e.detail);

    // A tick backwards is refused the same way.
    let response = client.rpc(&ClientMsg::tick { to: 1.0 }).expect("tick");
    assert!(matches!(response, ServerMsg::error(_)));

    // The session survives: in-order traffic still works and the final
    // run audits clean (the refused events never entered the log).
    let response = client
        .rpc(&ClientMsg::worker(WorkerMsg {
            spec: worker(3, 20.0),
            history: None,
        }))
        .expect("worker");
    assert!(matches!(response, ServerMsg::ok));
    let response = client.rpc(&ClientMsg::shutdown).expect("shutdown");
    let ServerMsg::bye(bye) = response else {
        panic!("expected bye, got {response:?}");
    };
    assert_eq!(bye.events, 2); // workers 1 and 3 only
    assert_eq!(bye.audit_findings, Vec::<String>::new());
    handle.shutdown();
}

#[test]
fn duplicate_worker_arrival_is_a_constraint_error() {
    let handle = start_server();
    let mut client = open_session(&handle.addr().to_string());
    let msg = ClientMsg::worker(WorkerMsg {
        spec: worker(1, 1.0),
        history: None,
    });
    let response = client.rpc(&msg).expect("worker");
    assert!(matches!(response, ServerMsg::ok));
    let response = client.rpc(&msg).expect("worker again");
    let ServerMsg::error(e) = response else {
        panic!("expected error, got {response:?}");
    };
    assert_eq!(e.code, "constraint");
    assert!(e.detail.contains("arrived twice"), "detail: {}", e.detail);
    handle.shutdown();
}

#[test]
fn mid_stream_disconnect_drains_and_audits_the_session() {
    let handle = start_server();
    let addr = handle.addr().to_string();
    {
        let mut client = open_session(&addr);
        let response = client
            .rpc(&ClientMsg::worker(WorkerMsg {
                spec: worker(1, 1.0),
                history: None,
            }))
            .expect("worker");
        assert!(matches!(response, ServerMsg::ok));
        // Drop the connection without `shutdown`.
    }
    // The server notices the EOF, finishes and audits the session, and
    // joins the connection's threads.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.counters().sessions_finished() < 1 {
        assert!(
            Instant::now() < deadline,
            "session not drained after disconnect"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The server is still healthy: a fresh session works end to end.
    let mut client = open_session(&addr);
    let response = client.rpc(&ClientMsg::shutdown).expect("shutdown");
    assert!(matches!(response, ServerMsg::bye(_)));
    assert_eq!(handle.counters().sessions_finished(), 2);
    handle.shutdown();
}

/// Six events a decoder accepts but no `RequestSpec::new` /
/// `WorkerSpec::new` would — built as struct literals, the way the wire
/// builds them — and a `tick` to no time at all.
fn hostile_events() -> Vec<ClientMsg> {
    let request = RequestSpec {
        id: RequestId(66),
        platform: PlatformId(1),
        arrival: Timestamp::from_secs(2.0),
        location: Point::new(5.0, 5.0),
        value: 5.0,
    };
    let spec = worker(66, 2.0);
    vec![
        ClientMsg::request(RequestSpec {
            value: -1.0,
            ..request
        }),
        ClientMsg::request(RequestSpec {
            value: 0.0,
            ..request
        }),
        ClientMsg::request(RequestSpec {
            value: f64::NAN,
            ..request
        }),
        ClientMsg::request(RequestSpec {
            platform: PlatformId(9),
            ..request
        }),
        ClientMsg::worker(WorkerMsg {
            spec: WorkerSpec {
                radius: -1.0,
                ..spec
            },
            history: None,
        }),
        ClientMsg::worker(WorkerMsg {
            spec: WorkerSpec {
                location: Point::new(f64::NAN, 5.0),
                ..spec
            },
            history: None,
        }),
        ClientMsg::tick { to: f64::NAN },
    ]
}

/// Two connections whose sessions share the one shard thread: the
/// attacker's hostile events are each refused with `constraint`, the
/// victim's session never notices, and both end byte-identical to batch
/// runs of the events they had accepted.
fn hostile_events_spare_the_shard(frame: Option<&str>) {
    let handle = serve(ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let ClientMsg::hello(mut hello) = hello_msg() else {
        unreachable!("hello_msg builds a hello");
    };
    hello.frame = frame.map(str::to_string);
    let open = || {
        let mut client = Client::connect(&addr).expect("connect");
        client.open(None, hello.clone()).expect("hello");
        client
    };
    let (mut attacker, mut victim) = (open(), open());

    // An outer worker in range of (5, 5): platform 1's requests there
    // reach Algorithm 2, whose asserts a non-positive value used to trip.
    let lender = ArrivalEvent::Worker(worker(1, 1.0));
    let request = ArrivalEvent::Request(RequestSpec::new(
        RequestId(1),
        PlatformId(1),
        Timestamp::from_secs(3.0),
        Point::new(5.0, 5.0),
        20.0,
    ));
    let instance = Instance {
        config: hello.world.clone(),
        platform_names: hello.platforms.clone(),
        histories: Default::default(),
        stream: EventStream::from_ordered(vec![lender, request]),
    };
    for client in [&mut attacker, &mut victim] {
        let response = client.rpc(&event_msg(&instance, &lender)).expect("worker");
        assert!(matches!(response, ServerMsg::ok));
    }

    for hostile in hostile_events() {
        if frame.is_some() {
            // Binary frames carry NaN natively.
            attacker.send(&hostile).expect("send");
        } else {
            // JSON has no NaN literal (it serialises as `null`); the
            // decoder takes the string form.
            let line = serde_json::to_string(&hostile)
                .expect("serialise")
                .replace("\"value\":null", "\"value\":\"nan\"")
                .replace("\"x\":null", "\"x\":\"nan\"")
                .replace("\"to\":null", "\"to\":\"nan\"");
            attacker.send_raw(&line).expect("send");
        }
        let ServerMsg::error(e) = attacker.recv().expect("response") else {
            panic!("{hostile:?} was not refused");
        };
        assert_eq!(e.code, "constraint", "{hostile:?}: {}", e.detail);
        assert!(e.detail.contains("malformed"), "{}", e.detail);
    }

    let batch = try_run_online(&instance, &mut DemCom::default(), hello.seed);
    for client in [&mut victim, &mut attacker] {
        let response = client
            .rpc(&event_msg(&instance, &request))
            .expect("request");
        assert!(matches!(response, ServerMsg::assign(_)), "{response:?}");
        let response = client.rpc(&ClientMsg::shutdown).expect("shutdown");
        let ServerMsg::bye(bye) = response else {
            panic!("expected bye, got {response:?}");
        };
        assert_eq!(bye.events, 2);
        assert_eq!(bye.disagreements(&batch), Vec::<String>::new());
    }
    handle.shutdown();
}

#[test]
fn hostile_events_are_constraint_errors_and_spare_the_shard() {
    hostile_events_spare_the_shard(None);
}

#[test]
fn hostile_events_in_binary_frames_are_constraint_errors_too() {
    hostile_events_spare_the_shard(Some("binary"));
}

/// `quick` with every history withheld, RamCOM, through a loopback daemon
/// three times: clean; each worker line preceded by a malformed twin; each
/// worker line sent twice. The refused lines all carry a ¥0.1 history, and
/// none of it may reach the run: every stream ends as the batch run does.
fn refused_worker_lines_stage_no_history(frame: Option<&str>) {
    let handle = start_server();
    let addr = handle.addr().to_string();
    let instance = Instance {
        histories: Default::default(),
        ..generate(&profiles::quick())
    };
    let hello = Hello {
        matcher: "ramcom".into(),
        seed: 42,
        world: instance.config.clone(),
        platforms: instance.platform_names.clone(),
        max_value: instance.max_value(),
        origin: None,
        frame: frame.map(str::to_string),
        fed: None,
    };
    let batch = try_run_online(&instance, &mut RamCom::default(), hello.seed);
    // Newcomers are never lent against (their only candidate is `v_r`,
    // margin 0); a planted floor that reached the world would be.
    assert_eq!(batch.cooperative_count(), 0);
    let planted = Some(WorkerHistory::from_values(vec![0.1]));
    let refused = |client: &mut Client, spec: WorkerSpec, why: &str| {
        let msg = ClientMsg::worker(WorkerMsg {
            spec,
            history: planted.clone(),
        });
        let ServerMsg::error(e) = client.rpc(&msg).expect("worker") else {
            panic!("worker line was not refused ({why})");
        };
        assert_eq!(e.code, "constraint");
        assert!(e.detail.contains(why), "detail: {}", e.detail);
    };

    for (poisoned, duplicated) in [(false, false), (true, false), (false, true)] {
        let mut client = Client::connect(&addr).expect("connect");
        client.open(None, hello.clone()).expect("hello");
        for event in instance.stream.iter() {
            if let (true, ArrivalEvent::Worker(spec)) = (poisoned, event) {
                let twin = WorkerSpec {
                    radius: -1.0,
                    ..*spec
                };
                refused(&mut client, twin, "malformed");
            }
            let response = client.rpc(&event_msg(&instance, event)).expect("event");
            assert!(!matches!(response, ServerMsg::error(_)), "{response:?}");
            if let (true, ArrivalEvent::Worker(spec)) = (duplicated, event) {
                refused(&mut client, *spec, "arrived twice");
            }
        }
        let response = client.rpc(&ClientMsg::shutdown).expect("shutdown");
        let ServerMsg::bye(bye) = response else {
            panic!("expected bye, got {response:?}");
        };
        assert_eq!(bye.events as usize, instance.stream.len());
        assert_eq!(
            bye.disagreements(&batch),
            Vec::<String>::new(),
            "poisoned {poisoned}, duplicated {duplicated}"
        );
    }
    handle.shutdown();
}

/// Four `hello` lines that must never reach `World::new`: no platforms, a
/// radius serde_json reads as +∞, a city too wide for its grid, and a
/// roster too long for it. Built as wire text, since +∞ has no JSON form.
fn hostile_hello_lines() -> Vec<(&'static str, String)> {
    let base = Hello {
        matcher: "tota".into(),
        seed: 1,
        world: WorldConfig::city(30.0),
        platforms: vec!["A".into(), "B".into()],
        max_value: None,
        origin: None,
        frame: None,
        fed: None,
    };
    let line = |hello: Hello| serde_json::to_string(&ClientMsg::hello(hello)).expect("serialise");
    let mut infinite = base.clone();
    infinite.world.expected_radius = 12345.5;
    let mut wide = base.clone();
    wide.world.extent = com_geo::BoundingBox::square(100_000.0);
    vec![
        (
            "no platforms",
            line(Hello {
                platforms: Vec::new(),
                ..base.clone()
            }),
        ),
        (
            "infinite radius",
            line(infinite).replace("12345.5", "1e400"),
        ),
        ("100,000 km extent", line(wide)),
        (
            "60,000 platforms",
            line(Hello {
                platforms: (0..60_000).map(|i| format!("p{i}")).collect(),
                ..base
            }),
        ),
    ]
}

#[test]
fn hostile_hellos_are_refused_and_the_daemon_keeps_serving() {
    use std::io::{BufReader, Write};
    let handle = serve(ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    // A refused hello opens no session, so all four share one connection.
    // The read timeout turns a silent (dead) shard into a failure, not a
    // hang.
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for (what, line) in hostile_hello_lines() {
        (&stream)
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let frame = com_serve::read_server_frame(&mut reader, com_serve::MAX_FRAME_PAYLOAD)
            .unwrap_or_else(|e| panic!("{what}: no reply ({e})"));
        let ServerMsg::error(e) = frame.msg else {
            panic!("{what}: expected bad-hello, got {:?}", frame.msg);
        };
        assert_eq!(e.code, "bad-hello", "{what}: {}", e.detail);
    }
    assert_eq!(handle.counters().protocol_errors(), 4);

    // The same shard then serves a clean session to its batch digest.
    let instance = generate(&profiles::quick());
    let hello = Hello {
        matcher: "ramcom".into(),
        seed: 42,
        world: instance.config.clone(),
        platforms: instance.platform_names.clone(),
        max_value: instance.max_value(),
        origin: None,
        frame: None,
        fed: None,
    };
    let batch = try_run_online(&instance, &mut RamCom::default(), hello.seed);
    let mut client = Client::connect(&addr).expect("connect");
    client.open(None, hello).expect("hello");
    for event in instance.stream.iter() {
        let response = client.rpc(&event_msg(&instance, event)).expect("event");
        assert!(!matches!(response, ServerMsg::error(_)), "{response:?}");
    }
    let ServerMsg::bye(bye) = client.rpc(&ClientMsg::shutdown).expect("shutdown") else {
        panic!("expected bye");
    };
    assert_eq!(bye.disagreements(&batch), Vec::<String>::new());
    handle.shutdown();
}

/// Answer to a `tick` to no finite time: a `malformed` constraint error.
fn expect_tick_refused(client: &mut Client, what: &str) {
    let ServerMsg::error(e) = client.recv().expect("response") else {
        panic!("tick to {what} was not refused");
    };
    assert_eq!(e.code, "constraint", "{what}: {}", e.detail);
    assert!(
        e.detail.contains("tick time must be finite"),
        "{what}: {}",
        e.detail
    );
}

/// A `tick` to a non-finite time is refused before the clock moves, in
/// both framings: NDJSON `1e999` (the parser reads the overflow as +∞)
/// and binary ±∞ (sent as raw bits). None of them reaches the session or
/// its recorded trace: `quick` still finishes at its batch digest, and
/// both traces replay clean.
#[test]
fn non_finite_ticks_are_refused_and_the_trace_replays() {
    let dir = std::env::temp_dir().join(format!("com-serve-protocol-{}-ticks", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create record dir");
    let handle = serve(ServerConfig {
        record_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let instance = generate(&profiles::quick());
    let batch = try_run_online(&instance, &mut RamCom::default(), 42);

    for frame in [None, Some("binary")] {
        let mut client = Client::connect(&addr).expect("connect");
        let hello = Hello {
            matcher: "ramcom".into(),
            seed: 42,
            world: instance.config.clone(),
            platforms: instance.platform_names.clone(),
            max_value: instance.max_value(),
            origin: None,
            frame: frame.map(str::to_string),
            fed: None,
        };
        client.open(None, hello).expect("hello");
        for (i, event) in instance.stream.iter().enumerate() {
            if i == 1 {
                if frame.is_some() {
                    for to in [f64::INFINITY, f64::NEG_INFINITY] {
                        client.send(&ClientMsg::tick { to }).expect("send");
                        expect_tick_refused(&mut client, &to.to_string());
                    }
                } else {
                    client.send_raw(r#"{"tick":{"to":1e999}}"#).expect("send");
                    expect_tick_refused(&mut client, "1e999");
                }
            }
            let response = client.rpc(&event_msg(&instance, event)).expect("event");
            assert!(!matches!(response, ServerMsg::error(_)), "{response:?}");
        }
        let ServerMsg::bye(bye) = client.rpc(&ClientMsg::shutdown).expect("shutdown") else {
            panic!("expected bye");
        };
        assert_eq!(bye.disagreements(&batch), Vec::<String>::new(), "{frame:?}");
    }
    handle.shutdown();

    let traces: Vec<_> = std::fs::read_dir(&dir)
        .expect("read record dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(traces.len(), 2, "traces: {traces:?}");
    for path in &traces {
        let report = replay_trace(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(
            report.is_clean(),
            "{path:?}: divergences {:?}, findings {:?}",
            report.divergences,
            report.audit_findings
        );
        assert_eq!(report.events, instance.stream.len() as u64);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refused_worker_lines_stage_no_history_over_ndjson() {
    refused_worker_lines_stage_no_history(None);
}

#[test]
fn refused_worker_lines_stage_no_history_in_binary_frames() {
    refused_worker_lines_stage_no_history(Some("binary"));
}
