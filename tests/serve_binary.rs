//! Binary wire framing, end to end: every protocol message survives the
//! length-prefixed codec unchanged, hostile bytes (truncated, oversized,
//! garbage) produce typed errors instead of panics or wedged sessions,
//! and a pipelined binary loopback run is byte-identical — canonical
//! JSON and all — to both the NDJSON run and the batch engine.

use com_core::canonical_run_json;
use com_core::{try_run_online, MatcherRegistry};
use com_datagen::{generate, synthetic, SyntheticParams};
use com_geo::Point;
use com_pricing::WorkerHistory;
use com_serve::{
    decode_msg, decode_payload, drive, encode, encode_frame, serve, ByeMsg, Client, ClientMsg,
    CounterRow, DeepStatsMsg, DriveOptions, ErrorMsg, GaugeRow, Hello, PhaseRow, ServerConfig,
    ServerMsg, ShardRow, StatsMsg, WireFormat, WorkerMsg, FRAME_MAGIC, MAX_FRAME_PAYLOAD,
};
use com_sim::{
    Assignment, Instance, MatchKind, PlatformId, RequestId, RequestSpec, Timestamp, WorkerId,
    WorkerSpec, WorldConfig,
};

const FRAME_HEADER_LEN: usize = 5;

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

fn request_spec() -> RequestSpec {
    RequestSpec::new(
        RequestId(7),
        PlatformId(0),
        Timestamp::from_secs(3.25),
        Point::new(1.5, -2.75),
        12.5,
    )
}

fn worker_spec() -> WorkerSpec {
    WorkerSpec::new(
        WorkerId(11),
        PlatformId(1),
        Timestamp::from_secs(2.0),
        Point::new(9.0, 4.0),
        1.75,
    )
}

fn assignment(kind: MatchKind) -> Assignment {
    Assignment {
        request: request_spec(),
        kind,
        worker: Some(WorkerId(11)),
        worker_platform: Some(PlatformId(1)),
        outer_payment: 4.125,
        was_cooperative_offer: true,
        travel_km: 0.625,
        decided_at: Timestamp::from_secs(3.25),
        decision_nanos: 48_211,
    }
}

fn stats_msg() -> StatsMsg {
    StatsMsg {
        events: u64::MAX,
        assigned: 3,
        rejected: 2,
        refused: 1,
        dropped: 0,
        now_secs: 123.456,
    }
}

/// Frame `msg`, check the header, decode it back, and require the JSON
/// encodings (the protocol's canonical representation) to be identical.
fn assert_frame_round_trip<T: serde::Serialize + serde::Deserialize + std::fmt::Debug>(msg: &T) {
    let frame = encode_frame(msg);
    assert_eq!(frame[0], FRAME_MAGIC);
    let declared = u32::from_le_bytes(frame[1..FRAME_HEADER_LEN].try_into().unwrap()) as usize;
    assert_eq!(declared, frame.len() - FRAME_HEADER_LEN);
    let back: T = decode_msg(&frame[FRAME_HEADER_LEN..]).expect("decode");
    assert_eq!(encode(&back), encode(msg), "round trip changed {msg:?}");
}

#[test]
fn every_client_message_round_trips_through_a_binary_frame() {
    let hello = ClientMsg::hello(Hello {
        matcher: "ramcom".into(),
        seed: 99,
        world: WorldConfig::city(10.0),
        platforms: vec!["Uber".into(), "Lyft".into()],
        max_value: Some(20.0),
        origin: None,
        frame: Some("binary".into()),
        fed: None,
    });
    let messages = vec![
        hello,
        ClientMsg::worker(WorkerMsg {
            spec: worker_spec(),
            history: Some(WorkerHistory::from_values(vec![1.0, 2.5, 2.5, 9.0])),
        }),
        ClientMsg::worker(WorkerMsg {
            spec: worker_spec(),
            history: None,
        }),
        ClientMsg::request(request_spec()),
        ClientMsg::tick { to: 17.5 },
        ClientMsg::stats,
        ClientMsg::stats_deep,
        ClientMsg::shutdown,
    ];
    for msg in &messages {
        assert_frame_round_trip(msg);
    }
}

#[test]
fn every_server_message_round_trips_through_a_binary_frame() {
    let mut deep = DeepStatsMsg {
        stats: stats_msg(),
        algorithm: "RamCOM".into(),
        phases: vec![PhaseRow {
            phase: "ingest".into(),
            count: 1000,
            mean_ns: 31_250.5,
            p50_ns: 29_000,
            p90_ns: 41_000,
            p99_ns: 90_000,
            max_ns: 1_000_000,
            total_ns: 31_250_500,
        }],
        counters: vec![CounterRow {
            name: "grid.cells_scanned".into(),
            value: 424_242,
        }],
        gauges: vec![GaugeRow {
            name: "ingress.queue_depth".into(),
            last: 3.0,
            max: 17.0,
        }],
        queue_depth: 3,
        queue_high_water: 17,
        busy_dropped: 0,
        oversized_rejected: 2,
        bad_envelope_rejected: 1,
        shard: Some(1),
        shards: vec![ShardRow {
            shard: 1,
            sessions: 2,
            sessions_total: 5,
            events_routed: 1234,
            queue_depth: 3,
            queue_high_water: 17,
            busy_dropped: 0,
        }],
        federation: Some(com_serve::FedStatsMsg {
            platform: 1,
            offers_sent: 9,
            offers_accepted: 7,
            offers_rejected: 1,
            offers_timed_out: 1,
            offers_retried: 1,
            stale_replies: 2,
            offers_received: 8,
            lends_granted: 8,
            lends_rejected: 0,
        }),
    };
    // An empty-table variant too: Seq(vec![]) must round-trip.
    let mut empty = deep.clone();
    empty.phases.clear();
    empty.counters.clear();
    empty.gauges.clear();
    empty.shards.clear();
    empty.shard = None;
    empty.federation = None;
    deep.stats.events = 50;

    let messages = vec![
        ServerMsg::welcome {
            algorithm: "DemCOM".into(),
            frame: Some("binary".into()),
        },
        ServerMsg::welcome {
            algorithm: "DemCOM".into(),
            frame: None,
        },
        ServerMsg::ok,
        ServerMsg::assign(assignment(MatchKind::Outer)),
        ServerMsg::reject(assignment(MatchKind::Rejected)),
        ServerMsg::timeout {
            assignment: assignment(MatchKind::Inner),
            violation: "worker busy".into(),
        },
        ServerMsg::busy,
        ServerMsg::error(ErrorMsg {
            code: "bad-frame".into(),
            detail: "unknown tag 0xff — naïve peer?".into(),
        }),
        ServerMsg::stats(stats_msg()),
        ServerMsg::stats_deep(Box::new(deep)),
        ServerMsg::stats_deep(Box::new(empty)),
        ServerMsg::bye(ByeMsg {
            algorithm: "DemCOM".into(),
            revenue: 1234.5,
            completed: 120,
            cooperative: 30,
            events: 260,
            refused: 0,
            audit_findings: vec!["serving: something odd".into()],
            canonical: serde_json::from_str(
                r#"{"nested":{"seq":[1,-2,3.5,null,true,"s"],"deep":{"k":[{"x":0}]}}}"#,
            )
            .unwrap(),
            digest: "fnv1a64:deadbeefdeadbeef".into(),
            fed: Some(com_serve::FedByeMsg {
                platform: 0,
                canonical: serde_json::from_str(r#"{"assignments":[],"total_revenue":0.0}"#)
                    .unwrap(),
                digest: "fnv1a64:0000000000000000".into(),
                ledger: com_sim::PlatformLedger::default(),
                degraded_offers: 0,
            }),
        }),
    ];
    for msg in &messages {
        assert_frame_round_trip(msg);
    }
}

/// A tiny deterministic JSON generator (xorshift64*): the `bye.canonical`
/// payload is free-form JSON, so the codec must round-trip arbitrary
/// value trees, not just the struct shapes above.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn json(&mut self, depth: u32, out: &mut String) {
        match self.next() % if depth == 0 { 6 } else { 8 } {
            0 => out.push_str("null"),
            1 => out.push_str(if self.next().is_multiple_of(2) {
                "true"
            } else {
                "false"
            }),
            2 => out.push_str(&format!("{}", self.next())),
            3 => out.push_str(&format!("{}", -((self.next() % 1_000_000) as i64))),
            4 => {
                // Finite floats only: non-finite renders as JSON null.
                let f = (self.next() % 1_000_000) as f64 / 64.0;
                out.push_str(&format!("{f:?}"));
            }
            5 => out.push_str(&format!("\"s{}\"", self.next() % 1000)),
            6 => {
                out.push('[');
                for i in 0..(self.next() % 4) {
                    if i > 0 {
                        out.push(',');
                    }
                    self.json(depth - 1, out);
                }
                out.push(']');
            }
            _ => {
                out.push('{');
                for i in 0..(self.next() % 4) {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"k{i}\":"));
                    self.json(depth - 1, out);
                }
                out.push('}');
            }
        }
    }
}

#[test]
fn random_json_trees_round_trip_through_binary_frames() {
    let mut rng = Rng(0x9E3779B97F4A7C15);
    for _ in 0..300 {
        let mut text = String::from(
            "{\"bye\":{\"algorithm\":\"x\",\"revenue\":0.5,\
             \"completed\":1,\"cooperative\":0,\"events\":1,\"refused\":0,\
             \"audit_findings\":[],\"canonical\":",
        );
        rng.json(3, &mut text);
        text.push_str("}}");
        let msg: ServerMsg = serde_json::from_str(&text).expect("generated JSON parses");
        assert_frame_round_trip(&msg);
    }
}

#[test]
fn truncated_frames_and_trailing_bytes_are_rejected() {
    let frame = encode_frame(&ClientMsg::request(request_spec()));
    let payload = &frame[FRAME_HEADER_LEN..];
    // Every proper prefix of the payload is an error, never a panic.
    for cut in 0..payload.len() {
        assert!(decode_payload(&payload[..cut]).is_err(), "cut at {cut}");
    }
    // A trailing byte after a complete value is equally corrupt.
    let mut padded = payload.to_vec();
    padded.push(0x00);
    assert!(decode_payload(&padded).is_err());
    // Unknown tags are typed errors too.
    assert!(decode_payload(&[0xFF]).is_err());
    // A structurally valid value that is not a protocol message fails at
    // the message layer, still without panicking.
    assert!(decode_msg::<ClientMsg>(&encode_frame(&ServerMsg::busy)[FRAME_HEADER_LEN..]).is_err());
}

fn open_session(addr: &str, frame: Option<&str>) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    let hello = Hello {
        matcher: "demcom".into(),
        seed: 7,
        world: WorldConfig::city(10.0),
        platforms: vec!["A".into(), "B".into()],
        max_value: Some(20.0),
        origin: None,
        frame: frame.map(|s| s.to_string()),
        fed: None,
    };
    client.open(None, hello).expect("hello");
    if frame == Some("binary") {
        // The client switches only on the server's echo.
        assert_eq!(client.format(), WireFormat::Binary);
    }
    client
}

fn expect_error(client: &mut Client, code: &str) {
    match client.recv().expect("response") {
        ServerMsg::error(e) => assert_eq!(e.code, code, "detail: {}", e.detail),
        other => panic!("expected {code} error, got {other:?}"),
    }
}

#[test]
fn garbage_frame_gets_typed_error_and_session_survives() {
    let handle = serve(ServerConfig::default()).expect("bind ephemeral port");
    let mut client = open_session(&handle.addr().to_string(), Some("binary"));

    // A well-formed header whose payload is pure junk.
    let mut garbage = vec![FRAME_MAGIC];
    garbage.extend_from_slice(&4u32.to_le_bytes());
    garbage.extend_from_slice(&[0xFF, 0xFE, 0xFD, 0xFC]);
    client.send_bytes(&garbage).expect("send");
    expect_error(&mut client, "bad-frame");

    // A valid value that is not a protocol message: distinct error code.
    let busy_frame = encode_frame(&ServerMsg::busy);
    client.send_bytes(&busy_frame).expect("send");
    expect_error(&mut client, "unknown-message");

    // The session still works — in binary framing — afterwards.
    let response = client
        .rpc(&ClientMsg::worker(WorkerMsg {
            spec: worker_spec(),
            history: None,
        }))
        .expect("worker");
    assert!(matches!(response, ServerMsg::ok));
    let response = client.rpc(&ClientMsg::shutdown).expect("shutdown");
    assert!(matches!(response, ServerMsg::bye(_)));
    assert_eq!(handle.counters().protocol_errors(), 2);
    handle.shutdown();
}

#[test]
fn oversized_frame_is_rejected_discarded_and_counted() {
    let handle = serve(ServerConfig::default()).expect("bind ephemeral port");
    let mut client = open_session(&handle.addr().to_string(), Some("binary"));

    // Declare a payload one byte past the cap. The server answers with a
    // typed error as soon as it sees the header, then discards exactly
    // the declared bytes without buffering them.
    let oversized_len = MAX_FRAME_PAYLOAD + 1;
    let mut header = vec![FRAME_MAGIC];
    header.extend_from_slice(&(oversized_len as u32).to_le_bytes());
    client.send_bytes(&header).expect("send header");
    expect_error(&mut client, "oversized-frame");

    // Stream the declared payload; every byte of it must be discarded,
    // not parsed (0xFF would otherwise be an instant bad-frame).
    let filler = vec![0xFFu8; 1 << 16];
    let mut remaining = oversized_len;
    while remaining > 0 {
        let n = remaining.min(filler.len());
        client.send_bytes(&filler[..n]).expect("send filler");
        remaining -= n;
    }

    // The very next frame lands on a clean boundary and works.
    let response = client
        .rpc(&ClientMsg::worker(WorkerMsg {
            spec: worker_spec(),
            history: None,
        }))
        .expect("worker");
    assert!(matches!(response, ServerMsg::ok));

    // The rejection is visible in deep telemetry.
    let response = client.rpc(&ClientMsg::stats_deep).expect("stats_deep");
    let ServerMsg::stats_deep(deep) = response else {
        panic!("expected stats_deep, got {response:?}");
    };
    assert_eq!(deep.oversized_rejected, 1);

    let response = client.rpc(&ClientMsg::shutdown).expect("shutdown");
    assert!(matches!(response, ServerMsg::bye(_)));
    handle.shutdown();
}

#[test]
fn unknown_frame_token_downgrades_to_ndjson() {
    let handle = serve(ServerConfig::default()).expect("bind ephemeral port");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let response = client
        .rpc(&ClientMsg::hello(Hello {
            matcher: "demcom".into(),
            seed: 7,
            world: WorldConfig::city(10.0),
            platforms: vec!["A".into()],
            max_value: None,
            origin: None,
            frame: Some("carrier-pigeon".into()),
            fed: None,
        }))
        .expect("hello");
    let ServerMsg::welcome { frame, .. } = response else {
        panic!("expected welcome, got {response:?}");
    };
    // The server never echoes a token it did not accept: the client
    // stays on NDJSON and the session proceeds normally.
    assert_eq!(frame.as_deref(), Some("ndjson"));
    let response = client.rpc(&ClientMsg::shutdown).expect("shutdown");
    assert!(matches!(response, ServerMsg::bye(_)));
    handle.shutdown();
}

#[test]
fn binary_pipelined_run_is_byte_identical_to_ndjson_and_batch() {
    let instance = quick_instance();
    let handle = serve(ServerConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    let ndjson = drive(
        &addr,
        &instance,
        &DriveOptions {
            matcher: "ramcom".into(),
            seed: 13,
            sessions: 1,
            ..DriveOptions::default()
        },
    )
    .expect("ndjson replay");

    let binary = drive(
        &addr,
        &instance,
        &DriveOptions {
            matcher: "ramcom".into(),
            seed: 13,
            sessions: 1,
            frame: WireFormat::Binary,
            window: 64,
            ..DriveOptions::default()
        },
    )
    .expect("binary replay");

    // Both served runs are clean…
    for report in [&ndjson, &binary] {
        assert_eq!(report.sessions.len(), 1);
        assert_eq!(report.sessions[0].bye.audit_findings, Vec::<String>::new());
        assert_eq!(report.events, instance.stream.len());
    }
    let (ndjson_bye, binary_bye) = (&ndjson.sessions[0].bye, &binary.sessions[0].bye);
    if let Some(deep) = &binary.deep_stats {
        assert_eq!(deep.oversized_rejected, 0);
    }

    // …and byte-identical to each other and to the batch engine.
    let registry = MatcherRegistry::builtin();
    let mut matcher = registry.resolve("ramcom").unwrap()();
    let batch = try_run_online(&instance, matcher.as_mut(), 13);
    let batch_text = canonical_text(&canonical_run_json(&batch));
    assert_eq!(canonical_text(&ndjson_bye.canonical), batch_text);
    assert_eq!(canonical_text(&binary_bye.canonical), batch_text);
    assert_eq!(ndjson_bye.revenue, batch.total_revenue());
    assert_eq!(binary_bye.revenue, batch.total_revenue());

    assert_eq!(handle.counters().protocol_errors(), 0);
    handle.shutdown();
}
