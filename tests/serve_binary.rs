//! Binary wire framing, end to end: every protocol message survives the
//! length-prefixed codec unchanged, hostile bytes (truncated, oversized,
//! garbage) produce typed errors instead of panics or wedged sessions,
//! and a pipelined binary loopback run is byte-identical — run digest and
//! all — to both the NDJSON run and the batch engine. The typed
//! hot layouts are held to `Content` here in both framings: the same
//! bytes out; in, NDJSON reads what `Content` reads, and the binary
//! reader reads the same except that it refuses a hot message in any form
//! but its layout.

use std::collections::{BTreeMap, BTreeSet};

use com_core::canonical_run_digest;
use com_core::{try_run_online, MatcherRegistry, MatcherSpec};
use com_datagen::generate;
use com_datagen::profiles::{synthetic, SyntheticParams};
use com_geo::Point;
use com_pricing::WorkerHistory;
use com_serve::{
    client_frame_from_content, decode_payload, drive, encode, encode_frame, hello_msg, pump,
    read_frame, read_line, serve, server_frame_from_content, write_msg, ByeMsg, Client,
    ClientFrame, ClientMsg, CounterRow, DecodeError, DeepStatsMsg, DriveOptions, ErrorMsg, Frame,
    GaugeRow, Hello, PhaseRow, ServerConfig, ServerMsg, ShardRow, StatsMsg, WireFormat, WireMsg,
    WorkerMsg, FRAME_MAGIC, MAX_FRAME_PAYLOAD,
};
use com_sim::{
    ArrivalEvent, Assignment, Instance, MatchKind, PlatformId, RequestId, RequestSpec, Timestamp,
    WorkerId, WorkerSpec, WorldConfig,
};
use proptest::prelude::*;
use serde::{Content, Serialize};

const FRAME_HEADER_LEN: usize = 5;

fn quick_instance() -> Instance {
    generate(&synthetic(SyntheticParams {
        n_requests: 200,
        n_workers: 60,
        ..SyntheticParams::default()
    }))
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
fn assert_frame_round_trip<T: WireMsg + std::fmt::Debug>(msg: &T) {
    let frame = encode_frame(msg);
    assert_eq!(frame[0], FRAME_MAGIC);
    let declared = u32::from_le_bytes(frame[1..FRAME_HEADER_LEN].try_into().unwrap()) as usize;
    assert_eq!(declared, frame.len() - FRAME_HEADER_LEN);
    let back = read_frame::<T>(&frame[FRAME_HEADER_LEN..])
        .0
        .expect("decode")
        .msg;
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
        general_frames: 4,
        general_lines: 3,
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
            lends_parked: 3,
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
        // A cold message: the one writer writes `Content`'s bytes, and both
        // readers take them back through `Content`.
        for sid in [None, Some(5)] {
            assert_eq!(typed_frame(sid, &msg), content_frame(sid, &msg));
            assert_eq!(typed_line(sid, &msg), content_line(sid, &msg));
            assert!(!read_server(&typed_frame(sid, &msg)[FRAME_HEADER_LEN..]));
            assert!(!read_server_line(unterminated(&typed_line(sid, &msg))));
        }
    }
}

/// A served session ends with a receipt, not a second copy of its run: a
/// `quick` and a `full_scale` session's `bye`, bare and enveloped, in both
/// framings, is under 1 KiB whatever the session's length, carries
/// `"canonical":null`, and names the batch run's digest.
#[test]
fn the_bye_is_a_small_receipt() {
    let handle = serve(ServerConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    for config in [
        com_datagen::profiles::quick(),
        com_datagen::profiles::full_scale(),
    ] {
        let instance = generate(&config);
        let mut matcher = MatcherSpec::parse("tota").unwrap().build();
        let batch = try_run_online(&instance, matcher.as_mut(), 42);
        for frame in [WireFormat::Binary, WireFormat::Ndjson] {
            for sessions in [1, 2] {
                let options = DriveOptions {
                    matcher: "tota".into(),
                    seed: 42,
                    sessions,
                    frame,
                    window: 64,
                    ..DriveOptions::default()
                };
                let report = drive(&addr, &instance, &options).expect("drive");
                for s in &report.sessions {
                    // A cold message: the bytes the daemon wrote for it.
                    let mut wire = Vec::new();
                    write_msg(frame, s.sid, &ServerMsg::bye(s.bye.clone()), &mut wire);
                    let label = format!("{} events, {frame}, sid {:?}", report.events, s.sid);
                    assert!(wire.len() < 1024, "{label}: {} B", wire.len());
                    assert_eq!(s.bye.canonical, serde_json::Value::null(), "{label}");
                }
                let bye = &report.sessions[0].bye;
                assert_eq!(bye.disagreements(&batch), Vec::<String>::new());
            }
        }
    }
    assert_eq!(handle.counters().protocol_errors(), 0);
    handle.shutdown();
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
    assert!(
        read_frame::<ClientMsg>(&encode_frame(&ServerMsg::busy)[FRAME_HEADER_LEN..])
            .0
            .is_err()
    );
}

/// Every hot message `instance` puts on the wire, both directions, bare
/// and enveloped: the client stream (each event bare, then under sid
/// `7919·i`) and the server stream (each `ramcom` seed-42 decision with
/// `decision_nanos` zeroed as `assign`/`reject`, then `ok`, bare and then
/// under sid 300).
type Addressed<M> = Vec<(Option<u64>, M)>;

fn hot_messages(instance: &Instance) -> (Addressed<ClientMsg>, Addressed<ServerMsg>) {
    let mut client = Vec::new();
    for (i, event) in instance.stream.iter().enumerate() {
        let msg = com_serve::event_msg(instance, event);
        client.push((None, msg.clone()));
        client.push((Some(7919 * i as u64), msg));
    }
    let mut matcher = com_core::MatcherSpec::parse("ramcom").unwrap().build();
    let run = try_run_online(instance, matcher.as_mut(), 42);
    let mut server = Vec::new();
    for assignment in &run.assignments {
        let assignment = Assignment {
            decision_nanos: 0,
            ..assignment.clone()
        };
        let response = match assignment.kind {
            MatchKind::Rejected => ServerMsg::reject(assignment),
            _ => ServerMsg::assign(assignment),
        };
        for sid in [None, Some(300)] {
            server.push((sid, response.clone()));
            server.push((sid, ServerMsg::ok));
        }
    }
    (client, server)
}

/// `msg` for `sid` through the `Content` tree, as [`encode_frame`] writes
/// any [`Frame`].
fn content_frame<M: WireMsg + Clone>(sid: Option<u64>, msg: &M) -> Vec<u8> {
    encode_frame(&Frame {
        sid,
        msg: msg.clone(),
    })
}

/// `msg` for `sid` through the writer every peer uses.
fn typed_frame<M: WireMsg>(sid: Option<u64>, msg: &M) -> Vec<u8> {
    let mut out = Vec::new();
    write_msg(WireFormat::Binary, sid, msg, &mut out);
    out
}

/// One wire stream: its frame count, byte count and `fnv1a64` digest.
#[derive(Debug, PartialEq)]
struct Stream(usize, usize, String);

fn stream<M>(messages: &Addressed<M>, write: impl Fn(Option<u64>, &M) -> Vec<u8>) -> Stream {
    let bytes: Vec<u8> = messages
        .iter()
        .flat_map(|(sid, msg)| write(*sid, msg))
        .collect();
    Stream(
        messages.len(),
        bytes.len(),
        format!("{:016x}", com_core::fnv1a64(&bytes)),
    )
}

/// `msg` for `sid` as an NDJSON line through the `Content` tree, as
/// [`encode`] writes any [`Frame`], newline included.
fn content_line<M: WireMsg + Clone>(sid: Option<u64>, msg: &M) -> Vec<u8> {
    let mut line = encode(&Frame {
        sid,
        msg: msg.clone(),
    })
    .into_bytes();
    line.push(b'\n');
    line
}

/// `msg` for `sid` as an NDJSON line through the writer every peer uses.
fn typed_line<M: WireMsg>(sid: Option<u64>, msg: &M) -> Vec<u8> {
    let mut out = Vec::new();
    write_msg(WireFormat::Ndjson, sid, msg, &mut out);
    out
}

/// A written NDJSON line's text, newline stripped.
fn unterminated(line: &[u8]) -> &str {
    std::str::from_utf8(&line[..line.len() - 1]).expect("JSON is UTF-8")
}

/// One way to write a message for a sid.
type Writer<M> = fn(Option<u64>, &M) -> Vec<u8>;

/// Both directions' hot streams of `quick` and `chengdu_oct` in one
/// framing, each written through `Content` and through the typed writer:
/// all four must hash to the pinned (client, server) streams.
fn assert_pinned(
    pins: [(Stream, Stream); 2],
    writers: [(&str, Writer<ClientMsg>, Writer<ServerMsg>); 2],
) {
    let configs = [
        ("quick", com_datagen::profiles::quick()),
        ("chengdu_oct", com_datagen::profiles::chengdu_oct()),
    ];
    for ((name, config), (client, server)) in configs.into_iter().zip(pins) {
        let (to_server, to_client) = hot_messages(&generate(&config));
        for (how, write_client, write_server) in writers {
            assert_eq!(stream(&to_server, write_client), client, "{name}: {how}");
            assert_eq!(stream(&to_client, write_server), server, "{name}: {how}");
        }
    }
}

#[test]
fn hot_message_wire_bytes_are_pinned() {
    assert_pinned(
        [
            (
                Stream(1_040, 277_193, "bac2b9e58d413ea9".into()),
                Stream(1_600, 232_364, "5b2542dc2167d6cf".into()),
            ),
            (
                Stream(39_620, 6_737_991, "e3d457b8ca1fb289".into()),
                Stream(72_764, 10_588_704, "d559ac438714ba87".into()),
            ),
        ],
        [
            ("Content", content_frame, content_frame),
            ("typed", typed_frame, typed_frame),
        ],
    );
}

#[test]
fn hot_message_ndjson_bytes_are_pinned() {
    assert_pinned(
        [
            (
                Stream(1_040, 232_397, "e02cf452211e8e27".into()),
                Stream(1_600, 272_900, "25b72f1deb3ba9d3".into()),
            ),
            (
                Stream(39_620, 6_963_630, "fdf9a2d433979933".into()),
                Stream(72_764, 12_606_978, "8e6a2b59a0a83a09".into()),
            ),
        ],
        [
            ("Content", content_line, content_line),
            ("typed", typed_line, typed_line),
        ],
    );
}

/// Whether `frame`'s message is hot: its written bytes read typed.
fn is_hot<M: WireMsg>(frame: &Frame<M>) -> bool {
    !read_frame::<M>(&typed_frame(frame.sid, &frame.msg)[FRAME_HEADER_LEN..]).1
}

/// Read one frame through the shared reader and through `Content` alone,
/// the way every binary frame was read before the hot layouts: both must
/// give the same `Result` — the same error, text included, or frames that
/// write back to the same bytes, so even a NaN's bits count — except that
/// a hot message `Content` reads off the typed path is refused as a bad
/// frame. Returns whether the typed path read it.
fn read_both<M: WireMsg + std::fmt::Debug>(
    payload: &[u8],
    from_content: fn(&Content) -> Result<Frame<M>, DecodeError>,
) -> bool {
    let general = decode_payload(payload)
        .map_err(|e| DecodeError::BadFrame(e.to_string()))
        .and_then(|c| from_content(&c));
    let (shared, was_general) = read_frame::<M>(payload);
    match (&shared, &general) {
        (Ok(a), Ok(b)) => {
            assert!(!was_general || !is_hot(a), "{a:?} read through Content");
            assert_eq!(
                typed_frame(a.sid, &a.msg),
                typed_frame(b.sid, &b.msg),
                "{a:?} != {b:?}"
            )
        }
        (Err(DecodeError::BadFrame(_)), Ok(b)) if was_general && is_hot(b) => {}
        _ => assert_eq!(shared.err(), general.err(), "payload {payload:02x?}"),
    }
    !was_general
}

fn read_client(payload: &[u8]) -> bool {
    read_both::<ClientMsg>(payload, client_frame_from_content)
}

fn read_server(payload: &[u8]) -> bool {
    read_both::<ServerMsg>(payload, server_frame_from_content)
}

/// [`read_both`] for one NDJSON line: `read_line` and `Content` alone give
/// the same `Result` — the same error, text included, or frames with the
/// same `Debug` form. Returns whether the typed path read it.
fn read_line_both<M: WireMsg + std::fmt::Debug>(
    line: &str,
    from_content: fn(&Content) -> Result<Frame<M>, DecodeError>,
) -> bool {
    let general = serde_json::parse_content(line)
        .map_err(|e| DecodeError::BadJson(e.to_string()))
        .and_then(|c| from_content(&c));
    let (shared, was_general) = read_line::<M>(line);
    match (&shared, &general) {
        (Ok(a), Ok(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "line {line}"),
        _ => assert_eq!(shared.err(), general.err(), "line {line}"),
    }
    !was_general
}

fn read_client_line(line: &str) -> bool {
    read_line_both::<ClientMsg>(line, client_frame_from_content)
}

fn read_server_line(line: &str) -> bool {
    read_line_both::<ServerMsg>(line, server_frame_from_content)
}

/// One property case's inputs: special values often, arbitrary bits
/// otherwise.
struct Draws(Vec<u64>);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0.pop().unwrap_or(7)
    }

    fn u64(&mut self) -> u64 {
        match self.next() {
            d if d % 3 == 0 => u64::MAX, // a 10-byte varint
            d if d % 3 == 1 => d >> 54,
            d => d,
        }
    }

    fn f64(&mut self) -> f64 {
        const SPECIAL: [f64; 7] = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2.5,
        ];
        match self.next() {
            d if d % 2 == 0 => SPECIAL[(d / 2 % 7) as usize],
            d => f64::from_bits(d),
        }
    }

    fn bool(&mut self) -> bool {
        self.next().is_multiple_of(2)
    }

    fn sid(&mut self) -> Option<u64> {
        self.bool().then(|| self.u64())
    }

    fn timestamp(&mut self) -> Timestamp {
        // Any float, NaN included, as a decoder would build it.
        serde::Deserialize::from_content(&Content::F64(self.f64())).unwrap()
    }

    fn point(&mut self) -> Point {
        Point::new(self.f64(), self.f64())
    }

    fn request(&mut self) -> RequestSpec {
        RequestSpec {
            id: RequestId(self.u64()),
            platform: PlatformId(self.next() as u16),
            arrival: self.timestamp(),
            location: self.point(),
            value: self.f64(),
        }
    }

    fn worker(&mut self) -> WorkerSpec {
        WorkerSpec {
            id: WorkerId(self.u64()),
            platform: PlatformId(self.next() as u16),
            arrival: self.timestamp(),
            location: self.point(),
            radius: self.f64(),
        }
    }

    /// Empty, or a few values from a small lattice: duplicates, zeros and
    /// (before sorting) any order.
    fn history(&mut self) -> Option<WorkerHistory> {
        let len = (self.next() % 6) as usize;
        self.bool().then(|| {
            WorkerHistory::from_values((0..len).map(|_| (self.next() % 4) as f64).collect())
        })
    }

    fn client(&mut self) -> ClientMsg {
        if self.bool() {
            ClientMsg::request(self.request())
        } else {
            ClientMsg::worker(WorkerMsg {
                spec: self.worker(),
                history: self.history(),
            })
        }
    }

    fn server(&mut self) -> ServerMsg {
        let assignment = Assignment {
            request: self.request(),
            kind: [MatchKind::Inner, MatchKind::Outer, MatchKind::Rejected]
                [(self.next() % 3) as usize],
            worker: self.bool().then(|| WorkerId(self.u64())),
            worker_platform: self.bool().then(|| PlatformId(self.next() as u16)),
            outer_payment: self.f64(),
            was_cooperative_offer: self.bool(),
            travel_km: self.f64(),
            decided_at: self.timestamp(),
            decision_nanos: self.u64(),
        };
        match self.next() % 3 {
            0 => ServerMsg::ok,
            1 => ServerMsg::assign(assignment),
            _ => ServerMsg::reject(assignment),
        }
    }

    /// A `worker` message as a hostile peer might write it: any history
    /// values in any order, NaN and negatives included. Also returns
    /// whether the history is one `WorkerHistory` accepts.
    fn raw_worker(&mut self) -> (Content, bool) {
        let len = (self.next() % 6) as usize;
        let lattice = self.bool();
        let values: Vec<f64> = (0..len)
            .map(|_| {
                if lattice {
                    (self.next() % 4) as f64
                } else {
                    self.f64()
                }
            })
            .collect();
        let valid = values.iter().all(|v| v.is_finite() && *v >= 0.0);
        let history = map([(
            "values",
            Content::Seq(values.into_iter().map(Content::F64).collect()),
        )]);
        let worker = map([("spec", self.worker().to_content()), ("history", history)]);
        (map([("worker", worker)]), valid)
    }

    /// A `request` message whose platform is any `u64`. Also returns
    /// whether it fits the `u16` a `PlatformId` is.
    fn raw_request(&mut self) -> (Content, bool) {
        let platform = self.u64();
        let Content::Map(mut fields) = self.request().to_content() else {
            unreachable!("a request is a map");
        };
        fields[1].1 = Content::U64(platform);
        let request = map([("request", Content::Map(fields))]);
        (request, platform <= u64::from(u16::MAX))
    }
}

fn map<const N: usize>(entries: [(&str, Content); N]) -> Content {
    Content::Map(
        entries
            .into_iter()
            .map(|(k, v)| (Content::Str(k.into()), v))
            .collect(),
    )
}

/// A value tree on the wire as it stands: any map order, any value.
struct Raw(Content);

impl Serialize for Raw {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

fn payload(content: Content) -> Vec<u8> {
    encode_frame(&Raw(content))[FRAME_HEADER_LEN..].to_vec()
}

/// `msg` for `sid` both ways: the typed writer's bytes are the `Content`
/// writer's, the shared reader reads them through the typed path and back
/// to the same bytes, and one trailing byte sends them through `Content`
/// and its error instead.
fn hot_round_trip<M: WireMsg + Clone + std::fmt::Debug>(
    sid: Option<u64>,
    msg: &M,
    read: fn(&[u8]) -> bool,
) {
    let frame = typed_frame(sid, msg);
    assert_eq!(frame, content_frame(sid, msg));
    let payload = &frame[FRAME_HEADER_LEN..];
    assert!(read(payload), "{msg:?} missed the typed path");
    let back = read_frame::<M>(payload).0.expect("a hot frame decodes");
    assert_eq!(typed_frame(back.sid, &back.msg), frame);
    let mut padded = payload.to_vec();
    padded.push(0x00);
    assert!(!read(&padded), "{msg:?} read with a trailing byte");
}

proptest! {
    /// The typed codec agrees with `Content` on arbitrary hot messages,
    /// bit for bit; hostile histories and out-of-range platforms fall
    /// through to `Content` and its errors.
    #[test]
    fn typed_codec_agrees_with_content(draws in proptest::collection::vec(0u64..u64::MAX, 512)) {
        let mut d = Draws(draws);
        for _ in 0..4 {
            hot_round_trip(d.sid(), &d.client(), read_client);
            hot_round_trip(d.sid(), &d.server(), read_server);
            let (raw, valid) = d.raw_worker();
            prop_assert_eq!(read_client(&payload(raw)), valid);
            let (raw, fits) = d.raw_request();
            prop_assert_eq!(read_client(&payload(raw)), fits);
        }
    }

    /// The same for NDJSON: typed lines are `encode`'s, `read_line` reads
    /// exactly what `Content` reads, and hostile histories and platforms
    /// fall through to `Content` and its errors — as does any non-finite
    /// float, which JSON writes as `null` and no hot float reads.
    #[test]
    fn typed_ndjson_codec_agrees_with_content(draws in proptest::collection::vec(0u64..u64::MAX, 512)) {
        let mut d = Draws(draws);
        for _ in 0..4 {
            hot_line_round_trip(d.sid(), &d.client(), read_client_line);
            hot_line_round_trip(d.sid(), &d.server(), read_server_line);
            let (raw, valid) = d.raw_worker();
            let text = line(raw);
            prop_assert_eq!(read_client_line(&text), valid && !text.contains("null"));
            let (raw, fits) = d.raw_request();
            let text = line(raw);
            prop_assert_eq!(read_client_line(&text), fits && !text.contains("null"));
        }
    }
}

/// A value tree as one JSON line, newline stripped.
fn line(content: Content) -> String {
    encode(&Raw(content))
}

/// [`hot_round_trip`] for NDJSON: the typed line is `encode`'s; whenever
/// `Content` reads it at all, it reads through the typed path back to the
/// same line; a trailing space, which `Content` skips, sends it through
/// `Content` instead.
fn hot_line_round_trip<M: WireMsg + Clone + std::fmt::Debug>(
    sid: Option<u64>,
    msg: &M,
    read: fn(&str) -> bool,
) {
    let written = typed_line(sid, msg);
    assert_eq!(written, content_line(sid, msg));
    let text = unterminated(&written);
    let typed = read(text);
    if let Ok(back) = read_line::<M>(text).0 {
        assert!(typed, "{msg:?} missed the typed path");
        assert_eq!(typed_line(back.sid, &back.msg), written);
    }
    assert!(
        !read(&format!("{text} ")),
        "{msg:?} read with a trailing space"
    );
}

/// Every truncation and every single-byte flip of every hot frame of
/// `quick` either reads through the typed layout or is refused with a
/// typed error, and never panics: none reads as a message through
/// `Content`, which would be a hot message off its layout — refused — or
/// a cold one no cut or flip of a hot frame makes. The counts pin the
/// payloads, cuts and flips swept.
#[test]
fn hostile_hot_frames_read_typed_or_are_refused() {
    /// Count each variant of `payload` by whether `read_frame` took it
    /// through `Content`.
    fn sweep<M: WireMsg>(payload: &[u8], counts: &mut [usize; 2]) {
        let mut read = |variant: &[u8]| {
            let (decoded, general) = read_frame::<M>(variant);
            assert!(
                !general || decoded.is_err(),
                "{variant:02x?} read off the typed path"
            );
            counts[usize::from(general)] += 1;
        };
        for cut in 0..payload.len() {
            read(&payload[..cut]);
        }
        let mut flipped = payload.to_vec();
        for i in 0..flipped.len() {
            flipped[i] ^= 0xFF;
            read(&flipped);
            flipped[i] ^= 0xFF;
        }
    }
    /// Each distinct payload once: `ok` alone is 800 of the frames.
    fn payloads<M: WireMsg>(messages: &Addressed<M>) -> BTreeSet<Vec<u8>> {
        messages
            .iter()
            .map(|(sid, msg)| typed_frame(*sid, msg)[FRAME_HEADER_LEN..].to_vec())
            .collect()
    }
    let (to_server, to_client) = hot_messages(&generate(&com_datagen::profiles::quick()));
    let (to_server, to_client) = (payloads(&to_server), payloads(&to_client));
    assert_eq!((to_server.len(), to_client.len()), (1_040, 802));
    let mut counts = [0; 2];
    for payload in to_server {
        sweep::<ClientMsg>(&payload, &mut counts);
    }
    for payload in to_client {
        sweep::<ServerMsg>(&payload, &mut counts);
    }
    assert_eq!(counts, [195_428, 778_932], "[typed, through Content]");
}

/// Every truncation of the first hot lines of `quick` of each shape, and
/// every substitution of one of their bytes by a character that means
/// something to JSON, reads through `read_line` exactly as through
/// `Content` alone, and never panics. Lines of one shape differ only in
/// their digits and in how many values a history holds; every line of
/// `quick` would be 8M variants, minutes in a debug build.
#[test]
fn hostile_hot_lines_read_exactly_as_content_does() {
    fn text(bytes: &[u8]) -> &str {
        std::str::from_utf8(bytes).expect("hot lines are ASCII")
    }
    fn sweep(line: &[u8], read: fn(&str) -> bool) {
        for cut in 0..line.len() {
            read(text(&line[..cut]));
        }
        let mut variant = line.to_vec();
        for i in 0..line.len() {
            for &b in b"\",:{}[] 09-+.en" {
                if b != line[i] {
                    variant[i] = b;
                    read(text(&variant));
                }
            }
            variant[i] = line[i];
        }
    }
    /// The first four lines of each shape: digit runs read as `1`, a run
    /// of floats as one.
    fn lines<M: WireMsg>(messages: &Addressed<M>) -> Vec<Vec<u8>> {
        let mut by_shape = BTreeMap::<String, Vec<Vec<u8>>>::new();
        for (sid, msg) in messages {
            let mut line = typed_line(*sid, msg);
            line.pop();
            let mut shape = String::new();
            for c in text(&line).chars() {
                if !c.is_ascii_digit() {
                    shape.push(c);
                } else if !shape.ends_with('1') {
                    shape.push('1');
                }
            }
            while shape.contains("1.1,1.1") {
                shape = shape.replace("1.1,1.1", "1.1");
            }
            let same = by_shape.entry(shape).or_default();
            if same.len() < 4 && !same.contains(&line) {
                same.push(line);
            }
        }
        by_shape.into_values().flatten().collect()
    }
    let (to_server, to_client) = hot_messages(&generate(&com_datagen::profiles::quick()));
    for line in lines(&to_server) {
        sweep(&line, read_client_line);
    }
    for line in lines(&to_client) {
        sweep(&line, read_server_line);
    }
}

/// Hot messages written any other way than the typed writer's fall
/// through to `Content` and read exactly as they always did: the same
/// message where `Content` reads one, the same error where it does not.
#[test]
fn non_canonical_hot_lines_fall_through_to_content() {
    let request = line(ClientMsg::request(request_spec()).to_content());
    assert_eq!(
        request,
        "{\"request\":{\"id\":7,\"platform\":0,\"arrival\":3.25,\
         \"location\":{\"x\":1.5,\"y\":-2.75},\"value\":12.5}}"
    );
    assert!(read_client_line(&request));
    let same = |variant: &str| {
        assert!(!read_client_line(variant), "{variant} took the typed path");
        let read = |l: &str| format!("{:?}", read_line::<ClientMsg>(l).0);
        assert_eq!(read(variant), read(&request), "{variant}");
    };
    let refused = |variant: &str, why: &str| {
        assert!(!read_client_line(variant), "{variant} took the typed path");
        match read_line::<ClientMsg>(variant).0 {
            Err(DecodeError::UnknownMessage(detail)) => assert!(detail.contains(why), "{detail}"),
            other => panic!("{variant}: {other:?}"),
        }
    };
    same(
        &request
            .replace(",\"value\":12.5", "")
            .replace("{\"id\"", "{\"value\":12.5,\"id\""),
    );
    same(&request.replace("\"value\"", "\"valu\\u0065\""));
    same(&request.replace("\"id\":7", "\"id\": 7"));
    same(&request.replace("\"value\":12.5", "\"value\":12.5,\"extra\":1"));
    let three = request.replace("\"id\":7", "\"id\":3.0");
    assert!(!read_client_line(&three));
    let Ok(ClientFrame {
        msg: ClientMsg::request(spec),
        ..
    }) = read_line(&three).0
    else {
        panic!("an integral float id decodes");
    };
    assert_eq!(spec.id, RequestId(3));
    refused(
        &request.replace("\"id\":7", "\"id\":-1"),
        "-1 out of range for u64",
    );
    refused(
        &request.replace("\"platform\":0", "\"platform\":70000"),
        "70000 out of range for u16",
    );
    let worker = line(
        ClientMsg::worker(WorkerMsg {
            spec: worker_spec(),
            history: Some(WorkerHistory::from_values(vec![1.0])),
        })
        .to_content(),
    );
    assert!(read_client_line(&worker));
    refused(
        &worker.replace("[1.0]", "[1.0,-1.0]"),
        "history values must be finite and non-negative",
    );
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
    let mut matcher = registry.build("ramcom").unwrap();
    let batch = try_run_online(&instance, matcher.as_mut(), 13);
    assert_eq!(ndjson_bye.digest, canonical_run_digest(&batch));
    assert_eq!(binary_bye.digest, canonical_run_digest(&batch));
    assert_eq!(ndjson_bye.revenue, batch.total_revenue());
    assert_eq!(binary_bye.revenue, batch.total_revenue());

    assert_eq!(handle.counters().protocol_errors(), 0);
    handle.shutdown();
}

/// What the daemon decoded through `Content` so far on this connection, in
/// `frame`'s framing.
fn general_count(deep: &DeepStatsMsg, frame: WireFormat) -> u64 {
    match frame {
        WireFormat::Binary => deep.general_frames,
        WireFormat::Ndjson => deep.general_lines,
    }
}

/// A `quick` ramcom run (seed 13) in `frame` at `window` through
/// [`drive`]: what the daemon read through `Content` on its connection by
/// the time the run's `stats_deep` was answered.
fn cold_messages_counted(addr: &str, instance: &Instance, frame: WireFormat, window: usize) -> u64 {
    let report = drive(
        addr,
        instance,
        &DriveOptions {
            matcher: "ramcom".into(),
            seed: 13,
            frame,
            window,
            ..DriveOptions::default()
        },
    )
    .expect("replay");
    general_count(&report.deep_stats.expect("stats_deep"), frame)
}

/// `msg`, a one-entry map around a map, with that inner map's last entry
/// sent first.
fn reordered<M: Serialize>(msg: &M) -> Content {
    let Content::Map(mut outer) = msg.to_content() else {
        unreachable!("a hot variant is a one-entry map");
    };
    let Content::Map(fields) = &mut outer[0].1 else {
        unreachable!("its body is a map");
    };
    fields.rotate_right(1);
    Content::Map(outer)
}

/// `content` in the mux envelope for `sid`, or bare.
fn addressed(sid: Option<u64>, content: Content) -> Content {
    match sid {
        None => content,
        Some(sid) => map([("sid", Content::U64(sid)), ("msg", content)]),
    }
}

/// Binary, pipelined: the `stats_deep` that reads the counter is the one
/// cold frame of a run (`hello` is always NDJSON). Midway through two
/// sessions on one connection, one bare and one under a sid, the next
/// `request` sent with `value` first, to each, is refused as `bad-frame`
/// and counted in `general_frames` and the protocol errors; both sessions
/// then serve the rest of the stream to the batch run's digest.
#[test]
fn general_frames_count_what_the_typed_path_did_not_read() {
    let handle = serve(ServerConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let instance = generate(&com_datagen::profiles::quick());
    assert_eq!(
        cold_messages_counted(&addr, &instance, WireFormat::Binary, 64),
        1
    );

    let mut client = Client::connect(&addr).expect("connect");
    let sids = [None, Some(5)];
    for sid in sids {
        let hello = hello_msg(&instance, "ramcom", 13, WireFormat::Binary);
        client.open(sid, hello).expect("hello");
    }
    let events = instance.stream.iter().as_slice();
    let (head, tail) = events.split_at(events.len() / 2);
    pump(&mut client, &sids, &instance, head, 64, |_| {}).expect("first half");
    let next = tail
        .iter()
        .find_map(|event| match event {
            ArrivalEvent::Request(spec) => Some(*spec),
            ArrivalEvent::Worker(_) => None,
        })
        .expect("a request in the second half");
    let request = reordered(&ClientMsg::request(next));
    assert!(matches!(&request, Content::Map(m) if matches!(&m[0].1,
        Content::Map(fields) if matches!(&fields[0].0, Content::Str(k) if k == "value"))));
    for sid in sids {
        let frame = encode_frame(&Raw(addressed(sid, request.clone())));
        client.send_bytes(&frame).expect("send");
        expect_error(&mut client, "bad-frame");
    }
    pump(&mut client, &sids, &instance, tail, 64, |_| {}).expect("second half");

    let mut matcher = MatcherSpec::parse("ramcom").unwrap().build();
    let batch = canonical_run_digest(&try_run_online(&instance, matcher.as_mut(), 13));
    let mut deep = Vec::new();
    // The bare session last: its `shutdown` ends the connection.
    for sid in sids.into_iter().rev() {
        let (stats, bye) = client.close(sid).expect("close");
        assert_eq!(bye.digest, batch, "session {sid:?}");
        deep.extend(stats.map(|d| d.general_frames));
    }
    // The two refusals and the first close's `stats_deep` (the second
    // `hello` is an NDJSON line, like every `hello`); then that close's
    // `shutdown` and the second close's `stats_deep`.
    assert_eq!(deep, [3, 5]);
    assert_eq!(handle.counters().protocol_errors(), 2);
    handle.shutdown();
}

/// NDJSON, lockstep: `hello` and the `stats_deep` that reads the counter
/// are the cold lines of a run. The same request twice, on two
/// connections, once canonical and once with `value` sent first, is
/// answered alike; only the second misses the typed path.
#[test]
fn general_lines_count_what_the_typed_path_did_not_read() {
    let handle = serve(ServerConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let instance = generate(&com_datagen::profiles::quick());
    let cold = cold_messages_counted(&addr, &instance, WireFormat::Ndjson, 1);
    assert_eq!(cold, 2);

    let worker = WorkerMsg {
        spec: worker_spec(),
        history: None,
    };
    let request = RequestSpec {
        platform: PlatformId(1),
        location: Point::new(9.0, 4.5),
        ..request_spec()
    };
    let mut answers = Vec::new();
    for hand_built in [false, true] {
        let mut client = open_session(&addr, Some("ndjson"));
        let ack = client
            .rpc(&ClientMsg::worker(worker.clone()))
            .expect("worker");
        assert!(matches!(ack, ServerMsg::ok));
        let response = if hand_built {
            let reordered = line(reordered(&ClientMsg::request(request)));
            assert!(reordered.starts_with("{\"request\":{\"value\""));
            client.send_raw(&reordered).expect("send");
            client.recv().expect("response")
        } else {
            client.rpc(&ClientMsg::request(request)).expect("request")
        };
        let ServerMsg::assign(assignment) = response else {
            panic!("expected assign, got {response:?}");
        };
        let assignment = Assignment {
            decision_nanos: 0,
            ..assignment
        };
        let ServerMsg::stats_deep(deep) = client.rpc(&ClientMsg::stats_deep).expect("stats_deep")
        else {
            panic!("expected stats_deep");
        };
        answers.push((encode(&assignment), deep.general_lines));
        client.rpc(&ClientMsg::shutdown).expect("shutdown");
    }
    assert_eq!(answers[0].0, answers[1].0);
    assert_eq!((answers[0].1, answers[1].1), (cold, cold + 1));
    handle.shutdown();
}

/// The client holds the server to the same rule: an `assign` frame with
/// `decision_nanos` sent first is `InvalidData`, while the same value as
/// an NDJSON line reads.
#[test]
fn client_refuses_a_hot_frame_off_its_layout() {
    use std::io::{ErrorKind, Write};

    let assign = reordered(&ServerMsg::assign(assignment(MatchKind::Outer)));
    let frame = encode_frame(&Raw(assign.clone()));
    let line = format!("{}\n", line(assign)).into_bytes();
    for (wire, refused) in [(frame, true), (line, false)] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("address").to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            stream.write_all(&wire).expect("write");
        });
        let mut client = Client::connect(&addr).expect("connect");
        match client.recv() {
            Err(e) if refused => assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}"),
            Ok(ServerMsg::assign(_)) if !refused => {}
            other => panic!("refused {refused}: {other:?}"),
        }
        server.join().expect("listener thread");
    }
}
