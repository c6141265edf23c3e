//! The matchd wire protocol: newline-delimited JSON, with an optional
//! binary framing (see [`crate::framing`]) negotiated in `hello`.
//!
//! In the default framing every message is one JSON value on one line
//! (`\n`-terminated). The client opens a session with `hello` and then
//! streams arrival events in time order; the server answers every client
//! message with exactly one response, in order:
//!
//! | client                                | server                                  |
//! |---------------------------------------|-----------------------------------------|
//! | `{"hello": {...}}`                    | `{"welcome": {...}}` or `{"error": ..}` |
//! | `{"worker": {...}}`                   | `"ok"` or `{"error": ...}`              |
//! | `{"request": {...}}`                  | `{"assign"|"reject"|"timeout": ...}`    |
//! | `{"tick": {"to": secs}}`              | `"ok"` or `{"error": ...}`              |
//! | `"stats"`                             | `{"stats": {...}}`                      |
//! | `"stats_deep"`                        | `{"stats_deep": {...}}`                 |
//! | `"shutdown"`                          | `{"bye": {...}}`, then close            |
//!
//! **Flow control is the transport's.** Every message the server reads is
//! answered, in order; none is ever dropped. When the addressed shard's
//! bounded ingress queue is full the server stops *reading* the
//! connection until there is room, so overload shows up as latency and,
//! once the socket buffers fill, as the client's own `write` blocking. A
//! client that pipelines must therefore keep reading responses while it
//! writes; how far ahead it may run is bounded by socket buffering, not by
//! any server queue size. (`"busy"` is a retired response that current
//! servers never send; it stays decodable.) Closing the connection
//! without `shutdown` still finishes and audits every open session
//! server-side; the `bye`s are simply unreceivable.
//!
//! ## Session multiplexing
//!
//! A bare message addresses the connection's single *bare* session — the
//! one-session addressing, what a client with one session speaks. A
//! message wrapped in the **mux envelope** `{"sid": N, "msg": <message>}`
//! addresses logical session `N` instead, and its response comes back in
//! the same envelope, so one connection can interleave hundreds of
//! concurrent sessions: each `{"sid":N,"msg":{"hello":…}}` opens an
//! independent session (routed to a shard by deterministic placement, see
//! [`crate::shard`]), responses stay strictly ordered *per sid*, and
//! `shutdown` closes one logical session without touching the connection
//! or its other sessions. Mux-specific error codes: `unknown-sid` (no
//! open session with that sid) and `duplicate-hello` (the sid is live).
//!
//! `timeout` is the engine-refused outcome: the matcher's decision
//! breached a COM constraint (worker busy/out of range/bad payment), so
//! the platform lets the request time out unserved. The request is logged
//! as rejected — exactly `try_run_online`'s lenient semantics.
//!
//! ## Codec
//!
//! Every line is the compact JSON `serde_json` renders from a message's
//! `Content` tree. The five messages every event crosses (`request`,
//! `worker`, `ok`, `assign`, `reject`, bare or enveloped) skip the tree:
//! their layouts are written once, in [`crate::hot`], and serve both
//! framings — this module supplies the JSON text primitives they are
//! written with. [`write_msg`] writes those bytes directly and
//! [`read_line`] reads exactly that text (no whitespace, the derive's key
//! order, no escapes in keys, nothing trailing); any other line decodes
//! through `Content`, to exactly the result it always had.

use std::io::Write as _;

use serde::content::Content;
use serde::{Deserialize, Serialize};

use com_core::RunResult;
use com_pricing::WorkerHistory;
use com_sim::{Assignment, RequestSpec, WorkerSpec, WorldConfig};

use crate::framing::{write_frame_for, WireFormat};
use crate::hot::{self, HotRead, HotWrite, WireMsg};

/// Session opener: which matcher to run, the RNG seed, and the world the
/// session plays out in. `max_value` is the stream's expected largest
/// request value (RamCOM's threshold grid assumes `max v_r`); omit it and
/// the session assumes 1.0, exactly like a batch run over an instance
/// with no requests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hello {
    /// Matcher spec string, e.g. `"demcom"` or `"route-aware:2.5"`
    /// (parsed by `com_core::MatcherSpec::parse`).
    pub matcher: String,
    pub seed: u64,
    pub world: WorldConfig,
    /// Platform roster; platform ids in events index into this list.
    pub platforms: Vec<String>,
    #[serde(default)]
    pub max_value: Option<f64>,
    /// Requested wire framing: `"binary"` asks for length-prefixed binary
    /// frames after the (always-NDJSON) `welcome`; absent or `"ndjson"`
    /// stays on NDJSON. Servers that predate framing ignore this field,
    /// and the missing echo in `welcome` downgrades the client safely.
    #[serde(default)]
    pub frame: Option<String>,
    /// Session anchor point. Accepted and ignored: sessions are placed
    /// by stable hash of their session key.
    #[serde(default)]
    pub origin: Option<com_geo::Point>,
    /// Federated mode (`fedd`): this session is one platform's half of a
    /// cross-daemon run. Absent (the default) the session owns every
    /// platform and outsourcing decisions apply in-process, exactly the
    /// pre-federation behaviour.
    #[serde(default)]
    pub fed: Option<FedHello>,
}

/// Federation half of `hello`: which platform this daemon *owns* and how
/// to reach the rival daemon when an outsourcing decision must become a
/// wire offer. Both daemons replay the full event stream (deterministic
/// replica); only decisions on owned requests negotiate over the link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FedHello {
    /// The platform this daemon owns (index into `platforms`).
    pub platform: u16,
    /// Cross-daemon session binding: offers between the paired sessions
    /// carry this id, and the lender routes inbound offers to the session
    /// that registered it. Unique per daemon: a `hello` naming a
    /// `fed_sid` that already has a live session is a `duplicate-hello`.
    pub fed_sid: u64,
    /// The rival daemon's `host:port` for the outgoing peer link. Absent
    /// means lend-only: this session answers inbound offers but degrades
    /// its own outer decisions to cooperative rejects.
    #[serde(default)]
    pub peer: Option<String>,
    /// Per-offer deadline in milliseconds. An offer unanswered past this
    /// deadline times out borrower-side (and is refused lender-side as
    /// `expired` if it arrives late). Absent uses the server default.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
}

/// A worker arrival, optionally carrying the worker's acceptance history
/// (drives outer-payment pricing, Definition 3.1). No history means an
/// empty one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerMsg {
    pub spec: WorkerSpec,
    #[serde(default)]
    pub history: Option<WorkerHistory>,
}

/// One inter-daemon outsourcing offer (Definition 2.4 over the wire):
/// the borrowing daemon's matcher decided `Outer { worker, payment }` for
/// an owned request and asks the lender — the daemon owning `worker` — to
/// confirm the lend before the assignment is applied. The lender answers
/// exactly once with `outsource_accept` or `outsource_reject` carrying
/// the same `(fed_sid, offer)` pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OfferMsg {
    /// The borrower's federation session binding (see [`FedHello`]).
    pub fed_sid: u64,
    /// Offer sequence number, unique per peer link; the reply routing
    /// key. Retries of the same offer reuse the number (idempotent).
    pub offer: u64,
    /// The request being outsourced, verbatim.
    pub request: RequestSpec,
    /// The rival worker the borrower wants, and the platform it believes
    /// that worker belongs to.
    pub worker: com_sim::WorkerId,
    pub worker_platform: com_sim::PlatformId,
    /// The outsourcing payment `v'` ∈ `(0, v_r]` (Definition 2.4).
    pub payment: f64,
    /// Borrower-side deadline for this offer, milliseconds from send. A
    /// reply after the deadline is stale; the borrower has already
    /// degraded the decision to a cooperative reject.
    pub deadline_ms: u64,
}

/// Client → server messages. Lowercase variant names are the wire tags
/// (externally tagged: `{"worker": {...}}`; unit variants are bare
/// strings: `"stats"`).
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ClientMsg {
    hello(Hello),
    worker(WorkerMsg),
    request(RequestSpec),
    tick {
        to: f64,
    },
    stats,
    /// Deep telemetry: the [`StatsMsg`] counters plus the session's full
    /// `RunTelemetry` phase table and serving-path counters/gauges.
    stats_deep,
    /// Inter-daemon outsourcing offer (peer link only): the rival daemon
    /// asks this daemon to confirm lending one of its workers. Answered
    /// with `outsource_accept`/`outsource_reject`, never `ok`.
    outsource_offer(OfferMsg),
    shutdown,
}

/// A structured protocol error. `code` is machine-matchable:
/// `bad-json`, `bad-frame`, `bad-envelope`, `unknown-message`,
/// `no-session`, `unknown-sid`, `duplicate-hello`, `bad-hello`,
/// `unknown-matcher`, `constraint`, `oversized-line`, `oversized-frame`,
/// and the federation rejection codes carried by `outsource_reject`
/// (`not-my-worker`, `bad-payment`, `expired`, `desync`,
/// `unknown-fed-session`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorMsg {
    pub code: String,
    pub detail: String,
}

/// Live session counters (`stats` response).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsMsg {
    /// Stream events ingested by this session.
    pub events: u64,
    pub assigned: u64,
    pub rejected: u64,
    /// Engine-refused decisions (`timeout` responses).
    pub refused: u64,
    /// Always 0: the server never drops a message (field kept for wire
    /// compatibility).
    pub dropped: u64,
    /// Current simulation time, seconds.
    pub now_secs: f64,
}

/// One row of the deep-stats latency table: the summary of one
/// instrumented phase, all durations in nanoseconds. Serving-path phases
/// are `decode`/`ingest`/`encode`/`flush`; the engine's own
/// `decision`/`candidate-search`/`pricing`/`offer` phases appear in the
/// same table because the matcher runs inside `ingest`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseRow {
    pub phase: String,
    pub count: u64,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
    /// Saturated to `u64::MAX` (JSON has no u128); that is ~584 years of
    /// busy time, so saturation is theoretical.
    pub total_ns: u64,
}

impl From<&com_obs::PhaseStats> for PhaseRow {
    fn from(p: &com_obs::PhaseStats) -> Self {
        PhaseRow {
            phase: p.phase.clone(),
            count: p.count,
            mean_ns: p.mean_ns,
            p50_ns: p.p50_ns,
            p90_ns: p.p90_ns,
            p99_ns: p.p99_ns,
            max_ns: p.max_ns,
            total_ns: u64::try_from(p.total_ns).unwrap_or(u64::MAX),
        }
    }
}

/// A named monotonic counter from the telemetry snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterRow {
    pub name: String,
    pub value: u64,
}

/// A named gauge: last set value and run high-water mark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaugeRow {
    pub name: String,
    pub last: f64,
    pub max: f64,
}

/// One row of the per-shard health table carried by `stats_deep`: the
/// serving load one shard executor has seen over its life. Queue numbers
/// are the shard's bounded ingress channel, not any single connection.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardRow {
    /// Shard index, `0..shards`.
    pub shard: u64,
    /// Logical sessions the shard owns right now.
    pub sessions: u64,
    /// Logical sessions ever placed on the shard.
    pub sessions_total: u64,
    /// Messages routed into the shard's ingress channel.
    pub events_routed: u64,
    /// Messages sitting in the shard's ingress channel right now.
    pub queue_depth: u64,
    /// Deepest the shard's ingress channel has been.
    pub queue_high_water: u64,
    /// Always 0 (field kept for wire compatibility).
    pub busy_dropped: u64,
}

/// Deep telemetry snapshot (`stats_deep` response): the plain [`StatsMsg`]
/// counters plus the live session's full phase/counter/gauge tables and
/// the ingress-queue health of this connection.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeepStatsMsg {
    pub stats: StatsMsg,
    pub algorithm: String,
    pub phases: Vec<PhaseRow>,
    pub counters: Vec<CounterRow>,
    pub gauges: Vec<GaugeRow>,
    /// Lines sitting in this connection's ingress queue right now.
    pub queue_depth: u64,
    /// Deepest the ingress queue has been over the connection's life.
    pub queue_high_water: u64,
    /// Always 0, like `stats.dropped` (field kept for wire
    /// compatibility).
    pub busy_dropped: u64,
    /// Oversized lines/frames this connection rejected with a typed
    /// error (`oversized-line` / `oversized-frame`). `#[serde(default)]`
    /// so reports from pre-framing servers still parse.
    #[serde(default)]
    pub oversized_rejected: u64,
    /// Malformed mux envelopes this connection rejected with the typed
    /// `bad-envelope` error: a top-level `sid` that is not a non-negative
    /// integer, or an envelope with `sid` but no `msg`. `#[serde(default)]`
    /// so reports from pre-federation servers still parse.
    #[serde(default)]
    pub bad_envelope_rejected: u64,
    /// Binary frames this connection decoded through the general `Content`
    /// path instead of a typed hot layout (see [`crate::framing`]): cold
    /// messages, malformed frames, and hot messages a peer encoded in any
    /// non-canonical way. A well-behaved binary client sends only a
    /// handful. `#[serde(default)]` so reports from older servers still
    /// parse.
    #[serde(default)]
    pub general_frames: u64,
    /// NDJSON lines this connection decoded through the general `Content`
    /// path instead of a typed hot layout (see [`read_line`]): `hello` and
    /// the other cold messages, malformed lines, and hot messages a peer
    /// wrote in any other way. `#[serde(default)]` so reports from older
    /// servers still parse.
    #[serde(default)]
    pub general_lines: u64,
    /// Federation link health for this session, present only in `fedd`
    /// mode (the session carries a [`FedHello`]).
    #[serde(default)]
    pub federation: Option<FedStatsMsg>,
    /// The shard executor that owns the queried session. Absent in
    /// reports from pre-shard servers.
    #[serde(default)]
    pub shard: Option<u64>,
    /// Server-wide per-shard health table, one [`ShardRow`] per shard in
    /// shard-index order. Empty in reports from pre-shard servers.
    #[serde(default)]
    pub shards: Vec<ShardRow>,
}

impl DeepStatsMsg {
    /// Fill the telemetry tables from a collector snapshot.
    pub fn set_telemetry(&mut self, t: &com_obs::RunTelemetry) {
        self.algorithm = t.algorithm.clone();
        self.phases = t.phases.iter().map(PhaseRow::from).collect();
        self.counters = t
            .counters
            .iter()
            .map(|c| CounterRow {
                name: c.name.clone(),
                value: c.value,
            })
            .collect();
        self.gauges = t
            .gauges
            .iter()
            .map(|g| GaugeRow {
                name: g.name.clone(),
                last: g.last,
                max: g.max,
            })
            .collect();
    }

    pub fn phase(&self, name: &str) -> Option<&PhaseRow> {
        self.phases.iter().find(|p| p.phase == name)
    }
}

/// Federation link health (`stats_deep.federation`): one session's view
/// of both sides of the outsourcing protocol — offers it sent as the
/// borrower and offers it answered as the lender.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FedStatsMsg {
    /// The platform this session owns.
    pub platform: u16,
    /// Outgoing offers sent over the peer link (retries not recounted).
    pub offers_sent: u64,
    pub offers_accepted: u64,
    /// Offers the peer rejected with a typed code.
    pub offers_rejected: u64,
    /// Offers that hit the local deadline with no usable reply.
    pub offers_timed_out: u64,
    /// Offers re-sent once after a link hiccup (idempotent retry).
    pub offers_retried: u64,
    /// Replies that arrived after their offer's deadline and were
    /// dropped (the decision had already degraded).
    pub stale_replies: u64,
    /// Inbound offers received from the peer (lender side).
    pub offers_received: u64,
    /// Inbound offers confirmed (`outsource_accept`).
    pub lends_granted: u64,
    /// Inbound offers refused (`outsource_reject`), any code.
    pub lends_rejected: u64,
}

/// Federation half of `bye` (`fedd` mode only): this daemon's
/// per-platform view of the finished run — the canonical projection of
/// *owned* requests, its digest, and the platform's books. `matchfed`
/// verifies each half against the same projection of a local
/// single-process replay, byte for byte.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FedByeMsg {
    /// The platform this session owned.
    pub platform: u16,
    /// `canonical_run_json` of the owned-requests projection.
    pub canonical: serde_json::Value,
    /// `canonical_run_digest` over `canonical`.
    pub digest: String,
    /// This platform's revenue books over the full replica log: revenue
    /// on owned requests plus outsourcing payments earned by lending.
    pub ledger: com_sim::PlatformLedger,
    /// Offers degraded to cooperative rejects because the peer refused,
    /// timed out, or was unreachable: `stats_deep.federation`'s
    /// `offers_rejected + offers_timed_out`. Zero for a byte-identical run.
    pub degraded_offers: u64,
}

/// Final session report (`bye` response): the run summary, every audit
/// finding `com_core::validate_run` produced on the reconstructed
/// instance, and the deterministic `canonical_run_json` projection so a
/// client can verify the served run against a local batch replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ByeMsg {
    pub algorithm: String,
    pub revenue: f64,
    pub completed: u64,
    pub cooperative: u64,
    pub events: u64,
    pub refused: u64,
    pub audit_findings: Vec<String>,
    pub canonical: serde_json::Value,
    /// `com_core::canonical_run_digest` over `canonical`: a
    /// compact fingerprint matching the trace `finish` line, so a client
    /// can check run identity without re-serializing the projection.
    /// `#[serde(default)]` (empty) when talking to a pre-shard server.
    #[serde(default)]
    pub digest: String,
    /// Federation half of the report, present only in `fedd` mode.
    #[serde(default)]
    pub fed: Option<FedByeMsg>,
}

/// Where a served canonical run and its digest differ from the local
/// batch run they must equal. Text is compared as `Value`'s `Display`,
/// the byte form the digest is defined over.
fn run_diff(canonical: &serde_json::Value, digest: &str, batch: &RunResult) -> Vec<String> {
    let local = com_core::canonical_run_json(batch);
    let local_digest = com_core::canonical_digest(&local);
    let mut found = Vec::new();
    if canonical.to_string() != local.to_string() {
        found.push("canonical run differs from the local batch run".to_string());
    }
    if digest != local_digest {
        found.push(format!("digest {digest} != local {local_digest}"));
    }
    found
}

impl FedByeMsg {
    /// [`ByeMsg::disagreements`] for the owned-platform half, against
    /// `com_core::project_platform_run` of the batch run.
    pub fn disagreements(&self, projection: &RunResult) -> Vec<String> {
        run_diff(&self.canonical, &self.digest, projection)
    }
}

impl ByeMsg {
    /// "The served run is the batch run", checked in one place: every way
    /// this report disagrees with `batch` (the same instance, matcher and
    /// seed through `com_core::try_run_online`) — canonical text, digest,
    /// a non-silent server-side audit. Empty means byte-identical.
    pub fn disagreements(&self, batch: &RunResult) -> Vec<String> {
        let mut found = run_diff(&self.canonical, &self.digest, batch);
        if !self.audit_findings.is_empty() {
            found.push(format!("server-side audit found {:?}", self.audit_findings));
        }
        found
    }
}

/// Server → client messages.
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServerMsg {
    welcome {
        algorithm: String,
        /// Echo of the framing the server accepted (`"ndjson"` or
        /// `"binary"`). Missing (old server) means NDJSON; a client must
        /// only switch to binary after seeing `"binary"` echoed here.
        frame: Option<String>,
    },
    /// Generic acknowledgement for `worker` and `tick`.
    ok,
    /// The request was served (inner or outer assignment).
    assign(Assignment),
    /// The matcher itself rejected the request.
    reject(Assignment),
    /// The engine refused the matcher's decision; the request timed out
    /// unserved (logged as rejected).
    timeout {
        assignment: Assignment,
        violation: String,
    },
    /// Retired and never sent: a full queue stops the connection's
    /// reader instead of dropping. Kept decodable for peers built against
    /// the frozen wire schema.
    busy,
    error(ErrorMsg),
    stats(StatsMsg),
    /// Boxed: the phase tables make this variant much larger than the
    /// rest of the enum.
    stats_deep(Box<DeepStatsMsg>),
    /// The lender confirms the offer: the borrower may apply the outer
    /// assignment exactly as decided.
    outsource_accept {
        fed_sid: u64,
        offer: u64,
    },
    /// The lender refuses the offer. `code` is one of the typed
    /// federation rejection codes (`not-my-worker`, `bad-payment`,
    /// `expired`, `desync`, `unknown-fed-session`); the borrower degrades
    /// the decision to a cooperative reject.
    outsource_reject {
        fed_sid: u64,
        offer: u64,
        code: String,
        detail: String,
    },
    bye(ByeMsg),
}

/// Why an incoming message failed to decode: not JSON at all, not a
/// well-formed binary frame, or a valid value that is not a known
/// message.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    BadJson(String),
    /// Binary framing only: the payload bytes do not decode to a value.
    BadFrame(String),
    /// A mux envelope that is structurally broken: a top-level `sid`
    /// that is not a non-negative integer, or `sid` without `msg`. Typed
    /// separately from [`DecodeError::UnknownMessage`] so servers can
    /// answer with the `bad-envelope` error code and count it.
    BadEnvelope(String),
    UnknownMessage(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadJson(d) => write!(f, "bad json: {d}"),
            DecodeError::BadFrame(d) => write!(f, "bad frame: {d}"),
            DecodeError::BadEnvelope(d) => write!(f, "bad envelope: {d}"),
            DecodeError::UnknownMessage(d) => write!(f, "unknown message: {d}"),
        }
    }
}

/// Serialize any protocol message to its one-line wire form (no trailing
/// newline — the transport adds it).
pub fn encode<T: Serialize>(msg: &T) -> String {
    serde_json::to_string(msg).expect("protocol messages always serialize")
}

/// Append `msg`, addressed to `sid` (`None` = bare), to `out` in `format`:
/// an NDJSON line or one binary frame, hot messages written straight from
/// their structs (see [`crate::hot`]), cold ones through [`encode`] or its
/// binary twin. Every writer in the crate (client, server, peer link) goes
/// through here.
pub fn write_msg<M: WireMsg>(format: WireFormat, sid: Option<u64>, msg: &M, out: &mut Vec<u8>) {
    match format {
        WireFormat::Ndjson => {
            hot::put_frame(&mut TextOut(out), sid, msg);
            out.push(b'\n');
        }
        WireFormat::Binary => write_frame_for(sid, msg, out),
    }
}

/// NDJSON's [`HotWrite`]: compact JSON text, byte for byte as `serde_json`
/// renders the `Content` tree.
struct TextOut<'o>(&'o mut Vec<u8>);

impl HotWrite for TextOut<'_> {
    fn open(&mut self, _len: usize) {
        self.0.push(b'{');
    }

    fn close(&mut self) {
        self.0.push(b'}');
    }

    fn key(&mut self, key: &str) {
        // A key follows its map's `{` or the previous entry's value.
        if self.0.last() != Some(&b'{') {
            self.0.push(b',');
        }
        self.str(key);
        self.0.push(b':');
    }

    fn str(&mut self, s: &str) {
        self.0.push(b'"');
        self.0.extend_from_slice(s.as_bytes());
        self.0.push(b'"');
    }

    fn u64(&mut self, v: u64) {
        write!(self.0, "{v}").expect("writing to a Vec never fails");
    }

    fn f64(&mut self, v: f64) {
        // serde_json's float: shortest round trip, non-finite as `null`.
        if v.is_finite() {
            write!(self.0, "{v:?}").expect("writing to a Vec never fails");
        } else {
            self.null();
        }
    }

    fn bool(&mut self, v: bool) {
        self.0
            .extend_from_slice(if v { b"true".as_slice() } else { b"false" });
    }

    fn null(&mut self) {
        self.0.extend_from_slice(b"null");
    }

    fn f64s(&mut self, values: &[f64]) {
        self.0.push(b'[');
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                self.0.push(b',');
            }
            self.f64(v);
        }
        self.0.push(b']');
    }

    fn value<T: Serialize>(&mut self, value: &T) {
        self.0.extend_from_slice(encode(value).as_bytes());
    }
}

/// NDJSON's [`HotRead`] over one line: exactly the text [`TextOut`]
/// writes, numbers scanned and classified by `serde_json`'s own reader.
#[derive(Clone)]
struct TextIn<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> TextIn<'a> {
    fn eat(&mut self, literal: &[u8]) -> Option<()> {
        self.bytes[self.pos..].starts_with(literal).then(|| {
            self.pos += literal.len();
        })
    }

    /// A string's raw bytes, up to the next quote. Escapes are never
    /// undone, so a string with one matches no identifier a layout expects
    /// and the line falls through to `Content`.
    fn string(&mut self) -> Option<&'a [u8]> {
        self.eat(b"\"")?;
        let rest = &self.bytes[self.pos..];
        let s = &rest[..rest.iter().position(|&b| b == b'"')?];
        self.pos += s.len() + 1;
        Some(s)
    }

    fn number(&mut self) -> Option<Content> {
        let (value, len) = serde_json::scan_number(&self.bytes[self.pos..]);
        self.pos += len;
        value
    }
}

impl HotRead for TextIn<'_> {
    fn open(&mut self, _len: usize) -> Option<()> {
        self.eat(b"{")
    }

    fn close(&mut self) -> Option<()> {
        self.eat(b"}")
    }

    fn next_key(&mut self) -> Option<&[u8]> {
        if self.bytes[..self.pos].last() != Some(&b'{') {
            self.eat(b",")?;
        }
        let key = self.string()?;
        self.eat(b":")?;
        Some(key)
    }

    fn str(&mut self) -> Option<&[u8]> {
        self.string()
    }

    fn u64(&mut self) -> Option<u64> {
        match self.number()? {
            Content::U64(v) => Some(v),
            _ => None,
        }
    }

    fn f64(&mut self) -> Option<f64> {
        f64::from_content(&self.number()?).ok()
    }

    fn bool(&mut self) -> Option<bool> {
        if self.eat(b"true").is_some() {
            return Some(true);
        }
        self.eat(b"false").map(|()| false)
    }

    fn null(&mut self) -> bool {
        self.eat(b"null").is_some()
    }

    fn f64s(&mut self) -> Option<Vec<f64>> {
        self.eat(b"[")?;
        let mut values = Vec::new();
        if self.eat(b"]").is_some() {
            return Some(values);
        }
        loop {
            values.push(self.f64()?);
            if self.eat(b"]").is_some() {
                return Some(values);
            }
            self.eat(b",")?;
        }
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Parse one line to its value tree. Decoding is two-stage so the error
/// distinguishes unparseable bytes from a well-formed JSON value that is
/// not a protocol message.
fn parse_line(line: &str) -> Result<Content, DecodeError> {
    serde_json::parse_content(line).map_err(|e| DecodeError::BadJson(e.to_string()))
}

fn decode<T: serde::de::Deserialize>(line: &str) -> Result<T, DecodeError> {
    T::from_content(&parse_line(line)?).map_err(|e| DecodeError::UnknownMessage(e.to_string()))
}

/// Parse one client line.
pub fn decode_client(line: &str) -> Result<ClientMsg, DecodeError> {
    decode(line)
}

/// Parse one server line.
pub fn decode_server(line: &str) -> Result<ServerMsg, DecodeError> {
    decode(line)
}

/// A message with its mux address: `sid: None` is a bare message,
/// `sid: Some(n)` the envelope `{"sid":n,"msg":<message>}`.
///
/// The envelope is hand-rolled (not derived) because it *flattens away*
/// when `sid` is absent — a bare frame serializes as the inner message
/// itself, so one-session peers round-trip unchanged. Discrimination on
/// decode is unambiguous: protocol messages are externally tagged
/// single-key objects (or bare strings) and no tag is named `sid`, so a
/// top-level `"sid"` key can only be the envelope.
#[derive(Debug, Clone)]
pub struct Frame<M> {
    pub sid: Option<u64>,
    pub msg: M,
}

/// A client message with its mux address.
pub type ClientFrame = Frame<ClientMsg>;

/// A server message with its mux address.
pub type ServerFrame = Frame<ServerMsg>;

impl<M: Serialize> Serialize for Frame<M> {
    fn to_content(&self) -> Content {
        match self.sid {
            None => self.msg.to_content(),
            Some(sid) => Content::Map(vec![
                (Content::Str("sid".to_string()), Content::U64(sid)),
                (Content::Str("msg".to_string()), self.msg.to_content()),
            ]),
        }
    }
}

/// Split a decoded value into its mux address and inner message content.
/// Returns `Err` when the value has a `sid` but it is not a non-negative
/// integer, or the envelope is missing `msg`.
fn split_envelope(value: &Content) -> Result<(Option<u64>, &Content), String> {
    let Content::Map(map) = value else {
        return Ok((None, value));
    };
    let Some(sid) = Content::find(map, "sid") else {
        return Ok((None, value));
    };
    let Content::U64(sid) = sid else {
        return Err(format!(
            "mux envelope sid must be a non-negative integer, got {sid:?}"
        ));
    };
    let Some(msg) = Content::find(map, "msg") else {
        return Err("mux envelope has sid but no msg".to_string());
    };
    Ok((Some(*sid), msg))
}

impl<M: Deserialize> Deserialize for Frame<M> {
    fn from_content(c: &Content) -> Result<Self, serde::de::Error> {
        let (sid, msg) = split_envelope(c).map_err(serde::de::Error::custom)?;
        Ok(Frame {
            sid,
            msg: M::from_content(msg)?,
        })
    }
}

/// The one body behind [`client_frame_from_content`],
/// [`server_frame_from_content`] and both readers' `Content` paths.
pub(crate) fn frame_from_content<M: Deserialize>(
    content: &Content,
) -> Result<Frame<M>, DecodeError> {
    let (sid, msg) = split_envelope(content).map_err(DecodeError::BadEnvelope)?;
    let msg = M::from_content(msg).map_err(|e| DecodeError::UnknownMessage(e.to_string()))?;
    Ok(Frame { sid, msg })
}

/// Split an already-decoded value tree into a typed client frame.
/// Envelope failures (`sid` present but malformed, or `sid` without
/// `msg`) are [`DecodeError::BadEnvelope`]; a well-formed envelope (or
/// bare value) whose message is not a protocol message is
/// [`DecodeError::UnknownMessage`]. This is the general path the binary
/// reader ([`crate::framing::read_frame`]) takes for any payload that is
/// not a canonical hot layout.
pub fn client_frame_from_content(content: &Content) -> Result<ClientFrame, DecodeError> {
    frame_from_content(content)
}

/// Split an already-decoded value tree into a typed server frame (see
/// [`client_frame_from_content`]).
pub fn server_frame_from_content(content: &Content) -> Result<ServerFrame, DecodeError> {
    frame_from_content(content)
}

/// Decode one NDJSON line (trimmed, newline stripped) into a typed frame
/// — the one NDJSON reader, on both sides of the wire, the twin of
/// [`crate::framing::read_frame`]. A hot layout is read straight into its
/// struct; every other line decodes through `Content`, which the second
/// value reports, with exactly the result it always had:
/// [`DecodeError::BadJson`] for text that is no JSON,
/// [`DecodeError::BadEnvelope`] / [`DecodeError::UnknownMessage`] for a
/// value that is no frame.
pub fn read_line<M: WireMsg>(line: &str) -> (Result<Frame<M>, DecodeError>, bool) {
    let text = TextIn {
        bytes: line.as_bytes(),
        pos: 0,
    };
    match hot::take_frame(text) {
        Some(frame) => (Ok(frame), false),
        None => (parse_line(line).and_then(|c| frame_from_content(&c)), true),
    }
}

/// Parse one client line, mux envelope or bare ([`read_line`]).
pub fn decode_client_frame(line: &str) -> Result<ClientFrame, DecodeError> {
    read_line(line).0
}

/// Parse one server line, mux envelope or bare ([`read_line`]).
pub fn decode_server_frame(line: &str) -> Result<ServerFrame, DecodeError> {
    read_line(line).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_geo::Point;
    use com_sim::{PlatformId, RequestId, Timestamp};

    #[test]
    fn client_messages_round_trip() {
        let request = RequestSpec::new(
            RequestId(7),
            PlatformId(0),
            Timestamp::from_secs(12.5),
            Point::new(1.0, 2.0),
            9.5,
        );
        let msgs = vec![
            ClientMsg::request(request),
            ClientMsg::tick { to: 99.25 },
            ClientMsg::stats,
            ClientMsg::shutdown,
        ];
        for msg in msgs {
            let line = encode(&msg);
            assert!(!line.contains('\n'), "wire form must be one line: {line}");
            let back = decode_client(&line).unwrap();
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn unit_variants_are_bare_strings() {
        assert_eq!(encode(&ClientMsg::stats), "\"stats\"");
        assert_eq!(encode(&ServerMsg::busy), "\"busy\"");
        assert_eq!(encode(&ServerMsg::ok), "\"ok\"");
    }

    #[test]
    fn decode_distinguishes_bad_json_from_unknown_message() {
        assert!(matches!(
            decode_client("{not json"),
            Err(DecodeError::BadJson(_))
        ));
        assert!(matches!(
            decode_client("{\"frobnicate\": 1}"),
            Err(DecodeError::UnknownMessage(_))
        ));
        assert!(matches!(
            decode_client("42"),
            Err(DecodeError::UnknownMessage(_))
        ));
    }

    #[test]
    fn hello_round_trips_with_world_config() {
        let hello = ClientMsg::hello(Hello {
            matcher: "demcom".into(),
            seed: 7,
            world: WorldConfig::city(10.0),
            platforms: vec!["A".into(), "B".into()],
            max_value: Some(30.0),
            frame: None,
            origin: None,
            fed: None,
        });
        let back = decode_client(&encode(&hello)).unwrap();
        let ClientMsg::hello(h) = back else {
            panic!("wrong variant")
        };
        assert_eq!(h.matcher, "demcom");
        assert_eq!(h.world, WorldConfig::city(10.0));
        assert_eq!(h.max_value, Some(30.0));
        assert!(h.fed.is_none());
    }

    #[test]
    fn fed_hello_round_trips_and_defaults_off() {
        let hello = ClientMsg::hello(Hello {
            matcher: "demcom".into(),
            seed: 7,
            world: WorldConfig::city(10.0),
            platforms: vec!["A".into(), "B".into()],
            max_value: None,
            frame: Some("binary".into()),
            origin: None,
            fed: Some(FedHello {
                platform: 1,
                fed_sid: 42,
                peer: Some("127.0.0.1:9001".into()),
                deadline_ms: Some(250),
            }),
        });
        let back = decode_client(&encode(&hello)).unwrap();
        let ClientMsg::hello(h) = back else {
            panic!("wrong variant")
        };
        let fed = h.fed.expect("fed half");
        assert_eq!(fed.platform, 1);
        assert_eq!(fed.fed_sid, 42);
        assert_eq!(fed.peer.as_deref(), Some("127.0.0.1:9001"));
        assert_eq!(fed.deadline_ms, Some(250));
        // A pre-federation hello (no `fed` key at all) still parses.
        let modern = encode(&ClientMsg::hello(Hello {
            matcher: "demcom".into(),
            seed: 1,
            world: WorldConfig::city(10.0),
            platforms: vec!["A".into()],
            max_value: None,
            frame: None,
            origin: None,
            fed: None,
        }));
        let legacy = modern.replace(",\"fed\":null", "");
        assert_ne!(legacy, modern, "fed key should have been stripped");
        let back = decode_client(&legacy);
        if let Ok(ClientMsg::hello(h)) = back {
            assert!(h.fed.is_none());
        } else {
            panic!("legacy hello failed: {back:?}");
        }
    }

    #[test]
    fn outsource_messages_round_trip() {
        let request = RequestSpec::new(
            RequestId(9),
            PlatformId(0),
            Timestamp::from_secs(3.0),
            Point::new(2.0, 1.0),
            8.0,
        );
        let offer = ClientMsg::outsource_offer(OfferMsg {
            fed_sid: 7,
            offer: 12,
            request,
            worker: com_sim::WorkerId(5),
            worker_platform: PlatformId(1),
            payment: 3.5,
            deadline_ms: 200,
        });
        let back = decode_client(&encode(&offer)).unwrap();
        let ClientMsg::outsource_offer(o) = back else {
            panic!("wrong variant")
        };
        assert_eq!(o.fed_sid, 7);
        assert_eq!(o.offer, 12);
        assert_eq!(o.worker, com_sim::WorkerId(5));
        assert_eq!(o.worker_platform, PlatformId(1));
        assert!((o.payment - 3.5).abs() < 1e-12);
        assert_eq!(o.deadline_ms, 200);

        let accept = ServerMsg::outsource_accept {
            fed_sid: 7,
            offer: 12,
        };
        let back = decode_server(&encode(&accept)).unwrap();
        assert!(matches!(
            back,
            ServerMsg::outsource_accept {
                fed_sid: 7,
                offer: 12
            }
        ));

        let reject = ServerMsg::outsource_reject {
            fed_sid: 7,
            offer: 12,
            code: "not-my-worker".into(),
            detail: "worker 5 is not idle on platform B".into(),
        };
        let back = decode_server(&encode(&reject)).unwrap();
        let ServerMsg::outsource_reject { code, detail, .. } = back else {
            panic!("wrong variant")
        };
        assert_eq!(code, "not-my-worker");
        assert!(detail.contains("worker 5"));
    }

    #[test]
    fn fed_bye_and_stats_round_trip() {
        let fed = FedByeMsg {
            platform: 0,
            canonical: serde_json::Value::null(),
            digest: "fnv1a64:00000000deadbeef".into(),
            ledger: com_sim::PlatformLedger {
                revenue: 10.5,
                outsource_earned: 2.0,
                workers_lent: 1,
                ..Default::default()
            },
            degraded_offers: 0,
        };
        let bye = ByeMsg {
            algorithm: "DemCOM".into(),
            revenue: 10.5,
            completed: 3,
            cooperative: 1,
            events: 8,
            refused: 0,
            audit_findings: vec![],
            canonical: serde_json::Value::null(),
            digest: "fnv1a64:00000000deadbeef".into(),
            fed: Some(fed),
        };
        let back = decode_server(&encode(&ServerMsg::bye(bye))).unwrap();
        let ServerMsg::bye(b) = back else {
            panic!("wrong variant")
        };
        let fed = b.fed.expect("fed half");
        assert_eq!(fed.platform, 0);
        assert!((fed.ledger.outsource_earned - 2.0).abs() < 1e-12);
        assert_eq!(fed.ledger.workers_lent, 1);

        let stats = FedStatsMsg {
            platform: 1,
            offers_sent: 4,
            offers_accepted: 3,
            offers_timed_out: 1,
            ..Default::default()
        };
        let line = serde_json::to_string(&stats).unwrap();
        let back: FedStatsMsg = serde_json::from_str(&line).unwrap();
        assert_eq!(back.offers_sent, 4);
        assert_eq!(back.offers_timed_out, 1);
    }

    #[test]
    fn disagreements_name_exactly_the_tampered_part() {
        let instance = com_datagen::generate(&com_datagen::profiles::quick());
        let mut matcher = com_core::MatcherSpec::parse("tota").unwrap().build();
        let batch = com_core::try_run_online(&instance, matcher.as_mut(), 3);
        let canonical = com_core::canonical_run_json(&batch);
        let own = ByeMsg {
            algorithm: batch.algorithm.clone(),
            revenue: batch.total_revenue(),
            completed: batch.completed() as u64,
            cooperative: 0,
            events: instance.stream.len() as u64,
            refused: 0,
            audit_findings: vec![],
            digest: com_core::canonical_digest(&canonical),
            canonical,
            fed: None,
        };
        // As a client holds it: parsed off the wire, not built locally.
        let ServerMsg::bye(own) = decode_server(&encode(&ServerMsg::bye(own))).unwrap() else {
            panic!("wrong variant")
        };
        assert_eq!(own.disagreements(&batch), Vec::<String>::new());

        let text = own.canonical.to_string();
        let flipped = text.replacen("\"completed\":", "\"completed\":1", 1);
        assert_ne!(flipped, text, "fixture has a completed cell");
        let tampered = ByeMsg {
            canonical: serde_json::from_str(&flipped).unwrap(),
            ..own.clone()
        };
        let found = tampered.disagreements(&batch);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("canonical run differs"), "{found:?}");

        let tampered = ByeMsg {
            digest: "fnv1a64:00000000deadbeef".into(),
            ..own.clone()
        };
        let found = tampered.disagreements(&batch);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("digest fnv1a64:00000000deadbeef != local"));

        let tampered = ByeMsg {
            audit_findings: vec!["worker 3 double-booked".into()],
            ..own.clone()
        };
        let found = tampered.disagreements(&batch);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("worker 3 double-booked"), "{found:?}");

        // The federated half goes through the same comparison.
        let half = FedByeMsg {
            platform: 0,
            canonical: own.canonical.clone(),
            digest: "fnv1a64:00000000deadbeef".into(),
            ledger: Default::default(),
            degraded_offers: 0,
        };
        assert_eq!(half.disagreements(&batch).len(), 1);
    }

    #[test]
    fn deep_stats_round_trips_with_telemetry_tables() {
        let mut hist = com_obs::Histogram::new();
        for ns in [800u64, 1_200, 50_000] {
            hist.record(ns);
        }
        let telemetry = com_obs::RunTelemetry {
            algorithm: "DemCOM".into(),
            phases: vec![com_obs::PhaseStats::from_histogram("ingest", hist)],
            counters: vec![com_obs::CounterStat {
                name: "serve.requests".into(),
                value: 3,
            }],
            gauges: vec![com_obs::GaugeStat {
                name: "ingress.queue_depth".into(),
                last: 1.0,
                max: 7.0,
            }],
        };
        let mut deep = DeepStatsMsg {
            stats: StatsMsg {
                events: 5,
                assigned: 2,
                rejected: 1,
                refused: 0,
                dropped: 0,
                now_secs: 9.5,
            },
            algorithm: String::new(),
            phases: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            queue_depth: 1,
            queue_high_water: 7,
            busy_dropped: 0,
            oversized_rejected: 0,
            bad_envelope_rejected: 0,
            general_frames: 0,
            general_lines: 0,
            shard: Some(2),
            shards: vec![ShardRow {
                shard: 0,
                sessions: 3,
                sessions_total: 5,
                events_routed: 100,
                queue_depth: 0,
                queue_high_water: 4,
                busy_dropped: 1,
            }],
            federation: None,
        };
        deep.set_telemetry(&telemetry);
        assert_eq!(deep.algorithm, "DemCOM");
        let line = encode(&ServerMsg::stats_deep(Box::new(deep)));
        let back = decode_server(&line).unwrap();
        let ServerMsg::stats_deep(d) = back else {
            panic!("wrong variant: {line}");
        };
        let ingest = d.phase("ingest").expect("ingest row");
        assert_eq!(ingest.count, 3);
        assert_eq!(ingest.max_ns, 50_000);
        assert_eq!(d.counters[0].value, 3);
        assert_eq!(d.gauges[0].max, 7.0);
        assert_eq!(d.queue_high_water, 7);
        assert_eq!(d.shard, Some(2));
        assert_eq!(d.shards.len(), 1);
        assert_eq!(d.shards[0].queue_high_water, 4);
        assert_eq!(encode(&ClientMsg::stats_deep), "\"stats_deep\"");
    }

    #[test]
    fn bare_frames_serialize_as_the_inner_message() {
        let frame = ClientFrame {
            sid: None,
            msg: ClientMsg::stats,
        };
        assert_eq!(encode(&frame), encode(&ClientMsg::stats));
        let back = decode_client_frame("\"stats\"").unwrap();
        assert_eq!(back.sid, None);
        assert!(matches!(back.msg, ClientMsg::stats));
        // A bare map message decodes as a bare frame too.
        let back = decode_client_frame("{\"tick\":{\"to\":4.5}}").unwrap();
        assert_eq!(back.sid, None);
        assert!(matches!(back.msg, ClientMsg::tick { .. }));
    }

    #[test]
    fn mux_frames_round_trip_with_sid() {
        let frame = ClientFrame {
            sid: Some(17),
            msg: ClientMsg::tick { to: 2.5 },
        };
        let line = encode(&frame);
        assert_eq!(line, "{\"sid\":17,\"msg\":{\"tick\":{\"to\":2.5}}}");
        let back = decode_client_frame(&line).unwrap();
        assert_eq!(back.sid, Some(17));
        assert!(matches!(back.msg, ClientMsg::tick { to } if to == 2.5));

        let reply = ServerFrame {
            sid: Some(17),
            msg: ServerMsg::ok,
        };
        let line = encode(&reply);
        assert_eq!(line, "{\"sid\":17,\"msg\":\"ok\"}");
        let back = decode_server_frame(&line).unwrap();
        assert_eq!(back.sid, Some(17));
        assert!(matches!(back.msg, ServerMsg::ok));
    }

    #[test]
    fn malformed_envelopes_are_typed_errors() {
        // sid without msg: structurally broken envelope.
        assert!(matches!(
            decode_client_frame("{\"sid\":3}"),
            Err(DecodeError::BadEnvelope(_))
        ));
        // non-integer sid: structurally broken envelope.
        assert!(matches!(
            decode_client_frame("{\"sid\":\"x\",\"msg\":\"stats\"}"),
            Err(DecodeError::BadEnvelope(_))
        ));
        assert!(matches!(
            decode_server_frame("{\"sid\":-4,\"msg\":\"ok\"}"),
            Err(DecodeError::BadEnvelope(_))
        ));
        // A well-formed envelope around a non-message payload is not an
        // envelope problem — it stays unknown-message.
        assert!(matches!(
            decode_client_frame("{\"sid\":3,\"msg\":{\"frobnicate\":1}}"),
            Err(DecodeError::UnknownMessage(_))
        ));
    }

    #[test]
    fn bye_digest_defaults_for_old_servers() {
        let line = "{\"bye\":{\"algorithm\":\"DemCOM\",\"revenue\":1.5,\"completed\":1,\
                    \"cooperative\":0,\"events\":2,\"refused\":0,\"audit_findings\":[],\
                    \"canonical\":null}}";
        let back = decode_server(line).unwrap();
        let ServerMsg::bye(b) = back else {
            panic!("wrong variant");
        };
        assert_eq!(b.digest, "");
    }
}
