//! # com-serve
//!
//! The real-time serving layer over the COM replay engine: the paper's
//! setting is *online* — requests and workers arrive as live streams and
//! must be answered immediately (§II-A) — and this crate is the
//! long-running dispatch service the batch tooling lacked.
//!
//! * [`protocol`] — the message types of the wire protocol (`hello`,
//!   `worker`, `request`, `tick`, `stats`, `stats_deep`, `shutdown` and
//!   the inter-daemon `outsource_offer` in; `welcome`, `ok`,
//!   `assign`/`reject`/`timeout`, `error`, `stats`, `bye` and the offer
//!   verdicts out), their NDJSON encoding, and the
//!   `{"sid":…,"msg":…}` mux envelope that addresses one of many logical
//!   sessions on a connection.
//! * [`framing`] — the optional length-prefixed binary framing,
//!   negotiated per session in `hello` (`"frame": "binary"`); NDJSON
//!   stays the default and the debug path.
//! * [`hot`] — the hot layouts (`request`, `worker`, `ok`, `assign`,
//!   `reject`, bare or enveloped), each written once over a framing's
//!   primitives and read straight between struct and bytes in both
//!   framings, with the same bytes the `Content` tree would give.
//! * [`session`] — one logical session: a [`com_core::MatchSession`] plus
//!   the event log needed to audit the finished run with `validate_run`.
//! * [`server`] — the threaded TCP server behind the `matchd` binary:
//!   per-connection router threads decoding and dispatching to the shard
//!   pool, bounded per-shard ingress queues whose backpressure is the
//!   transport's (a full queue stops the connection's reader), graceful
//!   drain-and-audit teardown behind a per-connection barrier. Owns
//!   the two shared shapes: one `Conn` per connection (writer, counters,
//!   `done` flag behind one `Arc`) and the daemon-wide `Daemon`.
//! * [`shard`] — the shared-nothing shard executors: one `Shard` struct
//!   per thread owning its logical sessions, with every handler a method
//!   on it, plus the deterministic session→shard placement rule (a
//!   stable hash of the session key).
//! * [`fed`] — the federation peer link: a daemon's outsourcing
//!   decisions as blocking `outsource_offer` exchanges with its rival
//!   daemon, on the shard thread, under the offer deadline.
//! * [`client`] — the one wire client: one reader
//!   ([`read_server_frame`]), one writer ([`Client::queue_for`]),
//!   session [`Client::open`] / [`Client::close`].
//! * [`drive()`] — the one session driver over that client: K sessions ×
//!   M connections, windowed or lockstep, always closed-loop; behind the
//!   `matchload` binary, the loopback tests, and `com_fed`.
//! * [`trace`] — the flight-recorder session trace (schema v1): one JSONL
//!   file per recorded session, written by `matchd --record`.
//! * [`replay`] — deterministic trace re-execution behind the
//!   `matchreplay` binary: drives [`ServeSession`] directly (no protocol
//!   overhead) and byte-compares every decision against the recording.
//!
//! Everything is `std`-only: threads, `TcpListener`/`TcpStream`, and
//! `sync_channel` — no new dependencies.

pub mod client;
pub mod drive;
pub mod fed;
pub mod framing;
pub mod hot;
pub mod protocol;
pub mod replay;
pub mod server;
pub mod session;
pub mod shard;
pub mod trace;

pub use client::{bad_data, read_server_frame, Client};
pub use drive::{
    drive, event_msg, expect_ok, hello_msg, DriveOptions, DriveReport, SessionOutcome,
};
pub use fed::{FedShared, WireOutsource, DEFAULT_OFFER_DEADLINE_MS};
pub use framing::{
    decode_msg, decode_payload, encode_frame, read_frame, write_frame, FrameError, WireFormat,
    FRAME_MAGIC, MAX_FRAME_PAYLOAD, MAX_LINE_BYTES,
};
pub use hot::WireMsg;
pub use protocol::{
    client_frame_from_content, decode_client, decode_client_frame, decode_server,
    decode_server_frame, encode, read_line, server_frame_from_content, write_msg, ByeMsg,
    ClientFrame, ClientMsg, CounterRow, DecodeError, DeepStatsMsg, ErrorMsg, FedByeMsg, FedHello,
    FedStatsMsg, Frame, GaugeRow, Hello, OfferMsg, PhaseRow, ServerFrame, ServerMsg, ShardRow,
    StatsMsg, WorkerMsg,
};
pub use replay::{read_trace, record_session, replay_trace, Divergence, TraceReplayReport};
pub use server::{serve, QueueStats, ServerConfig, ServerCounters, ServerHandle};
pub use session::{FinishedSession, ServeSession};
pub use shard::ShardStats;
pub use trace::{TraceLine, TraceRecorder, TRACE_VERSION};
