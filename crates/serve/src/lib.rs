//! # com-serve
//!
//! The real-time serving layer over the COM replay engine: the paper's
//! setting is *online* — requests and workers arrive as live streams and
//! must be answered immediately (§II-A) — and this crate is the
//! long-running dispatch service the batch tooling lacked.
//!
//! * `protocol.rs` — the message types of the wire protocol (`hello`,
//!   `worker`, `request`, `tick`, `stats`, `stats_deep`, `shutdown` and
//!   the inter-daemon `outsource_offer` in; `welcome`, `ok`,
//!   `assign`/`reject`/`timeout`, `error`, `stats`, `bye` and the offer
//!   verdicts out), their NDJSON encoding, and the
//!   `{"sid":…,"msg":…}` mux envelope that addresses one of many logical
//!   sessions on a connection.
//! * `framing.rs` — the optional length-prefixed binary framing,
//!   negotiated per session in `hello` (`"frame": "binary"`); NDJSON
//!   stays the default and the debug path. Also the one reader of both
//!   framings, `WireReader`, behind the router, [`Client`] and the peer
//!   link alike: it cuts the byte stream into pieces, and each caller
//!   applies its own policy to them.
//! * `hot.rs` — the hot layouts (`request`, `worker`, `ok`, `assign`,
//!   `reject`, bare or enveloped), each written once over a framing's
//!   primitives and read straight between struct and bytes in both
//!   framings, with the same bytes the `Content` tree would give.
//! * `session.rs` — one logical session: a [`com_core::MatchSession`] plus
//!   the event log needed to audit the finished run with `validate_run`.
//! * `server.rs` — the threaded TCP server behind the `matchd` binary:
//!   stateless per-connection router threads handing every message,
//!   refusals included, to the shard placement names, bounded per-shard ingress queues whose backpressure is the
//!   transport's (a full queue stops the connection's reader), graceful
//!   drain-and-audit teardown behind a per-connection barrier. Owns
//!   the two shared shapes: one `Conn` per connection (writer, counters,
//!   `done` flag behind one `Arc`) and the daemon-wide `Daemon`.
//! * `shard.rs` — the shared-nothing shard executors: one `Shard` struct
//!   per thread owning its logical sessions, with every handler a method
//!   on it, plus the deterministic session→shard placement rule (a
//!   stable hash of the session key), which is also the route.
//! * `fed.rs` — the federation peer link: a daemon's outsourcing
//!   decisions as blocking `outsource_offer` exchanges with its rival
//!   daemon over a [`Client`], on the shard thread, under the offer
//!   deadline; and the lend book the rival's offers are answered from, on
//!   the router thread, parked until the replica has decided their
//!   request.
//! * `client.rs` — the one wire client: one read path
//!   ([`Client::recv_frame`]), one writer (`Client::queue_for`),
//!   session [`Client::open`] / [`Client::close`].
//! * [`drive()`] — the one session driver over that client: K sessions ×
//!   M connections, windowed or lockstep, always closed-loop, each
//!   connection driven by the one [`pump`]; behind the `matchload`
//!   binary, the loopback tests, and `com_fed`.
//! * [`trace`] — the flight-recorder session trace (schema v1): one JSONL
//!   file per recorded session, written by `matchd --record`.
//! * `replay.rs` — deterministic trace re-execution behind the
//!   `matchreplay` binary: drives [`ServeSession`] directly (no protocol
//!   overhead) and byte-compares every decision against the recording.
//!
//! Everything is `std`-only: threads, `TcpListener`/`TcpStream`, and
//! `sync_channel` — no new dependencies.

mod client;
mod drive;
mod fed;
mod framing;
mod hot;
mod protocol;
mod replay;
mod server;
mod session;
mod shard;
pub mod trace;

pub use client::{bad_data, Client};
pub use drive::{drive, event_msg, hello_msg, pump, DriveOptions, DriveReport, SessionOutcome};
pub use fed::DEFAULT_OFFER_DEADLINE_MS;
pub use framing::{
    decode_payload, encode_frame, read_frame, write_frame, FrameError, WireFormat, FRAME_MAGIC,
    MAX_FRAME_PAYLOAD, MAX_LINE_BYTES,
};
pub use hot::{HotRead, HotWrite, WireMsg};
pub use protocol::{
    client_frame_from_content, decode_client_frame, decode_server_frame, encode, read_line,
    server_frame_from_content, write_msg, ByeMsg, ClientFrame, ClientMsg, CounterRow, DecodeError,
    DeepStatsMsg, ErrorMsg, FedByeMsg, FedHello, FedStatsMsg, Frame, GaugeRow, Hello, OfferMsg,
    PhaseRow, ServerFrame, ServerMsg, ShardRow, StatsMsg, WorkerMsg,
};
pub use replay::{record_session, replay_trace, Divergence, TraceReplayReport};
pub use server::{serve, ServerConfig, ServerCounters, ServerHandle};
pub use session::{FinishedSession, ServeSession};
