//! # com-obs — runtime observability for the replay engine
//!
//! Zero-dependency structured tracing, streaming latency histograms, and
//! named counters/gauges, designed so instrumentation can live permanently
//! on the engine's hot paths:
//!
//! * **Off by default.** Until [`install`] is called, every entry point is
//!   a thread-local flag check — no allocation, no clock read, no locks.
//!   Instrumented code behaves bit-identically with the collector on or
//!   off (spans never touch the RNG or any decision state).
//! * **Fixed memory.** Latencies stream into log-bucketed histograms
//!   ([`Histogram`]): ~6 KiB per phase regardless of sample count, with
//!   exact min/max/mean and ~6%-accurate p50/p90/p99.
//! * **Per-run reports.** The engine brackets each replay with
//!   [`begin_run`]/[`end_run`] and attaches the resulting
//!   [`RunTelemetry`] to its `RunResult`.
//! * **Optional JSONL trace.** [`install_with_trace`] streams every span
//!   as one JSON object per line (`type`, `algo`, `phase`, `depth`,
//!   `start_ns`, `dur_ns`) for offline analysis.
//!
//! ```
//! com_obs::install();
//! com_obs::begin_run("demcom");
//! {
//!     let _span = com_obs::span(com_obs::PHASE_CANDIDATES);
//!     // ... range query ...
//! }
//! com_obs::counter_add("grid.cells_scanned", 9);
//! let report = com_obs::end_run().unwrap();
//! assert_eq!(report.phase(com_obs::PHASE_CANDIDATES).unwrap().count, 1);
//! com_obs::uninstall();
//! ```

mod collector;
mod histogram;
mod telemetry;

pub use collector::{
    begin_run, counter_add, end_run, gauge_set, install, install_with_trace, is_active,
    snapshot_run, span, span_record, uninstall, SpanGuard,
};
pub use histogram::Histogram;
pub use telemetry::{CounterStat, GaugeStat, PhaseStats, RunTelemetry};

/// One full request decision in the engine (outermost span).
pub const PHASE_DECISION: &str = "decision";
/// Spatial candidate lookup (waiting-list grid range and nearest queries).
pub const PHASE_CANDIDATES: &str = "candidate-search";
/// Payment computation: acceptance-probability lookups, expected-revenue
/// maximisation, Monte Carlo estimation.
pub const PHASE_PRICING: &str = "pricing";
/// Cross-platform offer loop (Bernoulli acceptance draws, assignment).
pub const PHASE_OFFER: &str = "offer";

// Serving-path phases (`matchd`'s per-connection hot path; see com-serve).
// The matcher's own work appears inside `ingest` as the nested
// [`PHASE_DECISION`] span.

/// Parsing one wire line or binary frame into a protocol message.
pub const PHASE_SERVE_DECODE: &str = "decode";
/// Feeding one event through the session (world update + decision).
pub const PHASE_SERVE_INGEST: &str = "ingest";
/// Serializing one response message to its wire form (NDJSON line or
/// binary frame) into the connection's write buffer.
pub const PHASE_SERVE_ENCODE: &str = "encode";
/// Writing buffered responses to the socket. Since the batched-flush
/// rework this span covers a *burst* of responses, not one: the session
/// loop encodes while ingress is hot and flushes once the queue drains
/// (or the buffer crosses its threshold), so per-event cost is this
/// span's total divided by events, not its mean.
pub const PHASE_SERVE_FLUSH: &str = "flush";
/// Writing one session's final `bye` into the connection's write buffer
/// and flushing it, as one sample: once per session, so it stays out of
/// the per-event [`PHASE_SERVE_ENCODE`] and [`PHASE_SERVE_FLUSH`] that
/// every session on the shard shares.
pub const PHASE_SERVE_BYE: &str = "serve-bye";

// Federation phase (the inter-daemon outsourcing path; see com-serve's
// peer link and com-fed's `matchfed` driver). The lender answers offers
// on a router thread, which has no collector; its waits are counted in
// `stats_deep.federation.lends_parked` instead.

/// One outsourcing offer round-trip to the rival platform's daemon:
/// encode + send + block for `outsource_accept`/`outsource_reject` (or
/// local deadline). Deliberately *outside* [`PHASE_DECISION`] — the
/// peer's RTT is a property of the federation link, not the algorithm.
/// It includes any time the offer spent parked at the lender.
pub const PHASE_FED_OFFER: &str = "fed-offer";
