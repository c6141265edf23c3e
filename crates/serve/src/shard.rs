//! Shard executors: the shared-nothing core of the refactored server.
//!
//! `matchd --shards N` starts N **shard worker threads**, each running one
//! `Shard`: a struct that owns its logical sessions outright — session
//! state is plain mutable data on the shard thread, never behind a lock —
//! together with the index of its federated sessions and one slot per
//! connection with traffic on it (the connection to flush, plus the
//! reports of its sessions already finished by `shutdown`). Every handler
//! is a method on it. A shard receives decoded protocol messages over one
//! bounded MPSC channel (its *ingress queue*) fed by the per-connection
//! router threads (see [`crate::server`]). Because one session lives on
//! exactly one shard and the channel is FIFO, responses stay strictly
//! ordered per session with zero hot-path synchronisation; the only
//! shared state is each connection's `Conn` (one `Arc`; a mutex around
//! the outgoing byte buffer) and the daemon-wide `Daemon` (config,
//! monotonic counters, the per-shard stats table and the federation route
//! table), built once before any thread starts.
//!
//! ## Placement
//!
//! Session→shard placement is **deterministic**: it depends only on the
//! session's own key (its `sid`, or the connection id for a bare
//! session) — never on load, arrival order, or wall clock — so the same
//! workload lands on the same shards run after run, and a recorded
//! session replays against the same executor layout. [`Placement::Hash`]
//! is an FNV-1a hash of the session key; [`Placement::Grid`] buckets the
//! `hello.origin` point into a `com-geo`-style square cell and hashes the
//! cell instead, pinning spatially co-located sessions to the same shard
//! (the routing hook for future spatial candidate sharding). Grid
//! placement falls back to the hash rule when a `hello` carries no
//! origin.
//!
//! ## Drain
//!
//! Teardown is two-phase: the router broadcasts `ShardMsg::CloseConn`
//! to every shard (a blocking send — close must never be dropped), each
//! shard finishes and audits the connection's sessions it owns and ships
//! one `SessionReport` per session back over the ack channel, and the
//! router sorts the collected reports by logical session id. Reporting
//! order is therefore stable however many shards the sessions were spread
//! across.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

// The same stable hash the canonical run digest uses: placement must
// hash identically across runs and builds, which rules out `std`'s
// randomized hasher.
use com_core::fnv1a64;
use com_obs::Histogram;
use com_sim::ConstraintViolation;

use crate::framing::WireFormat;
use crate::protocol::{ClientMsg, Hello, ServerMsg, ShardRow};
use crate::server::{error, Conn, Daemon, QueueStats};
use crate::session::ServeSession;
use crate::trace::{sanitize_spec, TraceRecorder};

/// How sessions are assigned to shards. Deterministic by construction:
/// both modes are pure functions of the session's own key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// FNV-1a hash of the session key (`sid` for multiplexed sessions,
    /// the connection id for bare sessions), modulo shard count.
    Hash,
    /// Grid-cell placement: bucket `hello.origin` into the square cell of
    /// side `cell` (world units) it falls in and hash the cell — sessions
    /// anchored in the same area share a shard. Sessions without an
    /// origin fall back to [`Placement::Hash`].
    Grid { cell: f64 },
}

/// Default grid cell side, world units (the synthetic city is 10×10).
pub const DEFAULT_GRID_CELL: f64 = 2.5;

impl Placement {
    /// Parse a `--placement` token: `hash`, `grid`, or `grid:<cell>`.
    pub fn parse(s: &str) -> Result<Placement, String> {
        match s {
            "hash" => Ok(Placement::Hash),
            "grid" => Ok(Placement::Grid {
                cell: DEFAULT_GRID_CELL,
            }),
            other => match other.strip_prefix("grid:") {
                Some(cell) => {
                    let cell: f64 = cell
                        .parse()
                        .map_err(|e| format!("bad grid cell {cell:?}: {e}"))?;
                    if !cell.is_finite() || cell <= 0.0 {
                        return Err(format!("grid cell must be positive, got {cell}"));
                    }
                    Ok(Placement::Grid { cell })
                }
                None => Err(format!(
                    "unknown placement {other:?} (expected hash, grid, or grid:<cell>)"
                )),
            },
        }
    }

    /// The shard a fresh session keys to. `origin` is the `hello`'s
    /// anchor point, if any.
    pub fn place(
        &self,
        conn_id: u64,
        sid: Option<u64>,
        origin: Option<com_geo::Point>,
        shards: usize,
    ) -> usize {
        let shards = shards.max(1);
        if let Placement::Grid { cell } = self {
            if let Some(p) = origin {
                let cx = (p.x / cell).floor() as i64;
                let cy = (p.y / cell).floor() as i64;
                let mut key = [0u8; 17];
                key[0] = 2; // domain tag: grid cell
                key[1..9].copy_from_slice(&cx.to_le_bytes());
                key[9..17].copy_from_slice(&cy.to_le_bytes());
                return (fnv1a64(&key) % shards as u64) as usize;
            }
        }
        let mut key = [0u8; 9];
        match sid {
            // Multiplexed sessions key on the sid alone, so placement is
            // independent of connection accept order.
            Some(sid) => {
                key[0] = 1;
                key[1..].copy_from_slice(&sid.to_le_bytes());
            }
            None => {
                key[0] = 0;
                key[1..].copy_from_slice(&conn_id.to_le_bytes());
            }
        }
        (fnv1a64(&key) % shards as u64) as usize
    }
}

/// Per-shard health, shared between the shard thread and the routers.
/// `queue` tracks the shard's bounded ingress channel (the channel itself
/// exposes no length).
#[derive(Debug, Default)]
pub struct ShardStats {
    pub(crate) queue: QueueStats,
    sessions_open: AtomicU64,
    sessions_total: AtomicU64,
    events_routed: AtomicU64,
    busy_dropped: AtomicU64,
}

impl ShardStats {
    /// Snapshot this shard's `stats_deep` row.
    pub fn row(&self, shard: usize) -> ShardRow {
        ShardRow {
            shard: shard as u64,
            sessions: self.sessions_open.load(Ordering::Relaxed),
            sessions_total: self.sessions_total.load(Ordering::Relaxed),
            events_routed: self.events_routed.load(Ordering::Relaxed),
            queue_depth: self.queue.depth(),
            queue_high_water: self.queue.high_water(),
            busy_dropped: self.busy_dropped.load(Ordering::Relaxed),
        }
    }
}

/// One finished logical session's drain summary, shipped from the shard
/// that owned it back to the connection's router at close.
pub(crate) struct SessionReport {
    /// Server-assigned logical session id (dense, in `hello` order).
    pub lsid: u64,
    /// The wire sid (`None` for a bare session).
    pub sid: Option<u64>,
    pub shard: usize,
    pub algorithm: String,
    pub events: u64,
    pub findings: usize,
    /// `canonical_run_digest` of the finished run.
    pub digest: String,
    pub ingest_ns: Histogram,
}

/// What routers send to shard executors.
pub(crate) enum ShardMsg {
    /// One decoded client message for the session `(conn.id, sid)`.
    /// `decode_ns` is the router-side decode duration, accounted into the
    /// shard's phase table ([`com_obs::span_record`]).
    Ingress {
        conn: Arc<Conn>,
        sid: Option<u64>,
        msg: ClientMsg,
        decode_ns: u64,
    },
    /// A pre-built response the router wants written in FIFO order with
    /// the shard's own responses (protocol errors on a connection whose
    /// bare session this shard owns).
    Reply {
        conn: Arc<Conn>,
        sid: Option<u64>,
        msg: ServerMsg,
    },
    /// The connection is gone: finish every session it owns here, ship
    /// one [`SessionReport`] per session (shutdown-finished ones
    /// included), then drop `ack`.
    CloseConn {
        conn_id: u64,
        ack: mpsc::Sender<SessionReport>,
    },
    /// Server shutdown: exit the shard loop.
    Stop,
}

/// The shared face of the shard pool: what router threads need to route.
pub(crate) struct PoolShared {
    txs: Vec<SyncSender<ShardMsg>>,
    pub(crate) daemon: Arc<Daemon>,
}

impl PoolShared {
    /// Try to hand one decoded message to `shard`. On a full queue the
    /// message is dropped and `busy` sent out of band (sid-tagged so a
    /// mux client knows which session's message was lost). Returns
    /// `false` only when the shard is gone (server stopping).
    pub(crate) fn try_ingress(
        &self,
        shard: usize,
        conn: &Arc<Conn>,
        sid: Option<u64>,
        msg: ClientMsg,
        decode_ns: u64,
    ) -> bool {
        let stats = &self.daemon.shards[shard];
        match self.txs[shard].try_send(ShardMsg::Ingress {
            conn: Arc::clone(conn),
            sid,
            msg,
            decode_ns,
        }) {
            Ok(()) => {
                stats.queue.on_enqueue();
                stats.events_routed.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Full(_)) => {
                self.daemon.counters.dropped.fetch_add(1, Ordering::Relaxed);
                stats.busy_dropped.fetch_add(1, Ordering::Relaxed);
                conn.send_for(sid, &ServerMsg::busy);
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }

    /// Queue a router-built response through `shard` so it lands in FIFO
    /// order with that shard's own responses. Falls back to an immediate
    /// out-of-band write when the shard queue is full — an error response
    /// is never silently lost.
    pub(crate) fn reply_via(
        &self,
        shard: usize,
        conn: &Arc<Conn>,
        sid: Option<u64>,
        msg: ServerMsg,
    ) {
        match self.txs[shard].try_send(ShardMsg::Reply {
            conn: Arc::clone(conn),
            sid,
            msg,
        }) {
            Ok(()) => self.daemon.shards[shard].queue.on_enqueue(),
            Err(TrySendError::Full(m)) | Err(TrySendError::Disconnected(m)) => {
                if let ShardMsg::Reply { msg, .. } = m {
                    conn.send_for(sid, &msg);
                }
            }
        }
    }

    /// Drain every session `conn_id` owns anywhere in the pool. Blocking
    /// sends: close, like EOF before it, must never be dropped. Reports
    /// come back sorted by logical session id — stable however many
    /// shards the connection's sessions were spread across.
    pub(crate) fn close_conn(&self, conn_id: u64) -> Vec<SessionReport> {
        let (ack, reports) = mpsc::channel();
        for tx in &self.txs {
            let _ = tx.send(ShardMsg::CloseConn {
                conn_id,
                ack: ack.clone(),
            });
        }
        drop(ack);
        let mut reports: Vec<SessionReport> = reports.iter().collect();
        // Stable session-id order whatever shard each session lived on:
        // mux sessions sort by their wire sid, bare ones by the dense
        // server-assigned id.
        reports.sort_by_key(|r| (r.sid.unwrap_or(r.lsid), r.lsid));
        reports
    }
}

/// The pool of shard executor threads. Owned by the accept loop; routers
/// hold the [`PoolShared`] face.
pub(crate) struct ShardPool {
    pub(crate) shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardPool {
    /// Spawn one executor per row of `daemon.shards`, each with a bounded
    /// ingress channel of `config.queue_capacity`.
    pub(crate) fn start(daemon: &Arc<Daemon>) -> ShardPool {
        let mut txs = Vec::new();
        let mut handles = Vec::new();
        for id in 0..daemon.shards.len() {
            let (tx, rx) = mpsc::sync_channel(daemon.config.queue_capacity.max(1));
            txs.push(tx);
            // Sessions are not `Send`: the shard is built on its own thread.
            let daemon = Arc::clone(daemon);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("matchd-shard-{id}"))
                    .spawn(move || Shard::new(id, daemon).shard_loop(rx))
                    .expect("spawn shard thread"),
            );
        }
        ShardPool {
            shared: Arc::new(PoolShared {
                txs,
                daemon: Arc::clone(daemon),
            }),
            handles,
        }
    }

    /// Stop and join every shard thread.
    pub(crate) fn stop(self) {
        for tx in &self.shared.txs {
            let _ = tx.send(ShardMsg::Stop);
        }
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// A session's address on its shard: `(connection id, wire sid)`.
type Key = (u64, Option<u64>);

/// One live session on a shard.
struct Entry {
    session: ServeSession,
    lsid: u64,
}

/// What a shard keeps per connection with traffic on it: the connection
/// itself (for the flush-when-empty cycle) and the reports of its sessions
/// already finished by protocol `shutdown`, held until the connection
/// closes so the drain report is complete.
struct ConnSlot {
    conn: Arc<Conn>,
    finished: Vec<SessionReport>,
}

fn constraint(violation: ConstraintViolation) -> ServerMsg {
    error("constraint", violation.to_string())
}

/// One shard executor: single-threaded ownership of its sessions — plain
/// mutable data, never behind a lock.
struct Shard {
    id: usize,
    daemon: Arc<Daemon>,
    sessions: HashMap<Key, Entry>,
    /// This shard's federated sessions: fed_sid → session key. Inbound
    /// offers carry only the fed_sid; this resolves them to the session
    /// that must answer.
    fed_index: HashMap<u64, Key>,
    conns: HashMap<u64, ConnSlot>,
}

impl Shard {
    fn new(id: usize, daemon: Arc<Daemon>) -> Shard {
        Shard {
            id,
            daemon,
            sessions: HashMap::new(),
            fed_index: HashMap::new(),
            conns: HashMap::new(),
        }
    }

    fn stats(&self) -> &ShardStats {
        &self.daemon.shards[self.id]
    }

    fn slot(&mut self, conn: &Arc<Conn>) -> &mut ConnSlot {
        self.conns.entry(conn.id).or_insert_with(|| ConnSlot {
            conn: Arc::clone(conn),
            finished: Vec::new(),
        })
    }

    /// Drain-hot/flush-when-empty: responses pile up in each connection's
    /// writer buffer while ingress is hot and flush once the queue runs
    /// dry.
    fn shard_loop(mut self, rx: Receiver<ShardMsg>) {
        // Thread-local collector: this shard's phase table aggregates every
        // session it owns (decode time included, via span_record).
        if self.daemon.config.telemetry {
            com_obs::install();
        }
        loop {
            let msg = match rx.try_recv() {
                Ok(m) => m,
                Err(TryRecvError::Empty) => {
                    for slot in self.conns.values() {
                        slot.conn.flush();
                    }
                    match rx.recv() {
                        Ok(m) => m,
                        Err(_) => break,
                    }
                }
                Err(TryRecvError::Disconnected) => break,
            };
            match msg {
                ShardMsg::Stop => break,
                ShardMsg::Reply { conn, sid, msg } => {
                    self.stats().queue.on_drain();
                    self.slot(&conn);
                    conn.queue_for(sid, &msg);
                }
                ShardMsg::Ingress {
                    conn,
                    sid,
                    msg,
                    decode_ns,
                } => {
                    let depth = self.stats().queue.on_drain();
                    com_obs::gauge_set("ingress.queue_depth", depth as f64);
                    com_obs::span_record(com_obs::PHASE_SERVE_DECODE, decode_ns);
                    self.slot(&conn);
                    self.handle_msg(&conn, sid, msg);
                }
                ShardMsg::CloseConn { conn_id, ack } => {
                    let Some(slot) = self.conns.remove(&conn_id) else {
                        continue;
                    };
                    let mut reports = slot.finished;
                    let keys: Vec<Key> = self
                        .sessions
                        .keys()
                        .filter(|k| k.0 == conn_id)
                        .copied()
                        .collect();
                    for key in keys {
                        let entry = self.sessions.remove(&key).expect("key just listed");
                        reports.push(self.finish_entry(&slot.conn, key.1, entry));
                    }
                    for report in reports {
                        let _ = ack.send(report);
                    }
                }
            }
        }
        if self.daemon.config.telemetry {
            com_obs::uninstall();
        }
    }

    /// Drop a closing session's federation registrations (shard-local
    /// index and daemon-global route). Harmless for non-federated
    /// sessions.
    fn unregister_fed(&mut self, entry: &Entry) {
        if let Some(fed_sid) = entry.session.fed_sid() {
            self.fed_index.remove(&fed_sid);
            self.daemon.fed_routes().remove(&fed_sid);
        }
    }

    /// Finish one session: close the run, audit it, send the `bye`
    /// (flushed immediately — it may be the last thing the connection
    /// says), and build the drain report.
    fn finish_entry(&mut self, conn: &Conn, sid: Option<u64>, entry: Entry) -> SessionReport {
        self.unregister_fed(&entry);
        self.stats().sessions_open.fetch_sub(1, Ordering::Relaxed);
        let done = entry.session.finish();
        self.daemon
            .counters
            .sessions_finished
            .fetch_add(1, Ordering::Relaxed);
        let bye = done.bye();
        let report = SessionReport {
            lsid: entry.lsid,
            sid,
            shard: self.id,
            algorithm: done.run.algorithm.clone(),
            events: done.instance.stream.len() as u64,
            findings: done.findings.len(),
            digest: bye.digest.clone(),
            ingest_ns: done.ingest_ns,
        };
        conn.send_for(sid, &ServerMsg::bye(bye));
        report
    }

    /// Dispatch one decoded client message for session `(conn.id, sid)`.
    fn handle_msg(&mut self, conn: &Arc<Conn>, sid: Option<u64>, msg: ClientMsg) {
        let key = (conn.id, sid);
        let counters = &self.daemon.counters;
        match msg {
            ClientMsg::hello(hello) => {
                if self.sessions.contains_key(&key) {
                    counters.protocol_error();
                    conn.queue_for(sid, &error("duplicate-hello", "session already open"));
                    return;
                }
                match ServeSession::open(&hello) {
                    Ok(mut s) => {
                        let lsid = self.daemon.next_lsid.fetch_add(1, Ordering::Relaxed);
                        let stats = self.stats();
                        stats.sessions_open.fetch_add(1, Ordering::Relaxed);
                        stats.sessions_total.fetch_add(1, Ordering::Relaxed);
                        if let Some(dir) = &self.daemon.config.record_dir {
                            attach_recorder(&mut s, dir, lsid, sid, self.id, &hello);
                        }
                        // Negotiate framing: honour a recognised request,
                        // silently downgrade anything else to NDJSON. The
                        // welcome goes out in the connection's *current*
                        // framing; the switch applies after it and is never
                        // undone — once any session negotiates binary the
                        // connection stays binary (mux clients read with
                        // per-message auto-detection anyway).
                        let format = hello
                            .frame
                            .as_deref()
                            .and_then(WireFormat::parse)
                            .unwrap_or(WireFormat::Ndjson);
                        conn.queue_for(
                            sid,
                            &ServerMsg::welcome {
                                algorithm: s.algorithm(),
                                frame: Some(format.as_str().to_string()),
                            },
                        );
                        if format == WireFormat::Binary {
                            conn.set_format(WireFormat::Binary);
                        }
                        if let Some(fed_sid) = s.fed_sid() {
                            self.fed_index.insert(fed_sid, key);
                        }
                        self.sessions.insert(key, Entry { session: s, lsid });
                    }
                    Err(detail) => {
                        counters.protocol_error();
                        conn.queue_for(sid, &error("unknown-matcher", detail));
                    }
                }
            }
            ClientMsg::worker(msg) => self.with_entry(conn, sid, |e| {
                e.session
                    .worker(&msg)
                    .map_or_else(constraint, |()| ServerMsg::ok)
            }),
            ClientMsg::request(spec) => self.with_entry(conn, sid, |e| {
                e.session.request(&spec).unwrap_or_else(constraint)
            }),
            ClientMsg::tick { to } => self.with_entry(conn, sid, |e| {
                e.session
                    .tick(to)
                    .map_or_else(constraint, |()| ServerMsg::ok)
            }),
            ClientMsg::stats => {
                let dropped = counters.dropped();
                self.with_entry(conn, sid, |e| ServerMsg::stats(e.session.stats(dropped)));
            }
            ClientMsg::outsource_offer(offer) => {
                // Offers arrive on the *peer daemon's* connection and routed
                // here by fed_sid (see `Daemon::fed_routes`); answer on that
                // same connection. The borrower's shard thread is blocked
                // on this verdict, so it flushes immediately instead of
                // joining the batched writer cycle.
                let response = match self
                    .fed_index
                    .get(&offer.fed_sid)
                    .and_then(|k| self.sessions.get_mut(k))
                {
                    Some(entry) => entry.session.handle_offer(&offer),
                    None => {
                        // A reject from `handle_offer` is a valid protocol
                        // outcome; an offer for a session this shard does not
                        // hold is a routing failure and counts as one.
                        counters.protocol_error();
                        ServerMsg::outsource_reject {
                            fed_sid: offer.fed_sid,
                            offer: offer.offer,
                            code: "unknown-fed-session".into(),
                            detail: format!("no federated session with fed_sid {}", offer.fed_sid),
                        }
                    }
                };
                conn.send_for(sid, &response);
            }
            ClientMsg::stats_deep => {
                let dropped = counters.dropped();
                let queue = &self.stats().queue;
                let (depth, high_water) = (queue.depth(), queue.high_water());
                let oversized = conn.oversized.load(Ordering::Relaxed);
                let bad_envelope = conn.bad_envelope.load(Ordering::Relaxed);
                let rows: Vec<ShardRow> = self
                    .daemon
                    .shards
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s.row(i))
                    .collect();
                let shard = self.id as u64;
                self.with_entry(conn, sid, |e| {
                    let mut deep =
                        e.session
                            .deep_stats(dropped, depth, high_water, oversized, bad_envelope);
                    deep.shard = Some(shard);
                    deep.shards = rows;
                    ServerMsg::stats_deep(Box::new(deep))
                });
            }
            ClientMsg::shutdown => match self.sessions.remove(&key) {
                Some(entry) => {
                    let report = self.finish_entry(conn, sid, entry);
                    self.slot(conn).finished.push(report);
                    if sid.is_none() {
                        // One-session semantics: `shutdown` on the bare session
                        // ends the connection, not just the session.
                        conn.done.store(true, Ordering::SeqCst);
                    }
                }
                None => self.no_session(conn, sid, "shutdown before hello"),
            },
        }
    }

    /// Answer one message against a live session, or refuse it with the
    /// mux error (`unknown-sid` for an enveloped message, `no-session` for
    /// a bare one). Error responses count as protocol errors, exactly like
    /// the pre-shard server.
    fn with_entry(
        &mut self,
        conn: &Conn,
        sid: Option<u64>,
        f: impl FnOnce(&mut Entry) -> ServerMsg,
    ) {
        match self.sessions.get_mut(&(conn.id, sid)) {
            Some(entry) => {
                let response = f(entry);
                if matches!(response, ServerMsg::error(_)) {
                    self.daemon.counters.protocol_error();
                }
                conn.queue_for(sid, &response);
            }
            None => self.no_session(conn, sid, "say hello first"),
        }
    }

    fn no_session(&self, conn: &Conn, sid: Option<u64>, detail: &str) {
        self.daemon.counters.protocol_error();
        let response = match sid {
            Some(s) => error("unknown-sid", format!("no open session with sid {s}")),
            None => error("no-session", detail),
        };
        conn.queue_for(sid, &response);
    }
}

/// Open the flight recorder for a fresh session, named by its logical
/// session id (the wire `sid` when the session is multiplexed, else the
/// server-assigned dense id). Recording failures are never fatal to
/// serving: log once and carry on unrecorded.
fn attach_recorder(
    session: &mut ServeSession,
    dir: &std::path::Path,
    lsid: u64,
    sid: Option<u64>,
    shard: usize,
    hello: &Hello,
) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("matchd: cannot create record dir {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!(
        "session-{}-{}-{}.jsonl",
        sid.unwrap_or(lsid),
        sanitize_spec(&hello.matcher),
        hello.seed
    ));
    match TraceRecorder::create(&path) {
        Ok(recorder) => session.attach_recorder(recorder, hello, "matchd", sid, Some(shard as u64)),
        Err(e) => eprintln!("matchd: cannot record to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_geo::Point;

    #[test]
    fn placement_tokens_parse() {
        assert_eq!(Placement::parse("hash").unwrap(), Placement::Hash);
        assert_eq!(
            Placement::parse("grid").unwrap(),
            Placement::Grid {
                cell: DEFAULT_GRID_CELL
            }
        );
        assert_eq!(
            Placement::parse("grid:1.25").unwrap(),
            Placement::Grid { cell: 1.25 }
        );
        assert!(Placement::parse("grid:0").is_err());
        assert!(Placement::parse("grid:nope").is_err());
        assert!(Placement::parse("roulette").is_err());
    }

    #[test]
    fn hash_placement_is_deterministic_and_connection_independent() {
        let p = Placement::Hash;
        for sid in 0..64u64 {
            let a = p.place(0, Some(sid), None, 4);
            let b = p.place(99, Some(sid), None, 4);
            assert_eq!(a, b, "sid {sid}: placement must not depend on conn");
            assert_eq!(a, p.place(0, Some(sid), None, 4), "sid {sid}: stable");
            assert!(a < 4);
        }
        // Bare sessions key on the connection instead, also stably.
        assert_eq!(p.place(7, None, None, 4), p.place(7, None, None, 4));
        // Sids actually spread: 64 sids over 4 shards never all collapse
        // onto one.
        let distinct: std::collections::HashSet<usize> =
            (0..64).map(|sid| p.place(0, Some(sid), None, 4)).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn grid_placement_keys_on_the_cell() {
        let p = Placement::Grid { cell: 2.0 };
        // Same cell → same shard, regardless of sid or connection.
        let a = p.place(0, Some(1), Some(Point::new(0.5, 0.5)), 4);
        let b = p.place(9, Some(2), Some(Point::new(1.9, 1.9)), 4);
        assert_eq!(a, b, "points in one cell share a shard");
        // No origin → falls back to the hash rule.
        assert_eq!(
            p.place(3, Some(5), None, 4),
            Placement::Hash.place(3, Some(5), None, 4)
        );
        // Neighbouring cells spread over >1 shard.
        let distinct: std::collections::HashSet<usize> = (0..8)
            .map(|i| p.place(0, Some(0), Some(Point::new(i as f64 * 2.0 + 0.1, 0.1)), 4))
            .collect();
        assert!(distinct.len() > 1);
    }

    /// The backpressure contract, deterministically and without sockets:
    /// a full shard queue drops the message and counts it, never blocks,
    /// never grows.
    #[test]
    fn full_shard_queue_drops_and_counts() {
        let (tx, rx) = mpsc::sync_channel(2);
        let shared = PoolShared {
            txs: vec![tx],
            daemon: Arc::new(Daemon::new(Default::default())),
        };
        let (counters, stats) = (&shared.daemon.counters, &shared.daemon.shards[0]);
        let conn = Conn::new(0, None);
        assert!(shared.try_ingress(0, &conn, None, ClientMsg::stats, 0));
        assert!(shared.try_ingress(0, &conn, Some(7), ClientMsg::stats, 0));
        // Queue full: the next two messages are dropped, not queued.
        assert!(shared.try_ingress(0, &conn, None, ClientMsg::stats, 0));
        assert!(shared.try_ingress(0, &conn, Some(7), ClientMsg::stats, 0));
        assert_eq!(counters.dropped(), 2);
        assert_eq!(stats.row(0).busy_dropped, 2);
        // Depth tracks only queued messages; drops never inflate it.
        assert_eq!(stats.queue.depth(), 2);
        assert_eq!(stats.queue.high_water(), 2);
        assert_eq!(stats.row(0).events_routed, 2);
        // Only the first two messages ever reach the shard side.
        assert_eq!(rx.try_iter().count(), 2);
        // A gone shard (server stopping) reports dead instead of dropping.
        drop(rx);
        assert!(!shared.try_ingress(0, &conn, None, ClientMsg::stats, 0));
        assert_eq!(counters.dropped(), 2);
    }
}
