//! Shard executors: the shared-nothing core of the refactored server.
//!
//! `matchd --shards N` starts N **shard worker threads**, each running one
//! `Shard`: a struct that owns its logical sessions outright — session
//! state is plain mutable data on the shard thread, never behind a lock —
//! together with the index of its federated sessions and the connections
//! with traffic on it (to flush). Every handler is a method on it. A
//! shard receives decoded protocol messages over one
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
//! Session→shard placement is **deterministic**: `place` is an FNV-1a
//! hash of the session's own key (its `sid`, or the connection id for a
//! bare session) — never load, arrival order, or wall clock — so the same
//! workload lands on the same shards run after run, and a recorded
//! session replays against the same executor layout.
//!
//! ## Flow control
//!
//! Ingress is a blocking `send`: a full queue parks the router thread,
//! its socket goes unread, and TCP pushes back on the client. A message
//! the router accepted is never dropped, so every one is answered, in
//! order; overload shows up as latency. Head-of-line: while a router
//! waits on one shard, its connection's traffic for other shards waits
//! behind it.
//!
//! ## Drain
//!
//! Teardown is a barrier: the router broadcasts `ShardMsg::CloseConn` to
//! every shard and waits until each has finished and audited the
//! connection's sessions it owns and dropped its end of the ack channel.
//! When `PoolShared::close_conn` returns, every session the connection
//! ever opened is finished, wherever it lived.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

// The same stable hash the canonical run digest uses: placement must
// hash identically across runs and builds, which rules out `std`'s
// randomized hasher.
use com_core::fnv1a64;
use com_sim::ConstraintViolation;

use crate::framing::WireFormat;
use crate::protocol::{ClientMsg, Hello, ServerMsg, ShardRow};
use crate::server::{error, Conn, Daemon, QueueStats};
use crate::session::ServeSession;
use crate::trace::{sanitize_spec, TraceRecorder};

/// The shard a fresh session keys to: FNV-1a of the session key — the
/// `sid` alone for a multiplexed session, so placement is independent of
/// connection accept order, else the connection id — modulo shard count.
pub(crate) fn place(conn_id: u64, sid: Option<u64>, shards: usize) -> usize {
    let mut key = [0u8; 9];
    key[0] = u8::from(sid.is_some());
    key[1..].copy_from_slice(&sid.unwrap_or(conn_id).to_le_bytes());
    (fnv1a64(&key) % shards.max(1) as u64) as usize
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
            // Frozen wire field: nothing is ever dropped.
            busy_dropped: 0,
        }
    }
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
    /// The connection is gone: finish every session it owns here, then
    /// drop `ack` — a barrier, nothing is ever sent on it.
    CloseConn { conn_id: u64, ack: mpsc::Sender<()> },
    /// Server shutdown: exit the shard loop.
    Stop,
}

/// The shared face of the shard pool: what router threads need to route.
pub(crate) struct PoolShared {
    txs: Vec<SyncSender<ShardMsg>>,
    pub(crate) daemon: Arc<Daemon>,
}

impl PoolShared {
    /// Hand `msg` to `shard`, waiting while its queue is full: the router
    /// thread parks, its socket goes unread, and TCP pushes back on the
    /// client. Returns `false` only when the shard is gone (server
    /// stopping). Counted before the send, so `depth` covers a message
    /// parked here and never under-runs when the shard drains one first.
    fn send(&self, shard: usize, msg: ShardMsg) -> bool {
        let queue = &self.daemon.shards[shard].queue;
        queue.on_enqueue();
        let alive = self.txs[shard].send(msg).is_ok();
        if !alive {
            queue.on_drain();
        }
        alive
    }

    /// Route one decoded client message to `shard` ([`PoolShared::send`]).
    pub(crate) fn ingress(
        &self,
        shard: usize,
        conn: &Arc<Conn>,
        sid: Option<u64>,
        msg: ClientMsg,
        decode_ns: u64,
    ) -> bool {
        let stats = &self.daemon.shards[shard];
        stats.events_routed.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::clone(conn);
        self.send(
            shard,
            ShardMsg::Ingress {
                conn,
                sid,
                msg,
                decode_ns,
            },
        )
    }

    /// Queue a router-built response through `shard` so it lands in FIFO
    /// order with that shard's own responses.
    pub(crate) fn reply_via(
        &self,
        shard: usize,
        conn: &Arc<Conn>,
        sid: Option<u64>,
        msg: ServerMsg,
    ) -> bool {
        let conn = Arc::clone(conn);
        self.send(shard, ShardMsg::Reply { conn, sid, msg })
    }

    /// Finish every session `conn_id` owns anywhere in the pool: returns
    /// once each shard has finished and audited its share and dropped its
    /// end of the barrier (`recv` fails when the last sender is gone).
    pub(crate) fn close_conn(&self, conn_id: u64) {
        let (ack, barrier) = mpsc::channel::<()>();
        for tx in &self.txs {
            let _ = tx.send(ShardMsg::CloseConn {
                conn_id,
                ack: ack.clone(),
            });
        }
        drop(ack);
        let _ = barrier.recv();
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
pub(crate) type Key = (u64, Option<u64>);

fn constraint(violation: ConstraintViolation) -> ServerMsg {
    error("constraint", violation.to_string())
}

/// One shard executor: single-threaded ownership of its sessions — plain
/// mutable data, never behind a lock.
struct Shard {
    id: usize,
    daemon: Arc<Daemon>,
    sessions: HashMap<Key, ServeSession>,
    /// Every connection with traffic here, for the flush-when-empty cycle.
    conns: HashMap<u64, Arc<Conn>>,
}

impl Shard {
    fn new(id: usize, daemon: Arc<Daemon>) -> Shard {
        Shard {
            id,
            daemon,
            sessions: HashMap::new(),
            conns: HashMap::new(),
        }
    }

    fn stats(&self) -> &ShardStats {
        &self.daemon.shards[self.id]
    }

    fn remember(&mut self, conn: &Arc<Conn>) {
        self.conns
            .entry(conn.id)
            .or_insert_with(|| Arc::clone(conn));
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
                    for conn in self.conns.values() {
                        conn.flush();
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
                    self.remember(&conn);
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
                    self.remember(&conn);
                    self.handle_msg(&conn, sid, msg);
                }
                ShardMsg::CloseConn { conn_id, ack } => {
                    let Some(conn) = self.conns.remove(&conn_id) else {
                        continue;
                    };
                    let keys: Vec<Key> = self
                        .sessions
                        .keys()
                        .filter(|k| k.0 == conn_id)
                        .copied()
                        .collect();
                    for key in keys {
                        let session = self.sessions.remove(&key).expect("key just listed");
                        self.finish_session(&conn, key.1, session);
                    }
                    drop(ack);
                }
            }
        }
        if self.daemon.config.telemetry {
            com_obs::uninstall();
        }
    }

    /// Finish one session: drop its federation route (if any), close the
    /// run, audit it and send the `bye` (flushed immediately — it may be
    /// the last thing the connection says).
    fn finish_session(&mut self, conn: &Conn, sid: Option<u64>, session: ServeSession) {
        if let Some(fed_sid) = session.fed_sid() {
            self.daemon.fed_routes().remove(&fed_sid);
        }
        self.stats().sessions_open.fetch_sub(1, Ordering::Relaxed);
        let done = session.finish();
        self.daemon
            .counters
            .sessions_finished
            .fetch_add(1, Ordering::Relaxed);
        conn.send_for(sid, &ServerMsg::bye(done.bye()));
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
                        if let Some(fed_sid) = s.fed_sid() {
                            // The rival daemon's offers reach this session
                            // by fed_sid alone, whatever connection they
                            // arrive on, so a fed_sid names at most one live
                            // session per daemon: claim its route now that
                            // the session exists, or refuse the `hello`.
                            let mut routes = self.daemon.fed_routes();
                            if routes.contains_key(&fed_sid) {
                                counters.protocol_error();
                                let detail =
                                    format!("fed_sid {fed_sid} already has a live session");
                                conn.queue_for(sid, &error("duplicate-hello", detail));
                                return;
                            }
                            routes.insert(fed_sid, (self.id, key));
                        }
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
                        self.sessions.insert(key, s);
                    }
                    Err((code, detail)) => {
                        counters.protocol_error();
                        conn.queue_for(sid, &error(code, detail));
                    }
                }
            }
            ClientMsg::worker(msg) => self.with_session(conn, sid, |s| {
                s.worker(&msg).map_or_else(constraint, |()| ServerMsg::ok)
            }),
            ClientMsg::request(spec) => {
                self.with_session(conn, sid, |s| s.request(&spec).unwrap_or_else(constraint))
            }
            ClientMsg::tick { to } => self.with_session(conn, sid, |s| {
                s.tick(to).map_or_else(constraint, |()| ServerMsg::ok)
            }),
            ClientMsg::stats => {
                self.with_session(conn, sid, |s| ServerMsg::stats(s.stats()));
            }
            ClientMsg::outsource_offer(offer) => {
                // Offers arrive on the *peer daemon's* connection and routed
                // here by fed_sid (see `Daemon::fed_routes`, which also names
                // the session); answer on that same connection. The
                // borrower's shard thread is blocked on this verdict, so it
                // flushes immediately instead of joining the batched writer
                // cycle.
                let key = self
                    .daemon
                    .fed_routes()
                    .get(&offer.fed_sid)
                    .map(|&(_, key)| key);
                let response = match key.and_then(|k| self.sessions.get_mut(&k)) {
                    Some(session) => session.handle_offer(&offer),
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
                let queue = &self.stats().queue;
                let (depth, high_water) = (queue.depth(), queue.high_water());
                let oversized = conn.oversized.load(Ordering::Relaxed);
                let bad_envelope = conn.bad_envelope.load(Ordering::Relaxed);
                let general_frames = conn.general_frames.load(Ordering::Relaxed);
                let general_lines = conn.general_lines.load(Ordering::Relaxed);
                let rows: Vec<ShardRow> = self
                    .daemon
                    .shards
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s.row(i))
                    .collect();
                let shard = self.id as u64;
                self.with_session(conn, sid, |s| {
                    let mut deep = s.deep_stats(depth, high_water, oversized, bad_envelope);
                    deep.general_frames = general_frames;
                    deep.general_lines = general_lines;
                    deep.shard = Some(shard);
                    deep.shards = rows;
                    ServerMsg::stats_deep(Box::new(deep))
                });
            }
            ClientMsg::shutdown => match self.sessions.remove(&key) {
                Some(session) => {
                    self.finish_session(conn, sid, session);
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
    fn with_session(
        &mut self,
        conn: &Conn,
        sid: Option<u64>,
        f: impl FnOnce(&mut ServeSession) -> ServerMsg,
    ) {
        match self.sessions.get_mut(&(conn.id, sid)) {
            Some(session) => {
                let response = f(session);
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

    #[test]
    fn hash_placement_is_deterministic_and_connection_independent() {
        for sid in 0..64u64 {
            let a = place(0, Some(sid), 4);
            let b = place(99, Some(sid), 4);
            assert_eq!(a, b, "sid {sid}: placement must not depend on conn");
            assert_eq!(a, place(0, Some(sid), 4), "sid {sid}: stable");
            assert!(a < 4);
        }
        // Bare sessions key on the connection instead, also stably.
        assert_eq!(place(7, None, 4), place(7, None, 4));
        // Sids actually spread: 64 sids over 4 shards never all collapse
        // onto one.
        let distinct: std::collections::HashSet<usize> =
            (0..64).map(|sid| place(0, Some(sid), 4)).collect();
        assert!(distinct.len() > 1);
    }

    /// The drain contract, without sockets or sleeps: `CloseConn`'s ack is
    /// a barrier — once every sender is gone, every session the connection
    /// opened on the shard is finished and audited.
    #[test]
    fn close_conn_barrier_opens_only_after_every_session_is_finished() {
        let daemon = Arc::new(Daemon::new(Default::default()));
        let (tx, rx) = mpsc::sync_channel(8);
        let shard = {
            let daemon = Arc::clone(&daemon);
            // Sessions are not `Send`: the shard is built on its own thread.
            std::thread::spawn(move || Shard::new(0, daemon).shard_loop(rx))
        };
        let conn = Conn::new(7, None);
        for sid in 0..2 {
            let hello = ClientMsg::hello(Hello {
                matcher: "tota".into(),
                seed: sid,
                world: com_sim::WorldConfig::city(10.0),
                platforms: vec!["A".into(), "B".into()],
                max_value: None,
                frame: None,
                origin: None,
                fed: None,
            });
            let msg = ShardMsg::Ingress {
                conn: Arc::clone(&conn),
                sid: Some(sid),
                msg: hello,
                decode_ns: 0,
            };
            tx.send(msg).expect("shard alive");
        }
        let (ack, barrier) = mpsc::channel::<()>();
        let conn_id = conn.id;
        tx.send(ShardMsg::CloseConn { conn_id, ack })
            .expect("shard alive");
        assert!(barrier.recv().is_err(), "nothing is sent on the barrier");
        assert_eq!(daemon.counters.sessions_finished(), 2);
        let row = daemon.shards[0].row(0);
        assert_eq!((row.sessions, row.sessions_total), (0, 2));
        tx.send(ShardMsg::Stop).expect("shard alive");
        shard.join().expect("shard thread");
    }

    /// The flow-control contract, deterministically and without sockets
    /// or sleeps: a producer far ahead of the consumer parks on the full
    /// queue instead of dropping, so every message arrives, in order, and
    /// the queue never grows past its bound.
    #[test]
    fn full_shard_queue_blocks_the_producer_and_loses_nothing() {
        const CAPACITY: u64 = 1;
        let (tx, rx) = mpsc::sync_channel(CAPACITY as usize);
        let shared = PoolShared {
            txs: vec![tx],
            daemon: Arc::new(Daemon::new(Default::default())),
        };
        let queue = &shared.daemon.shards[0].queue;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let conn = Conn::new(0, None);
                for sid in 0..1_000 {
                    assert!(shared.ingress(0, &conn, Some(sid), ClientMsg::stats, 0));
                }
            });
            for expected in 0..1_000 {
                match rx.recv().expect("producer still sending") {
                    ShardMsg::Ingress { sid, .. } => assert_eq!(sid, Some(expected)),
                    _ => panic!("message {expected} is not ingress"),
                }
                queue.on_drain();
            }
        });
        assert!(rx.try_recv().is_err(), "exactly 1,000 messages arrived");
        assert_eq!(shared.daemon.shards[0].row(0).events_routed, 1_000);
        assert_eq!(queue.depth(), 0);
        // Queued, plus one parked in `send`, plus one received above but
        // not yet counted out.
        assert!(queue.high_water() <= CAPACITY + 2, "{}", queue.high_water());
        // A gone shard (server stopping) reports dead and leaves no count.
        drop(rx);
        let conn = Conn::new(0, None);
        assert!(!shared.ingress(0, &conn, None, ClientMsg::stats, 0));
        assert!(!shared.reply_via(0, &conn, None, ServerMsg::ok));
        assert_eq!(queue.depth(), 0);
    }
}
