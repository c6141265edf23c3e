//! The threaded TCP server behind `matchd`.
//!
//! The server is **shared-nothing**: one accept thread blocks in `accept`
//! (re-checking the stop flag every `POLL_INTERVAL / 2`); each connection
//! gets a **router thread**
//! (socket → decode → shard dispatch) and sessions execute on a fixed
//! pool of **shard worker threads** ([`crate::shard`]) that own their
//! sessions outright. The router keeps no state: it decodes each wire
//! message (both framings, detected per message from the first byte) and
//! hands it to the shard that `shard::place` names for its address — the
//! `sid` of a mux envelope, or the connection's bare session — over a
//! bounded `sync_channel`; the shard answers a message for a session it
//! does not hold. When a shard's ingress queue is full the router *waits*: its
//! socket goes unread and TCP pushes back on the client, so ingress never
//! grows unboundedly no matter how fast clients flood, and nothing the
//! router accepted is ever dropped.
//!
//! Every message gets exactly one answer, in order. Input the router
//! refuses — undecodable, over a cap ([`framing::MAX_LINE_BYTES`],
//! [`framing::MAX_FRAME_PAYLOAD`]; the reader skips the oversized bytes
//! without buffering them), not UTF-8 — is counted and its typed error
//! queued through the bare session's shard, behind the answers to
//! everything read before it. The one answer the router writes itself is
//! an offer verdict ([`crate::fed`]), in the offer's own framing.
//!
//! Teardown is always graceful: a protocol `shutdown`, a client
//! disconnect, or [`ServerHandle::shutdown`] all drain each logical
//! session through [`crate::session::ServeSession::finish`] — the run is
//! closed, audited with `com_core::validate_run`, and (when the socket
//! still exists) reported in a `bye`. On disconnect the router broadcasts
//! a close to every shard and waits on that barrier: every session the
//! connection opened, on whatever shard, is finished and audited before
//! the router's last flush. Router threads poll a stop flag on a read
//! timeout, so every thread joins; nothing is detached.
//!
//! Responses are batched: shards queue encoded replies into each
//! connection's writer and flush only when their ingress queue runs dry
//! (or the buffer crosses its threshold), so a burst of pipelined client
//! messages costs one write syscall, not one per decision.
//!
//! Two owned shapes carry all cross-thread state. `Daemon` — config, stop
//! flag, counters, per-shard stats, the federation table — is built by
//! [`serve`] before any thread starts and shared as one `Arc`. `Conn` is
//! one accepted connection — id, writer behind its mutex, rejection
//! counters, `done` flag — allocated once at accept; its router and every
//! shard owning one of its sessions hold the same `Arc`, and a routed
//! message costs one refcount bump.

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::OwnedFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fed::LendBook;
use crate::framing::{self, Piece, WireFormat, WireReader, MAX_FRAME_PAYLOAD, MAX_LINE_BYTES};
use crate::protocol::{
    read_line, write_msg, ClientFrame, ClientMsg, DecodeError, ErrorMsg, ServerMsg,
};
use crate::session::FinishedSession;
use crate::shard::{place, PoolShared, ShardPool, ShardStats};

/// How long blocking points (socket reads, queue receives, parked
/// offers) wait before re-checking the stop flag. Bounds shutdown latency.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (read it back from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Ingress queue capacity per shard: decoded messages buffered
    /// between router threads and the shard executor before a router
    /// blocks. Sizes a buffer; correctness does not depend on it.
    pub queue_capacity: usize,
    /// Shard worker threads (each owns its sessions outright). Clamped to
    /// at least 1.
    pub shards: usize,
    /// Exit the accept loop once at least one connection was accepted and
    /// all accepted connections have finished (CI and one-shot
    /// benchmarks).
    pub once: bool,
    /// Flight recorder: write one trace per logical session into this
    /// directory (`matchd --record`). `None` = no recording.
    pub record_dir: Option<PathBuf>,
    /// Install a per-shard telemetry collector so `stats_deep` can report
    /// the phase table. On by default; the collector is thread-local and
    /// off the hot path when nobody asks.
    pub telemetry: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 1024,
            shards: 1,
            once: false,
            record_dir: None,
            telemetry: true,
        }
    }
}

/// Ingress-queue health for one shard, shared between router threads
/// (increment before the blocking send) and the shard executor (decrement
/// on drain). `sync_channel` exposes no length, so the queue keeps its
/// own; it includes messages a router is parked on.
#[derive(Debug, Default)]
pub(crate) struct QueueStats {
    depth: AtomicU64,
    high_water: AtomicU64,
}

impl QueueStats {
    /// Messages queued right now.
    pub(crate) fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Deepest the queue has ever been.
    pub(crate) fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    pub(crate) fn on_enqueue(&self) {
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(depth, Ordering::Relaxed);
    }

    pub(crate) fn on_drain(&self) -> u64 {
        // Saturating: control messages (close, stop) are not counted on
        // enqueue.
        self.depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            })
            .unwrap_or(0)
            .saturating_sub(1)
    }
}

/// Monotonic server-wide counters, shared with tests and `stats`
/// responses.
#[derive(Debug, Default)]
pub struct ServerCounters {
    pub connections: AtomicU64,
    pub(crate) sessions_finished: AtomicU64,
    /// Protocol errors answered (bad JSON, unknown message, unknown sid,
    /// …).
    pub(crate) protocol_errors: AtomicU64,
}

impl ServerCounters {
    pub(crate) fn protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }
    pub fn sessions_finished(&self) -> u64 {
        self.sessions_finished.load(Ordering::Relaxed)
    }
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors.load(Ordering::Relaxed)
    }
}

/// Everything the daemon's threads share, built once by [`serve`] before
/// any of them starts and reached through one `Arc`: the configuration,
/// the stop flag, the server-wide counters, the per-shard health table,
/// the logical-session id allocator and the federation table (`fed_sid`
/// → lend book).
pub(crate) struct Daemon {
    pub(crate) config: ServerConfig,
    stop: AtomicBool,
    pub(crate) counters: ServerCounters,
    /// One row per shard executor (`config.shards`, at least one).
    pub(crate) shards: Vec<ShardStats>,
    /// Dense logical session ids, in `hello` order across all shards.
    pub(crate) next_lsid: AtomicU64,
    /// Federation routing: `fed_sid` → the session's lend book. Offers
    /// arrive on the *peer's* connection, whose addresses name no session
    /// here — they route by the shared federation session id instead, and
    /// the router answers from the book without entering a shard queue.
    /// The owning shard inserts once the session is open (refusing a
    /// `fed_sid` that is already routed) and removes when it finishes. Off the per-event hot path (touched
    /// only on fed `hello`s and inbound offers).
    fed_routes: Mutex<HashMap<u64, Arc<LendBook>>>,
}

impl Daemon {
    pub(crate) fn new(config: ServerConfig) -> Daemon {
        Daemon {
            shards: (0..config.shards.max(1))
                .map(|_| ShardStats::default())
                .collect(),
            config,
            stop: AtomicBool::new(false),
            counters: ServerCounters::default(),
            next_lsid: AtomicU64::new(0),
            fed_routes: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn fed_routes(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<LendBook>>> {
        self.fed_routes
            .lock()
            .expect("no code path panics while holding the fed route table")
    }
}

/// A running server. Dropping the handle stops it; prefer
/// [`ServerHandle::shutdown`] (or [`ServerHandle::join`] in `once` mode)
/// to observe the join.
pub struct ServerHandle {
    addr: SocketAddr,
    daemon: Arc<Daemon>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn counters(&self) -> &ServerCounters {
        &self.daemon.counters
    }

    /// Signal stop and join every thread. Sessions still connected are
    /// drained, audited, and sent a final `bye`.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Wait for the accept loop to exit on its own (`once` mode).
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.daemon.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Bind and start serving. Returns once the listener is live; the accept
/// loop runs on its own thread until [`ServerHandle::shutdown`] (or, with
/// [`ServerConfig::once`], until every accepted connection completes).
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // A blocking accept that gives up after `POLL_INTERVAL / 2` to re-check
    // the stop flag: Linux's `accept` honours `SO_RCVTIMEO`, which std sets
    // only through a `TcpStream`.
    let listener = {
        let socket = TcpStream::from(OwnedFd::from(listener));
        socket.set_read_timeout(Some(POLL_INTERVAL / 2))?;
        TcpListener::from(OwnedFd::from(socket))
    };
    let daemon = Arc::new(Daemon::new(config));
    let accept = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || accept_loop(listener, daemon))
    };
    Ok(ServerHandle {
        addr,
        daemon,
        accept: Some(accept),
    })
}

fn accept_loop(listener: TcpListener, daemon: Arc<Daemon>) {
    let pool = ShardPool::start(&daemon);
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    let mut accepted_any = false;
    while !daemon.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Both sides batch into few large writes, so Nagle buys
                // nothing and its delayed-ACK interaction can stall a
                // pipelined burst mid-window.
                stream.set_nodelay(true).ok();
                accepted_any = true;
                let conn_id = daemon.counters.connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(&pool.shared);
                connections.push(std::thread::spawn(move || {
                    handle_connection(stream, conn_id, shared)
                }));
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
        // Reap finished connections so the vec stays bounded. In `once`
        // mode, exit when everything accepted so far has drained — a
        // multi-connection client holds all its connections open until
        // its last session says goodbye, so this cannot fire early.
        connections.retain(|h| !h.is_finished());
        if daemon.config.once && accepted_any && connections.is_empty() {
            break;
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
    pool.stop();
}

/// The stream plus its pending output buffer and negotiated framing.
struct WriterState {
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    format: WireFormat,
}

/// Flush eagerly once the pending buffer passes this size, even when the
/// shard queue is still busy — bounds writer memory under a client that
/// streams without ever pausing.
const FLUSH_THRESHOLD: usize = 256 * 1024;

/// One accepted connection: everything its router thread and the shards
/// owning its sessions share, behind one `Arc` — identity, the writer, the
/// per-connection rejection counters, and the `done` flag a bare-session
/// `shutdown` uses to end the connection.
///
/// The writer mutex guards the pending output buffer, the socket's write
/// half and the negotiated framing. Responses are *queued* and flushed in
/// batches (see [`Conn::flush`]). It is contended only when the
/// connection's sessions live on more than one shard or its router writes
/// an offer verdict.
pub(crate) struct Conn {
    pub(crate) id: u64,
    writer: Mutex<WriterState>,
    /// Set once the writer lock was found poisoned (logged once).
    poison_noted: AtomicBool,
    pub(crate) oversized: AtomicU64,
    /// Mux frames rejected for a malformed envelope (missing/ill-typed
    /// `sid` or missing `msg`) — the `stats_deep.bad_envelope_rejected`
    /// figure.
    pub(crate) bad_envelope: AtomicU64,
    /// Binary frames decoded through `Content` rather than a typed hot
    /// layout — the `stats_deep.general_frames` figure.
    pub(crate) general_frames: AtomicU64,
    /// NDJSON lines decoded through `Content` — `stats_deep.general_lines`.
    pub(crate) general_lines: AtomicU64,
    pub(crate) done: AtomicBool,
}

impl Conn {
    /// `stream: None` is a detached connection whose writes go nowhere.
    pub(crate) fn new(id: u64, stream: Option<TcpStream>) -> Arc<Conn> {
        Arc::new(Conn {
            id,
            writer: Mutex::new(WriterState {
                stream,
                buf: Vec::new(),
                format: WireFormat::Ndjson,
            }),
            poison_noted: AtomicBool::new(false),
            oversized: AtomicU64::new(0),
            bad_envelope: AtomicU64::new(0),
            general_frames: AtomicU64::new(0),
            general_lines: AtomicU64::new(0),
            done: AtomicBool::new(false),
        })
    }

    /// Lock the writer, recovering a poisoned guard instead of cascading
    /// the panic into every other thread. The state a writer protects (a
    /// byte buffer and a stream) stays usable whatever the panicking
    /// thread was doing; recovery is logged once per connection.
    fn lock(&self) -> std::sync::MutexGuard<'_, WriterState> {
        self.writer.lock().unwrap_or_else(|poisoned| {
            if !self.poison_noted.swap(true, Ordering::Relaxed) {
                eprintln!("matchd: recovered poisoned writer lock");
            }
            poisoned.into_inner()
        })
    }

    /// Switch the outgoing framing (after a successful negotiation). The
    /// already-queued bytes — the NDJSON `welcome` — are untouched.
    pub(crate) fn set_format(&self, format: WireFormat) {
        self.lock().format = format;
    }

    /// Queue one response for the logical session `sid` addresses — bare
    /// for `None`, in the `{"sid":…,"msg":…}` envelope otherwise — into
    /// the pending buffer without flushing. The message is written where
    /// it lies, so tagging a response never clones it.
    pub(crate) fn queue_for(&self, sid: Option<u64>, msg: &ServerMsg) {
        let mut state = self.lock();
        let _span = com_obs::span(com_obs::PHASE_SERVE_ENCODE);
        write_msg(state.format, sid, msg, &mut state.buf);
        if state.buf.len() >= FLUSH_THRESHOLD {
            drop(_span);
            Self::flush_locked(&mut state);
        }
    }

    /// Write one offer verdict in the offer's own framing and flush it at
    /// once, with whatever the shards had queued before it — the router's
    /// only direct write.
    pub(crate) fn send_verdict(&self, format: WireFormat, sid: Option<u64>, verdict: &ServerMsg) {
        let mut state = self.lock();
        {
            let _span = com_obs::span(com_obs::PHASE_SERVE_ENCODE);
            write_msg(format, sid, verdict, &mut state.buf);
        }
        Self::flush_locked(&mut state);
    }

    /// Write the pending buffer to the socket. Errors are deliberately
    /// swallowed (a vanished peer must not abort the draining session),
    /// but they do drop the stream so a dead connection stops costing
    /// write syscalls. The `flush` span lands in whichever thread calls
    /// this — a shard's collector for responses; a no-op for the router
    /// thread.
    pub(crate) fn flush(&self) {
        Self::flush_locked(&mut self.lock());
    }

    /// A session's final `bye`, flushed at once — timed as one `serve-bye`
    /// sample, not as `encode` and `flush`.
    pub(crate) fn send_bye(&self, sid: Option<u64>, done: &FinishedSession) {
        let bye = ServerMsg::bye(done.bye());
        let mut state = self.lock();
        let _span = com_obs::span(com_obs::PHASE_SERVE_BYE);
        write_msg(state.format, sid, &bye, &mut state.buf);
        Self::write_out(&mut state);
    }

    fn flush_locked(state: &mut WriterState) {
        if state.buf.is_empty() {
            return;
        }
        let _span = com_obs::span(com_obs::PHASE_SERVE_FLUSH);
        Self::write_out(state);
    }

    fn write_out(state: &mut WriterState) {
        if let Some(stream) = state.stream.as_mut() {
            if stream.write_all(&state.buf).is_err() {
                state.stream = None;
            }
        }
        state.buf.clear();
    }
}

fn handle_connection(mut stream: TcpStream, conn_id: u64, pool: Arc<PoolShared>) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let router = Router {
        conn: Conn::new(conn_id, stream.try_clone().ok()),
        pool,
    };
    router.read_from(&mut stream);
    // The socket is done (EOF, error, stop, or a bare-session shutdown):
    // finish and audit every logical session this connection opened,
    // wherever it lives.
    router.pool.close_conn(conn_id);
    // Anything a shard queued after its last flush leaves with the
    // connection.
    router.conn.flush();
}

/// One connection's router. It keeps no state of its own: every message
/// goes to the shard [`place`] names for its address, and every refusal
/// to the bare session's shard, so each answer leaves in read order.
struct Router {
    pool: Arc<PoolShared>,
    conn: Arc<Conn>,
}

impl Router {
    /// Read the connection until EOF, a socket error, the stop flag, a
    /// bare-session `shutdown` or the shard pool's end.
    fn read_from(&self, stream: &mut TcpStream) {
        let mut reader = WireReader::new(MAX_LINE_BYTES, MAX_FRAME_PAYLOAD);
        loop {
            while let Some(piece) = reader.next_piece() {
                if !self.on_piece(piece) {
                    return; // shard pool gone (server stopping)
                }
            }
            if self.pool.daemon.stop.load(Ordering::SeqCst) || self.conn.done.load(Ordering::SeqCst)
            {
                return;
            }
            match reader.fill(stream) {
                Ok(n) if n > 0 => {}
                // Read timeout: loop to re-check the stop flags.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                _ => return, // EOF or a socket error
            }
        }
    }

    /// The router's policy for one piece: a message is decoded and routed;
    /// refused input is answered with its typed error, and the connection
    /// carries on. Returns `false` when the shard pool is gone.
    fn on_piece(&self, piece: Piece<'_>) -> bool {
        let started = Instant::now();
        let conn = &self.conn;
        let (format, (decoded, general), general_count) = match piece {
            Piece::Line(line) => (
                WireFormat::Ndjson,
                read_line::<ClientMsg>(line),
                &conn.general_lines,
            ),
            Piece::Frame(payload) => (
                WireFormat::Binary,
                framing::read_frame::<ClientMsg>(payload),
                &conn.general_frames,
            ),
            Piece::OversizedFrame(len) => {
                conn.oversized.fetch_add(1, Ordering::Relaxed);
                let detail = format!("frame payload of {len} bytes exceeds {MAX_FRAME_PAYLOAD}");
                return self.refuse(error("oversized-frame", detail));
            }
            Piece::OversizedLine => {
                conn.oversized.fetch_add(1, Ordering::Relaxed);
                let detail = format!("line exceeds {MAX_LINE_BYTES} bytes");
                return self.refuse(error("oversized-line", detail));
            }
            // Not UTF-8, so not JSON either.
            Piece::NotUtf8(e) => {
                return self.refuse(error("bad-json", format!("line is not UTF-8: {e}")))
            }
        };
        let decode_ns = started.elapsed().as_nanos() as u64;
        if general {
            general_count.fetch_add(1, Ordering::Relaxed);
        }
        let refusal = match decoded {
            Ok(ClientFrame { sid, msg }) => return self.route(format, sid, msg, decode_ns),
            Err(DecodeError::BadJson(d)) => error("bad-json", d),
            Err(DecodeError::BadFrame(d)) => error("bad-frame", d),
            Err(DecodeError::BadEnvelope(d)) => {
                conn.bad_envelope.fetch_add(1, Ordering::Relaxed);
                error("bad-envelope", d)
            }
            Err(DecodeError::UnknownMessage(d)) => error("unknown-message", d),
        };
        self.refuse(refusal)
    }

    /// Hand one decoded message to the shard owning its session; a
    /// message for no session is answered there too. Returns `false` when
    /// the pool is gone (server stopping).
    fn route(&self, format: WireFormat, sid: Option<u64>, msg: ClientMsg, decode_ns: u64) -> bool {
        let daemon = &self.pool.daemon;
        // An outsource offer is the one exception, answered here from the
        // session's lend book, which its shared fed_sid names whatever
        // connection the offer came in on: parking on a shard could
        // deadlock the pair (see `crate::fed`). The borrower's shard is
        // blocked on the verdict, so it is flushed at once.
        if let ClientMsg::outsource_offer(o) = &msg {
            let book = daemon.fed_routes().get(&o.fed_sid).cloned();
            let verdict = book
                .and_then(|book| book.answer(o, &daemon.stop))
                .unwrap_or_else(|| {
                    daemon.counters.protocol_error();
                    ServerMsg::outsource_reject {
                        fed_sid: o.fed_sid,
                        offer: o.offer,
                        code: "unknown-fed-session".into(),
                        detail: format!("no federated session with fed_sid {}", o.fed_sid),
                    }
                });
            self.conn.send_verdict(format, sid, &verdict);
            return true;
        }
        let shard = place(self.conn.id, sid, daemon.shards.len());
        self.pool.ingress(shard, &self.conn, sid, msg, decode_ns)
    }

    /// Count one protocol error and queue its answer through the bare
    /// session's shard, behind everything read before it.
    fn refuse(&self, response: ServerMsg) -> bool {
        let daemon = &self.pool.daemon;
        daemon.counters.protocol_error();
        let shard = place(self.conn.id, None, daemon.shards.len());
        self.pool.reply_via(shard, &self.conn, response)
    }
}

pub(crate) fn error(code: &str, detail: impl Into<String>) -> ServerMsg {
    ServerMsg::error(ErrorMsg {
        code: code.into(),
        detail: detail.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_stats_high_water_survives_draining() {
        let stats = QueueStats::default();
        for _ in 0..5 {
            stats.on_enqueue();
        }
        assert_eq!(stats.high_water(), 5);
        for expected in (0..5).rev() {
            assert_eq!(stats.on_drain(), expected);
        }
        assert_eq!(stats.depth(), 0);
        assert_eq!(stats.high_water(), 5);
        // Draining a control-only queue never underflows.
        assert_eq!(stats.on_drain(), 0);
    }

    /// The ordering contract, without sockets or threads: each message the
    /// router reads enters a shard queue, refusals included, in read
    /// order, so no answer overtakes one queued before it.
    #[test]
    fn the_router_queues_every_answer_in_read_order() {
        use crate::protocol::{encode, Hello};
        use crate::shard::ShardMsg;
        use com_geo::Point;
        use com_sim::{PlatformId, RequestId, RequestSpec, Timestamp};

        let (tx, rx) = std::sync::mpsc::sync_channel(8);
        let router = Router {
            pool: Arc::new(PoolShared {
                txs: vec![tx],
                daemon: Arc::new(Daemon::new(ServerConfig::default())),
            }),
            conn: Conn::new(0, None),
        };
        let hello = encode(&ClientMsg::hello(Hello {
            matcher: "tota".into(),
            seed: 1,
            world: com_sim::WorldConfig::city(10.0),
            platforms: vec!["A".into(), "B".into()],
            max_value: None,
            frame: None,
            origin: None,
            fed: None,
        }));
        let request = encode(&ClientMsg::request(RequestSpec::new(
            RequestId(1),
            PlatformId(0),
            Timestamp::from_secs(1.0),
            Point::new(1.0, 1.0),
            5.0,
        )));
        let not_utf8 = std::str::from_utf8(&"é".as_bytes()[..1]).unwrap_err();
        for piece in [
            Piece::Line(&hello),
            Piece::Line(&request),
            Piece::OversizedLine,
            Piece::NotUtf8(not_utf8),
            Piece::Line(&request),
            Piece::Line("{\"request\":"),
        ] {
            assert!(router.on_piece(piece));
        }
        let queued: Vec<String> = rx
            .try_iter()
            .map(|msg| match msg {
                ShardMsg::Ingress {
                    msg: ClientMsg::hello(_),
                    ..
                } => "hello".into(),
                ShardMsg::Ingress {
                    msg: ClientMsg::request(_),
                    ..
                } => "request".into(),
                ShardMsg::Reply {
                    msg: ServerMsg::error(e),
                    ..
                } => e.code,
                _ => panic!("neither a routed message nor a refusal"),
            })
            .collect();
        let expected = [
            "hello",
            "request",
            "oversized-line",
            "bad-json",
            "request",
            "bad-json",
        ];
        assert_eq!(queued, expected);
        assert_eq!(router.pool.daemon.counters.protocol_errors(), 3);
    }

    /// What the router's reader cuts off `chunks`, fed one read each, as
    /// `{:?}` text.
    fn ingress(chunks: &[&[u8]]) -> Vec<String> {
        let mut reader = WireReader::new(MAX_LINE_BYTES, MAX_FRAME_PAYLOAD);
        let mut got = Vec::new();
        for mut chunk in chunks.iter().copied() {
            while reader.fill(&mut chunk).unwrap() > 0 {
                while let Some(piece) = reader.next_piece() {
                    got.push(format!("{piece:?}"));
                }
            }
        }
        got
    }

    fn line(text: &str) -> String {
        format!("{:?}", Piece::Line(text))
    }

    #[test]
    fn drain_ingress_splits_mixed_framings() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"{\"stats\":null}\n");
        framing::write_frame(&ServerMsg::ok, &mut buf);
        buf.extend_from_slice(b"  \n{\"shutdown\":null}\n");
        let frame = framing::encode_frame(&ServerMsg::ok);
        let payload = format!("{:?}", Piece::Frame(&frame[framing::FRAME_HEADER_LEN..]));
        assert_eq!(
            ingress(&[&buf]),
            vec![
                line("{\"stats\":null}"),
                payload,
                line("{\"shutdown\":null}")
            ]
        );
    }

    #[test]
    fn drain_ingress_buffers_incomplete_input() {
        assert!(ingress(&[b"{\"stats\":nul"]).is_empty(), "no newline yet");
        assert_eq!(
            ingress(&[b"{\"stats\":nul", b"l}\n"]),
            vec![line("{\"stats\":null}")],
            "the partial line waits for its end"
        );
    }

    #[test]
    fn drain_ingress_rejects_and_discards_oversized_lines() {
        // An unterminated line past the cap is rejected once, then its
        // remaining bytes drain to the newline, then a good line.
        let endless = vec![b'x'; MAX_LINE_BYTES + 10];
        assert_eq!(
            ingress(&[&endless, b"yyy\n{\"stats\":null}\n"]),
            vec![
                format!("{:?}", Piece::OversizedLine),
                line("{\"stats\":null}")
            ]
        );
    }
}
