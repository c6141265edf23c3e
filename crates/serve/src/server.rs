//! The threaded TCP server behind `matchd`.
//!
//! Since the shard rework the server is **shared-nothing**: one accept
//! thread polls a non-blocking listener; each connection gets a **router
//! thread** (socket → decode → shard dispatch) and sessions execute on a
//! fixed pool of **shard worker threads** ([`crate::shard`]) that own
//! their sessions outright. The router decodes each wire message (both
//! framings, detected per message from the first byte), resolves the
//! logical session it addresses — the `sid` of a mux envelope, or the
//! connection's bare session — and hands the decoded message to that
//! session's shard over a bounded `sync_channel`. When a shard's ingress
//! queue is full the router *waits*: its socket goes unread and TCP pushes
//! back on the client, so ingress never grows unboundedly no matter how
//! fast clients flood, and nothing the router accepted is ever dropped.
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
//! Input caps are enforced before decoding: a line longer than
//! [`framing::MAX_LINE_BYTES`] or a frame payload larger than
//! [`framing::MAX_FRAME_PAYLOAD`] is answered with a typed error, counted
//! per connection, and discarded without ever buffering the oversized
//! bytes. Responses are batched: shards queue encoded replies into each
//! connection's writer and flush only when their ingress queue
//! runs dry (or the buffer crosses its threshold), so a burst of
//! pipelined client messages costs one write syscall, not one per
//! decision.
//!
//! Two owned shapes carry all cross-thread state. `Daemon` — config, stop
//! flag, counters, per-shard stats, the federation route table — is built
//! by [`serve`] before any thread starts and shared as one `Arc`. `Conn`
//! is one accepted connection — id, writer behind its mutex, rejection
//! counters, `done` flag — allocated once at accept; its router and every
//! shard owning one of its sessions hold the same `Arc`, and a routed
//! message costs one refcount bump.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fed::LendBook;
use crate::framing::{self, split_frame, FrameSplit, WireFormat, FRAME_MAGIC, MAX_LINE_BYTES};
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
pub struct QueueStats {
    depth: AtomicU64,
    high_water: AtomicU64,
}

impl QueueStats {
    /// Messages queued right now.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Deepest the queue has ever been.
    pub fn high_water(&self) -> u64 {
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
    pub sessions_finished: AtomicU64,
    /// Protocol errors answered (bad JSON, unknown message, unknown sid,
    /// …).
    pub protocol_errors: AtomicU64,
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
/// the logical-session id allocator and the federation route table.
pub(crate) struct Daemon {
    pub(crate) config: ServerConfig,
    stop: AtomicBool,
    pub(crate) counters: ServerCounters,
    /// One row per shard executor (`config.shards`, at least one).
    pub(crate) shards: Vec<ShardStats>,
    /// Dense logical session ids, in `hello` order across all shards.
    pub(crate) next_lsid: AtomicU64,
    /// Federation routing: `fed_sid` → the session's lend book. Offers
    /// arrive on the *peer's* connection, which has no `(conn, sid)` route
    /// to the session that must answer them — they route by the shared
    /// federation session id instead, and the router answers from the
    /// book without entering a shard queue. The owning shard inserts once
    /// the session is open (refusing a `fed_sid` that is already routed)
    /// and removes when it finishes. Off the per-event hot path (touched
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
    listener.set_nonblocking(true)?;
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
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL / 2);
            }
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
/// half and the negotiated framing, so queued responses and the router's
/// out-of-band refusals interleave in a well-defined order. Responses are
/// *queued* and flushed in batches (see [`Conn::flush`]). It is contended
/// only when the router writes out of band (typed rejections) or when
/// the connection's sessions live on more than one shard.
pub(crate) struct Conn {
    pub(crate) id: u64,
    writer: Mutex<WriterState>,
    /// One audit finding per connection when the lock is found poisoned.
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
    /// thread was doing; recovery is logged once per connection as an
    /// audit finding.
    fn lock(&self) -> std::sync::MutexGuard<'_, WriterState> {
        self.writer.lock().unwrap_or_else(|poisoned| {
            if !self.poison_noted.swap(true, Ordering::Relaxed) {
                com_core::record_findings(
                    "matchd shared writer",
                    &[com_core::AuditFinding::Serving {
                        detail: "writer lock poisoned by a panicking connection thread; \
                                 recovered and kept serving"
                            .into(),
                    }],
                );
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

    /// Queue-and-flush counterpart of [`Conn::queue_for`], in one lock
    /// acquisition — the path for immediate messages (rejections, offer
    /// verdicts).
    pub(crate) fn send_for(&self, sid: Option<u64>, msg: &ServerMsg) {
        let mut state = self.lock();
        {
            let _span = com_obs::span(com_obs::PHASE_SERVE_ENCODE);
            write_msg(state.format, sid, msg, &mut state.buf);
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

fn handle_connection(stream: TcpStream, conn_id: u64, pool: Arc<PoolShared>) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut router = Router {
        conn: Conn::new(conn_id, stream.try_clone().ok()),
        routes: HashMap::new(),
        pool,
    };
    reader_loop(stream, &mut router);
    // The socket is done (EOF, error, stop, or a bare-session shutdown):
    // finish and audit every logical session this connection opened,
    // wherever it lives.
    router.pool.close_conn(conn_id);
    // Anything a shard queued after its last flush leaves with the
    // connection.
    router.conn.flush();
}

/// Where decoded ingress goes — implemented by [`Router`] in production
/// and by recording sinks in tests, so the byte-level splitting in
/// [`drain_ingress`] stays deterministically unit-testable without
/// sockets.
pub(crate) trait IngressSink {
    /// One NDJSON line (trimmed, non-empty). Returns `false` when the
    /// server side is gone.
    fn on_line(&mut self, line: &str) -> bool;
    /// One binary frame payload (header stripped, length already capped).
    fn on_frame(&mut self, payload: &[u8]) -> bool;
    /// An oversized line/frame was rejected and is being discarded.
    fn reject_oversized(&mut self, code: &str, detail: String);
    /// A line that can never decode (not UTF-8).
    fn reject_bad_line(&mut self, detail: String);
}

/// Per-connection routing state: which shard owns each logical session
/// this connection has said `hello` for.
struct Router {
    pool: Arc<PoolShared>,
    /// `None` = the connection's bare session (the one-session
    /// addressing).
    routes: HashMap<Option<u64>, usize>,
    conn: Arc<Conn>,
}

impl Router {
    /// Count one protocol error and answer it out of band.
    fn refuse(&self, sid: Option<u64>, response: &ServerMsg) {
        self.pool.daemon.counters.protocol_error();
        self.conn.send_for(sid, response);
    }

    /// Dispatch one decoded message to the shard owning its session.
    /// Returns `false` when the pool is gone (server stopping).
    fn route(&mut self, sid: Option<u64>, msg: ClientMsg, decode_ns: u64) -> bool {
        let daemon = &self.pool.daemon;
        // An outsource offer arrives on the *peer daemon's* connection,
        // which has no (conn, sid) route to the federated session that
        // must answer it — it routes by the shared fed_sid through the
        // daemon-global federation registry instead, whatever connection
        // it came in on, and is answered here, from the session's lend
        // book: parking on a shard could deadlock the pair (see
        // `crate::fed`). The borrower's shard is blocked on the verdict, so
        // it is flushed at once.
        if let ClientMsg::outsource_offer(o) = &msg {
            let book = daemon.fed_routes().get(&o.fed_sid).cloned();
            match book.and_then(|book| book.answer(o, &daemon.stop)) {
                Some(verdict) => self.conn.send_for(sid, &verdict),
                None => self.refuse(
                    sid,
                    &ServerMsg::outsource_reject {
                        fed_sid: o.fed_sid,
                        offer: o.offer,
                        code: "unknown-fed-session".into(),
                        detail: format!("no federated session with fed_sid {}", o.fed_sid),
                    },
                ),
            }
            return true;
        }
        let shard = match self.routes.get(&sid) {
            // Sticky for the connection's lifetime: a duplicate `hello`
            // must reach the shard that owns the live session.
            Some(&shard) => shard,
            None => match &msg {
                ClientMsg::hello(_) => {
                    let shard = place(self.conn.id, sid, daemon.shards.len());
                    self.routes.insert(sid, shard);
                    shard
                }
                other => {
                    // Not a hello and no session to address: refuse at
                    // the router — there is no shard to order against.
                    let response = match sid {
                        Some(s) => error("unknown-sid", format!("no open session with sid {s}")),
                        None if matches!(other, ClientMsg::shutdown) => {
                            error("no-session", "shutdown before hello")
                        }
                        None => error("no-session", "say hello first"),
                    };
                    self.refuse(sid, &response);
                    return true;
                }
            },
        };
        self.pool.ingress(shard, &self.conn, sid, msg, decode_ns)
    }

    /// Route a decoded frame, or answer its decode failure. When the
    /// connection has a bare session the error is routed through its
    /// shard so it lands in FIFO order with pipelined responses;
    /// otherwise it is written immediately.
    fn dispatch(&mut self, decoded: Result<ClientFrame, DecodeError>, decode_ns: u64) -> bool {
        let err = match decoded {
            Ok(ClientFrame { sid, msg }) => return self.route(sid, msg, decode_ns),
            Err(err) => err,
        };
        self.pool.daemon.counters.protocol_error();
        let response = match err {
            DecodeError::BadJson(d) => error("bad-json", d),
            DecodeError::BadFrame(d) => error("bad-frame", d),
            DecodeError::BadEnvelope(d) => {
                self.conn.bad_envelope.fetch_add(1, Ordering::Relaxed);
                error("bad-envelope", d)
            }
            DecodeError::UnknownMessage(d) => error("unknown-message", d),
        };
        match self.routes.get(&None) {
            Some(&shard) => self.pool.reply_via(shard, &self.conn, None, response),
            None => {
                self.conn.send_for(None, &response);
                true
            }
        }
    }
}

impl IngressSink for Router {
    fn on_line(&mut self, line: &str) -> bool {
        let started = Instant::now();
        let (decoded, general) = read_line::<ClientMsg>(line);
        let decode_ns = started.elapsed().as_nanos() as u64;
        if general {
            self.conn.general_lines.fetch_add(1, Ordering::Relaxed);
        }
        self.dispatch(decoded, decode_ns)
    }

    fn on_frame(&mut self, payload: &[u8]) -> bool {
        let started = Instant::now();
        let (decoded, general) = framing::read_frame::<ClientMsg>(payload);
        let decode_ns = started.elapsed().as_nanos() as u64;
        if general {
            self.conn.general_frames.fetch_add(1, Ordering::Relaxed);
        }
        // Reply framing follows offer framing on a pure peer-link
        // connection (no sessions of its own): a borrower sending binary
        // offers reads binary verdicts back. Ordinary session connections
        // negotiate framing in `hello` and are left alone.
        if self.routes.is_empty()
            && matches!(&decoded, Ok(frame) if matches!(frame.msg, ClientMsg::outsource_offer(_)))
        {
            self.conn.set_format(WireFormat::Binary);
        }
        self.dispatch(decoded, decode_ns)
    }

    fn reject_oversized(&mut self, code: &str, detail: String) {
        self.conn.oversized.fetch_add(1, Ordering::Relaxed);
        self.refuse(None, &error(code, detail));
    }

    fn reject_bad_line(&mut self, detail: String) {
        self.refuse(None, &error("bad-json", detail));
    }
}

/// Reader-side discard state for oversized input: how to get back to the
/// next message boundary without buffering the offending bytes.
enum Discard {
    None,
    /// Drop exactly this many more bytes (an oversized frame's declared
    /// length).
    Bytes(usize),
    /// Drop up to and including the next `\n` (an endless line).
    ToNewline,
}

fn reader_loop(mut stream: TcpStream, router: &mut Router) {
    let mut buf: Vec<u8> = Vec::with_capacity(8 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut discard = Discard::None;
    loop {
        if router.pool.daemon.stop.load(Ordering::SeqCst) || router.conn.done.load(Ordering::SeqCst)
        {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if !drain_ingress(&mut buf, &mut discard, router) {
                    return; // shard pool gone (server stopping)
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Read timeout: partial bytes stay buffered; loop to
                // re-check the stop flags.
            }
            Err(_) => return,
        }
    }
}

/// Carve complete messages off the front of the read buffer, detecting
/// the framing of each from its first byte. Returns `false` when the
/// sink reports the server side gone. Incomplete trailing input stays
/// buffered — except oversized input, which is rejected and then
/// *discarded* via `discard` so the buffer never grows past the caps.
fn drain_ingress(buf: &mut Vec<u8>, discard: &mut Discard, sink: &mut impl IngressSink) -> bool {
    let mut pos = 0usize;
    let alive = loop {
        match discard {
            Discard::None => {}
            Discard::Bytes(n) => {
                let eat = (*n).min(buf.len() - pos);
                pos += eat;
                *n -= eat;
                if *n > 0 {
                    break true; // buffer exhausted mid-discard
                }
                *discard = Discard::None;
            }
            Discard::ToNewline => match buf[pos..].iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    pos += nl + 1;
                    *discard = Discard::None;
                }
                None => {
                    pos = buf.len();
                    break true;
                }
            },
        }
        if pos >= buf.len() {
            break true;
        }
        if buf[pos] == FRAME_MAGIC {
            match split_frame(&buf[pos..]) {
                FrameSplit::Incomplete => break true,
                FrameSplit::Complete { consumed } => {
                    let payload = &buf[pos + framing::FRAME_HEADER_LEN..pos + consumed];
                    if !sink.on_frame(payload) {
                        pos += consumed;
                        break false;
                    }
                    pos += consumed;
                }
                FrameSplit::Oversized { len, skip } => {
                    sink.reject_oversized(
                        "oversized-frame",
                        format!(
                            "frame payload of {len} bytes exceeds {}",
                            framing::MAX_FRAME_PAYLOAD
                        ),
                    );
                    *discard = Discard::Bytes(skip);
                }
            }
        } else {
            match buf[pos..].iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    let line = &buf[pos..pos + nl];
                    let advance = nl + 1;
                    if line.len() > MAX_LINE_BYTES {
                        sink.reject_oversized(
                            "oversized-line",
                            format!("line of {} bytes exceeds {MAX_LINE_BYTES}", line.len()),
                        );
                        pos += advance;
                    } else {
                        match std::str::from_utf8(line) {
                            Ok(text) => {
                                let text = text.trim();
                                let alive = text.is_empty() || sink.on_line(text);
                                pos += advance;
                                if !alive {
                                    break false;
                                }
                            }
                            Err(e) => {
                                // Not UTF-8, so not JSON either: reject
                                // the line but keep the connection.
                                sink.reject_bad_line(format!("line is not UTF-8: {e}"));
                                pos += advance;
                            }
                        }
                    }
                }
                None => {
                    if buf.len() - pos > MAX_LINE_BYTES {
                        sink.reject_oversized(
                            "oversized-line",
                            format!(
                                "unterminated line past {MAX_LINE_BYTES} bytes ({} so far)",
                                buf.len() - pos
                            ),
                        );
                        *discard = Discard::ToNewline;
                        pos = buf.len();
                    }
                    break true;
                }
            }
        }
    };
    buf.drain(..pos);
    alive
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

    /// Recording sink: what [`drain_ingress`] carved off the wire, in
    /// order.
    #[derive(Default)]
    struct RecSink {
        lines: Vec<String>,
        frames: Vec<Vec<u8>>,
        rejects: Vec<String>,
        alive: bool,
    }

    impl RecSink {
        fn new() -> Self {
            RecSink {
                alive: true,
                ..Default::default()
            }
        }
    }

    impl IngressSink for RecSink {
        fn on_line(&mut self, line: &str) -> bool {
            self.lines.push(line.to_string());
            self.alive
        }
        fn on_frame(&mut self, payload: &[u8]) -> bool {
            self.frames.push(payload.to_vec());
            self.alive
        }
        fn reject_oversized(&mut self, code: &str, _detail: String) {
            self.rejects.push(code.to_string());
        }
        fn reject_bad_line(&mut self, _detail: String) {
            self.rejects.push("bad-json".to_string());
        }
    }

    #[test]
    fn drain_ingress_splits_mixed_framings() {
        let mut sink = RecSink::new();
        let mut buf = Vec::new();
        buf.extend_from_slice(b"{\"stats\":null}\n");
        framing::write_frame(&ServerMsg::ok, &mut buf);
        buf.extend_from_slice(b"  \n{\"shutdown\":null}\n");
        let mut discard = Discard::None;
        assert!(drain_ingress(&mut buf, &mut discard, &mut sink));
        assert_eq!(
            sink.lines,
            vec![
                "{\"stats\":null}".to_string(),
                "{\"shutdown\":null}".to_string()
            ]
        );
        assert_eq!(sink.frames.len(), 1);
        assert!(sink.rejects.is_empty());
        assert!(buf.is_empty(), "complete input fully consumed");
    }

    #[test]
    fn drain_ingress_buffers_incomplete_input() {
        let mut sink = RecSink::new();
        let mut buf = b"{\"stats\":nul".to_vec();
        let mut discard = Discard::None;
        assert!(drain_ingress(&mut buf, &mut discard, &mut sink));
        assert!(sink.lines.is_empty(), "no newline yet, nothing delivered");
        assert_eq!(buf, b"{\"stats\":nul".to_vec());
    }

    #[test]
    fn drain_ingress_rejects_and_discards_oversized_lines() {
        let mut sink = RecSink::new();
        // An unterminated line past the cap is rejected once, then its
        // remaining bytes drain to the newline without buffering.
        let mut buf = vec![b'x'; MAX_LINE_BYTES + 10];
        let mut discard = Discard::None;
        assert!(drain_ingress(&mut buf, &mut discard, &mut sink));
        assert_eq!(sink.rejects, vec!["oversized-line".to_string()]);
        assert!(buf.is_empty(), "oversized bytes are not buffered");
        // The tail of the line arrives, then a newline, then a good line.
        let mut buf = b"yyy\n{\"stats\":null}\n".to_vec();
        assert!(drain_ingress(&mut buf, &mut discard, &mut sink));
        assert_eq!(sink.rejects.len(), 1, "one rejection per oversized line");
        assert_eq!(sink.lines, vec!["{\"stats\":null}".to_string()]);
    }

    #[test]
    fn drain_ingress_stops_when_sink_reports_dead() {
        let mut sink = RecSink::new();
        sink.alive = false;
        let mut buf = b"{\"stats\":null}\n{\"shutdown\":null}\n".to_vec();
        let mut discard = Discard::None;
        assert!(!drain_ingress(&mut buf, &mut discard, &mut sink));
        assert_eq!(sink.lines.len(), 1, "stops at the first dead delivery");
    }
}
