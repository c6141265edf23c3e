//! The harness's own wire client.
//!
//! Three things `com_serve::Client` cannot do are needed here: send
//! *pre-encoded* bytes (so client-side encoding stays out of the clock),
//! keep responses *raw* with their arrival instants and decode them only
//! after the clock stopped, and read a `bye` larger than
//! `MAX_FRAME_PAYLOAD` (the `city` session's is ≈29 MB; see the README's
//! known issues). Frames are split by header length (binary) or newline
//! (NDJSON), detected per message from the first byte like every reader
//! in `com-serve`; decoding is always the public `com-serve` decoders'.

use std::ffi::{c_int, c_short, c_ulong};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use com_serve::{
    decode_payload, decode_server_frame, server_frame_from_content, ServerFrame, ServerMsg,
    FRAME_MAGIC,
};

use crate::inputs::{ConnPlan, WirePlan};

const FRAME_HEADER_LEN: usize = 5;
/// Socket read size. Large enough that one read drains a burst of
/// responses, small enough that zero-extending the buffer is noise.
const READ_CHUNK: usize = 64 * 1024;
/// How long any blocking step waits before the pass is declared hung.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
}

const PR_SET_TIMERSLACK: c_int = 29;

/// Ask the kernel to wake this thread's sleeps within 1 µs of their
/// deadline instead of the default 50 µs slack, so the open-loop sender
/// sends when the schedule says, not a timer-coalescing window later.
/// Best effort: on failure sleeps are merely less exact, and the lag is
/// reported either way (`openloop.gen_lag_p99_us`).
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument (nanoseconds)
    // and affects only the calling thread's timer expiry; no memory is
    // passed.
    unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
}

/// Block until one of `streams` is readable or `timeout_ms` passed;
/// returns which are readable (or at EOF / in error — a read will tell).
/// One receiver thread can then serve several sockets without spinning.
fn wait_readable(streams: &[&TcpStream], timeout_ms: i32) -> io::Result<Vec<bool>> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `fds` is a live, correctly laid out array of `fds.len()`
    // pollfd structs for the duration of the call; poll(2) writes only
    // the `revents` fields. The descriptors are open: the caller holds
    // the `TcpStream`s.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(vec![false; streams.len()]);
        }
        return Err(err);
    }
    Ok(fds.iter().map(|f| f.revents != 0).collect())
}

/// One complete server message inside an [`RxBuf`].
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub start: usize,
    pub end: usize,
    /// Nanoseconds since the pass epoch at which the read that completed
    /// this message returned.
    pub t_ns: u64,
}

/// Every byte a connection received, kept raw, with message boundaries.
#[derive(Default)]
pub struct RxBuf {
    buf: Vec<u8>,
    filled: usize,
    /// Start of the first incomplete message.
    scan: usize,
    /// NDJSON only: bytes before this offset hold no newline (so a 40 MB
    /// `bye` line is searched once, not once per read).
    searched: usize,
    pub marks: Vec<Mark>,
    pub eof: bool,
}

impl RxBuf {
    /// One `read` into the spare capacity, then carve complete messages.
    /// Returns how many new messages completed.
    fn fill_from(&mut self, mut stream: &TcpStream, epoch: Instant) -> io::Result<usize> {
        if self.buf.len() - self.filled < READ_CHUNK {
            let grown = (self.buf.len() * 2).max(self.filled + 4 * READ_CHUNK);
            self.buf.resize(grown, 0);
        }
        let n = stream.read(&mut self.buf[self.filled..])?;
        let t_ns = epoch.elapsed().as_nanos() as u64;
        if n == 0 {
            self.eof = true;
            return Ok(0);
        }
        self.filled += n;
        Ok(self.split(t_ns))
    }

    fn split(&mut self, t_ns: u64) -> usize {
        let before = self.marks.len();
        while self.scan < self.filled {
            let start = self.scan;
            let end = if self.buf[start] == FRAME_MAGIC {
                if self.filled - start < FRAME_HEADER_LEN {
                    break;
                }
                let len = u32::from_le_bytes(
                    self.buf[start + 1..start + FRAME_HEADER_LEN]
                        .try_into()
                        .expect("4 bytes"),
                ) as usize;
                let end = start + FRAME_HEADER_LEN + len;
                if self.filled < end {
                    break;
                }
                end
            } else {
                let from = self.searched.max(start);
                match self.buf[from..self.filled].iter().position(|&b| b == b'\n') {
                    Some(i) => from + i + 1,
                    None => {
                        self.searched = self.filled;
                        break;
                    }
                }
            };
            self.marks.push(Mark { start, end, t_ns });
            self.scan = end;
            self.searched = end;
        }
        self.marks.len() - before
    }

    /// The raw bytes of message `i` (header / newline included).
    pub fn raw(&self, i: usize) -> &[u8] {
        let m = self.marks[i];
        &self.buf[m.start..m.end]
    }
}

/// Decode one raw server message with the public `com-serve` decoders.
pub fn decode_raw(raw: &[u8]) -> Result<ServerFrame, String> {
    if raw.first() == Some(&FRAME_MAGIC) {
        let content = decode_payload(&raw[FRAME_HEADER_LEN..]).map_err(|e| e.to_string())?;
        server_frame_from_content(&content).map_err(|e| e.to_string())
    } else {
        let text = std::str::from_utf8(raw).map_err(|e| e.to_string())?;
        decode_server_frame(text.trim()).map_err(|e| e.to_string())
    }
}

/// An open connection to a daemon plus everything it has received.
pub struct Conn {
    pub stream: TcpStream,
    pub rx: RxBuf,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            rx: RxBuf::default(),
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        (&self.stream).write_all(bytes)
    }

    /// Block until the connection has received `total` messages. Times
    /// out after [`IO_TIMEOUT`] without progress.
    pub fn read_until(&mut self, total: usize, epoch: Instant) -> io::Result<()> {
        self.stream.set_read_timeout(Some(IO_TIMEOUT))?;
        while self.rx.marks.len() < total {
            if self.rx.eof {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            self.rx.fill_from(&self.stream, epoch)?;
        }
        Ok(())
    }

    /// Send this connection's `hello`s and read one `welcome` each.
    pub fn hello(&mut self, plan: &ConnPlan, epoch: Instant) -> io::Result<()> {
        for line in &plan.hellos {
            self.send(line)?;
        }
        let want = self.rx.marks.len() + plan.hellos.len();
        self.read_until(want, epoch)?;
        for i in want - plan.hellos.len()..want {
            match decode_raw(self.rx.raw(i)) {
                Ok(ServerFrame {
                    msg: ServerMsg::welcome { .. },
                    ..
                }) => {}
                other => return Err(io::Error::other(format!("hello not welcomed: {other:?}"))),
            }
        }
        Ok(())
    }
}

/// Block until connection `i` has received `totals[i]` messages, for all
/// `i` at once: whichever socket has data is read, so a daemon blocked
/// writing a large `bye` to one connection can never stall the others.
pub fn read_all_until(conns: &mut [Conn], totals: &[usize], epoch: Instant) -> io::Result<()> {
    while conns.iter().zip(totals).any(|(c, &t)| c.rx.marks.len() < t) {
        read_any(conns, totals, epoch)?;
    }
    Ok(())
}

/// Connect one socket per [`ConnPlan`] and open every session.
pub fn connect_all(addr: &str, plan: &WirePlan, epoch: Instant) -> io::Result<Vec<Conn>> {
    let mut conns = Vec::with_capacity(plan.conns.len());
    for cp in &plan.conns {
        let mut conn = Conn::connect(addr)?;
        conn.hello(cp, epoch)?;
        conns.push(conn);
    }
    Ok(conns)
}

/// How far each connection has got through its pre-encoded stream, and
/// how many messages it had received before the first event was sent.
/// A served pass walks the stream block by block through one `Progress`.
pub struct Progress {
    /// Events written so far, per connection.
    sent: Vec<usize>,
    /// `rx.marks.len()` of each connection before the first event.
    base: Vec<usize>,
}

impl Progress {
    pub fn new(conns: &[Conn]) -> Progress {
        Progress {
            sent: vec![0; conns.len()],
            base: conns.iter().map(|c| c.rx.marks.len()).collect(),
        }
    }

    /// Index of each connection's first event response.
    pub fn base(&self) -> &[usize] {
        &self.base
    }

    fn answered(&self, i: usize, conn: &Conn) -> usize {
        conn.rx.marks.len() - self.base[i]
    }
}

/// Events per connection after the global order's first `upto` events.
fn targets(plan: &WirePlan, upto: usize) -> Vec<usize> {
    let mut t = vec![0usize; plan.conns.len()];
    for e in &plan.order[..upto] {
        t[e.conn as usize] += 1;
    }
    t
}

/// When one block of a served pass ran, ns since the pass epoch.
#[derive(Debug, Clone, Copy)]
pub struct BlockSpan {
    /// Index range of the block in the global order.
    pub from: usize,
    pub upto: usize,
    pub started_ns: u64,
    /// Closed loop: last response read. Open loop: last write returned.
    pub ended_ns: u64,
}

/// Closed-loop *saturate* block: stream the global order up to `upto`
/// with at most `window` events in flight per connection, refilled as
/// responses arrive. Returns when the last response of the block is read.
pub fn saturate_block(
    conns: &mut [Conn],
    plan: &WirePlan,
    progress: &mut Progress,
    upto: usize,
    window: usize,
    epoch: Instant,
) -> io::Result<BlockSpan> {
    let target = targets(plan, upto);
    let from = progress.sent.iter().sum();
    for c in conns.iter() {
        c.stream.set_read_timeout(Some(IO_TIMEOUT))?;
    }
    let started_ns = epoch.elapsed().as_nanos() as u64;
    loop {
        let mut outstanding = false;
        for (i, c) in conns.iter_mut().enumerate() {
            let cp = &plan.conns[i];
            let answered = progress.answered(i, c);
            let sent = progress.sent[i];
            let room = window.saturating_sub(sent - answered);
            let reach = (sent + room).min(target[i]);
            if reach > sent {
                let from = if sent == 0 { 0 } else { cp.ends[sent - 1] };
                (&c.stream).write_all(&cp.bytes[from..cp.ends[reach - 1]])?;
                progress.sent[i] = reach;
            }
            outstanding |= answered < target[i];
        }
        if !outstanding {
            return Ok(BlockSpan {
                from,
                upto,
                started_ns,
                ended_ns: epoch.elapsed().as_nanos() as u64,
            });
        }
        let totals: Vec<usize> = (0..conns.len())
            .map(|i| {
                // One more message on every connection still owed one.
                let have = conns[i].rx.marks.len();
                have + usize::from(progress.answered(i, &conns[i]) < progress.sent[i])
            })
            .collect();
        read_any(conns, &totals, epoch)?;
    }
}

/// Read from whichever connection has data until *some* connection that
/// is below its `totals[i]` makes progress (or all are satisfied).
fn read_any(conns: &mut [Conn], totals: &[usize], epoch: Instant) -> io::Result<()> {
    let waiting: Vec<usize> = (0..conns.len())
        .filter(|&i| conns[i].rx.marks.len() < totals[i])
        .collect();
    if waiting.is_empty() {
        return Ok(());
    }
    let ready = if waiting.len() == 1 {
        vec![true] // the blocking read is the wait
    } else {
        let streams: Vec<&TcpStream> = waiting.iter().map(|&i| &conns[i].stream).collect();
        wait_readable(&streams, IO_TIMEOUT.as_millis() as i32)?
    };
    if !ready.iter().any(|&r| r) {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "no response within the I/O timeout",
        ));
    }
    for (&i, _) in waiting.iter().zip(&ready).filter(|(_, &r)| r) {
        let c = &mut conns[i];
        c.rx.fill_from(&c.stream, epoch)?;
        if c.rx.eof {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
    }
    Ok(())
}

/// How long after the last scheduled send the backlog may take to drain.
pub const DRAIN_LIMIT: Duration = Duration::from_secs(1);
/// Longest sender sleep: even with nothing due it re-reads the clock at
/// least this often, and it never spins.
const TICK: Duration = Duration::from_micros(200);

/// Open-loop block: the sender walks the seeded schedule (sleep, then
/// write everything that is due), one receiver thread timestamps every
/// response across all connections. The schedule never waits for a
/// response, so a slow daemon builds a queue instead of slowing the load.
///
/// Streams the global order up to `upto`; event `k` is due at block start
/// plus `due_ns[k]`, and its actual send instant is stored in
/// `sent_ns[k]` (ns since the pass epoch). `Ok(None)` means the backlog
/// had not drained [`DRAIN_LIMIT`] after the last send.
pub fn open_loop_block(
    conns: &mut [Conn],
    plan: &WirePlan,
    progress: &mut Progress,
    upto: usize,
    due_ns: &[u64],
    sent_ns: &mut [u64],
    epoch: Instant,
) -> io::Result<Option<BlockSpan>> {
    let target = targets(plan, upto);
    let from: usize = progress.sent.iter().sum();
    let expected: Vec<usize> = (0..conns.len())
        .map(|i| progress.base[i] + target[i])
        .collect();
    for c in conns.iter() {
        c.stream.set_read_timeout(Some(IO_TIMEOUT))?;
    }
    // u64::MAX = sender still running; afterwards the drain deadline.
    let deadline_ns = AtomicU64::new(u64::MAX);
    let (streams, rxs): (Vec<&TcpStream>, Vec<&mut RxBuf>) =
        conns.iter_mut().map(|c| (&c.stream, &mut c.rx)).unzip();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let cursor = &mut progress.sent;

    std::thread::scope(|scope| {
        let receiver = {
            let streams = streams.clone();
            let (expected, deadline_ns) = (&expected, &deadline_ns);
            scope.spawn(move || receive_all(&streams, rxs, expected, epoch, deadline_ns))
        };

        tighten_timer_slack();
        let started_ns = now_ns();
        let mut reach = cursor.clone();
        let mut k = from;
        let mut sent = Ok(());
        'send: while k < upto {
            let now = now_ns();
            let due = started_ns + due_ns[k];
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now).min(TICK));
                continue;
            }
            let first = k;
            while k < upto && started_ns + due_ns[k] <= now {
                reach[plan.order[k].conn as usize] += 1;
                k += 1;
            }
            sent_ns[first..k].fill(now);
            for (i, mut stream) in streams.iter().copied().enumerate() {
                if reach[i] > cursor[i] {
                    let cp = &plan.conns[i];
                    let from = if cursor[i] == 0 {
                        0
                    } else {
                        cp.ends[cursor[i] - 1]
                    };
                    sent = stream.write_all(&cp.bytes[from..cp.ends[reach[i] - 1]]);
                    if sent.is_err() {
                        break 'send;
                    }
                    cursor[i] = reach[i];
                }
            }
        }
        let ended_ns = now_ns();
        deadline_ns.store(ended_ns + DRAIN_LIMIT.as_nanos() as u64, Ordering::SeqCst);
        let drained = receiver.join().expect("receiver thread panicked")?;
        sent?;
        Ok(drained.then_some(BlockSpan {
            from,
            upto,
            started_ns,
            ended_ns,
        }))
    })
}

/// The receiver thread of [`open_loop_block`]: read whatever any connection
/// has, stamp it, until every expected response arrived or the drain
/// deadline passed. Returns whether everything arrived.
fn receive_all(
    streams: &[&TcpStream],
    mut rxs: Vec<&mut RxBuf>,
    expected: &[usize],
    epoch: Instant,
    deadline_ns: &AtomicU64,
) -> io::Result<bool> {
    loop {
        let waiting: Vec<usize> = (0..rxs.len())
            .filter(|&i| rxs[i].marks.len() < expected[i] && !rxs[i].eof)
            .collect();
        if waiting.is_empty() {
            return Ok((0..rxs.len()).all(|i| rxs[i].marks.len() >= expected[i]));
        }
        if epoch.elapsed().as_nanos() as u64 > deadline_ns.load(Ordering::SeqCst) {
            return Ok(false);
        }
        let polled: Vec<&TcpStream> = waiting.iter().map(|&i| streams[i]).collect();
        let ready = wait_readable(&polled, 20)?;
        for (&i, _) in waiting.iter().zip(&ready).filter(|(_, &r)| r) {
            rxs[i].fill_from(streams[i], epoch)?;
        }
    }
}

/// The fields of a `bye` the correctness gate needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ByeSummary {
    pub sid: Option<u64>,
    pub digest: String,
    pub audit_findings: usize,
    pub bytes: usize,
}

/// Decode a raw `bye` (either framing) with the public decoder and keep
/// what the gate checks. Call it after the clock stopped: a `city` `bye`
/// is tens of megabytes and decoding it is client work.
pub fn bye_summary(raw: &[u8]) -> Result<ByeSummary, String> {
    let frame = decode_raw(raw)?;
    match frame.msg {
        ServerMsg::bye(bye) => Ok(ByeSummary {
            sid: frame.sid,
            digest: bye.digest,
            audit_findings: bye.audit_findings.len(),
            bytes: raw.len(),
        }),
        _ => Err(format!("{}-byte message is not a bye", raw.len())),
    }
}

/// Per-connection, per-session outcome of classifying raw responses.
#[derive(Debug, Default, Clone)]
pub struct Classified {
    /// Arrival instant of each event's response in the global order, ns
    /// since the pass epoch; `u64::MAX` = no response.
    pub arrival_ns: Vec<u64>,
    pub busy: usize,
    /// Engine-refused decisions (`timeout` responses).
    pub refused: usize,
    pub errors: usize,
    /// Responses of the wrong kind for their event, or undecodable.
    pub unexpected: usize,
    pub missing: usize,
    /// First few problems, for the report.
    pub notes: Vec<String>,
}

impl Classified {
    pub fn failed(&self) -> usize {
        self.busy + self.refused + self.errors + self.unexpected + self.missing
    }

    fn note(&mut self, text: String) {
        if self.notes.len() < 5 {
            self.notes.push(text);
        }
    }
}

/// Match every event response (messages `base[c]..end[c]` of each
/// connection) to the event that caused it and classify it. Runs after
/// the clock stopped. Responses are ordered per session, so the `j`-th
/// response carrying a session's sid answers that session's `j`-th event.
pub fn classify_range(
    conns: &[Conn],
    base: &[usize],
    end: &[usize],
    plan: &WirePlan,
    sids: &[Option<u64>],
) -> Classified {
    let mut out = Classified {
        arrival_ns: vec![u64::MAX; plan.order.len()],
        ..Classified::default()
    };
    // Global indices of each session's events, in order.
    let mut per_session: Vec<Vec<u32>> = vec![Vec::new(); sids.len()];
    for (k, e) in plan.order.iter().enumerate() {
        per_session[e.session as usize].push(k as u32);
    }
    let mut next = vec![0usize; sids.len()];
    for (c, conn) in conns.iter().enumerate() {
        for i in base[c]..end[c] {
            let frame = match decode_raw(conn.rx.raw(i)) {
                Ok(f) => f,
                Err(e) => {
                    out.unexpected += 1;
                    out.note(format!("conn {c} message {i}: {e}"));
                    continue;
                }
            };
            if matches!(frame.msg, ServerMsg::busy) {
                out.busy += 1;
                continue; // out of band: answers nothing
            }
            let Some(s) = plan.conns[c]
                .sessions
                .iter()
                .copied()
                .find(|&s| sids[s] == frame.sid)
            else {
                out.unexpected += 1;
                out.note(format!(
                    "conn {c}: response for unknown sid {:?}",
                    frame.sid
                ));
                continue;
            };
            let Some(&k) = per_session[s].get(next[s]) else {
                out.unexpected += 1;
                out.note(format!("session {s}: more responses than events"));
                continue;
            };
            next[s] += 1;
            out.arrival_ns[k as usize] = conn.rx.marks[i].t_ns;
            let is_request = plan.order[k as usize].is_request;
            match (&frame.msg, is_request) {
                (ServerMsg::ok, false) => {}
                (ServerMsg::assign(_) | ServerMsg::reject(_), true) => {}
                (ServerMsg::timeout { violation, .. }, true) => {
                    out.refused += 1;
                    out.note(format!("event {k}: engine refused: {violation}"));
                }
                (ServerMsg::error(e), _) => {
                    out.errors += 1;
                    out.note(format!("event {k}: error {}: {}", e.code, e.detail));
                }
                (other, _) => {
                    out.unexpected += 1;
                    let text = format!("{other:?}");
                    out.note(format!(
                        "event {k}: unexpected response {}",
                        &text[..text.len().min(80)]
                    ));
                }
            }
        }
    }
    out.missing = out.arrival_ns.iter().filter(|&&t| t == u64::MAX).count();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_serve::{encode, encode_frame, ByeMsg, ServerFrame, ServerMsg};

    /// A `bye` keeps its sid, digest and finding count through either
    /// framing, bare and enveloped; anything else is refused.
    #[test]
    fn bye_summary_reads_both_framings() {
        for sid in [None, Some(7u64)] {
            let frame = ServerFrame {
                sid,
                msg: ServerMsg::bye(ByeMsg {
                    algorithm: "DemCOM".into(),
                    revenue: 10.5,
                    completed: 3,
                    cooperative: 1,
                    events: 8,
                    refused: 0,
                    audit_findings: vec!["a".into(), "b".into()],
                    canonical: serde_json::from_str(r#"{"digest":"decoy"}"#).unwrap(),
                    digest: "fnv1a64:00000000deadbeef".into(),
                    fed: None,
                }),
            };
            let binary = encode_frame(&frame);
            let mut line = encode(&frame).into_bytes();
            line.push(b'\n');
            for raw in [&binary, &line] {
                let s = bye_summary(raw).unwrap();
                assert_eq!(s.sid, sid);
                assert_eq!(s.digest, "fnv1a64:00000000deadbeef");
                assert_eq!(s.audit_findings, 2);
                assert_eq!(s.bytes, raw.len());
            }
        }
        assert!(bye_summary(&encode_frame(&ServerMsg::ok)).is_err());
        assert!(bye_summary(b"\"ok\"\n").is_err());
    }

    #[test]
    fn rxbuf_splits_mixed_framings_across_partial_reads() {
        let mut wire = Vec::new();
        wire.extend_from_slice(b"{\"welcome\":{\"algorithm\":\"TOTA\",\"frame\":\"binary\"}}\n");
        wire.extend_from_slice(&encode_frame(&ServerMsg::ok));
        wire.extend_from_slice(&encode_frame(&ServerMsg::busy));
        wire.extend_from_slice(b"\"ok\"\n");
        // Feed one byte at a time: boundaries must not depend on reads.
        let mut rx = RxBuf::default();
        rx.buf.resize(wire.len(), 0);
        for (i, b) in wire.iter().enumerate() {
            rx.buf[i] = *b;
            rx.filled = i + 1;
            rx.split(i as u64);
        }
        assert_eq!(rx.marks.len(), 4);
        assert!(matches!(
            decode_raw(rx.raw(0)).unwrap().msg,
            ServerMsg::welcome { .. }
        ));
        assert!(matches!(decode_raw(rx.raw(1)).unwrap().msg, ServerMsg::ok));
        assert!(matches!(
            decode_raw(rx.raw(2)).unwrap().msg,
            ServerMsg::busy
        ));
        assert!(matches!(decode_raw(rx.raw(3)).unwrap().msg, ServerMsg::ok));
        assert_eq!(rx.marks[3].end, wire.len());
    }
}
