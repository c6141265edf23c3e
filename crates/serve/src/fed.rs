//! The federation peer link: how one platform's daemon turns an
//! outsourcing decision into a wire negotiation with its rival.
//!
//! In `fedd` mode (a `hello` carrying [`crate::protocol::FedHello`])
//! each daemon *owns* one platform of a two-platform run and replays the
//! full event stream as a deterministic replica. When the owning
//! daemon's matcher decides `Outer { worker, payment }` for an owned
//! request, the core session consults its
//! [`com_core::OutsourceChannel`] — wired here to [`WireOutsource`] —
//! which sends an `outsource_offer` to the rival daemon over a dedicated
//! TCP connection (the **peer link**) and blocks for the verdict:
//!
//! * `outsource_accept` — the lender's replica confirms the same lend;
//!   the borrower applies the assignment exactly as decided.
//! * `outsource_reject` — typed refusal (`not-my-worker`,
//!   `bad-payment`, `expired`, `desync`, `unknown-fed-session`); the
//!   borrower degrades to a cooperative reject.
//! * local deadline — no usable reply in `deadline_ms`; same degrade.
//!
//! The exchange is blocking and runs on the shard thread itself: the
//! shard is stalled inside `offer` until the verdict anyway, so at most
//! one offer is ever in flight per link and the link needs no reader
//! thread, reply registry or channel. The link is a [`Client`]:
//! [`WireOutsource`] writes the offer, then reads verdicts under a read
//! timeout of whatever is left of the deadline. A deadline that fires
//! degrades the offer and *keeps* the link, wherever in a reply it fires:
//! bytes of a verdict already read wait in the client's reader. If the
//! verdict does turn up later, the next offer's read meets it first,
//! recognises it by its older offer id, counts it in `stale_replies` and
//! reads on. An I/O or decode error drops the link.
//!
//! The link is lazy (no connection until the first offer) and retries an
//! offer exactly once over a fresh connection when the link failed
//! mid-negotiation (offer ids make the retry idempotent — the lender's
//! verdict is a pure function of its replica). Offer round-trips are
//! spanned as [`com_obs::PHASE_FED_OFFER`], deliberately *outside* the
//! matcher's `decision` phase.
//!
//! The lender answers from the session's [`LendBook`], on the router
//! thread of the connection the offer arrived on — never on a shard.
//! An offer carries the borrower's index of its request in the event
//! stream ([`OfferMsg::event`]); both replicas ingest the same accepted
//! lines, so a lender whose replica has not got that far yet **parks**
//! the offer until it has, bounded by the offer's deadline
//! ([`MAX_PARK`] at most), the session's end or the daemon's stop.
//!
//! Deadlock note: the daemons may stream far apart, each shard blocked
//! in its own offer. Answering on the shard would deadlock then: A's
//! offer for request *k* would queue on B's shard behind B's own offer
//! for a later request *j*, which waits on A. Answered off the shard
//! there is no cycle: the daemon blocked on the lower index always gets
//! its verdict, because its rival's replica is already past that index,
//! and the other one gets its verdict once the first unblocks and
//! catches up.

use std::collections::HashMap;
use std::io::{self, ErrorKind};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use com_core::{OutsourceChannel, OutsourceOutcome};
use com_sim::{Assignment, MatchKind, PlatformId, RequestSpec, Value};
use com_stream::WorkerId;

use crate::client::Client;
use crate::framing::WireFormat;
use crate::protocol::{write_msg, ClientMsg, FedStatsMsg, OfferMsg, ServerMsg};
use crate::server::POLL_INTERVAL;

/// Default per-offer deadline when the `hello` does not set one.
pub const DEFAULT_OFFER_DEADLINE_MS: u64 = 1_000;

/// The longest a lender parks an offer, whatever its `deadline_ms` says.
pub const MAX_PARK: Duration = Duration::from_secs(30);

/// Federation counters shared between the session's outsourcing channel
/// (offers out, stale replies), its lender side (lends answered), and
/// `stats_deep` snapshots.
#[derive(Debug, Default)]
pub struct FedShared {
    pub offers_sent: AtomicU64,
    pub offers_accepted: AtomicU64,
    pub offers_rejected: AtomicU64,
    pub offers_timed_out: AtomicU64,
    pub offers_retried: AtomicU64,
    pub stale_replies: AtomicU64,
    pub offers_received: AtomicU64,
    pub lends_granted: AtomicU64,
    pub lends_rejected: AtomicU64,
    pub lends_parked: AtomicU64,
}

impl FedShared {
    /// The `stats_deep.federation` row.
    pub fn snapshot(&self, platform: u16) -> FedStatsMsg {
        FedStatsMsg {
            platform,
            offers_sent: self.offers_sent.load(Ordering::Relaxed),
            offers_accepted: self.offers_accepted.load(Ordering::Relaxed),
            offers_rejected: self.offers_rejected.load(Ordering::Relaxed),
            offers_timed_out: self.offers_timed_out.load(Ordering::Relaxed),
            offers_retried: self.offers_retried.load(Ordering::Relaxed),
            stale_replies: self.stale_replies.load(Ordering::Relaxed),
            offers_received: self.offers_received.load(Ordering::Relaxed),
            lends_granted: self.lends_granted.load(Ordering::Relaxed),
            lends_rejected: self.lends_rejected.load(Ordering::Relaxed),
            lends_parked: self.lends_parked.load(Ordering::Relaxed),
        }
    }
}

/// A federated replica's record of lends: written by the session on its
/// shard after every accepted event, read by whichever router an offer
/// arrives on. O(lends): it holds the replica's progress marker (events
/// ingested) and the lends made so far, nothing per non-owned request.
pub struct LendBook {
    /// The platform this daemon owns (whose workers it lends).
    pub platform: PlatformId,
    pub stats: FedShared,
    state: Mutex<BookState>,
    progressed: Condvar,
}

struct BookState {
    /// Events the replica has ingested: offers for a lower event index
    /// are decided, the rest park.
    ingested: u64,
    /// request id → (worker, payment) for every non-owned request whose
    /// replica decision lends one of *our* workers. The rival's offer for
    /// that request must name exactly this worker and payment.
    lends: HashMap<u64, (WorkerId, f64)>,
    /// The lowest event index a parked offer waits on (`u64::MAX` when
    /// none): `record` wakes the parked offers only once `ingested`
    /// passes it, not after every event.
    wake_at: u64,
    /// Times `record` has woken the parked offers.
    #[cfg(test)]
    wakes: u64,
    /// False once the session has finished.
    open: bool,
}

impl LendBook {
    pub fn new(platform: PlatformId) -> LendBook {
        LendBook {
            platform,
            stats: FedShared::default(),
            state: Mutex::new(BookState {
                ingested: 0,
                lends: HashMap::new(),
                wake_at: u64::MAX,
                #[cfg(test)]
                wakes: 0,
                open: true,
            }),
            progressed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BookState> {
        self.state
            .lock()
            .expect("no code path panics while holding a lend book")
    }

    /// Events the replica has ingested so far: while a request is being
    /// decided, that request's index in the stream.
    pub fn ingested(&self) -> u64 {
        self.lock().ingested
    }

    /// Count one accepted event, with the decision it yielded (`None`
    /// for a worker or a refused request), and wake the offers it decides.
    pub fn record(&self, decided: Option<&Assignment>) {
        let mut state = self.lock();
        state.ingested += 1;
        if let Some(a) = decided.filter(|a| {
            a.request.platform != self.platform
                && a.kind == MatchKind::Outer
                && a.worker_platform == Some(self.platform)
        }) {
            if let Some(worker) = a.worker {
                let lend = (worker, a.outer_payment);
                state.lends.insert(a.request.id.as_u64(), lend);
            }
        }
        if state.ingested > state.wake_at {
            state.wake_at = u64::MAX;
            #[cfg(test)]
            {
                state.wakes += 1;
            }
            self.progressed.notify_all();
        }
    }

    /// The session has finished: parked offers are answered
    /// `unknown-fed-session`.
    pub fn close(&self) {
        self.lock().open = false;
        self.progressed.notify_all();
    }

    /// Answer the rival daemon's offer from the lender side: validate it
    /// against this replica's decision for the request and grant or
    /// refuse with a typed code (`not-my-worker`, `expired`,
    /// `bad-payment`, `desync`). An offer for a request the replica has
    /// not reached parks first. `None` when the session finished, or the
    /// daemon stopped, before it could answer.
    pub fn answer(&self, o: &OfferMsg, stop: &AtomicBool) -> Option<ServerMsg> {
        self.stats.offers_received.fetch_add(1, Ordering::Relaxed);
        let verdict = self.verdict(o, stop)?;
        Some(match verdict {
            Ok(()) => {
                self.stats.lends_granted.fetch_add(1, Ordering::Relaxed);
                ServerMsg::outsource_accept {
                    fed_sid: o.fed_sid,
                    offer: o.offer,
                }
            }
            Err((code, detail)) => {
                self.stats.lends_rejected.fetch_add(1, Ordering::Relaxed);
                ServerMsg::outsource_reject {
                    fed_sid: o.fed_sid,
                    offer: o.offer,
                    code: code.into(),
                    detail,
                }
            }
        })
    }

    fn verdict(&self, o: &OfferMsg, stop: &AtomicBool) -> Option<Result<(), (&str, String)>> {
        if o.worker_platform != self.platform {
            return Some(Err((
                "not-my-worker",
                format!(
                    "worker {} belongs to {}, this daemon owns {}",
                    o.worker.as_u64(),
                    o.worker_platform,
                    self.platform
                ),
            )));
        }
        if o.deadline_ms == 0 {
            return Some(Err(("expired", "offer deadline already passed".into())));
        }
        if !(o.payment > 0.0 && o.payment <= o.request.value + 1e-9) {
            // Definition 2.3: the outsourcing payment must lie in (0, v_r].
            return Some(Err((
                "bad-payment",
                format!("payment {} outside (0, {}]", o.payment, o.request.value),
            )));
        }
        let deadline = Instant::now() + Duration::from_millis(o.deadline_ms).min(MAX_PARK);
        let mut state = self.lock();
        if state.ingested <= o.event {
            self.stats.lends_parked.fetch_add(1, Ordering::Relaxed);
        }
        while state.open && state.ingested <= o.event {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if stop.load(Ordering::SeqCst) {
                return None;
            }
            if remaining.is_zero() {
                let detail = format!("replica had not reached event {} by the deadline", o.event);
                return Some(Err(("expired", detail)));
            }
            state.wake_at = state.wake_at.min(o.event);
            state = self
                .progressed
                .wait_timeout(state, remaining.min(POLL_INTERVAL))
                .expect("no code path panics while holding a lend book")
                .0;
        }
        if !state.open {
            return None;
        }
        Some(match state.lends.get(&o.request.id.as_u64()) {
            Some((worker, payment))
                if *worker == o.worker && (payment - o.payment).abs() < 1e-9 =>
            {
                Ok(())
            }
            Some((worker, payment)) => Err((
                "desync",
                format!(
                    "replica lends worker {} at {payment}, offer names worker {} at {}",
                    worker.as_u64(),
                    o.worker.as_u64(),
                    o.payment
                ),
            )),
            None => Err((
                "desync",
                format!(
                    "replica has no lendable decision for request {}",
                    o.request.id.as_u64()
                ),
            )),
        })
    }
}

/// The lazy outgoing link to the rival daemon. `conn` is dialled by the
/// first offer and is `None` again after any failure, so the next attempt
/// reconnects.
struct PeerLink {
    addr: String,
    format: WireFormat,
    conn: Option<Client>,
}

impl PeerLink {
    /// One blocking exchange: write the encoded offer, then read until
    /// offer `offer`'s verdict arrives or `deadline` passes (`TimedOut`,
    /// link intact: bytes of a verdict already read wait in the reader).
    /// Any `Err` — connect, write, EOF, an undecodable reply — leaves the
    /// stream position unknown; the caller drops the link.
    fn exchange(
        &mut self,
        bytes: &[u8],
        offer: u64,
        deadline: Instant,
        stats: &FedShared,
    ) -> io::Result<OutsourceOutcome> {
        let client = match &mut self.conn {
            Some(client) => client,
            None => self.conn.insert(Client::connect(&self.addr)?),
        };
        client.send_bytes(bytes)?;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(OutsourceOutcome::TimedOut);
            }
            client.set_read_timeout(Some(remaining))?;
            let frame = match client.recv_frame() {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(OutsourceOutcome::TimedOut);
                }
                frame => frame?,
            };
            let (id, outcome) = match frame.msg {
                ServerMsg::outsource_accept { offer, .. } => (offer, OutsourceOutcome::Accepted),
                ServerMsg::outsource_reject { offer, code, .. } => {
                    (offer, OutsourceOutcome::Rejected(code))
                }
                // Anything else is not a verdict: read on, and let the offer
                // run into its deadline if none comes.
                _ => continue,
            };
            if id == offer {
                return Ok(outcome);
            }
            // Offer ids only grow and one offer is in flight at a time, so
            // this is the late verdict of an offer that already timed out.
            stats.stale_replies.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The wire implementation of the core outsourcing seam: offers become
/// `outsource_offer` messages to the rival daemon, verdicts come back
/// typed, and no verdict by the deadline degrades the decision.
pub struct WireOutsource {
    /// `None` = lend-only session (no peer address in the `hello`):
    /// every own outer decision degrades without touching the network.
    link: Option<PeerLink>,
    fed_sid: u64,
    deadline: Duration,
    next_offer: u64,
    /// The session's own book: its progress marker stamps each offer's
    /// event index, and its counters count the offers.
    book: Arc<LendBook>,
}

impl WireOutsource {
    /// `format` is the session's negotiated framing; offers go out the
    /// same way (the lender auto-detects per message and answers in
    /// kind).
    pub fn new(
        peer: Option<String>,
        format: WireFormat,
        fed_sid: u64,
        deadline_ms: u64,
        book: Arc<LendBook>,
    ) -> WireOutsource {
        WireOutsource {
            link: peer.map(|addr| PeerLink {
                addr,
                format,
                conn: None,
            }),
            fed_sid,
            deadline: Duration::from_millis(deadline_ms.max(1)),
            next_offer: 0,
            book,
        }
    }
}

impl OutsourceChannel for WireOutsource {
    fn offer(
        &mut self,
        request: &RequestSpec,
        worker: WorkerId,
        worker_platform: PlatformId,
        payment: Value,
    ) -> OutsourceOutcome {
        let _span = com_obs::span(com_obs::PHASE_FED_OFFER);
        let stats = &self.book.stats;
        stats.offers_sent.fetch_add(1, Ordering::Relaxed);
        let Some(link) = self.link.as_mut() else {
            stats.offers_rejected.fetch_add(1, Ordering::Relaxed);
            return OutsourceOutcome::Rejected("no-peer-link".into());
        };
        let offer = self.next_offer;
        self.next_offer += 1;
        let msg = ClientMsg::outsource_offer(OfferMsg {
            fed_sid: self.fed_sid,
            offer,
            request: *request,
            worker,
            worker_platform,
            payment,
            deadline_ms: self.deadline.as_millis() as u64,
            event: self.book.ingested(),
        });
        let mut bytes = Vec::with_capacity(256);
        write_msg(link.format, None, &msg, &mut bytes);
        let deadline = Instant::now() + self.deadline;
        let mut retried = false;
        let outcome = loop {
            match link.exchange(&bytes, offer, deadline, stats) {
                Ok(outcome) => break outcome,
                Err(_) => {
                    link.conn = None;
                    if retried || Instant::now() >= deadline {
                        break OutsourceOutcome::TimedOut;
                    }
                    // One idempotent retry over a fresh connection: the
                    // peer may have restarted, and the offer id makes
                    // asking twice safe.
                    retried = true;
                    stats.offers_retried.fetch_add(1, Ordering::Relaxed);
                }
            }
        };
        match &outcome {
            OutsourceOutcome::Accepted => &stats.offers_accepted,
            OutsourceOutcome::Rejected(_) => &stats.offers_rejected,
            OutsourceOutcome::TimedOut => &stats.offers_timed_out,
        }
        .fetch_add(1, Ordering::Relaxed);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode, read_line, Frame};
    use com_geo::Point;
    use com_sim::{RequestId, Timestamp};
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    fn request() -> RequestSpec {
        RequestSpec::new(
            RequestId(1),
            PlatformId(0),
            Timestamp::from_secs(1.0),
            Point::new(1.0, 1.0),
            5.0,
        )
    }

    /// A parked offer is woken once, by the event that decides it, not
    /// by every event before it.
    #[test]
    fn parked_offer_wakes_once() {
        let book = Arc::new(LendBook::new(PlatformId(0)));
        let offer = OfferMsg {
            fed_sid: 1,
            offer: 0,
            request: request(),
            worker: WorkerId(3),
            worker_platform: PlatformId(0),
            payment: 2.0,
            deadline_ms: 30_000,
            // The 50th event of the stream.
            event: 49,
        };
        let lender = {
            let book = Arc::clone(&book);
            std::thread::spawn(move || book.answer(&offer, &AtomicBool::new(false)))
        };
        while book.stats.lends_parked.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        for _ in 0..50 {
            book.record(None);
        }
        let verdict = lender.join().unwrap();
        assert!(matches!(
            verdict,
            Some(ServerMsg::outsource_reject { code, .. }) if code == "desync"
        ));
        assert_eq!(book.lock().wakes, 1);
    }

    #[test]
    fn no_peer_link_degrades_immediately() {
        let book = Arc::new(LendBook::new(PlatformId(0)));
        let mut ch = WireOutsource::new(None, WireFormat::Ndjson, 1, 100, Arc::clone(&book));
        let got = ch.offer(&request(), WorkerId(3), PlatformId(1), 2.0);
        assert!(matches!(got, OutsourceOutcome::Rejected(_)));
        assert_eq!(book.stats.offers_sent.load(Ordering::Relaxed), 1);
        assert_eq!(book.stats.offers_rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unreachable_peer_times_out_within_deadline() {
        // A bound-then-dropped listener yields a port that refuses
        // connections fast.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let book = Arc::new(LendBook::new(PlatformId(0)));
        let mut ch = WireOutsource::new(Some(addr), WireFormat::Ndjson, 1, 200, Arc::clone(&book));
        let started = Instant::now();
        let got = ch.offer(&request(), WorkerId(3), PlatformId(1), 2.0);
        assert!(matches!(got, OutsourceOutcome::TimedOut));
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(book.stats.offers_timed_out.load(Ordering::Relaxed), 1);
        assert_eq!(book.stats.offers_retried.load(Ordering::Relaxed), 1);
    }

    /// A hand-rolled lender: accepts the first offer, rejects the second
    /// with a typed code, never answers the third.
    #[test]
    fn offers_resolve_against_a_scripted_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut stream, mut reader) = scripted_link(&listener);
            let mut answered = 0usize;
            while let Some(o) = next_offer(&mut reader) {
                let reply = match answered {
                    0 => accept_line(&o),
                    1 => {
                        let reject = ServerMsg::outsource_reject {
                            fed_sid: o.fed_sid,
                            offer: o.offer,
                            code: "desync".into(),
                            detail: "scripted".into(),
                        };
                        format!("{}\n", encode(&reject))
                    }
                    _ => String::new(), // silent: the borrower must hit its deadline
                };
                answered += 1;
                stream.write_all(reply.as_bytes()).unwrap();
            }
        });

        let book = Arc::new(LendBook::new(PlatformId(0)));
        let mut ch = WireOutsource::new(Some(addr), WireFormat::Ndjson, 9, 300, Arc::clone(&book));
        let r = request();
        assert!(matches!(
            ch.offer(&r, WorkerId(3), PlatformId(1), 2.0),
            OutsourceOutcome::Accepted
        ));
        assert!(matches!(
            ch.offer(&r, WorkerId(3), PlatformId(1), 2.0),
            OutsourceOutcome::Rejected(code) if code == "desync"
        ));
        let started = Instant::now();
        assert!(matches!(
            ch.offer(&r, WorkerId(3), PlatformId(1), 2.0),
            OutsourceOutcome::TimedOut
        ));
        assert!(started.elapsed() >= Duration::from_millis(250));
        drop(ch);
        peer.join().unwrap();
        assert_eq!(book.stats.offers_sent.load(Ordering::Relaxed), 3);
        assert_eq!(book.stats.offers_accepted.load(Ordering::Relaxed), 1);
        assert_eq!(book.stats.offers_rejected.load(Ordering::Relaxed), 1);
        assert_eq!(book.stats.offers_timed_out.load(Ordering::Relaxed), 1);
    }

    /// The next offer a scripted lender receives; `None` once the borrower
    /// has hung up.
    fn next_offer(reader: &mut BufReader<TcpStream>) -> Option<OfferMsg> {
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return None;
            }
            if let (
                Ok(Frame {
                    msg: ClientMsg::outsource_offer(o),
                    ..
                }),
                _,
            ) = read_line(line.trim())
            {
                return Some(o);
            }
        }
    }

    fn accept_line(o: &OfferMsg) -> String {
        let accept = ServerMsg::outsource_accept {
            fed_sid: o.fed_sid,
            offer: o.offer,
        };
        format!("{}\n", encode(&accept))
    }

    fn scripted_link(listener: &TcpListener) -> (TcpStream, BufReader<TcpStream>) {
        let (stream, _) = listener.accept().unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    #[test]
    fn late_verdict_is_counted_stale_and_the_link_survives() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut stream, mut reader) = scripted_link(&listener);
            // Sit on offer 0 until offer 1 arrives — the borrower sends it
            // only after offer 0's deadline fired — then answer both.
            let first = next_offer(&mut reader).unwrap();
            let second = next_offer(&mut reader).unwrap();
            assert_eq!((first.offer, second.offer), (0, 1));
            let verdicts = accept_line(&first) + &accept_line(&second);
            stream.write_all(verdicts.as_bytes()).unwrap();
            assert!(next_offer(&mut reader).is_none());
            // The borrower is gone and never dialled a second time.
            listener.set_nonblocking(true).unwrap();
            assert!(listener.accept().is_err(), "the link was re-dialled");
        });

        let book = Arc::new(LendBook::new(PlatformId(0)));
        let mut ch = WireOutsource::new(Some(addr), WireFormat::Ndjson, 9, 100, Arc::clone(&book));
        let r = request();
        assert!(matches!(
            ch.offer(&r, WorkerId(3), PlatformId(1), 2.0),
            OutsourceOutcome::TimedOut
        ));
        assert!(matches!(
            ch.offer(&r, WorkerId(3), PlatformId(1), 2.0),
            OutsourceOutcome::Accepted
        ));
        drop(ch);
        peer.join().unwrap();
        assert_eq!(book.stats.stale_replies.load(Ordering::Relaxed), 1);
        assert_eq!(book.stats.offers_timed_out.load(Ordering::Relaxed), 1);
        assert_eq!(book.stats.offers_accepted.load(Ordering::Relaxed), 1);
        assert_eq!(book.stats.offers_retried.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn stall_inside_a_frame_keeps_the_link() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let halves = |o: &OfferMsg| {
                let line = accept_line(o);
                let (head, tail) = line.split_at(line.len() / 2);
                (head.to_string(), tail.to_string())
            };
            // Link 1: half a verdict, then hang up — an error inside a
            // frame, which earns the one retry.
            let (mut stream, mut reader) = scripted_link(&listener);
            let o = next_offer(&mut reader).unwrap();
            assert_eq!(o.offer, 0);
            stream.write_all(halves(&o).0.as_bytes()).unwrap();
            drop((stream, reader));
            // Link 2: the retry. Half a verdict again, then stall with the
            // socket open — the deadline fires inside a frame, and the
            // half stays in the borrower's reader.
            let (mut stream, mut reader) = scripted_link(&listener);
            let o = next_offer(&mut reader).unwrap();
            assert_eq!(o.offer, 0, "the retry reuses the offer id");
            let (head, tail) = halves(&o);
            stream.write_all(head.as_bytes()).unwrap();
            // The next offer comes over the same link: the rest of the
            // stale verdict, then the fresh one, resolve it.
            let o = next_offer(&mut reader).unwrap();
            assert_eq!(o.offer, 1);
            stream
                .write_all((tail + &accept_line(&o)).as_bytes())
                .unwrap();
            assert!(next_offer(&mut reader).is_none());
            listener.set_nonblocking(true).unwrap();
            assert!(listener.accept().is_err(), "the link was re-dialled");
        });

        let book = Arc::new(LendBook::new(PlatformId(0)));
        let mut ch = WireOutsource::new(Some(addr), WireFormat::Ndjson, 9, 150, Arc::clone(&book));
        let r = request();
        assert!(matches!(
            ch.offer(&r, WorkerId(3), PlatformId(1), 2.0),
            OutsourceOutcome::TimedOut
        ));
        assert!(matches!(
            ch.offer(&r, WorkerId(3), PlatformId(1), 2.0),
            OutsourceOutcome::Accepted
        ));
        drop(ch);
        peer.join().unwrap();
        assert_eq!(book.stats.offers_retried.load(Ordering::Relaxed), 1);
        assert_eq!(book.stats.offers_timed_out.load(Ordering::Relaxed), 1);
        assert_eq!(book.stats.offers_accepted.load(Ordering::Relaxed), 1);
        assert_eq!(book.stats.stale_replies.load(Ordering::Relaxed), 1);
    }
}
