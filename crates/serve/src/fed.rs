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
//! thread, reply registry or channel. [`WireOutsource`] writes the offer,
//! then reads verdicts through the crate's one reader
//! ([`read_server_frame`]) under a read timeout of whatever is left of the
//! deadline. The two ways a deadline can fire are kept apart:
//!
//! * **between frames** (nothing of a reply has arrived): the offer
//!   degrades and the link is *kept*. If the verdict does turn up later,
//!   the next offer's read meets it first, recognises it by its older
//!   offer id, counts it in `stale_replies` and reads on.
//! * **inside a frame** (some bytes of a reply were consumed), like any
//!   I/O or decode error: the offer degrades and the link is *dropped*,
//!   because the stream position is no longer a message boundary and a
//!   kept link could desync every later exchange.
//!
//! The link is lazy (no connection until the first offer) and retries an
//! offer exactly once over a fresh connection when the link failed
//! mid-negotiation (offer ids make the retry idempotent — the lender's
//! verdict is a pure function of its replica). Offer round-trips are
//! spanned as [`com_obs::PHASE_FED_OFFER`], deliberately *outside* the
//! matcher's `decision` phase.
//!
//! Deadlock note: two daemons blocking on offers to each other would
//! deadlock until both deadlines fire. The `matchfed` driver prevents
//! the situation structurally — it sends every request to the
//! non-owning daemon first and waits for its answer before the owner
//! sees the event, so at most one offer is ever in flight — and the
//! per-offer deadline bounds the damage for any other driver.

use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use com_core::{OutsourceChannel, OutsourceOutcome};
use com_sim::{PlatformId, RequestSpec, Value};
use com_stream::WorkerId;

use crate::client::read_server_frame;
use crate::framing::{WireFormat, MAX_FRAME_PAYLOAD};
use crate::protocol::{write_msg, ClientMsg, FedStatsMsg, OfferMsg, ServerMsg};

/// Default per-offer deadline when the `hello` does not set one.
pub const DEFAULT_OFFER_DEADLINE_MS: u64 = 1_000;

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
        }
    }
}

/// The lazy outgoing link to the rival daemon. `conn` is dialled by the
/// first offer and is `None` again after any failure, so the next attempt
/// reconnects.
struct PeerLink {
    addr: String,
    format: WireFormat,
    conn: Option<BufReader<TcpStream>>,
}

impl PeerLink {
    /// One blocking exchange: write the encoded offer, then read until
    /// offer `offer`'s verdict arrives or `deadline` passes between two
    /// frames (`TimedOut`, link intact). Any `Err` — connect, write, EOF,
    /// an undecodable reply, or the deadline firing *inside* a frame —
    /// leaves the stream position unknown; the caller drops the link.
    fn exchange(
        &mut self,
        bytes: &[u8],
        offer: u64,
        deadline: Instant,
        stats: &FedShared,
    ) -> io::Result<OutsourceOutcome> {
        let conn = match &mut self.conn {
            Some(conn) => conn,
            None => {
                let stream = TcpStream::connect(&self.addr)?;
                stream.set_nodelay(true).ok();
                self.conn.insert(BufReader::new(stream))
            }
        };
        conn.get_mut().write_all(bytes)?;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(OutsourceOutcome::TimedOut);
            }
            conn.get_ref().set_read_timeout(Some(remaining))?;
            // Wait for the first byte of the next frame separately: a
            // timeout here consumed nothing, one inside
            // `read_server_frame` did.
            match conn.fill_buf() {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(OutsourceOutcome::TimedOut);
                }
                Err(e) => return Err(e),
                Ok(_) => {}
            }
            let (id, outcome) = match read_server_frame(conn, MAX_FRAME_PAYLOAD)?.msg {
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
    stats: Arc<FedShared>,
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
        stats: Arc<FedShared>,
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
            stats,
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
        self.stats.offers_sent.fetch_add(1, Ordering::Relaxed);
        let Some(link) = self.link.as_mut() else {
            self.stats.offers_rejected.fetch_add(1, Ordering::Relaxed);
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
        });
        let mut bytes = Vec::with_capacity(256);
        write_msg(link.format, None, &msg, &mut bytes);
        let deadline = Instant::now() + self.deadline;
        let mut retried = false;
        let outcome = loop {
            match link.exchange(&bytes, offer, deadline, &self.stats) {
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
                    self.stats.offers_retried.fetch_add(1, Ordering::Relaxed);
                }
            }
        };
        match &outcome {
            OutsourceOutcome::Accepted => {
                self.stats.offers_accepted.fetch_add(1, Ordering::Relaxed);
            }
            OutsourceOutcome::Rejected(_) => {
                self.stats.offers_rejected.fetch_add(1, Ordering::Relaxed);
            }
            OutsourceOutcome::TimedOut => {
                self.stats.offers_timed_out.fetch_add(1, Ordering::Relaxed);
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_client, encode};
    use com_geo::Point;
    use com_sim::{RequestId, Timestamp};
    use std::net::TcpListener;

    fn request() -> RequestSpec {
        RequestSpec::new(
            RequestId(1),
            PlatformId(0),
            Timestamp::from_secs(1.0),
            Point::new(1.0, 1.0),
            5.0,
        )
    }

    #[test]
    fn no_peer_link_degrades_immediately() {
        let stats = Arc::new(FedShared::default());
        let mut ch = WireOutsource::new(None, WireFormat::Ndjson, 1, 100, Arc::clone(&stats));
        let got = ch.offer(&request(), WorkerId(3), PlatformId(1), 2.0);
        assert!(matches!(got, OutsourceOutcome::Rejected(_)));
        assert_eq!(stats.offers_sent.load(Ordering::Relaxed), 1);
        assert_eq!(stats.offers_rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unreachable_peer_times_out_within_deadline() {
        // A bound-then-dropped listener yields a port that refuses
        // connections fast.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let stats = Arc::new(FedShared::default());
        let mut ch = WireOutsource::new(Some(addr), WireFormat::Ndjson, 1, 200, Arc::clone(&stats));
        let started = Instant::now();
        let got = ch.offer(&request(), WorkerId(3), PlatformId(1), 2.0);
        assert!(matches!(got, OutsourceOutcome::TimedOut));
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(stats.offers_timed_out.load(Ordering::Relaxed), 1);
        assert_eq!(stats.offers_retried.load(Ordering::Relaxed), 1);
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

        let stats = Arc::new(FedShared::default());
        let mut ch = WireOutsource::new(Some(addr), WireFormat::Ndjson, 9, 300, Arc::clone(&stats));
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
        assert_eq!(stats.offers_sent.load(Ordering::Relaxed), 3);
        assert_eq!(stats.offers_accepted.load(Ordering::Relaxed), 1);
        assert_eq!(stats.offers_rejected.load(Ordering::Relaxed), 1);
        assert_eq!(stats.offers_timed_out.load(Ordering::Relaxed), 1);
    }

    /// The next offer a scripted lender receives; `None` once the borrower
    /// has hung up.
    fn next_offer(reader: &mut BufReader<TcpStream>) -> Option<OfferMsg> {
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return None;
            }
            if let Ok(ClientMsg::outsource_offer(o)) = decode_client(line.trim()) {
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

        let stats = Arc::new(FedShared::default());
        let mut ch = WireOutsource::new(Some(addr), WireFormat::Ndjson, 9, 100, Arc::clone(&stats));
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
        assert_eq!(stats.stale_replies.load(Ordering::Relaxed), 1);
        assert_eq!(stats.offers_timed_out.load(Ordering::Relaxed), 1);
        assert_eq!(stats.offers_accepted.load(Ordering::Relaxed), 1);
        assert_eq!(stats.offers_retried.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn stall_inside_a_frame_drops_the_link() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let half_verdict = |o: &OfferMsg| {
                let line = accept_line(o);
                line[..line.len() / 2].to_string()
            };
            // Link 1: half a verdict, then hang up — an error inside a
            // frame, which earns the one retry.
            let (mut stream, mut reader) = scripted_link(&listener);
            let o = next_offer(&mut reader).unwrap();
            assert_eq!(o.offer, 0);
            stream.write_all(half_verdict(&o).as_bytes()).unwrap();
            drop((stream, reader));
            // Link 2: the retry. Half a verdict again, then stall with the
            // socket open — the deadline fires inside a frame, and the
            // borrower must hang up rather than reuse the desynced link.
            let (mut stream, mut reader) = scripted_link(&listener);
            let o = next_offer(&mut reader).unwrap();
            assert_eq!(o.offer, 0, "the retry reuses the offer id");
            stream.write_all(half_verdict(&o).as_bytes()).unwrap();
            assert!(next_offer(&mut reader).is_none(), "desynced link reused");
            // Link 3: the next offer dials afresh and resolves.
            let (mut stream, mut reader) = scripted_link(&listener);
            let o = next_offer(&mut reader).unwrap();
            assert_eq!(o.offer, 1);
            stream.write_all(accept_line(&o).as_bytes()).unwrap();
            assert!(next_offer(&mut reader).is_none());
        });

        let stats = Arc::new(FedShared::default());
        let mut ch = WireOutsource::new(Some(addr), WireFormat::Ndjson, 9, 150, Arc::clone(&stats));
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
        assert_eq!(stats.offers_retried.load(Ordering::Relaxed), 1);
        assert_eq!(stats.offers_timed_out.load(Ordering::Relaxed), 1);
        assert_eq!(stats.offers_accepted.load(Ordering::Relaxed), 1);
        assert_eq!(stats.stale_replies.load(Ordering::Relaxed), 0);
    }
}
