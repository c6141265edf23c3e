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
//! The link is lazy (no connection until the first offer), retries a
//! send exactly once over a fresh connection when the peer vanished
//! mid-negotiation (offer ids make the retry idempotent — the lender's
//! verdict is a pure function of its replica), and drops replies that
//! arrive after their offer's deadline (counted as stale). Offer
//! round-trips are spanned as [`com_obs::PHASE_FED_OFFER`],
//! deliberately *outside* the matcher's `decision` phase.
//!
//! Deadlock note: two daemons blocking on offers to each other would
//! deadlock until both deadlines fire. The `matchfed` driver prevents
//! the situation structurally — it sends every request to the
//! non-owning daemon first and waits for its answer before the owner
//! sees the event, so at most one offer is ever in flight — and the
//! per-offer deadline bounds the damage for any other driver.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use com_core::{OutsourceChannel, OutsourceOutcome, OutsourceReject};
use com_sim::{PlatformId, RequestSpec, Value};
use com_stream::WorkerId;

use crate::client::read_server_frame;
use crate::framing::WireFormat;
use crate::protocol::{write_msg, ClientMsg, FedStatsMsg, OfferMsg, ServerMsg};

/// Default per-offer deadline when the `hello` does not set one.
pub const DEFAULT_OFFER_DEADLINE_MS: u64 = 1_000;

/// Federation counters shared between the shard thread (offers out,
/// lends answered), the peer-link reader thread (stale replies), and
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

/// The lender's verdict as routed back from the reader thread.
enum PeerReply {
    Accept,
    Reject { code: String },
}

/// One live connection to the peer daemon: the write half plus the
/// pending-reply registry its reader thread resolves against. The
/// registry is per-connection so a dead link's reader can fail its own
/// pending offers fast (dropping the senders) without racing offers
/// registered on a successor connection.
struct PeerConn {
    stream: TcpStream,
    pending: Arc<Mutex<HashMap<u64, SyncSender<PeerReply>>>>,
}

impl Drop for PeerConn {
    fn drop(&mut self) {
        // The reader thread holds a dup of this socket, so merely
        // dropping our fd would keep the connection open (and the reader
        // blocked) forever. Shut the socket down so the reader unblocks
        // with EOF and the peer daemon sees the link close.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// The lazy outgoing link to the rival daemon.
struct PeerLink {
    addr: String,
    format: WireFormat,
    conn: Option<PeerConn>,
    stats: Arc<FedShared>,
}

impl PeerLink {
    /// Connect if not connected, spawning the reply reader thread.
    fn ensure(&mut self) -> std::io::Result<&mut PeerConn> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true).ok();
            let pending: Arc<Mutex<HashMap<u64, SyncSender<PeerReply>>>> =
                Arc::new(Mutex::new(HashMap::new()));
            let reader = BufReader::new(stream.try_clone()?);
            {
                let pending = Arc::clone(&pending);
                let stats = Arc::clone(&self.stats);
                std::thread::Builder::new()
                    .name("fed-peer-reader".into())
                    .spawn(move || reader_loop(reader, pending, stats))
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
            }
            self.conn = Some(PeerConn { stream, pending });
        }
        Ok(self.conn.as_mut().expect("just ensured"))
    }

    /// Register a reply slot and write one offer. On any failure the
    /// connection is dropped so the next attempt reconnects.
    fn send_offer(
        &mut self,
        msg: &ClientMsg,
        offer: u64,
    ) -> std::io::Result<mpsc::Receiver<PeerReply>> {
        let format = self.format;
        let result = (|| {
            let conn = self.ensure()?;
            let (tx, rx) = mpsc::sync_channel(1);
            conn.pending.lock().unwrap().insert(offer, tx);
            let mut bytes = Vec::with_capacity(256);
            write_msg(format, msg, &mut bytes);
            match conn.stream.write_all(&bytes) {
                Ok(()) => Ok(rx),
                Err(e) => {
                    conn.pending.lock().unwrap().remove(&offer);
                    Err(e)
                }
            }
        })();
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    /// Forget a timed-out offer so a late reply counts as stale instead
    /// of resolving into nothing.
    fn forget(&mut self, offer: u64) {
        if let Some(conn) = &self.conn {
            conn.pending.lock().unwrap().remove(&offer);
        }
    }
}

/// Read lender verdicts off the peer connection and resolve them
/// against the pending registry, through the crate's one reader
/// ([`read_server_frame`]: framing auto-detected per message). Exits on
/// EOF or error, failing this connection's still-pending offers fast by
/// dropping their senders.
fn reader_loop(
    mut reader: BufReader<TcpStream>,
    pending: Arc<Mutex<HashMap<u64, SyncSender<PeerReply>>>>,
    stats: Arc<FedShared>,
) {
    while let Ok(frame) = read_server_frame(&mut reader) {
        let (offer, reply) = match frame.msg {
            ServerMsg::outsource_accept { offer, .. } => (offer, PeerReply::Accept),
            ServerMsg::outsource_reject { offer, code, .. } => (offer, PeerReply::Reject { code }),
            // `busy` (lender shard backlogged) and anything else: not a
            // verdict; the offer runs into its deadline and degrades.
            _ => continue,
        };
        match pending.lock().unwrap().remove(&offer) {
            // The borrower may have timed out between our remove and its
            // forget — a dropped receiver is fine, send_for is best-effort.
            Some(tx) => {
                let _ = tx.send(reply);
            }
            None => {
                stats.stale_replies.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    // Fail whatever is still pending on this connection: the borrower's
    // recv sees a disconnect immediately instead of waiting out the
    // deadline.
    pending.lock().unwrap().clear();
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
                stats: Arc::clone(&stats),
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
            return OutsourceOutcome::Rejected(OutsourceReject::Other("no-peer-link".into()));
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
        let deadline = Instant::now() + self.deadline;
        let mut retried = false;
        let outcome = loop {
            let rx = match link.send_offer(&msg, offer) {
                Ok(rx) => rx,
                Err(_) if !retried && Instant::now() < deadline => {
                    // One idempotent retry over a fresh connection: the
                    // peer may have restarted between offers.
                    retried = true;
                    self.stats.offers_retried.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Err(_) => break OutsourceOutcome::TimedOut,
            };
            let remaining = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(remaining) {
                Ok(PeerReply::Accept) => break OutsourceOutcome::Accepted,
                Ok(PeerReply::Reject { code }) => {
                    break OutsourceOutcome::Rejected(OutsourceReject::from_code(&code))
                }
                Err(RecvTimeoutError::Timeout) => {
                    link.forget(offer);
                    break OutsourceOutcome::TimedOut;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // The link died mid-negotiation (reader failed our
                    // slot). Retry once; the offer id makes it safe.
                    link.conn = None;
                    if !retried && Instant::now() < deadline {
                        retried = true;
                        self.stats.offers_retried.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    break OutsourceOutcome::TimedOut;
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
    use crate::protocol::encode;
    use com_geo::Point;
    use com_sim::{RequestId, Timestamp};
    use std::io::BufRead;
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
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut answered = 0usize;
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                let Ok(ClientMsg::outsource_offer(o)) = crate::protocol::decode_client(line.trim())
                else {
                    continue;
                };
                let reply = match answered {
                    0 => Some(ServerMsg::outsource_accept {
                        fed_sid: o.fed_sid,
                        offer: o.offer,
                    }),
                    1 => Some(ServerMsg::outsource_reject {
                        fed_sid: o.fed_sid,
                        offer: o.offer,
                        code: "desync".into(),
                        detail: "scripted".into(),
                    }),
                    _ => None, // silent: the borrower must hit its deadline
                };
                answered += 1;
                if let Some(reply) = reply {
                    let mut stream = stream.try_clone().unwrap();
                    stream
                        .write_all(format!("{}\n", encode(&reply)).as_bytes())
                        .unwrap();
                }
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
            OutsourceOutcome::Rejected(OutsourceReject::Desync)
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
}
