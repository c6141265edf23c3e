//! The one wire client: a connection to `matchd` — or, as the federation
//! peer link, to the rival daemon — with exactly one read path
//! ([`Client::recv_frame`], through the crate's one `WireReader`) and
//! one write path ([`Client::queue_for`]).
//!
//! Outgoing framing starts as NDJSON and switches to binary only when a
//! `welcome` echoes the request ([`Client::open`]); incoming framing is
//! auto-detected per message from its first byte, so the switchover is
//! race-free. Session addressing is an argument, not a mode: `sid: None`
//! puts the bare message on the wire (the one-session addressing),
//! `Some(n)` wraps it in the `{"sid":n,"msg":…}` mux envelope. The
//! scenario driver over this client is [`crate::drive()`].

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::framing::{self, Piece, WireFormat, WireReader, MAX_FRAME_PAYLOAD};
use crate::protocol::{
    read_line, write_msg, ByeMsg, ClientMsg, DecodeError, DeepStatsMsg, Hello, ServerFrame,
    ServerMsg,
};

/// What a [`Client`] lets one server message grow past
/// [`MAX_FRAME_PAYLOAD`] for every message it has queued on the
/// connection. A sound session's `bye` is a few hundred bytes, but it
/// lists every audit finding, and a broken session can have one per
/// event it streamed.
const BYE_BYTES_PER_QUEUED_MSG: usize = 1024;

/// An `InvalidData` I/O error: the peer answered, but not with what the
/// protocol allows here.
pub fn bad_data(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

/// The error for a response that is not what `what` is answered with: a
/// typed server refusal, or a message of the wrong kind.
pub(crate) fn unexpected(what: &str, response: ServerMsg) -> io::Error {
    match response {
        ServerMsg::error(e) => bad_data(format!("{what} refused: {}: {}", e.code, e.detail)),
        other => bad_data(format!("unexpected {what} response: {other:?}")),
    }
}

/// The client's policy over the one reader: the next server message with
/// its mux address, read through `reader` from `src`, whatever its
/// framing. EOF before or inside a message is `UnexpectedEof`; a message
/// longer than `cap` bytes is `InvalidData` in either framing: a frame on
/// its declared length, before any payload byte is buffered; a line once
/// `cap` bytes arrived without a newline. Any other error of `src` — a
/// read timeout included — is returned as it is, and the bytes already
/// read stay in `reader` for the next call.
fn read_server_frame(
    reader: &mut WireReader,
    src: &mut impl Read,
    cap: usize,
) -> io::Result<ServerFrame> {
    (reader.line_cap, reader.frame_cap) = (cap, cap);
    let decoded = loop {
        match reader.next_piece() {
            Some(Piece::Line(text)) => break read_line::<ServerMsg>(text).0,
            Some(Piece::Frame(payload)) => break framing::read_frame::<ServerMsg>(payload).0,
            Some(Piece::OversizedFrame(len)) => {
                return Err(bad_data(format!("message of {len} bytes exceeds {cap}")))
            }
            Some(Piece::OversizedLine) => {
                return Err(bad_data(format!("line exceeds {cap} bytes")))
            }
            Some(Piece::NotUtf8(e)) => return Err(bad_data(format!("line is not UTF-8: {e}"))),
            None => {
                if reader.fill(src)? == 0 {
                    let eof = "server closed the connection";
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, eof));
                }
            }
        }
    };
    decoded.map_err(|e| match e {
        // Bytes that are no value at all: the payload decoder's own
        // message.
        DecodeError::BadFrame(detail) => bad_data(detail),
        e => bad_data(e.to_string()),
    })
}

/// A connected protocol client.
pub struct Client {
    reader: WireReader,
    stream: TcpStream,
    /// Pending outgoing bytes ([`Client::queue_for`] / [`Client::flush`]).
    wbuf: Vec<u8>,
    /// Framing for *outgoing* messages.
    format: WireFormat,
    /// Messages queued over the connection's life; scales the read cap.
    queued: usize,
}

impl Client {
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Sends are already batched into one write per burst; Nagle
        // would only delay the burst behind an unacked response.
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: WireReader::new(MAX_FRAME_PAYLOAD, MAX_FRAME_PAYLOAD),
            stream,
            wbuf: Vec::with_capacity(4 * 1024),
            format: WireFormat::Ndjson,
            queued: 0,
        })
    }

    /// The outgoing framing in effect (binary only after a `welcome`
    /// echoed it).
    pub fn format(&self) -> WireFormat {
        self.format
    }

    /// Queue one message for logical session `sid` into the write buffer
    /// without flushing — bare when `None`, in the mux envelope
    /// otherwise. Call [`Client::flush`] before blocking on a response.
    pub(crate) fn queue_for(&mut self, sid: Option<u64>, msg: &ClientMsg) {
        write_msg(self.format, sid, msg, &mut self.wbuf);
        self.queued += 1;
    }

    /// Write every queued byte to the socket.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.wbuf)?;
        self.wbuf.clear();
        Ok(())
    }

    /// Send one bare message immediately (queue + flush).
    pub fn send(&mut self, msg: &ClientMsg) -> io::Result<()> {
        self.queue_for(None, msg);
        self.flush()
    }

    /// Send one raw line verbatim (protocol-robustness tests).
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.flush()?;
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    /// Send raw bytes verbatim, no newline: an offer the federation peer
    /// link encoded, or framing-robustness tests.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.flush()?;
        self.stream.write_all(bytes)
    }

    /// Bound each later socket read by `timeout` (`None`: no bound). A
    /// read that times out is an error of kind `WouldBlock` or `TimedOut`
    /// that loses no stream position: the next read goes on from it.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Read the next server message with its mux address, whatever its
    /// framing, capped at [`MAX_FRAME_PAYLOAD`] plus a fixed allowance per
    /// message queued so far, so a `bye` of any session this client could
    /// have streamed is readable. EOF before or inside a message is
    /// `UnexpectedEof`; a message over the cap, or one that does not
    /// decode, is `InvalidData`.
    pub fn recv_frame(&mut self) -> io::Result<ServerFrame> {
        let cap = self.queued.saturating_mul(BYE_BYTES_PER_QUEUED_MSG);
        let cap = cap.saturating_add(MAX_FRAME_PAYLOAD);
        read_server_frame(&mut self.reader, &mut self.stream, cap)
    }

    /// Read the next server message, whichever session it addresses.
    pub fn recv(&mut self) -> io::Result<ServerMsg> {
        Ok(self.recv_frame()?.msg)
    }

    /// Send a message to session `sid` and wait for its (in-order)
    /// response — valid only while nothing else is in flight on the
    /// connection, so an answer for any other session is an error.
    pub fn rpc_for(&mut self, sid: Option<u64>, msg: &ClientMsg) -> io::Result<ServerMsg> {
        self.queue_for(sid, msg);
        self.flush()?;
        let frame = self.recv_frame()?;
        if frame.sid != sid {
            return Err(bad_data(format!(
                "expected a response for session {sid:?}, got {frame:?}"
            )));
        }
        Ok(frame.msg)
    }

    /// [`Client::rpc_for`] the bare session.
    pub fn rpc(&mut self, msg: &ClientMsg) -> io::Result<ServerMsg> {
        self.rpc_for(None, msg)
    }

    /// Open logical session `sid`: `hello` → `welcome`, or the server's
    /// typed refusal as an error. The `hello` is an NDJSON line whatever
    /// the current framing (the framing module's compatibility policy).
    /// The outgoing framing switches to binary only when the hello asked
    /// for it *and* the welcome echoes it — an old server (no echo) or a
    /// downgrading one keeps the client on NDJSON.
    pub fn open(&mut self, sid: Option<u64>, hello: Hello) -> io::Result<()> {
        let wants_binary = hello.frame.as_deref() == Some(WireFormat::Binary.as_str());
        let format = std::mem::replace(&mut self.format, WireFormat::Ndjson);
        let response = self.rpc_for(sid, &ClientMsg::hello(hello));
        self.format = format;
        match response? {
            ServerMsg::welcome { frame, .. } => {
                if wants_binary && frame.as_deref() == Some(WireFormat::Binary.as_str()) {
                    self.format = WireFormat::Binary;
                }
                Ok(())
            }
            other => Err(unexpected("hello", other)),
        }
    }

    /// Close logical session `sid`: a deep telemetry snapshot while the
    /// session is still live (`None` when the server predates
    /// `stats_deep`), then `shutdown` → the session's final `bye`.
    pub fn close(&mut self, sid: Option<u64>) -> io::Result<(Option<DeepStatsMsg>, ByeMsg)> {
        let deep = match self.rpc_for(sid, &ClientMsg::stats_deep)? {
            ServerMsg::stats_deep(deep) => Some(*deep),
            _ => None,
        };
        match self.rpc_for(sid, &ClientMsg::shutdown)? {
            ServerMsg::bye(bye) => Ok((deep, bye)),
            other => Err(unexpected("shutdown", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{encode_frame, FRAME_MAGIC};
    use crate::protocol::{encode, ByeMsg};
    use std::io::ErrorKind;

    /// `read_server_frame` under the peer link's constant cap.
    fn read(reader: &mut WireReader, wire: &mut &[u8]) -> io::Result<ServerFrame> {
        read_server_frame(reader, wire, MAX_FRAME_PAYLOAD)
    }

    /// The first message of `wire`, read by a fresh reader.
    fn read_first(mut wire: &[u8]) -> io::Result<ServerFrame> {
        read(&mut WireReader::new(0, 0), &mut wire)
    }

    fn tagged(sid: u64, msg: &ServerMsg) -> ServerFrame {
        ServerFrame {
            sid: Some(sid),
            msg: msg.clone(),
        }
    }

    #[test]
    fn reads_both_framings_bare_and_enveloped_interleaved() {
        let (ack, full) = (ServerMsg::ok, ServerMsg::busy);
        let mut wire = Vec::new();
        wire.extend_from_slice(format!("{}\n", encode(&ack)).as_bytes());
        wire.extend_from_slice(&encode_frame(&full));
        // Blank lines between messages are skipped, not answered.
        wire.extend_from_slice(b"\n  \r\n");
        wire.extend_from_slice(format!("{}\n", encode(&tagged(7, &full))).as_bytes());
        wire.extend_from_slice(&encode_frame(&tagged(9, &ack)));
        wire.extend_from_slice(format!("{}\n", encode(&ack)).as_bytes());

        let (mut reader, mut wire) = (WireReader::new(0, 0), &wire[..]);
        let mut got = Vec::new();
        for _ in 0..5 {
            let frame = read(&mut reader, &mut wire).expect("frame");
            got.push((frame.sid, format!("{:?}", frame.msg)));
        }
        assert_eq!(
            got,
            vec![
                (None, "ok".to_string()),
                (None, "busy".to_string()),
                (Some(7), "busy".to_string()),
                (Some(9), "ok".to_string()),
                (None, "ok".to_string()),
            ]
        );
        assert!(
            wire.is_empty() && reader.next_piece().is_none(),
            "every byte consumed"
        );
    }

    #[test]
    fn oversized_header_is_invalid_data_without_reading_the_payload() {
        // Only the header is on the wire: had the reader tried to buffer
        // the declared payload it would fail with UnexpectedEof instead.
        let mut wire = vec![FRAME_MAGIC];
        wire.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        let err = read_first(&wire).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    /// A `bye` past the constant cap — a broken session's findings — is
    /// readable under the cap a client that streamed the session has, and
    /// refused under the constant one, in both framings.
    #[test]
    fn a_bye_past_the_constant_cap_is_read_under_the_scaled_one() {
        let bye = ServerMsg::bye(ByeMsg {
            algorithm: "DemCOM".into(),
            revenue: 0.0,
            completed: 0,
            cooperative: 0,
            events: 0,
            refused: 0,
            audit_findings: vec!["x".repeat(17 << 20)],
            canonical: serde_json::Value::null(),
            digest: String::new(),
            fed: None,
        });
        let scaled = MAX_FRAME_PAYLOAD + 2_000 * BYE_BYTES_PER_QUEUED_MSG;
        let frame = encode_frame(&bye);
        let line = format!("{}\n", encode(&bye)).into_bytes();
        for mut wire in [&frame[..], &line[..]] {
            assert!(wire.len() > 17 << 20 && wire.len() < scaled);
            let mut reader = WireReader::new(0, 0);
            let got =
                read_server_frame(&mut reader, &mut wire, scaled).expect("under the scaled cap");
            assert!(matches!(got.msg, ServerMsg::bye(_)));
        }
        // The frame is refused on its header alone: with no payload on the
        // wire, buffering it would be UnexpectedEof instead.
        for wire in [&frame[..framing::FRAME_HEADER_LEN], &line[..]] {
            let err = read_first(wire).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("exceeds"), "{err}");
        }
    }

    /// Opened with binary, a client still writes a later session's
    /// `hello` as an NDJSON line. The listener's answers are written
    /// before the client asks, so one thread drives both ends.
    #[test]
    fn every_hello_is_an_ndjson_line_whatever_the_framing() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        for sid in [1, 2] {
            let welcome = ServerMsg::welcome {
                algorithm: "TOTA".into(),
                frame: Some(WireFormat::Binary.as_str().into()),
            };
            let line = format!("{}\n", encode(&tagged(sid, &welcome)));
            server.write_all(line.as_bytes()).unwrap();
        }
        let hello = Hello {
            matcher: "tota".into(),
            seed: 1,
            world: com_sim::WorldConfig::city(10.0),
            platforms: vec!["A".into(), "B".into()],
            max_value: None,
            frame: Some(WireFormat::Binary.as_str().into()),
            origin: None,
            fed: None,
        };
        client.open(Some(1), hello.clone()).unwrap();
        assert_eq!(client.format(), WireFormat::Binary);
        client.open(Some(2), hello).unwrap();
        assert_eq!(client.format(), WireFormat::Binary);
        drop(client);

        let mut sent = Vec::new();
        server.read_to_end(&mut sent).unwrap();
        let first = sent
            .iter()
            .position(|&b| b == b'\n')
            .expect("sid 1's hello line")
            + 1;
        let second = &sent[first..];
        assert!(second.starts_with(b"{"), "sid 2's hello: {second:?}");
        for (sid, line) in [(1, &sent[..first - 1]), (2, &second[..second.len() - 1])] {
            let (decoded, _) = read_line::<ClientMsg>(std::str::from_utf8(line).unwrap());
            let frame = decoded.unwrap();
            assert_eq!(frame.sid, Some(sid));
            assert!(matches!(frame.msg, ClientMsg::hello(_)));
        }
    }

    #[test]
    fn eof_before_or_inside_a_message_is_unexpected_eof() {
        let kind = |wire: &[u8]| read_first(wire).unwrap_err().kind();
        assert_eq!(kind(b""), ErrorKind::UnexpectedEof);
        assert_eq!(kind(b"\n\n"), ErrorKind::UnexpectedEof);
        // A line the peer never terminated.
        assert_eq!(kind(b"\"ok\""), ErrorKind::UnexpectedEof);
        let frame = encode_frame(&ServerMsg::ok);
        // Inside the header, and inside the payload.
        assert_eq!(kind(&frame[..3]), ErrorKind::UnexpectedEof);
        assert_eq!(kind(&frame[..frame.len() - 1]), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn undecodable_messages_are_invalid_data_in_each_framing() {
        let kind = |wire: &[u8]| read_first(wire).unwrap_err().kind();
        assert_eq!(kind(b"{not json\n"), ErrorKind::InvalidData);
        assert_eq!(kind(b"{\"sid\":3}\n"), ErrorKind::InvalidData);
        assert_eq!(
            kind(&encode_frame(&ClientMsg::tick { to: 1.0 })),
            ErrorKind::InvalidData
        );
        let mut junk = vec![FRAME_MAGIC];
        junk.extend_from_slice(&2u32.to_le_bytes());
        junk.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(kind(&junk), ErrorKind::InvalidData);
    }
}
