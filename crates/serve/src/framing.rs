//! Binary wire framing for the matchd protocol.
//!
//! NDJSON stays the default (and the debuggable path); sessions that ask
//! for `"frame": "binary"` in `hello` switch to length-prefixed binary
//! frames after the `welcome` confirms. One frame is:
//!
//! ```text
//! [0xB1][u32 LE payload length][payload]
//! ```
//!
//! The payload is a tag-prefixed encoding of the same [`Content`] value
//! tree the JSON path serializes through:
//!
//! | tag  | value                                            |
//! |------|--------------------------------------------------|
//! | 0x00 | null                                             |
//! | 0x01 | false                                            |
//! | 0x02 | true                                             |
//! | 0x03 | u64, LEB128 varint                               |
//! | 0x04 | i64, zigzag + LEB128 varint                      |
//! | 0x05 | f64, 8 bytes little-endian IEEE-754 bits         |
//! | 0x06 | string: varint byte length + UTF-8 bytes         |
//! | 0x07 | sequence: varint count + that many values        |
//! | 0x08 | map: varint count + that many key/value pairs    |
//!
//! Every varint is the shortest LEB128 form of a value that fits a u64.
//!
//! **Hot layouts.** The five messages every event crosses — client
//! `request` and `worker`, server `ok`, `assign` and `reject`, bare or in
//! the `{"sid","msg"}` mux envelope — are written and read straight
//! between bytes and structs, with no value tree in between. Each layout
//! is written once, in [`crate::hot`], and serves both framings; this
//! module supplies the binary primitives it is written with. A layout is
//! the canonical `Content` encoding written directly: the derive's key
//! order, the derive's tags, the same bytes [`write_frame`] produces.
//! So a hot message has exactly one binary form: [`read_frame`] takes
//! that layout and refuses any other — keys reordered, an integer sent as
//! a float — as [`DecodeError::BadFrame`]. (One liberty is left: a worker
//! history's values may come in any order, and are sorted as
//! `WorkerHistory` keeps them.) A cold message decodes through `Content`.
//! NDJSON, which people type, keeps its liberal reader
//! ([`read_line`](crate::read_line)).
//!
//! The magic byte `0xB1` can never begin an NDJSON line (it is not ASCII
//! and not a valid UTF-8 leading byte), so both sides detect the framing
//! of each incoming message from its first byte — the switchover after
//! negotiation is race-free and a binary server still accepts NDJSON
//! lines at any time. Both sides do it in the one reader, `WireReader`.
//!
//! Compatibility policy: `hello`/`welcome` are **always** NDJSON. A
//! server that does not understand `frame` ignores the unknown field and
//! answers a `welcome` without an echo; the client then stays on NDJSON
//! (safe downgrade). There is no version byte — the frame payload is
//! schema-free `Content`, and message evolution happens at the protocol
//! layer exactly as for JSON.

use std::io::{self, Read};

use serde::{Content, Serialize};
use serde_json::MAX_DEPTH;

use crate::hot::{self, HotRead, HotWrite, WireMsg};
use crate::protocol::{frame_from_content, DecodeError, Frame};

/// First byte of every binary frame. Not ASCII, not a valid UTF-8
/// leading byte — unambiguous against NDJSON.
pub const FRAME_MAGIC: u8 = 0xB1;

/// Magic byte + u32 LE payload length.
pub(crate) const FRAME_HEADER_LEN: usize = 5;

/// Hard cap on one frame's payload. Larger declared lengths are rejected
/// with a typed error and the bytes are discarded without buffering.
pub const MAX_FRAME_PAYLOAD: usize = 16 << 20;

/// Hard cap on one NDJSON line (satellite of the same defence: a line
/// that never ends must not grow the read buffer without bound).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The two wire framings a session can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Newline-delimited JSON (the default and the debug path).
    #[default]
    Ndjson,
    /// Length-prefixed binary frames (this module).
    Binary,
}

impl WireFormat {
    /// The token used in `hello.frame` / `welcome.frame`.
    pub fn as_str(self) -> &'static str {
        match self {
            WireFormat::Ndjson => "ndjson",
            WireFormat::Binary => "binary",
        }
    }
}

/// Parse a negotiation token (`hello.frame`, a CLI's `--frame`). A peer
/// that sends an unknown token is answered in NDJSON rather than failed.
impl std::str::FromStr for WireFormat {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ndjson" => Ok(WireFormat::Ndjson),
            "binary" => Ok(WireFormat::Binary),
            _ => Err("must be ndjson or binary"),
        }
    }
}

impl std::fmt::Display for WireFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a frame (or frame payload) failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// Truncated, bad tag, bad UTF-8, trailing bytes, too deep, …
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Malformed(d) => write!(f, "malformed frame: {d}"),
        }
    }
}

fn malformed(detail: impl Into<String>) -> FrameError {
    FrameError::Malformed(detail.into())
}

// ---------------------------------------------------------------- encode

#[inline]
fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[inline]
fn put_u64(v: u64, out: &mut Vec<u8>) {
    out.push(0x03);
    put_varint(v, out);
}

#[inline]
fn put_f64(v: f64, out: &mut Vec<u8>) {
    out.push(0x05);
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

#[inline]
fn put_str(s: &str, out: &mut Vec<u8>) {
    out.push(0x06);
    put_varint(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

#[inline]
fn put_map(count: usize, out: &mut Vec<u8>) {
    out.push(0x08);
    put_varint(count as u64, out);
}

fn put_content(c: &Content, out: &mut Vec<u8>) {
    match c {
        Content::Null => out.push(0x00),
        Content::Bool(false) => out.push(0x01),
        Content::Bool(true) => out.push(0x02),
        Content::U64(v) => put_u64(*v, out),
        Content::I64(v) => {
            out.push(0x04);
            // Zigzag: small magnitudes stay small regardless of sign.
            put_varint(((v << 1) ^ (v >> 63)) as u64, out);
        }
        Content::F64(v) => put_f64(*v, out),
        Content::Str(s) => put_str(s, out),
        Content::Seq(items) => {
            out.push(0x07);
            put_varint(items.len() as u64, out);
            for item in items {
                put_content(item, out);
            }
        }
        Content::Map(entries) => {
            put_map(entries.len(), out);
            for (k, v) in entries {
                put_content(k, out);
                put_content(v, out);
            }
        }
    }
}

/// Append one frame to `out`: the header, then the payload `put` writes,
/// then the header's length patched in.
fn put_frame(out: &mut Vec<u8>, put: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[FRAME_MAGIC, 0, 0, 0, 0]);
    put(out);
    let payload = (out.len() - start - FRAME_HEADER_LEN) as u32;
    out[start + 1..start + FRAME_HEADER_LEN].copy_from_slice(&payload.to_le_bytes());
}

/// Append one complete frame (header + payload) for `msg` to `out`,
/// through its `Content` tree.
pub fn write_frame<T: Serialize>(msg: &T, out: &mut Vec<u8>) {
    put_frame(out, |out| put_content(&msg.to_content(), out));
}

/// One complete frame for `msg` as a fresh buffer.
pub fn encode_frame<T: Serialize>(msg: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    write_frame(msg, &mut out);
    out
}

// ---------------------------------------------------------------- decode

#[derive(Clone)]
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| malformed("truncated payload"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn byte(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// A LEB128 varint exactly as [`put_varint`] writes it: at most ten
    /// bytes, no bit past the 64th, and no trailing zero group.
    fn varint(&mut self) -> Result<u64, FrameError> {
        // Most of a hot frame's varints are one byte, always minimal: they
        // return before any check.
        let first = self.byte()?;
        if first & 0x80 == 0 {
            return Ok(u64::from(first));
        }
        let mut v = u64::from(first & 0x7f);
        for shift in (7..64).step_by(7) {
            let byte = self.byte()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 {
                    return Err(malformed("overlong varint"));
                }
                if byte > 1 && shift == 63 {
                    return Err(malformed("varint overflows u64"));
                }
                return Ok(v);
            }
        }
        Err(malformed("varint longer than 10 bytes"))
    }

    fn f64_bits(&mut self) -> Result<f64, FrameError> {
        let bits = u64::from_le_bytes(self.take(8)?.try_into().unwrap());
        Ok(f64::from_bits(bits))
    }

    /// Consume `tag` if it is the next byte.
    fn tag(&mut self, tag: u8) -> Option<()> {
        if self.bytes.get(self.pos) != Some(&tag) {
            return None;
        }
        self.pos += 1;
        Some(())
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn content(&mut self, depth: u32) -> Result<Content, FrameError> {
        if depth > MAX_DEPTH {
            // The JSON parser's cap: a hostile frame must not overflow the
            // stack, and a value one framing accepts the other does too.
            return Err(malformed(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.byte()? {
            0x00 => Ok(Content::Null),
            0x01 => Ok(Content::Bool(false)),
            0x02 => Ok(Content::Bool(true)),
            0x03 => Ok(Content::U64(self.varint()?)),
            0x04 => {
                let z = self.varint()?;
                Ok(Content::I64(((z >> 1) as i64) ^ -((z & 1) as i64)))
            }
            0x05 => Ok(Content::F64(self.f64_bits()?)),
            0x06 => {
                let len = self.varint()? as usize;
                let bytes = self.take(len)?;
                let s = std::str::from_utf8(bytes).map_err(|e| malformed(e.to_string()))?;
                Ok(Content::Str(s.to_string()))
            }
            0x07 => {
                let count = self.varint()? as usize;
                // Every element needs at least one tag byte; a count that
                // exceeds the remaining bytes is corrupt, not a request
                // to preallocate gigabytes.
                if count > self.remaining() {
                    return Err(malformed("sequence count exceeds payload"));
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.content(depth + 1)?);
                }
                Ok(Content::Seq(items))
            }
            0x08 => {
                let count = self.varint()? as usize;
                if count > self.remaining() {
                    return Err(malformed("map count exceeds payload"));
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let k = self.content(depth + 1)?;
                    let v = self.content(depth + 1)?;
                    entries.push((k, v));
                }
                Ok(Content::Map(entries))
            }
            tag => Err(malformed(format!("unknown tag 0x{tag:02x}"))),
        }
    }
}

/// Decode one frame payload into a [`Content`] tree. Rejects trailing
/// bytes — a payload is exactly one value.
pub fn decode_payload(bytes: &[u8]) -> Result<Content, FrameError> {
    let mut cur = Cursor { bytes, pos: 0 };
    let content = cur.content(0)?;
    if cur.pos != bytes.len() {
        return Err(malformed(format!(
            "{} trailing bytes after value",
            bytes.len() - cur.pos
        )));
    }
    Ok(content)
}

/// The size of a [`WireReader`]'s buffer until a message larger than
/// that arrives.
const READ_CHUNK: usize = 8 * 1024;

/// One message, or one refusal, cut off the front of a [`WireReader`]'s
/// buffer. The same bytes yield the same pieces however they are split
/// across reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Piece<'a> {
    /// An NDJSON line: newline stripped, trimmed, never blank.
    Line(&'a str),
    /// A binary frame's payload, header stripped.
    Frame(&'a [u8]),
    /// A frame header declaring this many payload bytes, over the frame
    /// cap; the reader skips them as they arrive, never buffering them.
    OversizedFrame(usize),
    /// A line longer than the line cap; the reader skips it up to its
    /// newline.
    OversizedLine,
    /// A line that is not UTF-8, so no JSON either.
    NotUtf8(std::str::Utf8Error),
}

/// Where the reader is in the bytes of a refused message.
#[derive(Debug)]
enum Skip {
    None,
    /// This many more bytes of an oversized frame.
    Bytes(usize),
    /// Up to and including the next newline.
    Line,
}

/// The one reader of both framings, on every side of the wire: the
/// `matchd` router, [`crate::Client`] and the federation peer link. It
/// tells the framing of each message from its first byte, caps lines and
/// frames, skips blank lines and skips refused messages to the next
/// boundary; what to do with each [`Piece`] is the caller's policy.
///
/// Bytes that do not yet make a message stay buffered between calls to
/// [`WireReader::fill`], so a read that fails — a timeout included —
/// loses no stream position. The buffer holds at most one message up to
/// its cap plus one read.
#[derive(Debug)]
pub(crate) struct WireReader {
    buf: Vec<u8>,
    /// Unread bytes are `buf[start..end]`.
    start: usize,
    end: usize,
    /// How many bytes after `start` are known to hold no newline, so a
    /// long line is searched once, not once per read. Zeroed whenever a
    /// line search moves `start`.
    scanned: usize,
    skip: Skip,
    /// Lines longer than this many bytes are refused, from the next
    /// message on.
    pub(crate) line_cap: usize,
    /// Frame payloads longer than this many bytes are refused, from the
    /// next message on.
    pub(crate) frame_cap: usize,
}

impl WireReader {
    /// A reader refusing lines over `line_cap` bytes and frame payloads
    /// over `frame_cap`.
    pub(crate) fn new(line_cap: usize, frame_cap: usize) -> WireReader {
        WireReader {
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
            scanned: 0,
            skip: Skip::None,
            line_cap,
            frame_cap,
        }
    }

    /// Read once from `src`: the byte count, 0 at end of stream. On `Err`
    /// nothing was read and everything buffered stays.
    pub(crate) fn fill(&mut self, src: &mut impl Read) -> io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if self.end == self.buf.len() {
            // A full buffer holds one message under its cap (`next_piece`
            // refuses anything longer), so doubling stays under cap + one read.
            let cap = self
                .line_cap
                .max(self.frame_cap.saturating_add(FRAME_HEADER_LEN));
            let limit = cap.saturating_add(READ_CHUNK);
            let len = self.buf.len();
            self.buf.resize((2 * len).min(limit).max(len + 1), 0);
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The next piece already buffered, or `None` until more is read.
    pub(crate) fn next_piece(&mut self) -> Option<Piece<'_>> {
        loop {
            let data = &self.buf[self.start..self.end];
            match std::mem::replace(&mut self.skip, Skip::None) {
                Skip::None => {}
                Skip::Bytes(n) if n > data.len() => {
                    self.skip = Skip::Bytes(n - data.len());
                    self.start = self.end;
                    return None;
                }
                Skip::Bytes(n) => self.start += n,
                Skip::Line => {
                    let Some(nl) = newline(data, &mut self.scanned) else {
                        self.skip = Skip::Line;
                        (self.start, self.scanned) = (self.end, 0);
                        return None;
                    };
                    (self.start, self.scanned) = (self.start + nl + 1, 0);
                }
            }
            let (at, data) = (self.start, &self.buf[self.start..self.end]);
            if *data.first()? == FRAME_MAGIC {
                let header = data.get(1..FRAME_HEADER_LEN)?;
                let len = u32::from_le_bytes(header.try_into().expect("4 bytes")) as usize;
                if len > self.frame_cap {
                    self.skip = Skip::Bytes(FRAME_HEADER_LEN + len);
                    return Some(Piece::OversizedFrame(len));
                }
                if data.len() < FRAME_HEADER_LEN + len {
                    return None;
                }
                self.start += FRAME_HEADER_LEN + len;
                return Some(Piece::Frame(&self.buf[at + FRAME_HEADER_LEN..self.start]));
            }
            // A line within the cap has its newline within cap + 1 bytes.
            let window = &data[..data.len().min(self.line_cap.saturating_add(1))];
            let Some(nl) = newline(window, &mut self.scanned) else {
                if window.len() <= self.line_cap {
                    return None;
                }
                self.skip = Skip::Line;
                return Some(Piece::OversizedLine);
            };
            (self.start, self.scanned) = (at + nl + 1, 0);
            match std::str::from_utf8(&self.buf[at..at + nl]) {
                Ok(text) if text.trim().is_empty() => {}
                Ok(text) => return Some(Piece::Line(text.trim())),
                Err(e) => return Some(Piece::NotUtf8(e)),
            }
        }
    }
}

/// The first newline in `data`, searched for only past the `scanned`
/// bytes already known to hold none; when there is none, all of `data`
/// is known.
fn newline(data: &[u8], scanned: &mut usize) -> Option<usize> {
    let from = (*scanned).min(data.len());
    let found = data[from..].iter().position(|&b| b == b'\n');
    if found.is_none() {
        *scanned = data.len();
    }
    found.map(|i| from + i)
}

// ----------------------------------------------------------- hot layouts

/// The binary framing's [`HotWrite`]: the `Content` encoding above,
/// written straight from the struct. Its primitives and the `put_*`
/// helpers they call are `#[inline]`, so they are compiled into the code
/// generated for each layout: called across codegen units, they cost
/// the `wire_tota` benchmark workload 3–4 % of its served throughput
/// (2-vCPU Xeon).
pub(crate) struct BinaryOut<'o>(pub(crate) &'o mut Vec<u8>);

impl HotWrite for BinaryOut<'_> {
    #[inline]
    fn open(&mut self, len: usize) {
        put_map(len, self.0);
    }

    #[inline]
    fn close(&mut self) {}

    #[inline]
    fn key(&mut self, key: &str) {
        put_str(key, self.0);
    }

    #[inline]
    fn str(&mut self, s: &str) {
        put_str(s, self.0);
    }

    #[inline]
    fn u64(&mut self, v: u64) {
        put_u64(v, self.0);
    }

    #[inline]
    fn f64(&mut self, v: f64) {
        put_f64(v, self.0);
    }

    #[inline]
    fn bool(&mut self, v: bool) {
        self.0.push(if v { 0x02 } else { 0x01 });
    }

    #[inline]
    fn null(&mut self) {
        self.0.push(0x00);
    }

    #[inline]
    fn seq<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.0.push(0x07);
        put_varint(items.len() as u64, self.0);
        for x in items {
            item(self, x);
        }
    }

    fn value<T: Serialize>(&mut self, value: &T) {
        put_content(&value.to_content(), self.0);
    }
}

/// The binary framing's [`HotRead`]: each primitive takes exactly the tag
/// (and, for maps, the entry count) the `Content` encoding writes.
impl HotRead for Cursor<'_> {
    fn open(&mut self, len: usize) -> Option<()> {
        self.tag(0x08)?;
        (self.varint().ok()? == len as u64).then_some(())
    }

    fn close(&mut self) -> Option<()> {
        Some(())
    }

    fn next_key(&mut self) -> Option<&[u8]> {
        self.str()
    }

    fn str(&mut self) -> Option<&[u8]> {
        self.tag(0x06)?;
        let len = self.varint().ok()? as usize;
        self.take(len).ok()
    }

    fn u64(&mut self) -> Option<u64> {
        self.tag(0x03)?;
        self.varint().ok()
    }

    fn f64(&mut self) -> Option<f64> {
        self.tag(0x05)?;
        self.f64_bits().ok()
    }

    fn bool(&mut self) -> Option<bool> {
        match self.byte().ok()? {
            0x01 => Some(false),
            0x02 => Some(true),
            _ => None,
        }
    }

    fn null(&mut self) -> bool {
        self.tag(0x00).is_some()
    }

    fn f64s(&mut self) -> Option<Vec<f64>> {
        self.tag(0x07)?;
        let count = self.varint().ok()?;
        (0..count).map(|_| self.f64()).collect()
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Append one complete frame for `msg` addressed to `sid` (`None` = bare):
/// the same bytes [`write_frame`] writes for the equivalent [`Frame`].
pub(crate) fn write_frame_for<M: WireMsg>(sid: Option<u64>, msg: &M, out: &mut Vec<u8>) {
    put_frame(out, |out| hot::put_frame(&mut BinaryOut(out), sid, msg));
}

/// Decode one frame payload (header stripped) into a typed frame — the one
/// binary reader, on both sides of the wire, and the exact inverse of
/// [`write_msg`](crate::write_msg). A hot layout is read straight into its
/// struct; every other payload decodes through `Content`, which the second
/// value reports, and must be a cold message:
/// [`DecodeError::BadFrame`] for bytes that are no value, and for a hot
/// message in any other form than its layout;
/// [`DecodeError::BadEnvelope`] / [`DecodeError::UnknownMessage`] for a
/// value that is no frame.
pub fn read_frame<M: WireMsg>(payload: &[u8]) -> (Result<Frame<M>, DecodeError>, bool) {
    if let Some(frame) = hot::take_frame(Cursor {
        bytes: payload,
        pos: 0,
    }) {
        return (Ok(frame), false);
    }
    let decoded = match decode_payload(payload) {
        Ok(content) => frame_from_content(&content).and_then(refuse_hot),
        Err(e) => Err(DecodeError::BadFrame(e.to_string())),
    };
    (decoded, true)
}

/// A frame the `Content` path read, kept only if its message is cold: a
/// hot message has one binary form, its layout, which the typed path
/// already tried.
fn refuse_hot<M: WireMsg>(frame: Frame<M>) -> Result<Frame<M>, DecodeError> {
    if frame.msg.put_hot(&mut BinaryOut(&mut Vec::new())) {
        return Err(DecodeError::BadFrame(
            "a hot message not in its canonical layout".into(),
        ));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_line, write_msg, ClientMsg, ServerMsg};
    use proptest::prelude::{prop_assert, prop_assert_eq, TestCaseError};

    fn round_trip(c: Content) {
        let mut buf = Vec::new();
        put_content(&c, &mut buf);
        assert_eq!(decode_payload(&buf).unwrap(), c);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(Content::Null);
        round_trip(Content::Bool(true));
        round_trip(Content::Bool(false));
        round_trip(Content::U64(0));
        round_trip(Content::U64(u64::MAX));
        round_trip(Content::I64(-1));
        round_trip(Content::I64(i64::MIN));
        round_trip(Content::F64(-0.0));
        round_trip(Content::F64(f64::INFINITY));
        round_trip(Content::Str("héllo\nworld".into()));
    }

    #[test]
    fn nested_values_round_trip() {
        round_trip(Content::Map(vec![
            (
                Content::Str("seq".into()),
                Content::Seq(vec![Content::U64(1), Content::Null]),
            ),
            (Content::Str("f".into()), Content::F64(1.25)),
        ]));
    }

    #[test]
    fn nan_bits_survive() {
        let mut buf = Vec::new();
        put_content(&Content::F64(f64::NAN), &mut buf);
        let Content::F64(back) = decode_payload(&buf).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        put_content(&Content::Str("abcdef".into()), &mut buf);
        for cut in 0..buf.len() {
            assert!(decode_payload(&buf[..cut]).is_err(), "cut at {cut}");
        }
        buf.push(0x00);
        assert!(matches!(
            decode_payload(&buf),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn hostile_counts_and_depth_do_not_allocate_or_recurse() {
        // Seq claiming u64::MAX elements in a 12-byte payload.
        let mut buf = vec![0x07];
        put_varint(u64::MAX, &mut buf);
        assert!(decode_payload(&buf).is_err());
        // 200 nested seqs of one element: deeper than MAX_DEPTH.
        let mut deep = vec![[0x07u8, 0x01]; 200].concat();
        deep.push(0x00);
        assert!(decode_payload(&deep).is_err());
    }

    /// A varint with a bit past the 64th, or with a trailing zero group,
    /// is refused wherever it stands: in a cold value, in a string's
    /// length, and inside a hot layout, whose typed read then fails too.
    #[test]
    fn overflowing_and_overlong_varints_are_refused() {
        fn cursor(bytes: &[u8]) -> Cursor<'_> {
            Cursor { bytes, pos: 0 }
        }
        let refused = |payload: &[u8]| {
            assert!(decode_payload(payload).is_err(), "{payload:02x?}");
            assert!(hot::take_frame::<_, ServerMsg>(cursor(payload)).is_none());
            assert!(hot::take_frame::<_, ClientMsg>(cursor(payload)).is_none());
            let (server, general) = read_frame::<ServerMsg>(payload);
            assert!(general && matches!(server, Err(DecodeError::BadFrame(_))));
            let (client, general) = read_frame::<ClientMsg>(payload);
            assert!(general && matches!(client, Err(DecodeError::BadFrame(_))));
        };
        // u64::MAX is nine full groups and a final 1.
        let max = [&[0x03][..], &[0xFF; 9], &[0x01]].concat();
        assert_eq!(decode_payload(&max), Ok(Content::U64(u64::MAX)));
        refused(&[&[0x03][..], &[0xFF; 9], &[0x7F]].concat());
        refused(&[&[0x03][..], &[0xFF; 9], &[0x02]].concat());
        refused(&[0x03, 0x80, 0x80, 0x00]);
        refused(&[0x04, 0x81, 0x00]);
        assert_eq!(decode_payload(&[0x03, 0x80, 0x01]), Ok(Content::U64(128)));

        // `ok` reads typed; with its length as two bytes it is refused.
        let ok = [0x06, 0x02, b'o', b'k'];
        assert!(hot::take_frame::<_, ServerMsg>(cursor(&ok)).is_some());
        refused(&[0x06, 0x82, 0x00, b'o', b'k']);
        // So is a cold `shutdown` with its length so sent.
        let shutdown = [&[0x06, 0x08][..], b"shutdown"].concat();
        assert!(matches!(read_frame::<ClientMsg>(&shutdown), (Ok(_), true)));
        refused(&[&[0x06, 0x88, 0x00][..], b"shutdown"].concat());

        // A request whose id is u64::MAX reads typed; with a bit past the
        // 64th it is refused.
        let spec = com_sim::RequestSpec::new(
            com_sim::RequestId(u64::MAX),
            com_sim::PlatformId(0),
            com_sim::Timestamp::from_secs(1.0),
            com_geo::Point::new(0.0, 0.0),
            1.0,
        );
        let mut frame = Vec::new();
        write_msg(
            WireFormat::Binary,
            None,
            &ClientMsg::request(spec),
            &mut frame,
        );
        let mut payload = frame.split_off(FRAME_HEADER_LEN);
        assert!(hot::take_frame::<_, ClientMsg>(cursor(&payload)).is_some());
        let last = payload
            .windows(10)
            .position(|w| w == &max[1..])
            .expect("the id")
            + 9;
        payload[last] = 0x03;
        refused(&payload);
    }

    #[test]
    fn split_frame_states() {
        let frame = encode_frame(&crate::protocol::ServerMsg::ok);
        assert_eq!(frame[0], FRAME_MAGIC);
        let mut reader = WireReader::new(MAX_LINE_BYTES, MAX_FRAME_PAYLOAD);
        reader.fill(&mut &frame[..3]).unwrap();
        assert_eq!(reader.next_piece(), None, "incomplete");
        reader.fill(&mut &frame[3..]).unwrap();
        let payload = &frame[FRAME_HEADER_LEN..];
        assert_eq!(reader.next_piece(), Some(Piece::Frame(payload)));

        let mut oversized = vec![FRAME_MAGIC];
        oversized.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        reader.fill(&mut &oversized[..]).unwrap();
        let declared = MAX_FRAME_PAYLOAD + 1;
        assert_eq!(reader.next_piece(), Some(Piece::OversizedFrame(declared)));
    }

    /// A source returning at most `sizes[i]` bytes on its i-th read (the
    /// last size repeats), the way a socket splits a stream.
    struct Chunked<'a> {
        bytes: &'a [u8],
        sizes: Vec<usize>,
        reads: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.reads.min(self.sizes.len() - 1)];
            self.reads += 1;
            let n = size.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Every piece a reader with both caps at `cap` cuts off `src`, as
    /// `{:?}` text. After each read the reader must hold at most one
    /// message under the cap plus that read, in a buffer no larger than
    /// that plus one chunk.
    fn pieces(cap: usize, mut src: impl Read) -> Vec<String> {
        let mut reader = WireReader::new(cap, cap);
        let mut got = Vec::new();
        loop {
            while let Some(piece) = reader.next_piece() {
                got.push(format!("{piece:?}"));
            }
            let n = reader.fill(&mut src).unwrap();
            assert!(reader.end - reader.start <= FRAME_HEADER_LEN + cap + n);
            assert!(reader.buf.len() <= FRAME_HEADER_LEN + cap + READ_CHUNK);
            if n == 0 {
                return got;
            }
        }
    }

    /// `n` bytes of xorshift noise.
    fn noise(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    fn frame_of(len: usize, payload: &[u8]) -> Vec<u8> {
        let mut bytes = vec![FRAME_MAGIC];
        bytes.extend_from_slice(&(len as u32).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    /// One generated message of kind `kind` for a reader capped at `cap`:
    /// its bytes, and the piece it must yield (`None` for a blank line and
    /// for garbage, whose lines may yield anything but a frame).
    fn message(kind: u8, seed: u64, cap: usize) -> (Vec<u8>, Option<String>) {
        let n = (seed % 64) as usize;
        // Up to the cap, the cap itself included.
        let upto = (seed as usize) % (cap + 1);
        let show = |piece: Piece| Some(format!("{piece:?}"));
        match kind {
            0 => {
                let text = format!("{{\"m\":{seed}}}");
                let cr = if n.is_multiple_of(2) { "\r" } else { "" };
                let line = format!("{}{text}{cr}\n", " ".repeat(n % 3));
                (line.into_bytes(), show(Piece::Line(&text)))
            }
            1 => {
                let payload = noise(seed, upto);
                let piece = show(Piece::Frame(&payload));
                (frame_of(payload.len(), &payload), piece)
            }
            2 => {
                let len = cap + 1 + n;
                let piece = show(Piece::OversizedFrame(len));
                (frame_of(len, &noise(seed, len)), piece)
            }
            3 => {
                let line = [&[0xFF][..], &noise(seed, upto.min(cap - 1))].concat();
                let line: Vec<u8> = line.into_iter().filter(|&b| b != b'\n').collect();
                let e = std::str::from_utf8(&line).unwrap_err();
                let piece = show(Piece::NotUtf8(e));
                ([line, b"\n".to_vec()].concat(), piece)
            }
            4 => {
                let line = [vec![b'x'; cap + 1 + n], b"\n".to_vec()].concat();
                (line, show(Piece::OversizedLine))
            }
            5 => (b" \r\n".to_vec(), None),
            _ => {
                // Lines of anything but a frame's magic byte.
                let mut line = noise(seed, n * 2);
                line.retain(|&b| b != FRAME_MAGIC);
                line.push(b'\n');
                (line, None)
            }
        }
    }

    proptest::proptest! {
        /// Valid lines and frames mixed with garbage, non-UTF-8, oversized
        /// lines and frames, cut by an unterminated message: every chunking
        /// yields the pieces the whole stream does, and every valid message
        /// after a newline or a skipped frame comes back. Caps are small, so
        /// that refusals are common, or past one buffer, so that it grows.
        #[test]
        fn the_reader_yields_the_same_pieces_however_the_stream_is_cut(
            items in proptest::collection::vec((0u8..7, 0u64..u64::MAX), 0..24),
            sizes in proptest::collection::vec(1usize..80, 1..6),
            tail in (0u8..2, 0u64..u64::MAX),
            large in proptest::bool::ANY,
        ) {
            let (cap, scale) = if large { (3 * READ_CHUNK, 512) } else { (48, 1) };
            let mut wire = Vec::new();
            let mut expected = Vec::new();
            for &(kind, seed) in &items {
                let (bytes, piece) = message(kind, seed, cap);
                wire.extend_from_slice(&bytes);
                expected.extend(piece);
            }
            let (cut, _) = message(tail.0, tail.1, cap);
            wire.extend_from_slice(&cut[..(tail.1 as usize) % cut.len()]);

            let whole = pieces(cap, &wire[..]);
            let sizes = sizes.iter().map(|s| s * scale).collect();
            let chunked = pieces(cap, Chunked { bytes: &wire, sizes, reads: 0 });
            proptest::prop_assert_eq!(&chunked, &whole);
            if items.iter().all(|&(kind, _)| kind < 6) {
                proptest::prop_assert_eq!(&whole, &expected);
            } else {
                let mut rest = whole.iter();
                for piece in &expected {
                    proptest::prop_assert!(rest.any(|p| p == piece), "lost {}", piece);
                }
            }
        }
    }

    /// A value tree on the wire as it stands: any map order, any value.
    struct Raw(Content);

    impl Serialize for Raw {
        fn to_content(&self) -> Content {
            self.0.clone()
        }
    }

    /// Strings and keys trees are drawn from: message tags hot and cold,
    /// the envelope's keys and the hot layouts' fields, so that a tree
    /// often comes near a message.
    const WORDS: [&str; 16] = [
        "request", "worker", "ok", "assign", "reject", "sid", "msg", "shutdown", "stats", "busy",
        "id", "platform", "arrival", "location", "value", "x",
    ];

    /// A value tree at most `depth` deep, drawn from the back of `draws`
    /// (0 once they run out).
    fn tree(draws: &mut Vec<u64>, depth: u32) -> Content {
        let d = draws.pop().unwrap_or(0);
        let (kind, rest) = (d % 16, d >> 4);
        let word = |d: u64| Content::Str(WORDS[d as usize % WORDS.len()].into());
        match kind % if depth == 0 { 12 } else { 16 } {
            0 => Content::Null,
            1 => Content::Bool(rest % 2 == 0),
            2 | 3 => Content::U64(rest % 8),
            4 => Content::U64(rest),
            5 => Content::I64(rest as i64 - (1 << 59)),
            6 | 7 => Content::F64((rest % 64) as f64 / 4.0),
            8 => Content::F64(f64::from_bits(d)),
            9..=11 => word(rest),
            12 | 13 => Content::Seq((0..rest % 4).map(|_| tree(draws, depth - 1)).collect()),
            _ => Content::Map(
                (0..rest % 4)
                    .map(|_| (word(draws.pop().unwrap_or(0)), tree(draws, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Rotate by one the entries of the `n`-th map of two or more entries
    /// under `c`, in pre-order; `false` if there are not that many.
    fn rotate_nth_map(c: &mut Content, n: &mut u64) -> bool {
        let Content::Map(entries) = c else {
            return false;
        };
        if entries.len() > 1 {
            if *n == 0 {
                entries.rotate_left(1);
                return true;
            }
            *n -= 1;
        }
        entries.iter_mut().any(|(_, v)| rotate_nth_map(v, n))
    }

    /// Replace the `n`-th leaf under `c`, in pre-order, by `by`; `false`
    /// if there are not that many.
    fn replace_nth_leaf(c: &mut Content, n: &mut u64, by: &Content) -> bool {
        match c {
            Content::Map(entries) => entries.iter_mut().any(|(_, v)| replace_nth_leaf(v, n, by)),
            Content::Seq(items) => items.iter_mut().any(|v| replace_nth_leaf(v, n, by)),
            _ if *n == 0 => {
                *c = by.clone();
                true
            }
            _ => {
                *n -= 1;
                false
            }
        }
    }

    /// A hot message's tree — a `request`, a `worker` or an `assign`, its
    /// floats finite — and whether it is a client message.
    fn hot_tree(d: u64) -> (Content, bool) {
        use com_geo::Point;
        use com_pricing::WorkerHistory;
        use com_sim::{
            Assignment, MatchKind, PlatformId, RequestId, RequestSpec, Timestamp, WorkerId,
            WorkerSpec,
        };

        let at = Timestamp::from_secs((d % 100) as f64);
        let spec = RequestSpec::new(RequestId(d), PlatformId(1), at, Point::new(1.5, -2.0), 3.25);
        match d % 3 {
            0 => (ClientMsg::request(spec).to_content(), true),
            1 => {
                let spec =
                    WorkerSpec::new(WorkerId(d), PlatformId(0), at, Point::new(0.5, 4.0), 2.0);
                let history = Some(WorkerHistory::from_values(vec![1.0, 2.5]));
                let msg = ClientMsg::worker(crate::protocol::WorkerMsg { spec, history });
                (msg.to_content(), true)
            }
            _ => {
                let assignment = Assignment {
                    request: spec,
                    kind: MatchKind::Outer,
                    worker: Some(WorkerId(d / 2)),
                    worker_platform: Some(PlatformId(0)),
                    outer_payment: 1.25,
                    was_cooperative_offer: true,
                    travel_km: 0.5,
                    decided_at: at,
                    decision_nanos: d,
                };
                (ServerMsg::assign(assignment).to_content(), false)
            }
        }
    }

    /// `content` in the mux envelope for `sid`, or bare.
    fn addressed(sid: Option<u64>, content: Content) -> Content {
        match sid {
            None => content,
            Some(sid) => Content::Map(vec![
                (Content::Str("sid".into()), Content::U64(sid)),
                (Content::Str("msg".into()), content),
            ]),
        }
    }

    fn payload_of(content: Content) -> Vec<u8> {
        let mut frame = Vec::new();
        write_frame(&Raw(content), &mut frame);
        frame.split_off(FRAME_HEADER_LEN)
    }

    /// `read_frame` on `payload`: a typed read is written back by
    /// `write_msg` into a payload that reads typed, to the same bytes; a
    /// general one is cold, so its own bytes read through `Content` too.
    fn check_frame<M: WireMsg + std::fmt::Debug>(payload: &[u8]) -> Result<(), TestCaseError> {
        let (Ok(frame), general) = read_frame::<M>(payload) else {
            return Ok(());
        };
        let mut written = Vec::new();
        write_msg(WireFormat::Binary, frame.sid, &frame.msg, &mut written);
        let (back, back_general) = read_frame::<M>(&written[FRAME_HEADER_LEN..]);
        prop_assert_eq!(back_general, general, "{:?} from {:02x?}", frame, payload);
        if !general {
            let back = back.expect("a written hot frame reads");
            let mut again = Vec::new();
            write_msg(WireFormat::Binary, back.sid, &back.msg, &mut again);
            prop_assert_eq!(again, written);
        }
        Ok(())
    }

    /// `read_line` on `line`: a typed read is written back by `write_msg`
    /// into a line that reads typed, to the same text.
    fn check_line<M: WireMsg + std::fmt::Debug>(line: &str) -> Result<(), TestCaseError> {
        let (Ok(frame), false) = read_line::<M>(line) else {
            return Ok(());
        };
        let mut written = Vec::new();
        write_msg(WireFormat::Ndjson, frame.sid, &frame.msg, &mut written);
        let text = std::str::from_utf8(&written)
            .expect("NDJSON is UTF-8")
            .trim_end();
        let (back, general) = read_line::<M>(text);
        prop_assert!(!general, "{:?} from {}", frame, line);
        let back = back.expect("a written hot line reads");
        let mut again = Vec::new();
        write_msg(WireFormat::Ndjson, back.sid, &back.msg, &mut again);
        prop_assert_eq!(again, written);
        Ok(())
    }

    /// [`check_frame`] and [`check_line`] in both directions, on `content`
    /// as `write_frame` and `encode` write it.
    fn check_tree(content: &Content) -> Result<(), TestCaseError> {
        let payload = payload_of(content.clone());
        check_frame::<ClientMsg>(&payload)?;
        check_frame::<ServerMsg>(&payload)?;
        let line = crate::protocol::encode(&Raw(content.clone()));
        check_line::<ClientMsg>(&line)?;
        check_line::<ServerMsg>(&line)
    }

    /// A reordered hot message: the binary reader refuses it, NDJSON reads
    /// it through `Content`.
    fn check_reordered<M: WireMsg + std::fmt::Debug>(
        content: Content,
    ) -> Result<(), TestCaseError> {
        let payload = payload_of(content.clone());
        let (frame, general) = read_frame::<M>(&payload);
        prop_assert!(
            general && matches!(frame, Err(DecodeError::BadFrame(_))),
            "{:?}",
            frame
        );
        let (line, general) = read_line::<M>(&crate::protocol::encode(&Raw(content)));
        prop_assert!(general && line.is_ok(), "{:?}", line);
        Ok(())
    }

    proptest::proptest! {
        /// The four readers on arbitrary bytes, on arbitrary value trees
        /// (some under a message tag), and on a hot message as written,
        /// with one leaf replaced by such a tree, and with one map
        /// reordered, bare or enveloped: no input panics; a message the
        /// typed path reads, `write_msg` writes back to bytes that read as
        /// the same message; the binary general path yields only cold
        /// messages, refusing the reordered hot one NDJSON reads.
        #[test]
        fn the_readers_read_back_what_they_take_and_refuse_hot_messages_off_their_layout(
            bytes in proptest::collection::vec(0u8..=255, 0..40),
            mut draws in proptest::collection::vec(0u64..u64::MAX, 0..48),
            tag in 0usize..2 * WORDS.len(),
            hot in (0u64..u64::MAX, 0u64..16, proptest::bool::ANY),
        ) {
            let payload = &bytes[..];
            check_frame::<ClientMsg>(payload)?;
            check_frame::<ServerMsg>(payload)?;
            let line = String::from_utf8_lossy(&bytes);
            check_line::<ClientMsg>(&line)?;
            check_line::<ServerMsg>(&line)?;

            let mut tree = tree(&mut draws, 4);
            if let Some(word) = WORDS.get(tag) {
                tree = Content::Map(vec![(Content::Str(word.to_string()), tree)]);
            }
            check_tree(&tree)?;

            let (d, n, enveloped) = hot;
            let sid = enveloped.then_some(d);
            let (message, client) = hot_tree(d);
            check_tree(&addressed(sid, message.clone()))?;
            let mut near = message.clone();
            replace_nth_leaf(&mut near, &mut n.clone(), &tree);
            check_tree(&addressed(sid, near))?;
            let mut reordered = message;
            prop_assert!(rotate_nth_map(&mut reordered, &mut (n % 2)));
            let reordered = addressed(sid, reordered);
            if client {
                check_reordered::<ClientMsg>(reordered)?;
            } else {
                check_reordered::<ServerMsg>(reordered)?;
            }
        }
    }

    /// A line arriving a byte at a time is searched for its newline once,
    /// not once per read: after each read the cursor covers every pending
    /// byte, so the work stays linear in the line's length.
    #[test]
    fn a_long_line_read_a_byte_at_a_time_is_searched_once() {
        const LEN: usize = 64 * 1024;
        let line = [vec![b'x'; LEN], b"\n".to_vec()].concat();
        let mut reader = WireReader::new(MAX_LINE_BYTES, MAX_FRAME_PAYLOAD);
        for byte in line.chunks(1) {
            assert_eq!(reader.next_piece(), None);
            assert_eq!(reader.scanned, reader.end - reader.start);
            assert_eq!(reader.fill(&mut &byte[..]).unwrap(), 1);
        }
        let text = std::str::from_utf8(&line[..LEN]).unwrap();
        assert_eq!(reader.next_piece(), Some(Piece::Line(text)));
        assert_eq!(reader.scanned, 0);
    }

    #[test]
    fn wire_format_tokens() {
        assert_eq!("binary".parse(), Ok(WireFormat::Binary));
        assert_eq!("ndjson".parse(), Ok(WireFormat::Ndjson));
        assert!("carrier-pigeon".parse::<WireFormat>().is_err());
        assert_eq!(WireFormat::Binary.as_str(), "binary");
        assert_eq!(WireFormat::default(), WireFormat::Ndjson);
    }
}
