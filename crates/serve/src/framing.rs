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
//! tree the JSON path serializes through, so any protocol message —
//! including the free-form `canonical` JSON inside `bye` — has exactly one
//! binary form:
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
//! **Hot layouts.** The five messages every event crosses — client
//! `request` and `worker`, server `ok`, `assign` and `reject`, bare or in
//! the `{"sid","msg"}` mux envelope — are written and read straight
//! between bytes and structs, with no value tree in between. Each layout
//! is written once, in [`crate::hot`], and serves both framings; this
//! module supplies the binary primitives it is written with. A layout is
//! the canonical `Content` encoding written directly: the derive's key
//! order, the derive's tags, the same bytes [`write_frame`] produces.
//! [`read_frame`] takes that layout and nothing else; any other encoding
//! of any message — keys reordered, an integer sent as a float, a cold
//! message — still decodes, through `Content`, to exactly the result it
//! always had.
//!
//! The magic byte `0xB1` can never begin an NDJSON line (it is not ASCII
//! and not a valid UTF-8 leading byte), so both sides detect the framing
//! of each incoming message from its first byte — the switchover after
//! negotiation is race-free and a binary server still accepts NDJSON
//! lines at any time.
//!
//! Compatibility policy: `hello`/`welcome` are **always** NDJSON. A
//! server that does not understand `frame` ignores the unknown field and
//! answers a `welcome` without an echo; the client then stays on NDJSON
//! (safe downgrade). There is no version byte — the frame payload is
//! schema-free `Content`, and message evolution happens at the protocol
//! layer exactly as for JSON.

use serde::{Content, Deserialize, Serialize};
use serde_json::MAX_DEPTH;

use crate::hot::{self, HotRead, HotWrite, WireMsg};
use crate::protocol::{frame_from_content, DecodeError, Frame};

/// First byte of every binary frame. Not ASCII, not a valid UTF-8
/// leading byte — unambiguous against NDJSON.
pub const FRAME_MAGIC: u8 = 0xB1;

/// Magic byte + u32 LE payload length.
pub const FRAME_HEADER_LEN: usize = 5;

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

    /// Parse a negotiation token; unknown tokens are `None` (callers
    /// downgrade to NDJSON rather than fail).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ndjson" => Some(WireFormat::Ndjson),
            "binary" => Some(WireFormat::Binary),
            _ => None,
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

    fn varint(&mut self) -> Result<u64, FrameError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
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

/// Decode one frame payload straight into a protocol message.
pub fn decode_msg<T: Deserialize>(bytes: &[u8]) -> Result<T, FrameError> {
    let content = decode_payload(bytes)?;
    T::from_content(&content).map_err(|e| malformed(e.to_string()))
}

/// What [`split_frame`] found at the front of a read buffer.
#[derive(Debug, PartialEq)]
pub enum FrameSplit {
    /// Not enough bytes yet; keep reading.
    Incomplete,
    /// A complete frame: `consumed` bytes total, payload at
    /// `[FRAME_HEADER_LEN..consumed]`.
    Complete { consumed: usize },
    /// The header declares an oversized payload: report it, then discard
    /// `skip` bytes (header included) without buffering them.
    Oversized { len: usize, skip: usize },
}

/// Inspect a read buffer whose first byte is [`FRAME_MAGIC`].
pub fn split_frame(buf: &[u8]) -> FrameSplit {
    debug_assert_eq!(buf.first(), Some(&FRAME_MAGIC));
    if buf.len() < FRAME_HEADER_LEN {
        return FrameSplit::Incomplete;
    }
    let len = u32::from_le_bytes(buf[1..FRAME_HEADER_LEN].try_into().unwrap()) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return FrameSplit::Oversized {
            len,
            skip: FRAME_HEADER_LEN + len,
        };
    }
    if buf.len() < FRAME_HEADER_LEN + len {
        return FrameSplit::Incomplete;
    }
    FrameSplit::Complete {
        consumed: FRAME_HEADER_LEN + len,
    }
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
    fn f64s(&mut self, values: &[f64]) {
        self.0.push(0x07);
        put_varint(values.len() as u64, self.0);
        for &v in values {
            put_f64(v, self.0);
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
/// the envelope and the hot variants written directly, a cold message
/// through `Content` — the same bytes [`write_frame`] writes for the
/// equivalent [`Frame`].
pub(crate) fn write_frame_for<M: WireMsg>(sid: Option<u64>, msg: &M, out: &mut Vec<u8>) {
    put_frame(out, |out| hot::put_frame(&mut BinaryOut(out), sid, msg));
}

/// Decode one frame payload (header stripped) into a typed frame — the one
/// binary reader, on both sides of the wire. A hot layout is read straight
/// into its struct; every other payload decodes through `Content`, which
/// the second value reports, with exactly the result it always had:
/// [`DecodeError::BadFrame`] for bytes that are no value,
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
        Ok(content) => frame_from_content(&content),
        Err(e) => Err(DecodeError::BadFrame(e.to_string())),
    };
    (decoded, true)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn split_frame_states() {
        let frame = encode_frame(&crate::protocol::ServerMsg::ok);
        assert_eq!(frame[0], FRAME_MAGIC);
        assert_eq!(
            split_frame(&frame),
            FrameSplit::Complete {
                consumed: frame.len()
            }
        );
        assert_eq!(split_frame(&frame[..3]), FrameSplit::Incomplete);

        let mut oversized = vec![FRAME_MAGIC];
        oversized.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(
            split_frame(&oversized),
            FrameSplit::Oversized { .. }
        ));
    }

    #[test]
    fn wire_format_tokens() {
        assert_eq!(WireFormat::parse("binary"), Some(WireFormat::Binary));
        assert_eq!(WireFormat::parse("ndjson"), Some(WireFormat::Ndjson));
        assert_eq!(WireFormat::parse("carrier-pigeon"), None);
        assert_eq!(WireFormat::Binary.as_str(), "binary");
        assert_eq!(WireFormat::default(), WireFormat::Ndjson);
    }
}
