//! The hot layouts, written once for both framings.
//!
//! Five messages cross the wire once per event: client `request` and
//! `worker`, server `ok`, `assign` and `reject` — bare, or inside the
//! `{"sid":N,"msg":…}` mux envelope. Each is written and read here
//! straight between struct and bytes, with no `Content` value tree in
//! between, as one function generic over the framing's primitives:
//! [`HotWrite`] and [`HotRead`], implemented by the binary framing
//! ([`crate::framing`]) and by NDJSON ([`crate::protocol`]). One function
//! per layout means one field order for both framings.
//!
//! A layout is the one the derive produces through `Content` — its key
//! order, its tags — so the writers emit exactly the bytes the framing's
//! `Content` writer would, and the readers take that layout and nothing
//! else. Any other bytes — a cold message, or a hot one with keys
//! reordered, repeated or extra, an integer sent as a float, whitespace —
//! are left to the framing's `Content` path. There the two framings part:
//! NDJSON decodes a hot message written any such way, while the binary
//! reader refuses it, since every binary writer writes the layout
//! ([`crate::framing`]). [`WireMsg::put_hot`] alone tells hot from cold.

use com_geo::Point;
use com_pricing::WorkerHistory;
use com_sim::{
    Assignment, MatchKind, PlatformId, RequestId, RequestSpec, Timestamp, WorkerId, WorkerSpec,
};
use serde::{Content, Deserialize, Serialize};

use crate::protocol::{ClientMsg, Frame, ServerMsg, WorkerMsg};

/// The primitives a hot layout is written with, one implementation per
/// framing.
pub trait HotWrite {
    /// Open a map of `len` entries.
    fn open(&mut self, len: usize);
    /// Close the map opened last.
    fn close(&mut self);
    /// The next map entry's key.
    fn key(&mut self, key: &str);
    /// A string value (a unit variant or an enum tag: plain identifiers,
    /// never escaped).
    fn str(&mut self, s: &str);
    /// An unsigned integer.
    fn u64(&mut self, v: u64);
    /// A float, any bits.
    fn f64(&mut self, v: f64);
    /// A boolean.
    fn bool(&mut self, v: bool);
    /// `null` (a `None`).
    fn null(&mut self);
    /// A sequence of `items.len()` values, each written by `item`.
    fn seq<T>(&mut self, items: &[T], item: impl FnMut(&mut Self, &T))
    where
        Self: Sized;
    /// A cold message, through its `Content` tree.
    fn value<T: Serialize>(&mut self, value: &T);

    /// A map of `len` entries, written by `body`.
    fn map(&mut self, len: usize, body: impl FnOnce(&mut Self))
    where
        Self: Sized,
    {
        self.open(len);
        body(self);
        self.close();
    }
}

/// The primitives a hot layout is read with, one implementation per
/// framing: each is `None` (or `false`) unless the next bytes are exactly
/// what the matching [`HotWrite`] primitive writes. Cloning saves a
/// position to retry from.
pub trait HotRead: Clone {
    /// Open a map of `len` entries.
    fn open(&mut self, len: usize) -> Option<()>;
    /// Close the map opened last.
    fn close(&mut self) -> Option<()>;
    /// The next map entry's key, raw.
    fn next_key(&mut self) -> Option<&[u8]>;
    /// A string value, raw.
    fn str(&mut self) -> Option<&[u8]>;
    /// An unsigned integer.
    fn u64(&mut self) -> Option<u64>;
    /// A float.
    fn f64(&mut self) -> Option<f64>;
    /// A boolean.
    fn bool(&mut self) -> Option<bool>;
    /// Consume a `null` if one comes next.
    fn null(&mut self) -> bool;
    /// A sequence of floats, grown one push at a time as the `Content`
    /// path grows it.
    fn f64s(&mut self) -> Option<Vec<f64>>;
    /// Whether every byte has been read.
    fn done(&self) -> bool;

    /// A map of `len` entries, read by `body`.
    fn map<T>(&mut self, len: usize, body: impl FnOnce(&mut Self) -> Option<T>) -> Option<T>
    where
        Self: Sized,
    {
        self.open(len)?;
        let value = body(self)?;
        self.close()?;
        Some(value)
    }

    /// The value of the next map entry, whose key must be `key`.
    fn field<T>(&mut self, key: &str, read: impl FnOnce(&mut Self) -> Option<T>) -> Option<T>
    where
        Self: Sized,
    {
        (self.next_key()? == key.as_bytes()).then_some(())?;
        read(self)
    }

    /// `null` as `None`, anything else through `read`.
    fn opt<T>(&mut self, read: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>>
    where
        Self: Sized,
    {
        if self.null() {
            return Some(None);
        }
        read(self).map(Some)
    }
}

/// A protocol message type on the wire — [`ClientMsg`] and [`ServerMsg`] —
/// with its hot variants written and read directly (see the module doc).
/// Both directions produce and accept only the bytes `Content` would.
pub trait WireMsg: Serialize + Deserialize {
    /// Write a hot variant's layout and return `true`; write nothing and
    /// return `false` for a cold one.
    fn put_hot<W: HotWrite>(&self, w: &mut W) -> bool;

    /// The hot variant whose layout comes next, or `None` for any other
    /// bytes.
    fn take_hot<R: HotRead>(r: &mut R) -> Option<Self>;
}

/// Write `msg` addressed to `sid` (`None` = bare): the envelope, then the
/// message.
pub(crate) fn put_frame<W: HotWrite, M: WireMsg>(w: &mut W, sid: Option<u64>, msg: &M) {
    match sid {
        None => put_msg(w, msg),
        Some(sid) => w.map(2, |w| {
            w.key("sid");
            w.u64(sid);
            w.key("msg");
            put_msg(w, msg);
        }),
    }
}

/// A hot variant's layout, or a cold one through `Content`.
fn put_msg<W: HotWrite, M: WireMsg>(w: &mut W, msg: &M) {
    if !msg.put_hot(w) {
        w.value(msg);
    }
}

/// The hot frame `r` holds, if its bytes are exactly one's layout and
/// nothing more.
// Forced into each framing's reader, with `take_hot`: left to the
// optimiser, the binary reader decoded a `chengdu_oct` frame 25 % slower
// than a hand-written binary reader does (2-vCPU Xeon, release build);
// forced, it is on par.
#[inline(always)]
pub(crate) fn take_frame<R: HotRead, M: WireMsg>(mut r: R) -> Option<Frame<M>> {
    let mut envelope = r.clone();
    let frame = if envelope.open(2).is_some() && envelope.next_key() == Some(&b"sid"[..]) {
        let sid = envelope.u64()?;
        let msg = envelope.field("msg", M::take_hot)?;
        envelope.close()?;
        r = envelope;
        Frame {
            sid: Some(sid),
            msg,
        }
    } else {
        Frame {
            sid: None,
            msg: M::take_hot(&mut r)?,
        }
    };
    r.done().then_some(frame)
}

// ---------------------------------------------------------------- write

fn put_point<W: HotWrite>(w: &mut W, p: Point) {
    w.map(2, |w| {
        w.key("x");
        w.f64(p.x);
        w.key("y");
        w.f64(p.y);
    });
}

/// The first four fields `RequestSpec` and `WorkerSpec` share; each writes
/// its own fifth.
fn put_spec_head<W: HotWrite>(w: &mut W, id: u64, platform: PlatformId, at: Timestamp, loc: Point) {
    w.key("id");
    w.u64(id);
    w.key("platform");
    w.u64(platform.0.into());
    w.key("arrival");
    w.f64(at.as_secs());
    w.key("location");
    put_point(w, loc);
}

fn put_request<W: HotWrite>(w: &mut W, r: &RequestSpec) {
    w.map(5, |w| {
        put_spec_head(w, r.id.0, r.platform, r.arrival, r.location);
        w.key("value");
        w.f64(r.value);
    });
}

fn put_worker<W: HotWrite>(w: &mut W, msg: &WorkerMsg) {
    let s = &msg.spec;
    w.map(2, |w| {
        w.key("spec");
        w.map(5, |w| {
            put_spec_head(w, s.id.0, s.platform, s.arrival, s.location);
            w.key("radius");
            w.f64(s.radius);
        });
        w.key("history");
        match &msg.history {
            None => w.null(),
            Some(history) => w.map(1, |w| {
                w.key("values");
                w.seq(history.values(), |w, &v| w.f64(v));
            }),
        }
    });
}

fn put_opt_u64<W: HotWrite>(w: &mut W, v: Option<u64>) {
    match v {
        Some(v) => w.u64(v),
        None => w.null(),
    }
}

fn put_assignment<W: HotWrite>(w: &mut W, a: &Assignment) {
    w.map(9, |w| {
        w.key("request");
        put_request(w, &a.request);
        w.key("kind");
        w.str(match a.kind {
            MatchKind::Inner => "Inner",
            MatchKind::Outer => "Outer",
            MatchKind::Rejected => "Rejected",
        });
        w.key("worker");
        put_opt_u64(w, a.worker.map(|id| id.0));
        w.key("worker_platform");
        put_opt_u64(w, a.worker_platform.map(|p| p.0.into()));
        w.key("outer_payment");
        w.f64(a.outer_payment);
        w.key("was_cooperative_offer");
        w.bool(a.was_cooperative_offer);
        w.key("travel_km");
        w.f64(a.travel_km);
        w.key("decided_at");
        w.f64(a.decided_at.as_secs());
        w.key("decision_nanos");
        w.u64(a.decision_nanos);
    });
}

/// An externally tagged variant: a one-entry map keyed by its tag.
fn put_variant<W: HotWrite>(w: &mut W, tag: &str, body: impl FnOnce(&mut W)) {
    w.map(1, |w| {
        w.key(tag);
        body(w);
    });
}

// ----------------------------------------------------------------- read

/// A timestamp exactly as the derived decoder builds one: a NaN goes
/// through to the session's typed refusal instead of tripping
/// `Timestamp::from_secs`.
fn timestamp(secs: f64) -> Timestamp {
    Timestamp::from_content(&Content::F64(secs)).expect("every float is a timestamp")
}

fn platform<R: HotRead>(r: &mut R) -> Option<PlatformId> {
    u16::try_from(r.u64()?).ok().map(PlatformId)
}

fn point<R: HotRead>(r: &mut R) -> Option<Point> {
    r.map(2, |r| {
        Some(Point {
            x: r.field("x", R::f64)?,
            y: r.field("y", R::f64)?,
        })
    })
}

fn request<R: HotRead>(r: &mut R) -> Option<RequestSpec> {
    r.map(5, |r| {
        Some(RequestSpec {
            id: RequestId(r.field("id", R::u64)?),
            platform: r.field("platform", platform)?,
            arrival: timestamp(r.field("arrival", R::f64)?),
            location: r.field("location", point)?,
            value: r.field("value", R::f64)?,
        })
    })
}

/// Only finite, non-negative values: all `WorkerHistory`'s own decoder
/// accepts, and all `from_values` (which sorts them the same way) asserts
/// on.
fn history<R: HotRead>(r: &mut R) -> Option<WorkerHistory> {
    let values = r.map(1, |r| r.field("values", R::f64s))?;
    let valid = values.iter().all(|v| v.is_finite() && *v >= 0.0);
    valid.then(|| WorkerHistory::from_values(values))
}

fn worker_spec<R: HotRead>(r: &mut R) -> Option<WorkerSpec> {
    r.map(5, |r| {
        Some(WorkerSpec {
            id: WorkerId(r.field("id", R::u64)?),
            platform: r.field("platform", platform)?,
            arrival: timestamp(r.field("arrival", R::f64)?),
            location: r.field("location", point)?,
            radius: r.field("radius", R::f64)?,
        })
    })
}

fn worker<R: HotRead>(r: &mut R) -> Option<WorkerMsg> {
    r.map(2, |r| {
        Some(WorkerMsg {
            spec: r.field("spec", worker_spec)?,
            history: r.field("history", |r| r.opt(history))?,
        })
    })
}

fn kind<R: HotRead>(r: &mut R) -> Option<MatchKind> {
    match r.str()? {
        b"Inner" => Some(MatchKind::Inner),
        b"Outer" => Some(MatchKind::Outer),
        b"Rejected" => Some(MatchKind::Rejected),
        _ => None,
    }
}

fn assignment<R: HotRead>(r: &mut R) -> Option<Assignment> {
    r.map(9, |r| {
        Some(Assignment {
            request: r.field("request", request)?,
            kind: r.field("kind", kind)?,
            worker: r.field("worker", |r| r.opt(|r| r.u64().map(WorkerId)))?,
            worker_platform: r.field("worker_platform", |r| r.opt(platform))?,
            outer_payment: r.field("outer_payment", R::f64)?,
            was_cooperative_offer: r.field("was_cooperative_offer", R::bool)?,
            travel_km: r.field("travel_km", R::f64)?,
            decided_at: timestamp(r.field("decided_at", R::f64)?),
            decision_nanos: r.field("decision_nanos", R::u64)?,
        })
    })
}

impl WireMsg for ClientMsg {
    fn put_hot<W: HotWrite>(&self, w: &mut W) -> bool {
        match self {
            ClientMsg::request(spec) => put_variant(w, "request", |w| put_request(w, spec)),
            ClientMsg::worker(msg) => put_variant(w, "worker", |w| put_worker(w, msg)),
            _ => return false,
        }
        true
    }

    #[inline(always)]
    fn take_hot<R: HotRead>(r: &mut R) -> Option<Self> {
        r.map(1, |r| match r.next_key()? {
            b"request" => request(r).map(ClientMsg::request),
            b"worker" => worker(r).map(ClientMsg::worker),
            _ => None,
        })
    }
}

impl WireMsg for ServerMsg {
    fn put_hot<W: HotWrite>(&self, w: &mut W) -> bool {
        match self {
            ServerMsg::ok => w.str("ok"),
            ServerMsg::assign(a) => put_variant(w, "assign", |w| put_assignment(w, a)),
            ServerMsg::reject(a) => put_variant(w, "reject", |w| put_assignment(w, a)),
            _ => return false,
        }
        true
    }

    #[inline(always)]
    fn take_hot<R: HotRead>(r: &mut R) -> Option<Self> {
        let mut unit = r.clone();
        if unit.str() == Some(&b"ok"[..]) {
            *r = unit;
            return Some(ServerMsg::ok);
        }
        r.map(1, |r| match r.next_key()? {
            b"assign" => assignment(r).map(ServerMsg::assign),
            b"reject" => assignment(r).map(ServerMsg::reject),
            _ => None,
        })
    }
}
