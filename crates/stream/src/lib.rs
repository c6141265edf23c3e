//! # com-stream
//!
//! The online arrival model for Cross Online Matching.
//!
//! In the COM problem (Definition 2.6) workers and requests arrive
//! *sequentially* and the platform must decide on each request immediately.
//! This crate provides the primitives that encode that model:
//!
//! * [`Timestamp`] — simulation time in seconds, totally ordered.
//! * Typed ids ([`PlatformId`], [`WorkerId`], [`RequestId`]) shared by the
//!   whole workspace.
//! * [`RequestSpec`] / [`WorkerSpec`] — the immutable arrival-time facts
//!   about a request (`⟨t, l_r, v_r⟩`, Def. 2.1) and a worker
//!   (`⟨t, l_w, rad_w⟩`, Defs. 2.2/2.3).
//! * [`ArrivalEvent`] / [`EventStream`] — a merged, deterministically
//!   ordered sequence of arrivals across all platforms, equivalent to the
//!   paper's Table II "arrival order".
//! * [`TimerQueue`] — a min-heap of future timers, used by the simulator
//!   for worker re-entry after service completion.

mod event;
mod ids;
mod time;
mod timer;

pub use event::{ArrivalEvent, EventStream, RequestSpec, WorkerSpec};
pub use ids::{PlatformId, RequestId, WorkerId};
pub use time::{Timestamp, SECONDS_PER_DAY, SECONDS_PER_HOUR};
pub use timer::TimerQueue;

/// Monetary value of a request (`v_r`), in the paper's currency unit (¥).
pub type Value = f64;
