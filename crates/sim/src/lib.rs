//! # com-sim
//!
//! The multi-platform spatial-crowdsourcing world that the COM algorithms
//! run against.
//!
//! The paper's setting (Section II) has several competing platforms that
//! provide the same service. Each platform maintains a *waiting list* of
//! its own idle workers, ordered by arrival; platforms additionally share
//! the information of their **unoccupied** workers with each other, which
//! is what allows a target platform to "borrow" outer workers. This crate
//! models exactly that, together with the online arrival model that
//! drives it (§II-A, Definition 2.6: workers and requests arrive one at a
//! time and each request is decided on arrival):
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
//! * [`Worker`] — a worker entity: arrival spec, acceptance history,
//!   occupancy state, lifetime earnings.
//! * [`WaitingList`] — the idle workers of one platform. The list *is* a
//!   uniform spatial grid over the city, holding each idle worker once, so
//!   the range constraint is answered without a linear scan. A served
//!   world's lists may hold at most 65,536 cells in all (`com-serve`
//!   refuses a larger `hello`, counting with [`grid_shape`]).
//! * [`World`] — all platforms plus the service model; supports worker
//!   arrivals, assignment (inner or outer), service completion and worker
//!   re-entry (driven by a deterministic earliest-first timer queue), and
//!   the cross-platform visibility rules.
//! * [`ServiceModel`] — how long a worker stays busy after an assignment
//!   (travel at a fixed speed + fixed service duration) and whether the
//!   worker re-enters the waiting list afterwards.
//! * [`Assignment`] / [`MatchKind`] — the immutable record of one matching
//!   decision, consumed by the metrics layer.

mod event;
#[cfg(test)]
mod grid;
mod ids;
mod instance;
mod ledger;
mod outcome;
mod service;
mod time;
mod timer;
mod violation;
mod waiting_list;
mod worker;
mod world;

pub use com_pricing::Value;
pub use event::{ArrivalEvent, EventStream, RequestSpec, WorkerSpec};
pub use ids::{PlatformId, RequestId, WorkerId};
pub use instance::Instance;
pub use ledger::PlatformLedger;
pub use outcome::{Assignment, MatchKind};
pub use service::ServiceModel;
pub use time::{Timestamp, SECONDS_PER_DAY, SECONDS_PER_HOUR};
pub use violation::ConstraintViolation;
pub use waiting_list::{grid_shape, IdleWorker, WaitingList};
pub use worker::Worker;
pub use world::{World, WorldConfig};
