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
//! models exactly that:
//!
//! * [`Worker`] — a worker entity: arrival spec, acceptance history,
//!   occupancy state, lifetime earnings.
//! * [`WaitingList`] — the idle workers of one platform. The list *is* a
//!   uniform spatial grid over the city, holding each idle worker once, so
//!   the range constraint is answered without a linear scan. A served
//!   world's lists may hold at most 65,536 cells in all (`com-serve`
//!   refuses a larger `hello`, counting with [`grid_shape`]).
//! * [`World`] — all platforms plus the service model; supports worker
//!   arrivals, assignment (inner or outer), service completion and worker
//!   re-entry, and the cross-platform visibility rules.
//! * [`ServiceModel`] — how long a worker stays busy after an assignment
//!   (travel at a fixed speed + fixed service duration) and whether the
//!   worker re-enters the waiting list afterwards.
//! * [`Assignment`] / [`MatchKind`] — the immutable record of one matching
//!   decision, consumed by the metrics layer.

#[cfg(test)]
mod grid;
pub mod instance;
pub mod ledger;
pub mod outcome;
pub mod service;
pub mod violation;
pub mod waiting_list;
pub mod worker;
pub mod world;

pub use instance::Instance;
pub use ledger::PlatformLedger;
pub use outcome::{Assignment, MatchKind};
pub use service::ServiceModel;
pub use violation::ConstraintViolation;
pub use waiting_list::{grid_shape, IdleWorker, WaitingList};
pub use worker::{Worker, WorkerState};
pub use world::{World, WorldConfig};

// Re-export the identifier and spec types: the simulator is the natural
// façade for them.
pub use com_stream::{
    ArrivalEvent, EventStream, PlatformId, RequestId, RequestSpec, Timestamp, Value, WorkerId,
    WorkerSpec,
};
