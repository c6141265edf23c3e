//! Worker entities and occupancy state.

use serde::{Deserialize, Serialize};

use crate::{Timestamp, Value, WorkerSpec};
use com_geo::Point;
use com_pricing::WorkerHistory;

/// Occupancy state of a worker (the paper's invariable + 1-by-1
/// constraints: a busy worker is locked to its request until the service
/// completes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) enum WorkerState {
    /// Registered in the scenario but its arrival event has not been
    /// processed yet ("workers can only serve requests arriving after
    /// them").
    NotArrived,
    /// In its platform's waiting list, available for assignment.
    Idle,
    /// Serving a request; unavailable until `until`.
    Busy { until: Timestamp },
    /// Shift over — permanently unavailable for the rest of the day.
    Departed,
}

/// A crowd worker: the immutable arrival spec plus the mutable simulation
/// state (location drifts as the worker completes services; the history
/// backs the acceptance probability of Definition 3.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Worker {
    pub spec: WorkerSpec,
    /// Current location (equals `spec.location` until the first service).
    pub location: Point,
    pub(crate) state: WorkerState,
    /// Completed-request value history driving `pr(v', w)`.
    pub history: WorkerHistory,
    /// Number of requests this worker completed during the simulation.
    pub(crate) completed: u64,
    /// Total money earned during the simulation (full value for inner
    /// assignments, the outer payment for borrowed ones).
    pub(crate) earnings: Value,
}

impl Worker {
    /// A fresh worker that has not yet arrived.
    pub(crate) fn new(spec: WorkerSpec, history: WorkerHistory) -> Self {
        Worker {
            location: spec.location,
            spec,
            state: WorkerState::NotArrived,
            history,
            completed: 0,
            earnings: 0.0,
        }
    }

    /// Whether the worker is currently assignable.
    #[inline]
    pub(crate) fn is_idle(&self) -> bool {
        matches!(self.state, WorkerState::Idle)
    }

    /// Transition: arrival (or re-entry) at `location`.
    pub(crate) fn enter_idle(&mut self, location: Point) {
        self.location = location;
        self.state = WorkerState::Idle;
    }

    /// Transition: assigned to a request, busy until `until`, paid
    /// `earned`.
    pub(crate) fn start_service(&mut self, until: Timestamp, earned: Value) {
        debug_assert!(self.is_idle(), "only idle workers can be assigned");
        self.state = WorkerState::Busy { until };
        self.completed += 1;
        self.earnings += earned;
    }

    /// Approximate heap footprint in bytes (memory metric).
    pub(crate) fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.history.approx_bytes()
    }
}

#[cfg(test)]
impl Worker {
    /// Whether the worker's service circle covers `p` from its *current*
    /// location.
    #[inline]
    fn covers(&self, p: Point) -> bool {
        self.location.covers(p, self.spec.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlatformId, WorkerId};

    fn spec() -> WorkerSpec {
        WorkerSpec::new(
            WorkerId(1),
            PlatformId(0),
            Timestamp::from_secs(0.0),
            Point::new(1.0, 1.0),
            1.0,
        )
    }

    #[test]
    fn lifecycle() {
        let mut w = Worker::new(spec(), WorkerHistory::from_values(vec![5.0]));
        assert_eq!(w.state, WorkerState::NotArrived);
        assert!(!w.is_idle());

        w.enter_idle(w.spec.location);
        assert!(w.is_idle());

        w.start_service(Timestamp::from_secs(100.0), 7.5);
        assert!(!w.is_idle());
        assert_eq!(w.completed, 1);
        assert_eq!(w.earnings, 7.5);

        w.enter_idle(Point::new(3.0, 3.0));
        assert!(w.is_idle());
        assert_eq!(w.location, Point::new(3.0, 3.0));
    }

    #[test]
    fn covers_follows_current_location() {
        let mut w = Worker::new(spec(), WorkerHistory::new());
        assert!(w.covers(Point::new(1.5, 1.0)));
        w.enter_idle(Point::new(10.0, 10.0));
        assert!(!w.covers(Point::new(1.5, 1.0)));
        assert!(w.covers(Point::new(10.5, 10.0)));
    }

    #[test]
    fn earnings_accumulate() {
        let mut w = Worker::new(spec(), WorkerHistory::new());
        w.enter_idle(w.spec.location);
        w.start_service(Timestamp::from_secs(10.0), 4.0);
        w.enter_idle(Point::ORIGIN);
        w.start_service(Timestamp::from_secs(20.0), 6.0);
        assert_eq!(w.earnings, 10.0);
        assert_eq!(w.completed, 2);
    }
}
