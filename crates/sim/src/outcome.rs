//! Assignment records — the immutable audit trail of matching decisions.

use serde::{Deserialize, Serialize};

use crate::{PlatformId, RequestSpec, Timestamp, Value, WorkerId};

/// How a request was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MatchKind {
    /// Served by one of the target platform's own workers; the platform
    /// gains the full `v_r` (Definition 2.5).
    Inner,
    /// Served by a borrowed (outer) worker at `outer payment`; the target
    /// platform gains `v_r − v'_r`.
    Outer,
    /// Rejected — no feasible or willing worker.
    Rejected,
}

/// The record of one request's resolution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    pub request: RequestSpec,
    pub kind: MatchKind,
    /// The serving worker (for `Inner`/`Outer`).
    pub worker: Option<WorkerId>,
    /// The serving worker's home platform.
    pub worker_platform: Option<PlatformId>,
    /// Outer payment `v'_r` (0 for inner assignments and rejections).
    pub outer_payment: Value,
    /// Whether at least one concrete offer was extended to an outer
    /// worker (a *cooperative request* per Definition 2.3, whether or not
    /// any outer worker accepted — the denominator of the
    /// acceptance-ratio metric). `false` when no offer round ever ran,
    /// e.g. when pricing found no viable payment in `(0, v_r]`.
    pub was_cooperative_offer: bool,
    /// Pickup (deadhead) distance from the serving worker's location at
    /// decision time to the request, in km (0 for rejections). Feeds the
    /// travel-distance metrics of the route-aware extension (the paper's
    /// §VII future work).
    pub travel_km: f64,
    /// Simulation time at which the decision was taken.
    pub decided_at: Timestamp,
    /// Wall-clock time the algorithm spent deciding, in nanoseconds (the
    /// paper's "response time" metric).
    pub decision_nanos: u64,
}

impl Assignment {
    /// The target platform's revenue from this request (Definition 2.5):
    /// `v_r` for inner, `v_r − v'_r` for outer, 0 for rejections.
    pub fn platform_revenue(&self) -> Value {
        match self.kind {
            MatchKind::Inner => self.request.value,
            MatchKind::Outer => self.request.value - self.outer_payment,
            MatchKind::Rejected => 0.0,
        }
    }

    /// What the serving worker earned: `v_r` when inner (the platform's
    /// cut is out of scope in the paper's accounting), `v'_r` when outer.
    pub fn worker_earnings(&self) -> Value {
        match self.kind {
            MatchKind::Inner => self.request.value,
            MatchKind::Outer => self.outer_payment,
            MatchKind::Rejected => 0.0,
        }
    }

    /// Whether the request was completed (served by anyone).
    pub fn is_completed(&self) -> bool {
        !matches!(self.kind, MatchKind::Rejected)
    }

    /// Whether this was a *successful* cooperative assignment (an outer
    /// worker accepted) — the numerator of the acceptance-ratio metric.
    pub fn is_cooperative_success(&self) -> bool {
        matches!(self.kind, MatchKind::Outer)
    }

    /// Ratio `v'_r / v_r` for outer assignments (the paper's outer payment
    /// rate metric), `None` otherwise.
    pub fn outer_payment_rate(&self) -> Option<f64> {
        match self.kind {
            MatchKind::Outer => Some(self.outer_payment / self.request.value),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RequestId;
    use com_geo::Point;

    fn req(value: f64) -> RequestSpec {
        RequestSpec::new(
            RequestId(1),
            PlatformId(0),
            Timestamp::from_secs(10.0),
            Point::new(1.0, 1.0),
            value,
        )
    }

    fn assignment(kind: MatchKind, payment: f64) -> Assignment {
        Assignment {
            request: req(10.0),
            kind,
            worker: Some(WorkerId(3)),
            worker_platform: Some(PlatformId(1)),
            outer_payment: payment,
            was_cooperative_offer: matches!(kind, MatchKind::Outer),
            travel_km: 0.4,
            decided_at: Timestamp::from_secs(10.0),
            decision_nanos: 1_000,
        }
    }

    #[test]
    fn inner_revenue_is_full_value() {
        let a = assignment(MatchKind::Inner, 0.0);
        assert_eq!(a.platform_revenue(), 10.0);
        assert_eq!(a.worker_earnings(), 10.0);
        assert!(a.is_completed());
        assert!(!a.is_cooperative_success());
        assert_eq!(a.outer_payment_rate(), None);
    }

    #[test]
    fn outer_revenue_subtracts_payment() {
        let a = assignment(MatchKind::Outer, 7.0);
        assert_eq!(a.platform_revenue(), 3.0);
        assert_eq!(a.worker_earnings(), 7.0);
        assert!(a.is_completed());
        assert!(a.is_cooperative_success());
        assert_eq!(a.outer_payment_rate(), Some(0.7));
    }

    #[test]
    fn rejection_yields_nothing() {
        let a = assignment(MatchKind::Rejected, 0.0);
        assert_eq!(a.platform_revenue(), 0.0);
        assert_eq!(a.worker_earnings(), 0.0);
        assert!(!a.is_completed());
        assert_eq!(a.outer_payment_rate(), None);
    }

    #[test]
    fn example_1_revenue_accounting() {
        // Fig. 3(c): r3 (value 6) served by outer worker at 50% payment.
        let mut a = assignment(MatchKind::Outer, 3.0);
        a.request = req(6.0);
        assert_eq!(a.platform_revenue(), 3.0);
        assert_eq!(a.worker_earnings(), 3.0);
    }
}
