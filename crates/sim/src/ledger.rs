//! Per-platform revenue accounting — who earned what, who paid whom.
//!
//! The paper's Definition 2.5 books each request's value on the *target*
//! platform (`v_r` for inner service, `v_r − v'` for outer), but once
//! platforms run as separate daemons each side needs its own books: the
//! requester's ledger shows the outsourcing payment as money out, the
//! lender's ledger shows the same payment as money in. A
//! [`PlatformLedger`] folds an assignment log into exactly that split,
//! and two federated daemons' ledgers must agree on every cross-platform
//! payment line for the run to be considered identical.

use serde::{Deserialize, Serialize};

use com_stream::{PlatformId, Value};

use crate::{Assignment, MatchKind};

/// One platform's books for a finished (or in-flight) run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PlatformLedger {
    /// Net revenue per Definition 2.5 over owned requests: `Σ v_r` for
    /// inner service plus `Σ (v_r − v')` for outsourced service.
    pub revenue: f64,
    /// Gross value of owned completed requests (`Σ v_r`).
    pub gross_value: f64,
    /// Outsourcing payments made to rival platforms' workers
    /// (`Σ v'` over owned outer assignments).
    pub outsource_paid: f64,
    /// Outsourcing payments received for lending this platform's
    /// workers (`Σ v'` over rival-owned outer assignments served by a
    /// worker of this platform).
    pub outsource_earned: f64,
    /// Owned requests served by this platform's own workers.
    pub inner_served: u64,
    /// Owned requests served by borrowed (outer) workers.
    pub outer_served: u64,
    /// Owned requests rejected.
    pub rejected: u64,
    /// Owned requests for which at least one cooperative offer ran
    /// (Definition 2.3's denominator), served or not.
    pub cooperative_offers: u64,
    /// This platform's workers lent out to rival platforms.
    pub workers_lent: u64,
}

impl PlatformLedger {
    /// Fold one assignment record into platform `platform`'s books. Both
    /// sides of an outer assignment are booked: the owner's ledger takes
    /// the revenue/payment split, the lender's ledger takes the earning.
    pub fn record(&mut self, platform: PlatformId, a: &Assignment) {
        if a.request.platform == platform {
            self.revenue += a.platform_revenue();
            if a.was_cooperative_offer {
                self.cooperative_offers += 1;
            }
            match a.kind {
                MatchKind::Inner => {
                    self.gross_value += a.request.value;
                    self.inner_served += 1;
                }
                MatchKind::Outer => {
                    self.gross_value += a.request.value;
                    self.outer_served += 1;
                    self.outsource_paid += a.outer_payment;
                }
                MatchKind::Rejected => self.rejected += 1,
            }
        }
        if a.kind == MatchKind::Outer
            && a.request.platform != platform
            && a.worker_platform == Some(platform)
        {
            self.outsource_earned += a.outer_payment;
            self.workers_lent += 1;
        }
    }

    /// The books of platform `platform` over a whole assignment log.
    pub fn for_platform(platform: PlatformId, assignments: &[Assignment]) -> Self {
        let mut ledger = PlatformLedger::default();
        for a in assignments {
            ledger.record(platform, a);
        }
        ledger
    }

    /// Owned requests that reached a decision.
    pub fn owned_requests(&self) -> u64 {
        self.inner_served + self.outer_served + self.rejected
    }

    /// Net cash flow of the outsourcing side-channel: earnings from
    /// lending minus payments for borrowing. Summed across all
    /// platforms of a run this is zero — every payment line appears
    /// once as `paid` and once as `earned`.
    pub fn outsource_net(&self) -> Value {
        self.outsource_earned - self.outsource_paid
    }

    /// Whether two independently-derived ledgers for the same platform
    /// agree to within float tolerance — the cross-daemon consistency
    /// check `matchfed` runs on the two federated logs.
    pub fn agrees_with(&self, other: &PlatformLedger) -> bool {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        close(self.revenue, other.revenue)
            && close(self.gross_value, other.gross_value)
            && close(self.outsource_paid, other.outsource_paid)
            && close(self.outsource_earned, other.outsource_earned)
            && self.inner_served == other.inner_served
            && self.outer_served == other.outer_served
            && self.rejected == other.rejected
            && self.cooperative_offers == other.cooperative_offers
            && self.workers_lent == other.workers_lent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_geo::Point;
    use com_stream::{RequestId, RequestSpec, Timestamp, WorkerId};

    fn assignment(
        request_platform: u16,
        kind: MatchKind,
        worker_platform: Option<u16>,
        value: f64,
        payment: f64,
    ) -> Assignment {
        Assignment {
            request: RequestSpec::new(
                RequestId(1),
                PlatformId(request_platform),
                Timestamp::from_secs(1.0),
                Point::new(1.0, 1.0),
                value,
            ),
            kind,
            worker: worker_platform.map(|_| WorkerId(9)),
            worker_platform: worker_platform.map(PlatformId),
            outer_payment: payment,
            was_cooperative_offer: matches!(kind, MatchKind::Outer),
            travel_km: 0.0,
            decided_at: Timestamp::from_secs(1.0),
            decision_nanos: 0,
        }
    }

    #[test]
    fn outer_assignment_books_both_sides() {
        let log = vec![assignment(0, MatchKind::Outer, Some(1), 10.0, 4.0)];
        let owner = PlatformLedger::for_platform(PlatformId(0), &log);
        let lender = PlatformLedger::for_platform(PlatformId(1), &log);
        assert_eq!(owner.revenue, 6.0);
        assert_eq!(owner.outsource_paid, 4.0);
        assert_eq!(owner.outer_served, 1);
        assert_eq!(owner.cooperative_offers, 1);
        assert_eq!(lender.outsource_earned, 4.0);
        assert_eq!(lender.workers_lent, 1);
        assert_eq!(lender.revenue, 0.0);
        assert_eq!(lender.owned_requests(), 0);
        assert!((owner.outsource_net() + lender.outsource_net()).abs() < 1e-12);
    }

    #[test]
    fn inner_and_rejected_book_one_side_only() {
        let log = vec![
            assignment(0, MatchKind::Inner, Some(0), 5.0, 0.0),
            assignment(1, MatchKind::Rejected, None, 3.0, 0.0),
        ];
        let a = PlatformLedger::for_platform(PlatformId(0), &log);
        let b = PlatformLedger::for_platform(PlatformId(1), &log);
        assert_eq!(a.revenue, 5.0);
        assert_eq!(a.inner_served, 1);
        assert_eq!(a.workers_lent, 0);
        assert_eq!(b.rejected, 1);
        assert_eq!(b.revenue, 0.0);
    }

    #[test]
    fn agreement_is_tolerant_to_float_noise_only() {
        let log = vec![assignment(0, MatchKind::Outer, Some(1), 10.0, 4.0)];
        let a = PlatformLedger::for_platform(PlatformId(0), &log);
        let mut b = a.clone();
        b.revenue += 1e-9;
        assert!(a.agrees_with(&b));
        b.revenue += 1.0;
        assert!(!a.agrees_with(&b));
        let mut c = a.clone();
        c.workers_lent += 1;
        assert!(!a.agrees_with(&c));
    }
}
