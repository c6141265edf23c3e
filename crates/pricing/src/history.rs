//! Worker request-completion histories.

use serde::{Content, Deserialize, Error, Serialize};

use crate::Value;

/// The completed-request value history of a crowd worker.
///
/// Definition 3.1 estimates a worker's willingness to serve a cooperative
/// request priced `v'` as the fraction of his completed history whose value
/// is at most `v'`:
///
/// ```text
/// pr(v', w) = N(v ≤ v') / N
/// ```
///
/// The history is kept sorted — one `Vec`, nothing derived from it is
/// stored — so the empirical CDF is an `O(log N)` binary search, the
/// expected-revenue maximiser can walk it with a forward-only cursor, and
/// completed cooperative requests can be appended as the simulation runs
/// (the paper's model keeps histories per worker and they grow over the
/// worker's lifetime).
///
/// ```
/// use com_pricing::WorkerHistory;
///
/// // A driver whose past jobs paid ¥5, ¥5, ¥10 and ¥20.
/// let h = WorkerHistory::from_values(vec![10.0, 5.0, 20.0, 5.0]);
/// assert_eq!(h.acceptance_prob(4.0), 0.0);   // below every past job
/// assert_eq!(h.acceptance_prob(5.0), 0.5);   // N(v ≤ 5) / N = 2/4
/// assert_eq!(h.acceptance_prob(20.0), 1.0);
/// assert_eq!(h.min_accepted_payment(), Some(5.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerHistory {
    /// Sorted ascending.
    values: Vec<Value>,
}

impl WorkerHistory {
    /// An empty history.
    pub fn new() -> Self {
        WorkerHistory::default()
    }

    /// Build from raw completed-request values (any order).
    ///
    /// # Panics
    /// Panics on non-finite or negative values.
    pub fn from_values(mut values: Vec<Value>) -> Self {
        for v in &values {
            assert!(
                v.is_finite() && *v >= 0.0,
                "history values must be finite and non-negative, got {v}"
            );
        }
        values.sort_by(|a, b| a.total_cmp(b));
        WorkerHistory { values }
    }

    /// Number of completed history requests (`N`).
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the history is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of history requests with value `≤ payment` (`N(v ≤ v')`).
    pub(crate) fn count_at_most(&self, payment: Value) -> usize {
        self.values.partition_point(|&v| v <= payment)
    }

    /// The empirical acceptance probability `pr(v', w)` of Eq. 4.
    ///
    /// A worker with *no* history has no CDF to consult; we treat such a
    /// worker as accepting any positive payment (probability 1), the
    /// economically neutral choice for a newcomer with no established
    /// price floor. The paper assumes `N ≥ 1` and never hits this case in
    /// its experiments; ours only hits it if a scenario explicitly creates
    /// history-less workers.
    pub fn acceptance_prob(&self, payment: Value) -> f64 {
        if self.values.is_empty() {
            return if payment > 0.0 { 1.0 } else { 0.0 };
        }
        self.count_at_most(payment) as f64 / self.values.len() as f64
    }

    /// The smallest payment with non-zero acceptance probability (the
    /// analytic "minimum outer payment" Algorithm 2 estimates), or `None`
    /// for an empty history.
    pub fn min_accepted_payment(&self) -> Option<Value> {
        self.values.first().copied()
    }

    /// Record a newly completed request value, keeping the history sorted
    /// (an `O(log N)` search plus one insertion).
    pub fn record(&mut self, value: Value) {
        assert!(
            value.is_finite() && value >= 0.0,
            "history values must be finite and non-negative, got {value}"
        );
        let pos = self.values.partition_point(|&v| v <= value);
        self.values.insert(pos, value);
    }

    /// Raw sorted values. Their distinct members are the breakpoints of
    /// the empirical CDF; pricing's streaming maximiser walks this slice
    /// with one cursor per worker, so no deduplicated copy is kept.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Approximate heap footprint in bytes (for the memory metric).
    pub fn approx_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<Value>()
    }
}

/// A history serialises as `{"values": [...]}`. Incoming values are
/// *validated* (finite, non-negative) and re-sorted, so a hostile or stale
/// peer cannot plant an unsorted or NaN history that would silently corrupt
/// the empirical CDF.
impl Serialize for WorkerHistory {
    fn to_content(&self) -> Content {
        Content::Map(vec![(
            Content::Str("values".to_string()),
            Content::Seq(self.values.iter().map(|&v| Content::F64(v)).collect()),
        )])
    }
}

impl Deserialize for WorkerHistory {
    fn from_content(c: &Content) -> Result<Self, Error> {
        let entries = match c {
            Content::Map(entries) => entries,
            other => return Err(Error::unexpected("a map", other)),
        };
        let raw = Content::find(entries, "values").ok_or_else(|| Error::missing_field("values"))?;
        let mut values: Vec<Value> = Deserialize::from_content(raw)?;
        for v in &values {
            if !(v.is_finite() && *v >= 0.0) {
                return Err(Error::custom(format!(
                    "history values must be finite and non-negative, got {v}"
                )));
            }
        }
        values.sort_by(|a, b| a.total_cmp(b));
        Ok(WorkerHistory { values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eq4_acceptance_probability() {
        let h = WorkerHistory::from_values(vec![10.0, 5.0, 20.0, 5.0]);
        // N = 4; values sorted [5, 5, 10, 20].
        assert_eq!(h.acceptance_prob(4.0), 0.0);
        assert_eq!(h.acceptance_prob(5.0), 0.5); // inclusive: N(v <= 5) = 2
        assert_eq!(h.acceptance_prob(10.0), 0.75);
        assert_eq!(h.acceptance_prob(19.99), 0.75);
        assert_eq!(h.acceptance_prob(20.0), 1.0);
        assert_eq!(h.acceptance_prob(100.0), 1.0);
    }

    #[test]
    fn empty_history_accepts_positive_payments() {
        let h = WorkerHistory::new();
        assert_eq!(h.acceptance_prob(1.0), 1.0);
        assert_eq!(h.acceptance_prob(0.0), 0.0);
        assert_eq!(h.min_accepted_payment(), None);
    }

    #[test]
    fn min_accepted_payment_is_smallest_history_value() {
        let h = WorkerHistory::from_values(vec![8.0, 3.0, 12.0]);
        assert_eq!(h.min_accepted_payment(), Some(3.0));
    }

    #[test]
    fn record_keeps_sorted_and_updates_cdf() {
        let mut h = WorkerHistory::from_values(vec![10.0]);
        h.record(2.0);
        h.record(6.0);
        assert_eq!(h.values(), &[2.0, 6.0, 10.0]);
        assert!((h.acceptance_prob(6.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn record_keeps_sorted_through_a_thousand_random_inserts() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        let mut h = WorkerHistory::new();
        let mut inserted: Vec<Value> = Vec::new();
        for _ in 0..1000 {
            // A 0.5 lattice over [0, 50]: plenty of duplicates and zeros.
            let v = f64::from(rng.random_range(0u32..=100)) * 0.5;
            h.record(v);
            inserted.push(v);
        }
        assert_eq!(h.len(), 1000);
        assert!(h.values().windows(2).all(|w| w[0] <= w[1]));
        for payment in [0.0, 0.25, 7.5, 24.99, 25.0, 50.0, 60.0] {
            let at_most = inserted.iter().filter(|&&v| v <= payment).count();
            assert_eq!(h.acceptance_prob(payment), at_most as f64 / 1000.0);
        }
    }

    #[test]
    fn serde_round_trip_preserves_wire_format_and_cache() {
        let h = WorkerHistory::from_values(vec![9.0, 5.0, 5.0]);
        let json = serde_json::to_string(&h).unwrap();
        assert_eq!(json, "{\"values\":[5.0,5.0,9.0]}");
        let back: WorkerHistory = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn deserialize_sorts_and_rejects_bad_values() {
        // Unsorted input from a peer is repaired, not trusted.
        let h: WorkerHistory = serde_json::from_str("{\"values\":[9.0,2.0,2.0]}").unwrap();
        assert_eq!(h.values(), &[2.0, 2.0, 9.0]);
        // Negative and non-finite values are typed errors, not panics.
        assert!(serde_json::from_str::<WorkerHistory>("{\"values\":[-1.0]}").is_err());
        assert!(serde_json::from_str::<WorkerHistory>("{\"values\":[\"nan\"]}").is_err());
        assert!(serde_json::from_str::<WorkerHistory>("{\"history\":[]}").is_err());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_values() {
        WorkerHistory::from_values(vec![-1.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_nan_record() {
        WorkerHistory::new().record(f64::NAN);
    }

    proptest! {
        #[test]
        fn prop_cdf_is_monotone(
            values in proptest::collection::vec(0.0f64..100.0, 1..40),
            a in 0.0f64..120.0, b in 0.0f64..120.0,
        ) {
            let h = WorkerHistory::from_values(values);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(h.acceptance_prob(lo) <= h.acceptance_prob(hi));
        }

        #[test]
        fn prop_cdf_bounds(
            values in proptest::collection::vec(0.0f64..100.0, 1..40),
            p in 0.0f64..150.0,
        ) {
            let h = WorkerHistory::from_values(values);
            let pr = h.acceptance_prob(p);
            prop_assert!((0.0..=1.0).contains(&pr));
        }

        #[test]
        fn prop_min_accepted_has_positive_prob(
            values in proptest::collection::vec(0.0f64..100.0, 1..40),
        ) {
            let h = WorkerHistory::from_values(values);
            let min = h.min_accepted_payment().unwrap();
            prop_assert!(h.acceptance_prob(min) > 0.0);
            if min > 0.0 {
                prop_assert_eq!(h.acceptance_prob(min * 0.999_999), 0.0);
            }
        }

        #[test]
        fn prop_record_matches_rebuild(
            mut values in proptest::collection::vec(0.0f64..100.0, 1..20),
            extra in 0.0f64..100.0,
        ) {
            let mut h = WorkerHistory::from_values(values.clone());
            h.record(extra);
            values.push(extra);
            prop_assert_eq!(h, WorkerHistory::from_values(values));
        }
    }
}
