//! Arrival events and deterministic event streams.

use serde::{Deserialize, Serialize};

use com_geo::{Km, Point};

use crate::{PlatformId, RequestId, Timestamp, Value, WorkerId};

/// The arrival-time facts about a request: `r = ⟨t, l_r, v_r⟩`
/// (Definition 2.1), plus the platform the requester submitted it to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestSpec {
    pub id: RequestId,
    /// The platform that received this request (its "target platform").
    pub platform: PlatformId,
    pub arrival: Timestamp,
    pub location: Point,
    /// The value `v_r` the requester pays on completion.
    pub value: Value,
}

impl RequestSpec {
    pub fn new(
        id: RequestId,
        platform: PlatformId,
        arrival: Timestamp,
        location: Point,
        value: Value,
    ) -> Self {
        assert!(value > 0.0, "request value must be positive, got {value}");
        assert!(location.is_finite(), "request location must be finite");
        RequestSpec {
            id,
            platform,
            arrival,
            location,
            value,
        }
    }
}

/// The arrival-time facts about a worker: `w = ⟨t, l_w, rad_w⟩`
/// (Definitions 2.2 and 2.3), plus the platform the worker drives for.
/// Whether a worker is "inner" or "outer" is relative to the platform
/// handling a given request, so it is not stored here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkerSpec {
    pub id: WorkerId,
    /// The worker's home platform (the lender platform when borrowed).
    pub platform: PlatformId,
    pub arrival: Timestamp,
    pub location: Point,
    /// Service radius `rad_w` in km.
    pub radius: Km,
}

impl WorkerSpec {
    pub fn new(
        id: WorkerId,
        platform: PlatformId,
        arrival: Timestamp,
        location: Point,
        radius: Km,
    ) -> Self {
        assert!(radius > 0.0, "worker radius must be positive, got {radius}");
        assert!(location.is_finite(), "worker location must be finite");
        WorkerSpec {
            id,
            platform,
            arrival,
            location,
            radius,
        }
    }

    /// Whether this worker's service circle covers `p`.
    #[inline]
    pub fn covers(&self, p: Point) -> bool {
        self.location.covers(p, self.radius)
    }
}

/// One entry of the global arrival order (the paper's Table II).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalEvent {
    Worker(WorkerSpec),
    Request(RequestSpec),
}

impl ArrivalEvent {
    /// Arrival time of the underlying entity.
    #[inline]
    pub fn time(&self) -> Timestamp {
        match self {
            ArrivalEvent::Worker(w) => w.arrival,
            ArrivalEvent::Request(r) => r.arrival,
        }
    }

    /// Sort key: by time; at equal times workers come before requests (a
    /// worker arriving "at the same instant" can serve the request, which
    /// matches the paper's examples where `w_i` precedes `r_j` whenever it
    /// is meant to be available); final tie-break by id for determinism.
    fn sort_key(&self) -> (Timestamp, u8, u64) {
        match self {
            ArrivalEvent::Worker(w) => (w.arrival, 0, w.id.as_u64()),
            ArrivalEvent::Request(r) => (r.arrival, 1, r.id.as_u64()),
        }
    }

    /// True for request events.
    pub fn is_request(&self) -> bool {
        matches!(self, ArrivalEvent::Request(_))
    }
}

/// A deterministically ordered sequence of arrivals across all platforms.
///
/// This is the input `G(T, W_in, W_out)` of the competitive-ratio
/// definitions: the full set of workers and requests together with one
/// specific arrival order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventStream {
    events: Vec<ArrivalEvent>,
}

impl EventStream {
    /// Build a stream from workers and requests, ordered by arrival time
    /// (stable tie-break: workers first, then ids).
    pub fn from_specs(workers: Vec<WorkerSpec>, requests: Vec<RequestSpec>) -> Self {
        let mut events: Vec<ArrivalEvent> = Vec::with_capacity(workers.len() + requests.len());
        events.extend(workers.into_iter().map(ArrivalEvent::Worker));
        events.extend(requests.into_iter().map(ArrivalEvent::Request));
        events.sort_by_key(|a| a.sort_key());
        EventStream { events }
    }

    /// Build a stream from an explicit, already-ordered sequence (used to
    /// reproduce the paper's Table II orderings exactly). Asserts the
    /// sequence is time-monotone.
    pub fn from_ordered(events: Vec<ArrivalEvent>) -> Self {
        for pair in events.windows(2) {
            assert!(
                pair[0].time() <= pair[1].time(),
                "explicit event order must be time-monotone"
            );
        }
        EventStream { events }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stream has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of request events.
    pub fn request_count(&self) -> usize {
        self.events.iter().filter(|e| e.is_request()).count()
    }

    /// Number of worker events.
    pub fn worker_count(&self) -> usize {
        self.events.len() - self.request_count()
    }

    /// Iterate in arrival order.
    pub fn iter(&self) -> std::slice::Iter<'_, ArrivalEvent> {
        self.events.iter()
    }

    /// All worker specs, in arrival order.
    pub fn workers(&self) -> impl Iterator<Item = &WorkerSpec> {
        self.events.iter().filter_map(|e| match e {
            ArrivalEvent::Worker(w) => Some(w),
            _ => None,
        })
    }

    /// All request specs, in arrival order.
    pub fn requests(&self) -> impl Iterator<Item = &RequestSpec> {
        self.events.iter().filter_map(|e| match e {
            ArrivalEvent::Request(r) => Some(r),
            _ => None,
        })
    }

    /// A new stream with the same events re-ordered by `permutation` over
    /// event indices — used by the random-order competitive-ratio model.
    /// Times are reassigned to preserve monotonicity (event `i` of the
    /// permuted stream gets the i-th smallest original time), so the
    /// *relative order* changes but the time axis stays identical.
    pub fn permuted(&self, permutation: &[usize]) -> EventStream {
        assert_eq!(permutation.len(), self.events.len());
        let mut times: Vec<Timestamp> = self.events.iter().map(|e| e.time()).collect();
        times.sort();
        let mut events: Vec<ArrivalEvent> = permutation.iter().map(|&i| self.events[i]).collect();
        for (e, t) in events.iter_mut().zip(times) {
            match e {
                ArrivalEvent::Worker(w) => w.arrival = t,
                ArrivalEvent::Request(r) => r.arrival = t,
            }
        }
        EventStream { events }
    }

    /// Largest request value in the stream (`max(v_r)`), used by RamCOM's
    /// threshold and the pricing grid. `None` when there are no requests.
    pub fn max_value(&self) -> Option<Value> {
        self.requests().map(|r| r.value).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.max(v),
            })
        })
    }
}

impl<'a> IntoIterator for &'a EventStream {
    type Item = &'a ArrivalEvent;
    type IntoIter = std::slice::Iter<'a, ArrivalEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(id: u64, t: f64) -> WorkerSpec {
        WorkerSpec::new(
            WorkerId(id),
            PlatformId(0),
            Timestamp::from_secs(t),
            Point::new(0.0, 0.0),
            1.0,
        )
    }

    fn r(id: u64, t: f64, v: f64) -> RequestSpec {
        RequestSpec::new(
            RequestId(id),
            PlatformId(0),
            Timestamp::from_secs(t),
            Point::new(0.0, 0.0),
            v,
        )
    }

    #[test]
    fn stream_orders_by_time() {
        let s = EventStream::from_specs(vec![w(1, 5.0), w(2, 1.0)], vec![r(1, 3.0, 4.0)]);
        let times: Vec<f64> = s.iter().map(|e| e.time().as_secs()).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_put_workers_before_requests() {
        let s = EventStream::from_specs(vec![w(1, 2.0)], vec![r(1, 2.0, 3.0)]);
        assert!(matches!(s.iter().next().unwrap(), ArrivalEvent::Worker(_)));
    }

    #[test]
    fn counts_and_totals() {
        let s = EventStream::from_specs(
            vec![w(1, 1.0), w(2, 2.0)],
            vec![r(1, 3.0, 4.0), r(2, 4.0, 9.0)],
        );
        assert_eq!(s.len(), 4);
        assert_eq!(s.worker_count(), 2);
        assert_eq!(s.request_count(), 2);
        assert_eq!(s.max_value(), Some(9.0));
    }

    #[test]
    fn table_ii_arrival_order() {
        // The paper's Table II: w1 w2 r1 w3 r2 r3 w4 r4 w5 r5 at t1..t10.
        let workers = vec![w(1, 1.0), w(2, 2.0), w(3, 4.0), w(4, 7.0), w(5, 9.0)];
        let requests = vec![
            r(1, 3.0, 4.0),
            r(2, 5.0, 9.0),
            r(3, 6.0, 6.0),
            r(4, 8.0, 3.0),
            r(5, 10.0, 4.0),
        ];
        let s = EventStream::from_specs(workers, requests);
        let kinds: Vec<&str> = s
            .iter()
            .map(|e| match e {
                ArrivalEvent::Worker(_) => "w",
                ArrivalEvent::Request(_) => "r",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["w", "w", "r", "w", "r", "r", "w", "r", "w", "r"]
        );
    }

    #[test]
    fn permutation_preserves_time_axis() {
        let s = EventStream::from_specs(vec![w(1, 1.0), w(2, 2.0)], vec![r(1, 3.0, 5.0)]);
        let p = s.permuted(&[2, 0, 1]);
        // Same multiset of times, new order of entities.
        let times: Vec<f64> = p.iter().map(|e| e.time().as_secs()).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
        assert!(matches!(p.iter().next().unwrap(), ArrivalEvent::Request(_)));
        // Original untouched.
        assert!(matches!(s.iter().next().unwrap(), ArrivalEvent::Worker(_)));
    }

    #[test]
    #[should_panic(expected = "time-monotone")]
    fn from_ordered_rejects_unsorted() {
        EventStream::from_ordered(vec![
            ArrivalEvent::Worker(w(1, 5.0)),
            ArrivalEvent::Worker(w(2, 1.0)),
        ]);
    }

    #[test]
    #[should_panic(expected = "value must be positive")]
    fn request_value_must_be_positive() {
        r(1, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn worker_radius_must_be_positive() {
        WorkerSpec::new(
            WorkerId(1),
            PlatformId(0),
            Timestamp::ZERO,
            Point::ORIGIN,
            0.0,
        );
    }

    #[test]
    fn covers_uses_radius() {
        let spec = w(1, 0.0);
        assert!(spec.covers(Point::new(0.5, 0.0)));
        assert!(!spec.covers(Point::new(1.5, 0.0)));
    }
}
