//! Per-platform waiting lists of idle workers.
//!
//! "When a worker arrives at the platform, s/he will wait in a waiting
//! list until a request is assigned. … Each platform maintains a waiting
//! list of workers, ordered by their arrival time. A worker being assigned
//! to a request would be deleted from the waiting list." (Section II-A)
//!
//! The list couples an arrival-order map with a spatial grid index so the
//! matchers can answer "which idle workers cover this request?" without a
//! linear scan.

use std::collections::HashMap;

use com_geo::{BoundingBox, DistanceMetric, GridEntry, GridIndex, Km, Point};
use com_stream::{Timestamp, WorkerId};

/// An idle worker as seen by the matcher: everything needed to apply the
/// range constraint and the nearest-worker tie-break.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleWorker {
    pub id: WorkerId,
    pub location: Point,
    pub radius: Km,
    /// When the worker (re-)entered this waiting list.
    pub entered_at: Timestamp,
}

/// The waiting list of one platform.
#[derive(Debug, Clone)]
pub struct WaitingList {
    index: GridIndex,
    entries: HashMap<WorkerId, IdleWorker>,
    metric: DistanceMetric,
}

impl WaitingList {
    /// An empty waiting list over the given city extent; `expected_radius`
    /// tunes the grid cell size.
    pub fn new(extent: BoundingBox, expected_radius: Km) -> Self {
        Self::with_metric(extent, expected_radius, DistanceMetric::Euclidean)
    }

    /// A waiting list whose range constraint uses `metric` (the grid
    /// index prunes with Euclidean balls — a superset of any metric ball
    /// with the same radius — and the metric filters exactly).
    pub fn with_metric(extent: BoundingBox, expected_radius: Km, metric: DistanceMetric) -> Self {
        WaitingList {
            index: GridIndex::with_expected_radius(extent, expected_radius),
            entries: HashMap::new(),
            metric,
        }
    }

    /// Number of idle workers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `id` is currently waiting.
    pub fn contains(&self, id: WorkerId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Add a worker (arrival or re-entry).
    ///
    /// # Panics
    /// Panics in debug builds if the worker is already waiting (the 1-by-1
    /// constraint makes double-insertion a logic error).
    pub fn add(&mut self, worker: IdleWorker) {
        debug_assert!(
            !self.entries.contains_key(&worker.id),
            "worker {} already in waiting list",
            worker.id
        );
        self.index
            .insert(worker.id.as_u64(), worker.location, worker.radius);
        self.entries.insert(worker.id, worker);
    }

    /// Remove a worker (assignment or departure). Returns the entry if it
    /// was present.
    pub fn remove(&mut self, id: WorkerId) -> Option<IdleWorker> {
        let entry = self.entries.remove(&id)?;
        self.index.remove(id.as_u64());
        Some(entry)
    }

    /// Look up one idle worker.
    pub fn get(&self, id: WorkerId) -> Option<&IdleWorker> {
        self.entries.get(&id)
    }

    /// All idle workers whose service range covers `point` under the
    /// list's metric, sorted by (metric distance, id) — deterministic
    /// and nearest-first, which is the assignment order DemCOM and TOTA
    /// use.
    pub fn coverers(&self, point: Point) -> Vec<IdleWorker> {
        let mut out = Vec::new();
        let mut grid_buf = Vec::new();
        self.coverers_into(point, &mut out, &mut grid_buf);
        out
    }

    /// Allocation-free `coverers`: results land in `out` (cleared first,
    /// same nearest-first order), and `grid_buf` is the reusable scratch
    /// for the underlying grid query. Matchers call this once per decision
    /// with buffers they own, so the hot path stops allocating two Vecs
    /// per request.
    pub fn coverers_into(
        &self,
        point: Point,
        out: &mut Vec<IdleWorker>,
        grid_buf: &mut Vec<GridEntry>,
    ) {
        out.clear();
        self.coverers_each(point, grid_buf, |w| out.push(w));
        out.sort_by(|a, b| {
            self.metric
                .distance(a.location, point)
                .total_cmp(&self.metric.distance(b.location, point))
                .then_with(|| a.id.cmp(&b.id))
        });
    }

    /// Visit every coverer of `point` in *unspecified* order, without
    /// sorting. `World::outer_coverers_into` merges several lists and
    /// sorts once globally — the (distance, id) key is total (worker ids
    /// are globally unique), so skipping the per-list sort cannot change
    /// the merged order.
    pub fn coverers_each(
        &self,
        point: Point,
        grid_buf: &mut Vec<GridEntry>,
        mut f: impl FnMut(IdleWorker),
    ) {
        self.index.coverers_into(point, grid_buf);
        for e in grid_buf.iter() {
            let w = self.entries[&WorkerId(e.id)];
            if self.metric.covers(w.location, point, w.radius) {
                f(w);
            }
        }
    }

    /// The nearest idle worker covering `point` under the list's metric,
    /// if any.
    pub fn nearest_coverer(&self, point: Point) -> Option<IdleWorker> {
        match self.metric {
            // The grid answers the Euclidean case directly.
            DistanceMetric::Euclidean => self
                .index
                .nearest_coverer(point)
                .map(|e| self.entries[&WorkerId(e.id)]),
            _ => self.coverers(point).into_iter().next(),
        }
    }

    /// Iterate over all idle workers (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &IdleWorker> {
        self.entries.values()
    }

    /// Approximate heap footprint in bytes (memory metric). `entries`
    /// mirrors the index id for id, so it is charged for the same
    /// high-water length ([`GridIndex::approx_bytes`] says why not
    /// `capacity()`).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.index.approx_bytes()
            + self.index.peak_len() * (size_of::<WorkerId>() + size_of::<IdleWorker>() + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list() -> WaitingList {
        WaitingList::new(BoundingBox::square(10.0), 1.0)
    }

    fn idle(id: u64, x: f64, y: f64, rad: f64, t: f64) -> IdleWorker {
        IdleWorker {
            id: WorkerId(id),
            location: Point::new(x, y),
            radius: rad,
            entered_at: Timestamp::from_secs(t),
        }
    }

    #[test]
    fn add_query_remove() {
        let mut wl = list();
        wl.add(idle(1, 5.0, 5.0, 1.0, 0.0));
        wl.add(idle(2, 5.5, 5.0, 1.0, 1.0));
        wl.add(idle(3, 9.0, 9.0, 1.0, 2.0));
        assert_eq!(wl.len(), 3);
        assert!(wl.contains(WorkerId(1)));

        let c = wl.coverers(Point::new(5.2, 5.0));
        assert_eq!(
            c.iter().map(|w| w.id).collect::<Vec<_>>(),
            vec![WorkerId(1), WorkerId(2)]
        );

        let removed = wl.remove(WorkerId(1)).unwrap();
        assert_eq!(removed.id, WorkerId(1));
        assert!(!wl.contains(WorkerId(1)));
        assert_eq!(wl.coverers(Point::new(5.2, 5.0)).len(), 1);
        assert!(wl.remove(WorkerId(1)).is_none());
    }

    #[test]
    fn coverers_sorted_nearest_first() {
        let mut wl = list();
        wl.add(idle(1, 5.0, 5.0, 3.0, 0.0));
        wl.add(idle(2, 6.0, 5.0, 3.0, 0.0));
        wl.add(idle(3, 4.5, 5.0, 3.0, 0.0));
        let c = wl.coverers(Point::new(6.1, 5.0));
        let ids: Vec<u64> = c.iter().map(|w| w.id.as_u64()).collect();
        assert_eq!(ids, vec![2, 1, 3]);
    }

    #[test]
    fn nearest_coverer_matches_sorted_head() {
        let mut wl = list();
        wl.add(idle(1, 2.0, 2.0, 2.0, 0.0));
        wl.add(idle(2, 3.0, 2.0, 2.0, 0.0));
        let q = Point::new(2.8, 2.0);
        assert_eq!(wl.nearest_coverer(q).unwrap().id, wl.coverers(q)[0].id);
    }

    #[test]
    fn empty_queries() {
        let wl = list();
        assert!(wl.is_empty());
        assert!(wl.coverers(Point::new(1.0, 1.0)).is_empty());
        assert!(wl.nearest_coverer(Point::new(1.0, 1.0)).is_none());
    }

    #[test]
    #[should_panic(expected = "already in waiting list")]
    #[cfg(debug_assertions)]
    fn double_add_is_a_logic_error() {
        let mut wl = list();
        wl.add(idle(1, 1.0, 1.0, 1.0, 0.0));
        wl.add(idle(1, 2.0, 2.0, 1.0, 1.0));
    }
}
