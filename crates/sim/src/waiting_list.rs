//! Per-platform waiting lists of idle workers.
//!
//! "When a worker arrives at the platform, s/he will wait in a waiting
//! list until a request is assigned. … Each platform maintains a waiting
//! list of workers, ordered by their arrival time. A worker being assigned
//! to a request would be deleted from the waiting list." (Section II-A)
//!
//! The list *is* a uniform spatial grid over the city extent, and holds
//! each idle worker once: in the cell its location falls in, found by one
//! id → cell map. Matchers ask a reverse range query — which idle workers
//! have the request inside their *own* service range? — so a query scans
//! the ring of cells within the largest live radius of the request and
//! tests each worker there once against the list's metric. Cells are one
//! expected radius wide, which keeps that ring near 3 × 3 cells while
//! workers churn in and out.
//!
//! The grid costs one `Vec` per cell, so a served world is sized before it
//! is built: `com-serve` refuses a `hello` whose waiting lists would hold
//! more than 65,536 cells in all, counted with [`grid_shape`].

use std::collections::{BTreeMap, HashMap};

use crate::{Timestamp, WorkerId};
use com_geo::{BoundingBox, DistanceMetric, Km, Point};

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

/// Side of a grid cell: the expected radius, but at least 50 m.
fn cell_size(expected_radius: Km) -> Km {
    expected_radius.max(0.05)
}

/// The `(columns, rows)` of the grid a waiting list lays over `extent`:
/// square cells `expected_radius` wide (at least 50 m), at least one each
/// way. In `f64`, so counting the cells of a hostile extent cannot
/// overflow.
pub fn grid_shape(extent: BoundingBox, expected_radius: Km) -> (f64, f64) {
    let cell = cell_size(expected_radius);
    (
        (extent.width() / cell).ceil().max(1.0),
        (extent.height() / cell).ceil().max(1.0),
    )
}

/// The waiting list of one platform.
///
/// ```
/// use com_geo::{BoundingBox, Point};
/// use com_sim::{IdleWorker, Timestamp, WaitingList, WorkerId};
///
/// let mut list = WaitingList::new(BoundingBox::square(10.0), 1.0);
/// let idle = |id, x, y, radius| IdleWorker {
///     id: WorkerId(id),
///     location: Point::new(x, y),
///     radius,
///     entered_at: Timestamp::ZERO,
/// };
/// list.add(idle(1, 5.0, 5.0, 1.0)); // worker 1, 1 km radius
/// list.add(idle(2, 9.0, 9.0, 0.5));
///
/// // Which workers can serve a request at (5.4, 5.0)?
/// let mut coverers = Vec::new();
/// list.coverers_into(Point::new(5.4, 5.0), &mut coverers);
/// assert_eq!(coverers.len(), 1);
/// assert_eq!(coverers[0].id, WorkerId(1));
///
/// list.remove(WorkerId(1));
/// assert!(list.nearest_coverer(Point::new(5.4, 5.0)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct WaitingList {
    extent: BoundingBox,
    cell_size: Km,
    cols: usize,
    rows: usize,
    /// cell index → the idle workers located in it. A worker outside the
    /// extent is clamped into a boundary cell; queries stay exact because
    /// the coverage test uses its true location.
    cells: Vec<Vec<IdleWorker>>,
    /// worker → cell index; removal scans that (small) cell.
    cell_of: HashMap<WorkerId, usize>,
    /// Largest live radius: the query ring's half-width.
    max_radius: Km,
    /// Live workers per radius, keyed by `f64::to_bits` (monotone for the
    /// non-negative radii stored, so the largest key IS the largest
    /// radius). Lets `max_radius` *shrink* when the last wide-radius worker
    /// leaves, instead of every later query scanning a ring sized for a
    /// worker who is long gone.
    radius_counts: BTreeMap<u64, u32>,
    /// Most workers ever waiting at once — what the memory metric charges
    /// the id map for (see [`WaitingList::approx_bytes`]).
    peak_len: usize,
    metric: DistanceMetric,
}

/// Key for `radius_counts`: non-negative finite bits order like the floats
/// themselves. Negative zero (and any junk that slips through the
/// debug-only assertions) is normalised so the bit order stays monotone.
#[inline]
fn radius_key(radius: Km) -> u64 {
    if radius > 0.0 {
        radius.to_bits()
    } else {
        0
    }
}

impl WaitingList {
    /// An empty waiting list over the given city extent; `expected_radius`
    /// sets the grid cell size.
    ///
    /// # Panics
    /// Panics if `expected_radius` is infinite.
    pub fn new(extent: BoundingBox, expected_radius: Km) -> Self {
        Self::with_metric(extent, expected_radius, DistanceMetric::Euclidean)
    }

    /// A waiting list whose range constraint uses `metric`. The query ring
    /// is the square around the request, which holds any service range of
    /// the same radius under either metric.
    pub fn with_metric(extent: BoundingBox, expected_radius: Km, metric: DistanceMetric) -> Self {
        let cell_size = cell_size(expected_radius);
        assert!(cell_size.is_finite(), "expected_radius must be finite");
        let (cols, rows) = grid_shape(extent, expected_radius);
        let (cols, rows) = (cols as usize, rows as usize);
        WaitingList {
            extent,
            cell_size,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            cell_of: HashMap::new(),
            max_radius: 0.0,
            radius_counts: BTreeMap::new(),
            peak_len: 0,
            metric,
        }
    }

    /// Number of idle workers.
    pub(crate) fn len(&self) -> usize {
        self.cell_of.len()
    }

    #[inline]
    fn cell_coords(&self, p: Point) -> (usize, usize) {
        let cx = ((p.x - self.extent.min.x) / self.cell_size).floor();
        let cy = ((p.y - self.extent.min.y) / self.cell_size).floor();
        let cx = (cx.max(0.0) as usize).min(self.cols - 1);
        let cy = (cy.max(0.0) as usize).min(self.rows - 1);
        (cx, cy)
    }

    /// Add a worker (arrival or re-entry).
    ///
    /// # Panics
    /// Panics in debug builds if the worker is already waiting (the 1-by-1
    /// constraint makes double-insertion a logic error).
    pub fn add(&mut self, worker: IdleWorker) {
        debug_assert!(
            !self.cell_of.contains_key(&worker.id),
            "worker {} already in waiting list",
            worker.id
        );
        debug_assert!(worker.location.is_finite(), "location must be finite");
        debug_assert!(worker.radius >= 0.0, "radius must be non-negative");
        let (cx, cy) = self.cell_coords(worker.location);
        let cell = cy * self.cols + cx;
        self.cells[cell].push(worker);
        self.cell_of.insert(worker.id, cell);
        *self
            .radius_counts
            .entry(radius_key(worker.radius))
            .or_insert(0) += 1;
        self.max_radius = self.max_radius.max(worker.radius);
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Remove a worker (assignment or departure). Returns the entry if it
    /// was present.
    ///
    /// When the departing worker carried the largest live radius, the
    /// query ring shrinks back to the largest *remaining* radius. The
    /// covering set is unaffected either way (the ring over-approximates
    /// it); only the number of cells scanned changes.
    pub fn remove(&mut self, id: WorkerId) -> Option<IdleWorker> {
        let cell = self.cell_of.remove(&id)?;
        let bucket = &mut self.cells[cell];
        let pos = bucket
            .iter()
            .position(|w| w.id == id)
            .expect("cell_of names the worker's cell");
        let worker = bucket.swap_remove(pos);
        let key = radius_key(worker.radius);
        if let Some(count) = self.radius_counts.get_mut(&key) {
            *count -= 1;
            if *count == 0 {
                self.radius_counts.remove(&key);
            }
        }
        self.max_radius = self
            .radius_counts
            .last_key_value()
            .map(|(&bits, _)| f64::from_bits(bits))
            .unwrap_or(0.0);
        Some(worker)
    }

    /// Look up one idle worker.
    pub(crate) fn get(&self, id: WorkerId) -> Option<&IdleWorker> {
        let cell = *self.cell_of.get(&id)?;
        self.cells[cell].iter().find(|w| w.id == id)
    }

    /// All idle workers whose service range covers `point` under the
    /// list's metric, into `out` (cleared first), sorted by (metric
    /// distance, id) — deterministic and nearest-first. Matchers call
    /// this once per decision with a buffer they own.
    pub fn coverers_into(&self, point: Point, out: &mut Vec<IdleWorker>) {
        out.clear();
        self.coverers_each(point, |w| out.push(w));
        out.sort_by(|a, b| {
            self.metric
                .distance(a.location, point)
                .total_cmp(&self.metric.distance(b.location, point))
                .then_with(|| a.id.cmp(&b.id))
        });
    }

    /// Visit every coverer of `point` in cell order, without sorting: the
    /// ring's cells row by row, each cell's workers as stored.
    /// `World::outer_coverers_into` merges several lists and sorts once
    /// globally — the (distance, id) key is total (worker ids are globally
    /// unique), so skipping the per-list sort cannot change the merged
    /// order.
    ///
    /// Counts `grid.cells_scanned`, `grid.entries_scanned` (every worker
    /// in those cells) and `grid.candidates` (the coverers) for the
    /// telemetry collector.
    pub fn coverers_each(&self, point: Point, mut f: impl FnMut(IdleWorker)) {
        let r = self.max_radius;
        let (cx0, cy0) = self.cell_coords(Point::new(point.x - r, point.y - r));
        let (cx1, cy1) = self.cell_coords(Point::new(point.x + r, point.y + r));
        let (mut entries, mut candidates) = (0, 0);
        for cy in cy0..=cy1 {
            for bucket in &self.cells[cy * self.cols + cx0..=cy * self.cols + cx1] {
                entries += bucket.len();
                for w in bucket {
                    if self.metric.covers(w.location, point, w.radius) {
                        candidates += 1;
                        f(*w);
                    }
                }
            }
        }
        let cells = (cy1 - cy0 + 1) * (cx1 - cx0 + 1);
        com_obs::counter_add("grid.cells_scanned", cells as u64);
        com_obs::counter_add("grid.entries_scanned", entries as u64);
        com_obs::counter_add("grid.candidates", candidates);
    }

    /// The nearest idle worker covering `point` under the list's metric,
    /// if any, ties broken by id. Euclidean compares squared distances,
    /// which skips the square root.
    pub fn nearest_coverer(&self, point: Point) -> Option<IdleWorker> {
        let key = |w: &IdleWorker| match self.metric {
            DistanceMetric::Euclidean => w.location.distance_sq(point),
            DistanceMetric::Manhattan => w.location.manhattan_distance(point),
        };
        let mut best: Option<(f64, IdleWorker)> = None;
        self.coverers_each(point, |w| {
            let d = key(&w);
            let better = match best {
                None => true,
                Some((bd, bw)) => d < bd || (d == bd && w.id < bw.id),
            };
            if better {
                best = Some((d, w));
            }
        });
        best.map(|(_, w)| w)
    }

    /// The query ring's current half-width: the largest live radius (0
    /// when empty).
    #[cfg(test)]
    pub(crate) fn max_radius(&self) -> Km {
        self.max_radius
    }

    /// Approximate heap footprint in bytes (memory metric).
    ///
    /// The id map is charged for its high-water length — a map never
    /// shrinks — rather than `HashMap::capacity()`: whether a remove/re-add
    /// churn grows the table depends on the per-map random hash seed, and
    /// the metric must be a function of the operation sequence alone so
    /// two runs of one instance and seed report the same bytes.
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let cells: usize = self
            .cells
            .iter()
            .map(|c| c.capacity() * size_of::<IdleWorker>())
            .sum();
        cells
            + self.cells.capacity() * size_of::<Vec<IdleWorker>>()
            + self.peak_len * (size_of::<WorkerId>() + size_of::<usize>() + 16)
            + self.radius_counts.len() * (size_of::<u64>() + size_of::<u32>() + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covering(wl: &WaitingList, point: Point) -> Vec<IdleWorker> {
        let mut out = Vec::new();
        wl.coverers_into(point, &mut out);
        out
    }

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
        assert_eq!(wl.get(WorkerId(2)), Some(&idle(2, 5.5, 5.0, 1.0, 1.0)));

        let c = covering(&wl, Point::new(5.2, 5.0));
        assert_eq!(
            c.iter().map(|w| w.id).collect::<Vec<_>>(),
            vec![WorkerId(1), WorkerId(2)]
        );

        let removed = wl.remove(WorkerId(1)).unwrap();
        assert_eq!(removed.id, WorkerId(1));
        assert!(wl.get(WorkerId(1)).is_none());
        assert_eq!(covering(&wl, Point::new(5.2, 5.0)).len(), 1);
        assert!(wl.remove(WorkerId(1)).is_none());
    }

    #[test]
    fn coverers_sorted_nearest_first() {
        let mut wl = list();
        wl.add(idle(1, 5.0, 5.0, 3.0, 0.0));
        wl.add(idle(2, 6.0, 5.0, 3.0, 0.0));
        wl.add(idle(3, 4.5, 5.0, 3.0, 0.0));
        let c = covering(&wl, Point::new(6.1, 5.0));
        let ids: Vec<u64> = c.iter().map(|w| w.id.as_u64()).collect();
        assert_eq!(ids, vec![2, 1, 3]);
    }

    #[test]
    fn nearest_coverer_matches_sorted_head() {
        let mut wl = list();
        wl.add(idle(1, 2.0, 2.0, 2.0, 0.0));
        wl.add(idle(2, 3.0, 2.0, 2.0, 0.0));
        let q = Point::new(2.8, 2.0);
        assert_eq!(wl.nearest_coverer(q).unwrap().id, covering(&wl, q)[0].id);
    }

    #[test]
    fn empty_queries() {
        let wl = list();
        assert_eq!(wl.len(), 0);
        assert!(covering(&wl, Point::new(1.0, 1.0)).is_empty());
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
