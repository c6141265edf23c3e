//! Uniform-grid spatial index.
//!
//! The online matchers repeatedly ask, for an arriving request `r`, "which
//! idle workers have `r` inside their service circle?" — i.e. a *reverse*
//! range query where each indexed item carries its own radius. A uniform
//! grid is the right structure here: items churn constantly (workers leave
//! the waiting list on assignment and re-enter after service), cities are
//! bounded, and service radii are small and similar (0.5–2.5 km in the
//! paper's Table IV), so a cell size near the maximum radius keeps candidate
//! sets tiny.

use std::collections::{BTreeMap, HashMap};

use crate::{BoundingBox, Km, Point};

/// An item stored in the grid: an opaque `u64` id (the simulator's worker
/// id), its location, and its service radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridEntry {
    pub id: u64,
    pub location: Point,
    pub radius: Km,
}

/// A uniform-grid spatial hash over a bounded region.
///
/// Supports O(1) amortised insert/remove by id and the reverse range
/// query ([`GridIndex::coverers`], [`GridIndex::nearest_coverer`]): the
/// items whose own circle covers a query point (the paper's range
/// constraint, worker-side radius).
///
/// Items whose location falls outside the configured extent are clamped to
/// the boundary cells, so the index never loses items — queries stay exact
/// because the final distance check always uses true coordinates.
///
/// ```
/// use com_geo::{BoundingBox, GridIndex, Point};
///
/// let mut idx = GridIndex::with_expected_radius(BoundingBox::square(10.0), 1.0);
/// idx.insert(1, Point::new(5.0, 5.0), 1.0);   // worker 1, 1 km radius
/// idx.insert(2, Point::new(9.0, 9.0), 0.5);
///
/// // Which workers can serve a request at (5.4, 5.0)?
/// let coverers = idx.coverers(Point::new(5.4, 5.0));
/// assert_eq!(coverers.len(), 1);
/// assert_eq!(coverers[0].id, 1);
///
/// idx.remove(1);
/// assert!(idx.nearest_coverer(Point::new(5.4, 5.0)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    extent: BoundingBox,
    cell_size: Km,
    cols: usize,
    rows: usize,
    /// cell index -> entries in that cell.
    cells: Vec<Vec<GridEntry>>,
    /// id -> cell index; removal scans the (small) cell bucket.
    locations: HashMap<u64, usize>,
    /// Largest radius currently indexed; determines the query ring for
    /// `coverers`.
    max_radius: Km,
    /// Live items per radius, keyed by `f64::to_bits` (monotone for the
    /// non-negative radii we store, so the largest key IS the largest
    /// radius). Lets `max_radius` *shrink* when the last wide-radius item
    /// leaves, instead of every later query scanning a ring sized for a
    /// worker who is long gone.
    radius_counts: BTreeMap<u64, u32>,
    len: usize,
    /// Most items ever indexed at once — what the memory metric charges
    /// the id maps for (see [`GridIndex::approx_bytes`]).
    peak_len: usize,
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

impl GridIndex {
    /// Create an index over `extent` with the given cell size (km).
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive or the extent is
    /// degenerate in a way that yields zero cells.
    pub fn new(extent: BoundingBox, cell_size: Km) -> Self {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell_size must be positive and finite"
        );
        let cols = ((extent.width() / cell_size).ceil() as usize).max(1);
        let rows = ((extent.height() / cell_size).ceil() as usize).max(1);
        GridIndex {
            extent,
            cell_size,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            locations: HashMap::new(),
            max_radius: 0.0,
            radius_counts: BTreeMap::new(),
            len: 0,
            peak_len: 0,
        }
    }

    /// Convenience constructor: pick a cell size close to the expected
    /// service radius (a good default — each `coverers` query then touches
    /// at most ~9 cells).
    pub fn with_expected_radius(extent: BoundingBox, expected_radius: Km) -> Self {
        Self::new(extent, expected_radius.max(0.05))
    }

    /// Number of items currently indexed.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn cell_coords(&self, p: Point) -> (usize, usize) {
        let cx = ((p.x - self.extent.min.x) / self.cell_size).floor();
        let cy = ((p.y - self.extent.min.y) / self.cell_size).floor();
        let cx = (cx.max(0.0) as usize).min(self.cols - 1);
        let cy = (cy.max(0.0) as usize).min(self.rows - 1);
        (cx, cy)
    }

    #[inline]
    fn cell_index(&self, p: Point) -> usize {
        let (cx, cy) = self.cell_coords(p);
        cy * self.cols + cx
    }

    /// Insert an item. Replaces any existing item with the same id.
    pub fn insert(&mut self, id: u64, location: Point, radius: Km) {
        debug_assert!(location.is_finite(), "location must be finite");
        debug_assert!(radius >= 0.0, "radius must be non-negative");
        if self.locations.contains_key(&id) {
            self.remove(id);
        }
        let cell = self.cell_index(location);
        self.cells[cell].push(GridEntry {
            id,
            location,
            radius,
        });
        self.locations.insert(id, cell);
        *self.radius_counts.entry(radius_key(radius)).or_insert(0) += 1;
        self.max_radius = self.max_radius.max(radius);
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    /// Remove an item by id. Returns the entry if it was present.
    ///
    /// When the departing item carried the largest live radius, the query
    /// ring bound shrinks back to the largest *remaining* radius, so
    /// subsequent `coverers`/`nearest_coverer` calls stop scanning cells
    /// only that item could have reached. The covering candidate set is
    /// unaffected either way (the bound is an over-approximation); only
    /// the number of cells scanned changes.
    pub fn remove(&mut self, id: u64) -> Option<GridEntry> {
        let cell = self.locations.remove(&id)?;
        let bucket = &mut self.cells[cell];
        let pos = bucket.iter().position(|e| e.id == id)?;
        let entry = bucket.swap_remove(pos);
        let key = radius_key(entry.radius);
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
        self.len -= 1;
        Some(entry)
    }

    /// The current query-ring bound: the largest radius among live items
    /// (0 when empty).
    #[inline]
    pub fn max_radius(&self) -> Km {
        self.max_radius
    }

    /// Whether an item with this id is present.
    pub fn contains(&self, id: u64) -> bool {
        self.locations.contains_key(&id)
    }

    /// Look up an item by id.
    pub fn get(&self, id: u64) -> Option<GridEntry> {
        let cell = *self.locations.get(&id)?;
        self.cells[cell].iter().find(|e| e.id == id).copied()
    }

    /// Visit every cell whose box intersects the circle `(center, radius)`;
    /// returns the number of cells visited (telemetry).
    fn for_cells_in_circle<F: FnMut(&[GridEntry])>(
        &self,
        center: Point,
        radius: Km,
        mut f: F,
    ) -> usize {
        let r = radius.max(0.0);
        let lo = Point::new(center.x - r, center.y - r);
        let hi = Point::new(center.x + r, center.y + r);
        let (cx0, cy0) = self.cell_coords(lo);
        let (cx1, cy1) = self.cell_coords(hi);
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                f(&self.cells[cy * self.cols + cx]);
            }
        }
        (cy1 - cy0 + 1) * (cx1 - cx0 + 1)
    }

    /// All items whose *own* service circle covers `point` — the worker-side
    /// range constraint. Results are appended to `out` (cleared first) so
    /// hot loops can reuse the buffer.
    pub fn coverers_into(&self, point: Point, out: &mut Vec<GridEntry>) {
        out.clear();
        let cells = self.for_cells_in_circle(point, self.max_radius, |bucket| {
            for e in bucket {
                if e.location.covers(point, e.radius) {
                    out.push(*e);
                }
            }
        });
        com_obs::counter_add("grid.cells_scanned", cells as u64);
        com_obs::counter_add("grid.candidates", out.len() as u64);
    }

    /// Allocating convenience wrapper around [`GridIndex::coverers_into`].
    pub fn coverers(&self, point: Point) -> Vec<GridEntry> {
        let mut out = Vec::new();
        self.coverers_into(point, &mut out);
        out
    }

    /// The nearest item whose own circle covers `point`, if any. Both
    /// DemCOM and the TOTA baseline assign an incoming request to the
    /// *nearest* feasible worker, so this is the hottest query in the
    /// system.
    pub fn nearest_coverer(&self, point: Point) -> Option<GridEntry> {
        let mut best: Option<(f64, GridEntry)> = None;
        let mut candidates = 0u64;
        let cells = self.for_cells_in_circle(point, self.max_radius, |bucket| {
            for e in bucket {
                if e.location.covers(point, e.radius) {
                    candidates += 1;
                    let d = e.location.distance_sq(point);
                    let better = match best {
                        None => true,
                        Some((bd, be)) => d < bd || (d == bd && e.id < be.id),
                    };
                    if better {
                        best = Some((d, *e));
                    }
                }
            }
        });
        com_obs::counter_add("grid.cells_scanned", cells as u64);
        com_obs::counter_add("grid.candidates", candidates);
        best.map(|(_, e)| e)
    }

    /// Iterate over all entries (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &GridEntry> {
        self.cells.iter().flatten()
    }

    /// The most items this index has ever held at once.
    #[inline]
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Approximate heap footprint in bytes (for the memory metric).
    ///
    /// The id map is charged for its high-water length — a map never
    /// shrinks — rather than `HashMap::capacity()`: whether a remove/re-add
    /// churn grows the table depends on the per-map random hash seed, and
    /// the metric must be a function of the operation sequence alone so
    /// two runs of one instance and seed report the same bytes.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let cells: usize = self
            .cells
            .iter()
            .map(|c| c.capacity() * size_of::<GridEntry>())
            .sum();
        cells
            + self.cells.capacity() * size_of::<Vec<GridEntry>>()
            + self.peak_len * (size_of::<u64>() + size_of::<usize>() + 16)
            + self.radius_counts.len() * (size_of::<u64>() + size_of::<u32>() + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_coverers(items: &[GridEntry], p: Point) -> Vec<u64> {
        let mut ids: Vec<u64> = items
            .iter()
            .filter(|e| e.location.covers(p, e.radius))
            .map(|e| e.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut g = GridIndex::new(BoundingBox::square(10.0), 1.0);
        g.insert(1, Point::new(5.0, 5.0), 1.0);
        g.insert(2, Point::new(5.5, 5.0), 0.4);
        g.insert(3, Point::new(9.0, 9.0), 1.0);
        assert_eq!(g.len(), 3);

        let q = Point::new(5.2, 5.0);
        let mut ids: Vec<u64> = g.coverers(q).iter().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);

        assert!(g.remove(2).is_some());
        assert!(!g.contains(2));
        let ids: Vec<u64> = g.coverers(q).iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1]);
        assert!(g.remove(2).is_none());
    }

    #[test]
    fn insert_same_id_replaces() {
        let mut g = GridIndex::new(BoundingBox::square(10.0), 1.0);
        g.insert(7, Point::new(1.0, 1.0), 1.0);
        g.insert(7, Point::new(8.0, 8.0), 1.0);
        assert_eq!(g.len(), 1);
        assert!(g.coverers(Point::new(1.0, 1.0)).is_empty());
        assert_eq!(g.coverers(Point::new(8.0, 8.0)).len(), 1);
        assert_eq!(g.get(7).unwrap().location, Point::new(8.0, 8.0));
    }

    #[test]
    fn nearest_coverer_picks_closest() {
        let mut g = GridIndex::new(BoundingBox::square(10.0), 1.0);
        g.insert(1, Point::new(5.0, 5.0), 2.0);
        g.insert(2, Point::new(6.0, 5.0), 2.0);
        g.insert(3, Point::new(0.0, 0.0), 1.0); // out of range
        let n = g.nearest_coverer(Point::new(5.8, 5.0)).unwrap();
        assert_eq!(n.id, 2);
    }

    #[test]
    fn nearest_coverer_ties_break_by_id() {
        let mut g = GridIndex::new(BoundingBox::square(10.0), 1.0);
        g.insert(9, Point::new(4.0, 5.0), 2.0);
        g.insert(4, Point::new(6.0, 5.0), 2.0);
        let n = g.nearest_coverer(Point::new(5.0, 5.0)).unwrap();
        assert_eq!(n.id, 4);
    }

    #[test]
    fn items_outside_extent_are_still_found() {
        let mut g = GridIndex::new(BoundingBox::square(10.0), 1.0);
        // Clamped into the boundary cell but true coordinates preserved.
        g.insert(1, Point::new(12.0, 12.0), 3.0);
        assert_eq!(g.coverers(Point::new(10.0, 10.0)).len(), 1);
        assert!(g.coverers(Point::new(5.0, 5.0)).is_empty());
    }

    #[test]
    fn max_radius_shrinks_when_wide_items_leave() {
        let mut g = GridIndex::new(BoundingBox::square(10.0), 1.0);
        g.insert(1, Point::new(5.0, 5.0), 0.5);
        g.insert(2, Point::new(1.0, 1.0), 4.0);
        g.insert(3, Point::new(9.0, 9.0), 4.0);
        assert_eq!(g.max_radius(), 4.0);
        g.remove(2);
        assert_eq!(g.max_radius(), 4.0); // one 4.0-radius item still live
        g.remove(3);
        assert_eq!(g.max_radius(), 0.5);
        g.remove(1);
        assert_eq!(g.max_radius(), 0.0);
    }

    #[test]
    fn query_cell_counts_drop_after_wide_worker_leaves() {
        // The cells-scanned telemetry is the observable for ring size:
        // with a 4 km radius item live, a coverers query rings 9x9 cells;
        // once it leaves, the remaining 0.5 km bound rings 3x3. The
        // collector is thread-local, so parallel tests cannot bleed into
        // these counters.
        com_obs::install();
        com_obs::begin_run("grid-shrink-test");
        let mut g = GridIndex::new(BoundingBox::square(20.0), 1.0);
        g.insert(1, Point::new(10.0, 10.0), 0.5);
        g.insert(2, Point::new(3.0, 3.0), 4.0);
        let q = Point::new(10.2, 10.0);

        let cells_at = |label: &str| {
            let t = com_obs::snapshot_run().expect("collector active");
            t.counter("grid.cells_scanned")
                .unwrap_or_else(|| panic!("no cells_scanned counter {label}"))
        };
        let before_query = com_obs::snapshot_run()
            .expect("collector active")
            .counter("grid.cells_scanned")
            .unwrap_or(0);
        assert_eq!(g.coverers(q).len(), 1);
        let wide = cells_at("wide") - before_query;

        g.remove(2);
        let mid = cells_at("mid");
        assert_eq!(g.coverers(q).len(), 1);
        let narrow = cells_at("narrow") - mid;

        assert!(
            narrow < wide,
            "ring did not shrink: {narrow} cells vs {wide} before removal"
        );
        com_obs::end_run();
        com_obs::uninstall();
    }

    #[test]
    fn randomized_against_brute_force() {
        let mut rng = StdRng::seed_from_u64(42);
        let extent = BoundingBox::square(20.0);
        let mut g = GridIndex::new(extent, 1.0);
        let mut items = Vec::new();
        for id in 0..500u64 {
            let p = Point::new(rng.random_range(0.0..20.0), rng.random_range(0.0..20.0));
            let r = rng.random_range(0.0..2.5);
            g.insert(id, p, r);
            items.push(GridEntry {
                id,
                location: p,
                radius: r,
            });
        }
        // Remove a random subset.
        for id in 0..500u64 {
            if rng.random_range(0.0..1.0) < 0.3 {
                g.remove(id);
                items.retain(|e| e.id != id);
            }
        }
        for _ in 0..200 {
            let q = Point::new(rng.random_range(0.0..20.0), rng.random_range(0.0..20.0));
            let mut got: Vec<u64> = g.coverers(q).iter().map(|e| e.id).collect();
            got.sort_unstable();
            assert_eq!(got, brute_coverers(&items, q));

            let nearest = g.nearest_coverer(q).map(|e| e.id);
            let brute_nearest = items
                .iter()
                .filter(|e| e.location.covers(q, e.radius))
                .min_by(|a, b| {
                    a.location
                        .distance_sq(q)
                        .partial_cmp(&b.location.distance_sq(q))
                        .unwrap()
                        .then(a.id.cmp(&b.id))
                })
                .map(|e| e.id);
            assert_eq!(nearest, brute_nearest);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_grid_matches_brute_force(
            points in proptest::collection::vec(
                (0.0..15.0f64, 0.0..15.0f64, 0.0..2.0f64), 1..80),
            qx in 0.0..15.0f64, qy in 0.0..15.0f64,
            cell in 0.3..3.0f64,
        ) {
            let mut g = GridIndex::new(BoundingBox::square(15.0), cell);
            let mut items = Vec::new();
            for (i, (x, y, r)) in points.iter().enumerate() {
                g.insert(i as u64, Point::new(*x, *y), *r);
                items.push(GridEntry { id: i as u64, location: Point::new(*x, *y), radius: *r });
            }
            let q = Point::new(qx, qy);
            let mut got: Vec<u64> = g.coverers(q).iter().map(|e| e.id).collect();
            got.sort_unstable();
            prop_assert_eq!(got, brute_coverers(&items, q));
        }

        #[test]
        fn prop_len_tracks_inserts_and_removes(
            ops in proptest::collection::vec((0u64..20, proptest::bool::ANY), 0..200),
        ) {
            let mut g = GridIndex::new(BoundingBox::square(5.0), 1.0);
            let mut present = std::collections::HashSet::new();
            for (id, is_insert) in ops {
                if is_insert {
                    g.insert(id, Point::new(1.0, 1.0), 0.5);
                    present.insert(id);
                } else {
                    g.remove(id);
                    present.remove(&id);
                }
                prop_assert_eq!(g.len(), present.len());
            }
        }
    }
}
