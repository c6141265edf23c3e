//! Grid tests of [`WaitingList`](crate::WaitingList): the cell ring,
//! boundary clamping, the shrinking query bound, and agreement with brute
//! force under add/remove churn for both metrics. They keep the
//! `grid::tests` names they had when the grid was an index of its own.

#[cfg(test)]
mod tests {
    use crate::{IdleWorker, Timestamp, WaitingList, WorkerId};
    use com_geo::{BoundingBox, DistanceMetric, Point};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Worker `id` at `(x, y)`; it entered the list at `id` seconds, so
    /// every `get` can check the `entered_at` that `add` stored.
    fn idle(id: u64, x: f64, y: f64, radius: f64) -> IdleWorker {
        IdleWorker {
            id: WorkerId(id),
            location: Point::new(x, y),
            radius,
            entered_at: Timestamp::from_secs(id as f64),
        }
    }

    fn covering(g: &WaitingList, point: Point) -> Vec<IdleWorker> {
        let mut out = Vec::new();
        g.coverers_into(point, &mut out);
        out
    }

    fn ids(workers: &[IdleWorker]) -> Vec<u64> {
        workers.iter().map(|w| w.id.as_u64()).collect()
    }

    /// The coverers of `p` by scanning every item: the full
    /// (metric distance, id) order the list must reproduce.
    fn brute_coverers(items: &[IdleWorker], metric: DistanceMetric, p: Point) -> Vec<IdleWorker> {
        let mut out: Vec<IdleWorker> = items
            .iter()
            .filter(|w| metric.covers(w.location, p, w.radius))
            .copied()
            .collect();
        out.sort_by(|a, b| {
            metric
                .distance(a.location, p)
                .total_cmp(&metric.distance(b.location, p))
                .then(a.id.cmp(&b.id))
        });
        out
    }

    /// The brute-force nearest coverer, keyed as `nearest_coverer` keys
    /// it: squared distance for Euclidean, L1 for Manhattan, then id.
    fn brute_nearest(items: &[IdleWorker], metric: DistanceMetric, p: Point) -> Option<IdleWorker> {
        let key = |w: &IdleWorker| match metric {
            DistanceMetric::Euclidean => w.location.distance_sq(p),
            DistanceMetric::Manhattan => w.location.manhattan_distance(p),
        };
        items
            .iter()
            .filter(|w| metric.covers(w.location, p, w.radius))
            .min_by(|a, b| key(a).total_cmp(&key(b)).then(a.id.cmp(&b.id)))
            .copied()
    }

    /// Everything one query must agree on with brute force, plus `get`
    /// for every live item.
    fn check(g: &WaitingList, items: &[IdleWorker], metric: DistanceMetric, q: Point) {
        assert_eq!(
            covering(g, q),
            brute_coverers(items, metric, q),
            "{metric:?} at {q}"
        );
        assert_eq!(g.nearest_coverer(q), brute_nearest(items, metric, q));
        assert_eq!(g.len(), items.len());
        for w in items {
            assert_eq!(g.get(w.id), Some(w));
        }
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut g = WaitingList::new(BoundingBox::square(10.0), 1.0);
        g.add(idle(1, 5.0, 5.0, 1.0));
        g.add(idle(2, 5.5, 5.0, 0.4));
        g.add(idle(3, 9.0, 9.0, 1.0));
        assert_eq!(g.len(), 3);

        let q = Point::new(5.2, 5.0);
        assert_eq!(ids(&covering(&g, q)), vec![1, 2]);

        assert!(g.remove(WorkerId(2)).is_some());
        assert!(g.get(WorkerId(2)).is_none());
        assert_eq!(ids(&covering(&g, q)), vec![1]);
        assert!(g.remove(WorkerId(2)).is_none());
    }

    #[test]
    fn nearest_coverer_picks_closest() {
        let mut g = WaitingList::new(BoundingBox::square(10.0), 1.0);
        g.add(idle(1, 5.0, 5.0, 2.0));
        g.add(idle(2, 6.0, 5.0, 2.0));
        g.add(idle(3, 0.0, 0.0, 1.0)); // out of range
        let n = g.nearest_coverer(Point::new(5.8, 5.0)).unwrap();
        assert_eq!(n.id, WorkerId(2));
    }

    #[test]
    fn nearest_coverer_ties_break_by_id() {
        let mut g = WaitingList::new(BoundingBox::square(10.0), 1.0);
        g.add(idle(9, 4.0, 5.0, 2.0));
        g.add(idle(4, 6.0, 5.0, 2.0));
        let n = g.nearest_coverer(Point::new(5.0, 5.0)).unwrap();
        assert_eq!(n.id, WorkerId(4));
    }

    #[test]
    fn items_outside_extent_are_still_found() {
        let mut g = WaitingList::new(BoundingBox::square(10.0), 1.0);
        // Clamped into the boundary cell but true coordinates preserved.
        g.add(idle(1, 12.0, 12.0, 3.0));
        assert_eq!(covering(&g, Point::new(10.0, 10.0)).len(), 1);
        assert!(covering(&g, Point::new(5.0, 5.0)).is_empty());
    }

    #[test]
    fn max_radius_shrinks_when_wide_items_leave() {
        let mut g = WaitingList::new(BoundingBox::square(10.0), 1.0);
        g.add(idle(1, 5.0, 5.0, 0.5));
        g.add(idle(2, 1.0, 1.0, 4.0));
        g.add(idle(3, 9.0, 9.0, 4.0));
        assert_eq!(g.max_radius(), 4.0);
        g.remove(WorkerId(2));
        assert_eq!(g.max_radius(), 4.0); // one 4.0-radius item still live
        g.remove(WorkerId(3));
        assert_eq!(g.max_radius(), 0.5);
        g.remove(WorkerId(1));
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
        let mut g = WaitingList::new(BoundingBox::square(20.0), 1.0);
        g.add(idle(1, 10.0, 10.0, 0.5));
        g.add(idle(2, 3.0, 3.0, 4.0));
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
        assert_eq!(covering(&g, q).len(), 1);
        let wide = cells_at("wide") - before_query;

        g.remove(WorkerId(2));
        let mid = cells_at("mid");
        assert_eq!(covering(&g, q).len(), 1);
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
        for metric in [DistanceMetric::Euclidean, DistanceMetric::Manhattan] {
            let mut g = WaitingList::with_metric(BoundingBox::square(20.0), 1.0, metric);
            let mut items: Vec<IdleWorker> = Vec::new();
            for step in 0..2_000 {
                // Churn: a random id leaves if waiting, else (re-)enters
                // somewhere new.
                let id = rng.random_range(0..300u64);
                if let Some(pos) = items.iter().position(|w| w.id == WorkerId(id)) {
                    assert_eq!(g.remove(WorkerId(id)), Some(items.swap_remove(pos)));
                } else {
                    let x = rng.random_range(0.0..20.0);
                    let y = rng.random_range(0.0..20.0);
                    let w = idle(id, x, y, rng.random_range(0.0..2.5));
                    g.add(w);
                    items.push(w);
                }
                if step % 10 == 0 {
                    let q = Point::new(rng.random_range(0.0..20.0), rng.random_range(0.0..20.0));
                    check(&g, &items, metric, q);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_grid_matches_brute_force(
            points in proptest::collection::vec(
                (0.0..15.0f64, 0.0..15.0f64, 0.0..2.0f64, proptest::bool::ANY), 1..80),
            qx in 0.0..15.0f64, qy in 0.0..15.0f64,
            cell in 0.3..3.0f64,
            manhattan in proptest::bool::ANY,
        ) {
            let metric = if manhattan {
                DistanceMetric::Manhattan
            } else {
                DistanceMetric::Euclidean
            };
            let mut g = WaitingList::with_metric(BoundingBox::square(15.0), cell, metric);
            let mut items = Vec::new();
            // Every item enters; the flagged ones leave again once all are
            // in, so the buckets have been swap-removed from.
            for (i, (x, y, r, _)) in points.iter().enumerate() {
                let w = idle(i as u64, *x, *y, *r);
                g.add(w);
                items.push(w);
            }
            for (i, (_, _, _, leaves)) in points.iter().enumerate() {
                if *leaves {
                    prop_assert!(g.remove(WorkerId(i as u64)).is_some());
                    items.retain(|w| w.id != WorkerId(i as u64));
                }
            }
            let q = Point::new(qx, qy);
            prop_assert_eq!(covering(&g, q), brute_coverers(&items, metric, q));
            prop_assert_eq!(g.nearest_coverer(q), brute_nearest(&items, metric, q));
            for w in &items {
                prop_assert_eq!(g.get(w.id), Some(w));
            }
        }

        #[test]
        fn prop_len_tracks_inserts_and_removes(
            ops in proptest::collection::vec((0u64..20, proptest::bool::ANY), 0..200),
        ) {
            let mut g = WaitingList::new(BoundingBox::square(5.0), 1.0);
            let mut present = std::collections::HashSet::new();
            for (id, is_insert) in ops {
                if is_insert {
                    if present.insert(id) {
                        g.add(idle(id, 1.0, 1.0, 0.5));
                    }
                } else {
                    prop_assert_eq!(g.remove(WorkerId(id)).is_some(), present.remove(&id));
                }
                prop_assert_eq!(g.len(), present.len());
            }
        }
    }
}
