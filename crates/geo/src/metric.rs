//! Distance metrics.
//!
//! The paper's model uses Euclidean distance but notes (§II-A) that COM
//! "can be equivalently changed into the shortest path distance in road
//! networks by just changing the service range from circulars to
//! irregular shapes". [`DistanceMetric`] makes the range constraint
//! pluggable: `Manhattan` is the standard grid-road surrogate (the
//! service range becomes a diamond), and every matcher works unchanged
//! because candidate discovery scans the square around the request — it
//! holds the L1 ball, which lies inside the L2 ball of the same radius —
//! and the metric then tests each worker there exactly.

use serde::{Deserialize, Serialize};

use crate::{Km, Point};

/// How distances (and therefore service ranges and travel times) are
/// measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DistanceMetric {
    /// Straight-line distance; circular service ranges (the paper's
    /// base model).
    #[default]
    Euclidean,
    /// L1 distance; diamond service ranges — the usual surrogate for
    /// shortest paths on a grid road network.
    Manhattan,
}

impl DistanceMetric {
    /// Distance between two points under this metric, in km.
    #[inline]
    pub fn distance(&self, a: Point, b: Point) -> Km {
        match self {
            DistanceMetric::Euclidean => a.distance(b),
            DistanceMetric::Manhattan => a.manhattan_distance(b),
        }
    }

    /// Whether `p` lies within `radius` of `center` under this metric.
    #[inline]
    pub fn covers(&self, center: Point, p: Point, radius: Km) -> bool {
        match self {
            DistanceMetric::Euclidean => center.covers(p, radius),
            DistanceMetric::Manhattan => center.manhattan_distance(p) <= radius,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn euclidean_matches_point_methods() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(DistanceMetric::Euclidean.distance(a, b), 5.0);
        assert!(DistanceMetric::Euclidean.covers(a, b, 5.0));
        assert!(!DistanceMetric::Euclidean.covers(a, b, 4.99));
    }

    #[test]
    fn manhattan_is_sum_of_legs() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(DistanceMetric::Manhattan.distance(a, b), 7.0);
        assert!(DistanceMetric::Manhattan.covers(a, b, 7.0));
        assert!(!DistanceMetric::Manhattan.covers(a, b, 6.99));
    }

    #[test]
    fn manhattan_range_is_a_diamond() {
        let c = Point::ORIGIN;
        // Axis points at distance r are covered…
        assert!(DistanceMetric::Manhattan.covers(c, Point::new(1.0, 0.0), 1.0));
        assert!(DistanceMetric::Manhattan.covers(c, Point::new(0.0, -1.0), 1.0));
        // …but the Euclidean-circle corner is not.
        let corner = Point::new(0.8, 0.8); // L2 ≈ 1.13, L1 = 1.6
        assert!(!DistanceMetric::Manhattan.covers(c, corner, 1.0));
        assert!(DistanceMetric::Euclidean.covers(c, corner, 1.2));
    }

    proptest! {
        #[test]
        fn prop_l1_ball_inside_l2_ball(
            ax in -20.0..20.0f64, ay in -20.0..20.0f64,
            bx in -20.0..20.0f64, by in -20.0..20.0f64,
            rad in 0.0..10.0f64,
        ) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            // Anything the Manhattan range covers, the Euclidean range of
            // the same radius also covers, so both fit the square a
            // waiting-list query scans.
            if DistanceMetric::Manhattan.covers(a, b, rad) {
                prop_assert!(DistanceMetric::Euclidean.covers(a, b, rad + 1e-12));
            }
        }

        #[test]
        fn prop_metric_distances_ordered(
            ax in -20.0..20.0f64, ay in -20.0..20.0f64,
            bx in -20.0..20.0f64, by in -20.0..20.0f64,
        ) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let l2 = DistanceMetric::Euclidean.distance(a, b);
            let l1 = DistanceMetric::Manhattan.distance(a, b);
            prop_assert!(l1 >= l2 - 1e-12);
            prop_assert!(l1 <= l2 * 2.0f64.sqrt() + 1e-9);
        }
    }
}
