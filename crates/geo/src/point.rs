//! Planar points in kilometres.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

use crate::Km;

/// A point in a 2-D Euclidean plane, coordinates in kilometres.
///
/// The paper's Definition 2.1/2.2 places every request and worker at a
/// location `l` in 2-D space; the range constraint (Definition 2.6) is the
/// Euclidean distance between those locations.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    pub x: Km,
    pub y: Km,
}

impl Point {
    /// Origin (0, 0).
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Construct a point from kilometre coordinates.
    #[inline]
    pub const fn new(x: Km, y: Km) -> Self {
        Point { x, y }
    }

    /// Squared Euclidean distance to `other` (km²). Preferred in hot paths:
    /// range checks compare against `rad * rad` and skip the square root.
    #[inline]
    pub fn distance_sq(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other` in kilometres.
    #[inline]
    pub fn distance(&self, other: Point) -> Km {
        self.distance_sq(other).sqrt()
    }

    /// Manhattan (L1) distance, occasionally useful as a road-network
    /// surrogate (the paper notes COM generalises to road networks by
    /// reshaping the service region).
    #[inline]
    pub fn manhattan_distance(&self, other: Point) -> Km {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Whether `other` lies within `radius` kilometres of `self`
    /// (inclusive). This is exactly the paper's range constraint with
    /// `self` the worker location and `other` the request location.
    #[inline]
    pub fn covers(&self, other: Point, radius: Km) -> bool {
        self.distance_sq(other) <= radius * radius
    }

    /// Midpoint between two points.
    #[inline]
    pub(crate) fn midpoint(&self, other: Point) -> Point {
        Point::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// True when both coordinates are finite (no NaN/∞). Generators assert
    /// this before points enter the simulator.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    #[inline]
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_basics() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
        assert_eq!(a.manhattan_distance(b), 7.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(-1.5, 2.0);
        let b = Point::new(4.0, -3.25);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn covers_is_inclusive_at_boundary() {
        let w = Point::new(0.0, 0.0);
        let r = Point::new(1.0, 0.0);
        assert!(w.covers(r, 1.0));
        assert!(!w.covers(r, 0.999_999));
    }

    #[test]
    fn covers_matches_example_1_geometry() {
        // Sanity re-creation of the paper's Fig. 3 idea: a worker with a
        // 1 km radius covers a request 0.8 km away but not one 1.3 km away.
        let w = Point::new(2.0, 2.0);
        assert!(w.covers(Point::new(2.8, 2.0), 1.0));
        assert!(!w.covers(Point::new(3.3, 2.0), 1.0));
    }

    #[test]
    fn midpoint_is_halfway() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        assert_eq!(a.midpoint(b), Point::new(1.0, 2.0));
    }

    #[test]
    fn arithmetic_ops() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(b - a, Point::new(2.0, -3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(a / 2.0, Point::new(0.5, 1.0));
    }

    #[test]
    fn finite_detection() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn display_and_conversions() {
        let p = Point::from((1.0, 2.0));
        let (x, y): (f64, f64) = p.into();
        assert_eq!((x, y), (1.0, 2.0));
        assert_eq!(format!("{p}"), "(1.000, 2.000)");
    }

    proptest! {
        #[test]
        fn prop_triangle_inequality(
            ax in -100.0..100.0f64, ay in -100.0..100.0f64,
            bx in -100.0..100.0f64, by in -100.0..100.0f64,
            cx in -100.0..100.0f64, cy in -100.0..100.0f64,
        ) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
        }

        #[test]
        fn prop_distance_nonnegative_and_zero_iff_same(
            ax in -100.0..100.0f64, ay in -100.0..100.0f64,
        ) {
            let a = Point::new(ax, ay);
            prop_assert_eq!(a.distance(a), 0.0);
            prop_assert!(a.distance(Point::new(ax + 1.0, ay)) > 0.0);
        }

        #[test]
        fn prop_covers_consistent_with_distance(
            ax in -50.0..50.0f64, ay in -50.0..50.0f64,
            bx in -50.0..50.0f64, by in -50.0..50.0f64,
            rad in 0.0..10.0f64,
        ) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            prop_assert_eq!(a.covers(b, rad), a.distance(b) <= rad);
        }
    }
}
