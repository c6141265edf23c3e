//! Axis-aligned bounding boxes (city regions, waiting-list extents).

use serde::{Deserialize, Serialize};

use crate::{Km, Point};

/// An axis-aligned rectangle in the planar kilometre space.
///
/// Used for the city region a scenario is generated over and as the extent
/// of a waiting list's grid. A box is *valid* when `min.x <= max.x` and
/// `min.y <= max.y`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    pub min: Point,
    pub max: Point,
}

impl BoundingBox {
    /// Build a box from two corner points; the corners may be given in any
    /// order.
    pub fn from_corners(a: Point, b: Point) -> Self {
        BoundingBox {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// A square box `[0, side] × [0, side]` — the shape every synthetic
    /// scenario in the evaluation uses.
    pub fn square(side: Km) -> Self {
        assert!(side >= 0.0, "side must be non-negative");
        BoundingBox {
            min: Point::ORIGIN,
            max: Point::new(side, side),
        }
    }

    /// Width along x (km).
    #[inline]
    pub fn width(&self) -> Km {
        self.max.x - self.min.x
    }

    /// Height along y (km).
    #[inline]
    pub fn height(&self) -> Km {
        self.max.y - self.min.y
    }

    /// Area in km².
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre of the box.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Whether `p` lies inside the box (inclusive on all edges).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamp `p` to the closest point inside the box.
    #[inline]
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Grow the box by `margin` km on every side.
    pub fn expanded(&self, margin: Km) -> BoundingBox {
        BoundingBox {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// Smallest box containing both `self` and `other`.
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        BoundingBox {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Whether the circle `(center, radius)` intersects the box.
    pub fn intersects_circle(&self, center: Point, radius: Km) -> bool {
        let closest = self.clamp(center);
        closest.distance_sq(center) <= radius * radius
    }

    /// Smallest box enclosing all points in the iterator, or `None` when
    /// the iterator is empty.
    pub fn enclosing<I: IntoIterator<Item = Point>>(points: I) -> Option<BoundingBox> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut bb = BoundingBox {
            min: first,
            max: first,
        };
        for p in it {
            bb.min.x = bb.min.x.min(p.x);
            bb.min.y = bb.min.y.min(p.y);
            bb.max.x = bb.max.x.max(p.x);
            bb.max.y = bb.max.y.max(p.y);
        }
        Some(bb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn square_box() {
        let bb = BoundingBox::square(30.0);
        assert_eq!(bb.width(), 30.0);
        assert_eq!(bb.height(), 30.0);
        assert_eq!(bb.area(), 900.0);
        assert_eq!(bb.center(), Point::new(15.0, 15.0));
    }

    #[test]
    fn from_corners_normalises_order() {
        let bb = BoundingBox::from_corners(Point::new(5.0, -1.0), Point::new(-2.0, 3.0));
        assert_eq!(bb.min, Point::new(-2.0, -1.0));
        assert_eq!(bb.max, Point::new(5.0, 3.0));
    }

    #[test]
    fn contains_is_inclusive() {
        let bb = BoundingBox::square(10.0);
        assert!(bb.contains(Point::ORIGIN));
        assert!(bb.contains(Point::new(10.0, 10.0)));
        assert!(bb.contains(Point::new(5.0, 0.0)));
        assert!(!bb.contains(Point::new(10.000_1, 5.0)));
        assert!(!bb.contains(Point::new(5.0, -0.000_1)));
    }

    #[test]
    fn clamp_projects_outside_points() {
        let bb = BoundingBox::square(10.0);
        assert_eq!(bb.clamp(Point::new(-5.0, 20.0)), Point::new(0.0, 10.0));
        assert_eq!(bb.clamp(Point::new(3.0, 4.0)), Point::new(3.0, 4.0));
    }

    #[test]
    fn circle_intersection() {
        let bb = BoundingBox::square(10.0);
        // Circle centred outside, reaching in.
        assert!(bb.intersects_circle(Point::new(-1.0, 5.0), 1.5));
        // Circle centred outside, not reaching.
        assert!(!bb.intersects_circle(Point::new(-3.0, 5.0), 1.5));
        // Circle centred inside always intersects.
        assert!(bb.intersects_circle(Point::new(5.0, 5.0), 0.01));
        // Corner case: diagonal distance matters.
        assert!(!bb.intersects_circle(Point::new(11.0, 11.0), 1.0));
        assert!(bb.intersects_circle(Point::new(11.0, 11.0), 1.5));
    }

    #[test]
    fn union_and_expand() {
        let a = BoundingBox::square(1.0);
        let b = BoundingBox::from_corners(Point::new(5.0, 5.0), Point::new(6.0, 7.0));
        let u = a.union(&b);
        assert_eq!(u.min, Point::ORIGIN);
        assert_eq!(u.max, Point::new(6.0, 7.0));
        let e = a.expanded(2.0);
        assert_eq!(e.min, Point::new(-2.0, -2.0));
        assert_eq!(e.max, Point::new(3.0, 3.0));
    }

    #[test]
    fn enclosing_points() {
        assert!(BoundingBox::enclosing(std::iter::empty()).is_none());
        let bb = BoundingBox::enclosing(vec![
            Point::new(1.0, 2.0),
            Point::new(-3.0, 0.5),
            Point::new(0.0, 9.0),
        ])
        .unwrap();
        assert_eq!(bb.min, Point::new(-3.0, 0.5));
        assert_eq!(bb.max, Point::new(1.0, 9.0));
    }

    proptest! {
        #[test]
        fn prop_clamped_point_is_contained(
            px in -100.0..100.0f64, py in -100.0..100.0f64,
            side in 0.1..50.0f64,
        ) {
            let bb = BoundingBox::square(side);
            prop_assert!(bb.contains(bb.clamp(Point::new(px, py))));
        }

        #[test]
        fn prop_union_contains_both(
            ax in -50.0..50.0f64, ay in -50.0..50.0f64,
            bx in -50.0..50.0f64, by in -50.0..50.0f64,
            cx in -50.0..50.0f64, cy in -50.0..50.0f64,
            dx in -50.0..50.0f64, dy in -50.0..50.0f64,
        ) {
            let a = BoundingBox::from_corners(Point::new(ax, ay), Point::new(bx, by));
            let b = BoundingBox::from_corners(Point::new(cx, cy), Point::new(dx, dy));
            let u = a.union(&b);
            prop_assert!(u.contains(a.min) && u.contains(a.max));
            prop_assert!(u.contains(b.min) && u.contains(b.max));
        }

        #[test]
        fn prop_contained_point_circle_intersects(
            px in 0.0..10.0f64, py in 0.0..10.0f64, r in 0.0..5.0f64,
        ) {
            let bb = BoundingBox::square(10.0);
            prop_assert!(bb.intersects_circle(Point::new(px, py), r));
        }
    }
}
