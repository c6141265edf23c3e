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

    proptest! {
        #[test]
        fn prop_clamped_point_is_contained(
            px in -100.0..100.0f64, py in -100.0..100.0f64,
            side in 0.1..50.0f64,
        ) {
            let bb = BoundingBox::square(side);
            prop_assert!(bb.contains(bb.clamp(Point::new(px, py))));
        }
    }
}
