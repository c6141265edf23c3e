//! # com-geo
//!
//! Geometry and spatial indexing substrate for the Cross Online Matching
//! (COM) reproduction.
//!
//! The paper (Cheng et al., ICDE 2020) places requests and workers in a 2-D
//! Euclidean plane; every worker has a circular service range (`rad`, in
//! kilometres) and can only serve requests whose location falls inside that
//! circle. This crate provides:
//!
//! * [`Point`] — planar coordinates in kilometres, with distance helpers.
//! * [`BoundingBox`] — axis-aligned boxes used for city regions and index
//!   extents.
//! * [`GridIndex`] — a uniform-grid spatial hash supporting the two queries
//!   the online matchers need under churn: "all items whose *own* radius
//!   covers a query point" and "the nearest such item".
//!
//! Everything is allocation-conscious: the hot queries reuse caller-provided
//! buffers where it matters and the grid stores plain `u64` keys.

pub mod bbox;
pub mod grid;
pub mod metric;
pub mod point;

pub use bbox::BoundingBox;
pub use grid::{GridEntry, GridIndex};
pub use metric::DistanceMetric;
pub use point::Point;

/// Kilometres — the unit of every planar coordinate and radius in this
/// workspace.
pub type Km = f64;
