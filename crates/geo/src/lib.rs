//! # com-geo
//!
//! Geometry substrate for the Cross Online Matching (COM) reproduction.
//!
//! The paper (Cheng et al., ICDE 2020) places requests and workers in a 2-D
//! Euclidean plane; every worker has a circular service range (`rad`, in
//! kilometres) and can only serve requests whose location falls inside that
//! circle. This crate provides:
//!
//! * [`Point`] — planar coordinates in kilometres, with distance helpers.
//! * [`BoundingBox`] — axis-aligned boxes used for city regions and
//!   waiting-list extents.
//! * [`DistanceMetric`] — the range constraint's metric: Euclidean, or
//!   Manhattan as a road-network surrogate.
//!
//! The spatial index the matchers query is `com_sim::WaitingList`.

mod bbox;
mod metric;
mod point;

pub use bbox::BoundingBox;
pub use metric::DistanceMetric;
pub use point::Point;

/// Kilometres — the unit of every planar coordinate and radius in this
/// workspace.
pub type Km = f64;
