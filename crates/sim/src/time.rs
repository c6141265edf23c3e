//! Simulation time.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Seconds in a simulated day.
pub const SECONDS_PER_DAY: f64 = 86_400.0;
/// Seconds in an hour.
pub const SECONDS_PER_HOUR: f64 = 3_600.0;

/// A point in simulation time, in seconds from the start of the scenario.
///
/// Wraps `f64` but provides a *total* order (`total_cmp`) so timestamps can
/// key heaps and sorts safely. Constructors reject NaN.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Timestamp(f64);

impl Timestamp {
    /// Time zero — the start of the scenario.
    pub const ZERO: Timestamp = Timestamp(0.0);

    /// Construct from seconds.
    ///
    /// # Panics
    /// Panics on NaN; infinite values are allowed (useful as sentinels).
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "timestamp cannot be NaN");
        Timestamp(secs)
    }

    /// Seconds since scenario start.
    #[inline]
    pub fn as_secs(&self) -> f64 {
        self.0
    }

    /// Hours since scenario start.
    #[inline]
    pub fn as_hours(&self) -> f64 {
        self.0 / SECONDS_PER_HOUR
    }

    /// Saturating elapsed time (s) since `earlier`; zero when `earlier` is
    /// in the future.
    #[inline]
    pub fn since(&self, earlier: Timestamp) -> f64 {
        (self.0 - earlier.0).max(0.0)
    }
}

impl Eq for Timestamp {}

impl PartialOrd for Timestamp {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Timestamp {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add<f64> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, secs: f64) -> Timestamp {
        Timestamp::from_secs(self.0 + secs)
    }
}

impl AddAssign<f64> for Timestamp {
    #[inline]
    fn add_assign(&mut self, secs: f64) {
        *self = *self + secs;
    }
}

impl Sub for Timestamp {
    type Output = f64;
    #[inline]
    fn sub(self, rhs: Timestamp) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.0;
        let h = (total / 3600.0).floor();
        let m = ((total - h * 3600.0) / 60.0).floor();
        let s = total - h * 3600.0 - m * 60.0;
        write!(f, "{:02}:{:02}:{:05.2}", h as i64, m as i64, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = Timestamp::from_secs(1.0);
        let b = Timestamp::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn arithmetic() {
        let a = Timestamp::from_secs(10.0);
        let b = a + 5.0;
        assert_eq!(b.as_secs(), 15.0);
        assert_eq!(b - a, 5.0);
        assert_eq!(a.since(b), 0.0);
        assert_eq!(b.since(a), 5.0);
        let mut c = a;
        c += 2.5;
        assert_eq!(c.as_secs(), 12.5);
    }

    #[test]
    fn hours_roundtrip() {
        let t = Timestamp::from_secs(2.5 * SECONDS_PER_HOUR);
        assert_eq!(t.as_secs(), 9000.0);
        assert_eq!(t.as_hours(), 2.5);
    }

    #[test]
    #[should_panic(expected = "timestamp cannot be NaN")]
    fn rejects_nan() {
        Timestamp::from_secs(f64::NAN);
    }

    #[test]
    fn display_format() {
        let t = Timestamp::from_secs(3_725.0);
        assert_eq!(format!("{t}"), "01:02:05.00");
    }

    #[test]
    fn infinity_sentinel_sorts_last() {
        let inf = Timestamp::from_secs(f64::INFINITY);
        assert!(Timestamp::from_secs(SECONDS_PER_DAY) < inf);
    }
}
