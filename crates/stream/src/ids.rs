//! Typed identifiers.
//!
//! Newtypes keep worker/request/platform ids from being mixed up across the
//! crate boundary and give every id map a stable `u64` key space.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a spatial crowdsourcing platform (e.g. "DiDi", "Yueche").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct PlatformId(pub u16);

impl PlatformId {
    #[inline]
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PlatformId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifier of a crowd worker, unique across *all* platforms so that a
/// worker can appear in the outer-worker directories of other platforms
/// without translation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct WorkerId(pub u64);

impl WorkerId {
    #[inline]
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Identifier of a request, unique across all platforms.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct RequestId(pub u64);

impl RequestId {
    #[inline]
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(WorkerId(1));
        set.insert(WorkerId(1));
        set.insert(WorkerId(2));
        assert_eq!(set.len(), 2);
        assert!(WorkerId(1) < WorkerId(2));
        assert!(RequestId(3) > RequestId(1));
        assert!(PlatformId(0) < PlatformId(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", PlatformId(2)), "P2");
        assert_eq!(format!("{}", WorkerId(5)), "w5");
        assert_eq!(format!("{}", RequestId(7)), "r7");
    }
}
