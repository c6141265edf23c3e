//! The online matcher interface.

use rand::rngs::StdRng;

use com_sim::{PlatformId, RequestSpec, Value, WorkerId, World};

/// Offline-known facts an online algorithm is allowed to use. The paper's
/// algorithms only need `max(v_r)` (RamCOM's threshold and the pricing
/// grids assume it, exactly as Greedy-RT assumes `U_max` in Tong et al.).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamInfo {
    /// The largest request value that will appear (`max v_r`).
    pub(crate) max_value: Value,
}

/// The decision an algorithm takes for one incoming request (Definition
/// 2.6 requires it immediately: serve inner, serve outer, or reject).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Serve with an own (inner) worker; platform revenue `v_r`.
    Inner { worker: WorkerId },
    /// Serve with a borrowed (outer) worker from `platform` at outer
    /// payment `payment`; platform revenue `v_r − payment`.
    Outer {
        worker: WorkerId,
        platform: PlatformId,
        payment: Value,
    },
    /// Reject. `was_cooperative_offer` records whether at least one
    /// concrete offer round was run against outer workers (the request
    /// then counts in the acceptance-ratio denominator even though
    /// nobody took it). When pricing fails before any worker is asked,
    /// the flag must be `false` — AcpRt counts offers actually extended
    /// (paper Table III), not intents to offer.
    Reject { was_cooperative_offer: bool },
}

impl Decision {
    /// Whether the request is served.
    pub(crate) fn is_served(&self) -> bool {
        !matches!(self, Decision::Reject { .. })
    }
}

/// An online matching algorithm. The engine calls [`OnlineMatcher::begin`]
/// once per run, then [`OnlineMatcher::decide`] for every arriving request
/// in stream order. The `World` handed to `decide` exposes only
/// information an online algorithm may legally see: current waiting lists
/// (own and other platforms' unoccupied workers) and worker histories.
pub trait OnlineMatcher {
    /// Display name used in reports ("TOTA", "DemCOM", …).
    fn name(&self) -> &'static str;

    /// Reset internal state for a new run.
    fn begin(&mut self, info: &StreamInfo, rng: &mut StdRng);

    /// Decide the fate of `request` given the current world state.
    fn decide(&mut self, world: &World, request: &RequestSpec, rng: &mut StdRng) -> Decision;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_served_classification() {
        assert!(Decision::Inner {
            worker: WorkerId(1)
        }
        .is_served());
        assert!(Decision::Outer {
            worker: WorkerId(1),
            platform: PlatformId(1),
            payment: 2.0
        }
        .is_served());
        assert!(!Decision::Reject {
            was_cooperative_offer: true
        }
        .is_served());
    }
}
