//! The cooperative-offer path — Algorithm 1, lines 8–26, written once.
//!
//! Every COM variant ends the same way: price the request for the
//! feasible outer workers, and if a viable payment exists offer it to them
//! nearest-first until one accepts. Algorithm 3 line 11 literally "runs
//! lines 13–26 of Algorithm 1" at a different price, so the matchers
//! differ only in how they gather candidates and which kernel prices;
//! [`offer`] is everything else.

use rand::rngs::StdRng;

use com_pricing::{bernoulli, MinPaymentEstimator, MonteCarloParams, WorkerHistory};
use com_sim::{IdleWorker, PlatformId, Value, World};

use crate::matcher::Decision;

/// Price `outer` (the feasible outer workers, nearest-first) with `price`
/// and run the offer loop at that payment.
///
/// `price` sees the candidates' histories in candidate order and returns
/// the outer payment, or `None` when no payment is viable. RNG draw order
/// is part of the replay contract: whatever `price` draws, then one
/// Bernoulli per candidate up to the first acceptor.
pub(crate) fn offer(
    world: &World,
    outer: &[(PlatformId, IdleWorker)],
    price: impl FnOnce(&[&WorkerHistory], &mut StdRng) -> Option<Value>,
    rng: &mut StdRng,
) -> Decision {
    if outer.is_empty() {
        // Lines 9–10: nobody to even ask.
        return Decision::Reject {
            was_cooperative_offer: false,
        };
    }
    let histories: Vec<&WorkerHistory> = outer
        .iter()
        .map(|(_, w)| &world.worker(w.id).history)
        .collect();
    let payment = {
        let _span = com_obs::span(com_obs::PHASE_PRICING);
        price(&histories, rng)
    };
    let Some(payment) = payment else {
        // Lines 13–14: pricing found no viable payment, so no worker was
        // ever offered anything — not a cooperative offer (AcpRt's
        // denominator counts offers actually extended, Table III).
        return Decision::Reject {
            was_cooperative_offer: false,
        };
    };

    // Lines 15–24: offer the payment to each candidate; the list is
    // nearest-first, so the first acceptor is the nearest one.
    let _span = com_obs::span(com_obs::PHASE_OFFER);
    for ((platform, idle), history) in outer.iter().zip(&histories) {
        if bernoulli(rng, history.acceptance_prob(payment)) {
            return Decision::Outer {
                worker: idle.id,
                platform: *platform,
                payment,
            };
        }
    }

    // Line 26: everyone declined.
    Decision::Reject {
        was_cooperative_offer: true,
    }
}

/// DemCOM's pricing (Algorithm 1, lines 12–14): Algorithm 2's Monte Carlo
/// minimum outer payment, viable only if it does not exceed `v_r` —
/// serving above it would lose money.
pub(crate) fn min_payment(
    params: MonteCarloParams,
    request_value: Value,
) -> impl FnOnce(&[&WorkerHistory], &mut StdRng) -> Option<Value> {
    move |histories, rng| {
        let payment = MinPaymentEstimator::new(params).estimate(request_value, histories, rng);
        (payment <= request_value).then_some(payment)
    }
}
