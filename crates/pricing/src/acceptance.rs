//! Group acceptance probability (Definition 4.1).
//!
//! The paper has one acceptance model — the empirical history CDF of
//! Definition 3.1, [`WorkerHistory::acceptance_prob`] — so the pricing
//! kernels program against [`WorkerHistory`] directly.

use crate::{Value, WorkerHistory};

/// Group acceptance probability of Definition 4.1: the probability that
/// *any* worker in `workers` accepts payment `payment`, assuming
/// independent decisions:
///
/// ```text
/// pr(v', W) = 1 − Π_{w ∈ W} (1 − pr(v', w))
/// ```
pub fn group_acceptance_prob(workers: &[&WorkerHistory], payment: Value) -> f64 {
    let none_accept: f64 = workers
        .iter()
        .map(|w| 1.0 - w.acceptance_prob(payment))
        .product();
    1.0 - none_accept
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn group_acceptance_of_independent_workers() {
        // Each accepts ¥1 with probability 1/2.
        let a = WorkerHistory::from_values(vec![1.0, 3.0]);
        let b = WorkerHistory::from_values(vec![0.5, 2.0]);
        assert!((group_acceptance_prob(&[&a, &b], 1.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn group_acceptance_empty_is_zero() {
        assert_eq!(group_acceptance_prob(&[], 1.0), 0.0);
    }

    #[test]
    fn group_acceptance_with_certain_worker_is_one() {
        let certain = WorkerHistory::from_values(vec![1.0]);
        let reluctant = WorkerHistory::from_values(vec![1.0, 5.0, 5.0, 5.0]);
        assert_eq!(reluctant.acceptance_prob(1.0), 0.25);
        assert_eq!(group_acceptance_prob(&[&certain, &reluctant], 1.0), 1.0);
    }

    proptest! {
        #[test]
        fn prop_group_at_least_best_individual(
            hists in proptest::collection::vec(
                proptest::collection::vec(0.0f64..10.0, 1..8), 1..8),
            payment in 0.0f64..10.0,
        ) {
            let workers: Vec<WorkerHistory> =
                hists.into_iter().map(WorkerHistory::from_values).collect();
            let refs: Vec<&WorkerHistory> = workers.iter().collect();
            let group = group_acceptance_prob(&refs, payment);
            let best = refs.iter().fold(0.0f64, |a, w| a.max(w.acceptance_prob(payment)));
            prop_assert!(group >= best - 1e-12);
            prop_assert!(group <= 1.0 + 1e-12);
        }
    }
}
