//! Algorithm 2: Monte Carlo estimation of the minimum outer payment.
//!
//! DemCOM pays borrowed workers as little as possible. Algorithm 2
//! estimates the minimum outer payment `v'_r` at which *some* outer worker
//! would accept a cooperative request `r`, by repeating `n_s` independent
//! sampling instances; each instance simulates the workers' accept/reject
//! decisions and performs a dichotomy (binary search) over the payment
//! interval `(0, v_r]`. Lemma 1 gives the sample-size rule
//! `n_s ≥ 4·ln(2/ξ)/η²` for a relative error of `ξ` with failure
//! probability below `η`.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::sampling::any_accepts;
use crate::{Value, WorkerHistory};

/// Accuracy parameters of Algorithm 2 / Lemma 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloParams {
    /// Relative-error target `ξ ∈ (0, 1)`. Also bounds the dichotomy
    /// resolution: the inner loop stops once `v_m − v_l ≤ ξ·v_r`.
    pub xi: f64,
    /// Failure-probability target `η ∈ (0, 1)`.
    pub eta: f64,
    /// The `ε` added to a fully rejected instance (`v_r + ε` means "no
    /// outer worker accepts even at full value").
    pub epsilon: f64,
}

impl Default for MonteCarloParams {
    /// `ξ = 0.1`, `η = 0.5`, `ε = 0.01` — 48 sampling instances, the
    /// operating point used throughout the experiment harness.
    fn default() -> Self {
        MonteCarloParams {
            xi: 0.1,
            eta: 0.5,
            epsilon: 0.01,
        }
    }
}

impl MonteCarloParams {
    pub fn new(xi: f64, eta: f64, epsilon: f64) -> Self {
        assert!((0.0..1.0).contains(&xi) && xi > 0.0, "xi must be in (0,1)");
        assert!(
            (0.0..1.0).contains(&eta) && eta > 0.0,
            "eta must be in (0,1)"
        );
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        MonteCarloParams { xi, eta, epsilon }
    }

    /// Lemma 1's number of sampling instances: `n_s = ⌈4·ln(2/ξ)/η²⌉`.
    pub fn instances(&self) -> usize {
        (4.0 * (2.0 / self.xi).ln() / (self.eta * self.eta)).ceil() as usize
    }
}

/// The Algorithm 2 estimator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MinPaymentEstimator {
    pub params: MonteCarloParams,
}

impl MinPaymentEstimator {
    pub fn new(params: MonteCarloParams) -> Self {
        MinPaymentEstimator { params }
    }

    /// Estimate the minimum outer payment for a request of value
    /// `request_value` given the feasible outer workers `workers`.
    ///
    /// Returns a value in `(0, v_r]` when some instance found an accepting
    /// price, and a value `> v_r` (up to `v_r + ε`) when most instances
    /// saw no acceptance even at full price — DemCOM rejects the request
    /// in that case (Algorithm 1, lines 13–14).
    ///
    /// With no feasible workers the estimate is `v_r + ε` (certain
    /// rejection), matching the behaviour of an all-rejecting instance.
    pub fn estimate<R: Rng + ?Sized>(
        &self,
        request_value: Value,
        workers: &[&WorkerHistory],
        rng: &mut R,
    ) -> Value {
        assert!(
            request_value > 0.0 && request_value.is_finite(),
            "request value must be positive and finite"
        );
        let p = &self.params;
        let n_s = p.instances();
        com_obs::counter_add("mc.estimates", 1);
        if workers.is_empty() {
            return request_value + p.epsilon;
        }

        com_obs::counter_add("mc.samples", n_s as u64);
        let mut sum = 0.0;
        for _ in 0..n_s {
            sum += self.sample_instance(request_value, workers, rng);
        }
        sum / n_s as f64
    }

    /// One sampling instance (Algorithm 2 lines 3–15): accept/reject at
    /// full value, then dichotomy.
    fn sample_instance<R: Rng + ?Sized>(
        &self,
        request_value: Value,
        workers: &[&WorkerHistory],
        rng: &mut R,
    ) -> Value {
        let p = &self.params;
        // Lines 4–6: if nobody accepts at the full value, this instance
        // reports v_r + ε.
        if !any_accepts(workers, request_value, rng) {
            return request_value + p.epsilon;
        }
        // Lines 7–15: dichotomy over (0, v_r].
        let mut v_l = 0.0f64;
        let mut v_h = request_value;
        let mut v_m = 0.5 * v_h;
        let mut iters = 0u64;
        while v_m - v_l > p.xi * request_value {
            iters += 1;
            if any_accepts(workers, v_m, rng) {
                v_h = v_m;
            } else {
                v_l = v_m;
            }
            v_m = 0.5 * (v_h - v_l) + v_l;
        }
        com_obs::counter_add("mc.dichotomy_iters", iters);
        v_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn estimator(xi: f64, eta: f64) -> MinPaymentEstimator {
        MinPaymentEstimator::new(MonteCarloParams::new(xi, eta, 0.01))
    }

    #[test]
    fn lemma_1_sample_counts() {
        assert_eq!(MonteCarloParams::new(0.1, 0.5, 0.0).instances(), 48);
        assert_eq!(MonteCarloParams::new(0.2, 0.5, 0.0).instances(), 37);
        // Tighter accuracy needs more instances.
        assert!(
            MonteCarloParams::new(0.05, 0.25, 0.0).instances()
                > MonteCarloParams::new(0.1, 0.5, 0.0).instances()
        );
    }

    #[test]
    fn no_workers_means_rejection_price() {
        let e = estimator(0.1, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let v = e.estimate(10.0, &[], &mut rng);
        assert!(v > 10.0);
    }

    #[test]
    fn never_accepting_workers_exceed_request_value() {
        let e = estimator(0.1, 0.5);
        // Nobody here ever worked for less than ¥50.
        let no = WorkerHistory::from_values(vec![50.0, 60.0]);
        let mut rng = StdRng::seed_from_u64(2);
        let v = e.estimate(10.0, &[&no, &no], &mut rng);
        assert!(v > 10.0, "estimate {v} should exceed the request value");
    }

    #[test]
    fn always_accepting_workers_drive_payment_to_zero() {
        let e = estimator(0.05, 0.5);
        // A newcomer (empty history) accepts any positive payment.
        let yes = WorkerHistory::new();
        let mut rng = StdRng::seed_from_u64(3);
        let v = e.estimate(10.0, &[&yes], &mut rng);
        // Dichotomy bottoms out within the resolution ξ·v_r of zero.
        assert!(v <= 10.0 * 0.05 * 2.0, "estimate {v} should be near zero");
        assert!(v > 0.0);
    }

    #[test]
    fn sharp_price_floor_is_recovered() {
        // Worker history is a point mass at 5: acceptance is a hard step
        // at 5, so every instance's dichotomy converges to ≈5.
        let e = estimator(0.02, 0.5);
        let w = WorkerHistory::from_values(vec![5.0; 10]);
        let mut rng = StdRng::seed_from_u64(4);
        let v = e.estimate(10.0, &[&w], &mut rng);
        assert!(
            (v - 5.0).abs() <= 10.0 * 0.02 + 1e-9,
            "estimate {v} should be within dichotomy resolution of 5"
        );
    }

    #[test]
    fn estimate_between_floor_and_value_for_mixed_histories() {
        let e = estimator(0.1, 0.5);
        let a = WorkerHistory::from_values(vec![3.0, 6.0, 9.0]);
        let b = WorkerHistory::from_values(vec![4.0, 8.0]);
        let mut rng = StdRng::seed_from_u64(5);
        let v = e.estimate(10.0, &[&a, &b], &mut rng);
        // Must sit above the hardest possible floor (0) and below v_r+ε.
        assert!(v > 0.0 && v <= 10.0 + 0.01);
        // The analytic floor is 3.0 (min history value); the estimate
        // cannot sit materially below it minus the dichotomy resolution.
        assert!(v >= 3.0 - 10.0 * 0.1 - 1e-9, "estimate {v} below floor");
    }

    #[test]
    fn algorithm_2_estimate_brackets_the_analytic_floor() {
        // On a hard-step single-worker CDF the Monte Carlo estimate must
        // land within the dichotomy resolution of the analytic floor — the
        // worker's smallest history value — or above it, when full-price
        // rejections bias it up.
        let w = WorkerHistory::from_values(vec![5.0; 20]);
        let floor = w.min_accepted_payment().unwrap();
        let e = MinPaymentEstimator::default();
        let est = e.estimate(10.0, &[&w], &mut StdRng::seed_from_u64(12));
        assert!(
            est >= floor - e.params.xi * 10.0 - 1e-9,
            "estimate {est} sits below floor {floor} minus resolution"
        );
        assert!(est <= 10.0 + e.params.epsilon);
    }

    #[test]
    fn deterministic_under_seed() {
        let e = estimator(0.1, 0.5);
        let w = WorkerHistory::from_values(vec![2.0, 5.0, 7.0]);
        let workers = [&w];
        let a = e.estimate(9.0, &workers, &mut StdRng::seed_from_u64(9));
        let b = e.estimate(9.0, &workers, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn tighter_xi_gives_tighter_spread() {
        let w = WorkerHistory::from_values(vec![5.0; 4]);
        let workers = [&w];
        let coarse = estimator(0.25, 0.5).estimate(10.0, &workers, &mut StdRng::seed_from_u64(11));
        let fine = estimator(0.01, 0.5).estimate(10.0, &workers, &mut StdRng::seed_from_u64(11));
        assert!((fine - 5.0).abs() <= (coarse - 5.0).abs() + 1e-9);
    }

    #[test]
    #[should_panic(expected = "xi must be in (0,1)")]
    fn rejects_bad_xi() {
        MonteCarloParams::new(1.5, 0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "request value must be positive")]
    fn rejects_bad_request_value() {
        let e = estimator(0.1, 0.5);
        e.estimate(0.0, &[], &mut StdRng::seed_from_u64(1));
    }
}
