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
//!
//! The payments a dichotomy can ask about are fixed by `(v_r, ξ)` alone —
//! `v_r` and the inner nodes of a bisection tree (8 payments at ξ = 0.1)
//! — so [`MinPaymentEstimator::estimate`] looks every worker's CDF up once
//! per *payment* and lets the `n_s` instances share the result; only the
//! draws are paid per instance. The draw schedule is part of the replay
//! contract (DESIGN.md §4): per tested payment, one draw for each worker
//! with `0 < p < 1` in candidate order, none at `p ∈ {0, 1}`, and no
//! short-circuit after the first acceptor. The literal Algorithm 2 is kept
//! under `#[cfg(test)]` and a proptest holds the two bit-identical.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Value, WorkerHistory};

/// Accuracy parameters of Algorithm 2 / Lemma 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloParams {
    /// Relative-error target `ξ ∈ (0, 1)`. Also bounds the dichotomy
    /// resolution: the inner loop stops once `v_m − v_l ≤ ξ·v_r`.
    pub(crate) xi: f64,
    /// Failure-probability target `η ∈ (0, 1)`.
    pub(crate) eta: f64,
    /// The `ε` added to a fully rejected instance (`v_r + ε` means "no
    /// outer worker accepts even at full value").
    pub(crate) epsilon: f64,
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
    pub(crate) params: MonteCarloParams,
}

/// What a sampling instance needs of the workers at one payment
/// (Algorithm 2 lines 4/9: "sample each w_out … check whether someone
/// would like to serve").
#[derive(Clone, Copy)]
struct PaymentTest {
    /// Some worker accepts with `p ≥ 1`: no draw decides this test.
    certain: bool,
    /// `probs[from..to]` of the call's scratch: `p` of every worker with
    /// `0 < p < 1`, in candidate order. Workers with `p ≤ 0` neither draw
    /// nor matter — the same short-circuits as [`crate::bernoulli`].
    from: usize,
    to: usize,
}

impl PaymentTest {
    /// One `acceptance_prob` lookup per worker, appended to `probs`.
    fn reduce(workers: &[&WorkerHistory], payment: Value, probs: &mut Vec<f64>) -> Self {
        let from = probs.len();
        let mut certain = false;
        for w in workers {
            let p = w.acceptance_prob(payment);
            if p >= 1.0 {
                certain = true;
            } else if p > 0.0 {
                probs.push(p);
            }
        }
        PaymentTest {
            certain,
            from,
            to: probs.len(),
        }
    }

    /// Whether any worker accepts in this instance. Every listed worker
    /// draws, acceptor found or not, so the RNG stream does not depend on
    /// the outcome.
    fn sample<R: Rng + ?Sized>(self, probs: &[f64], rng: &mut R) -> bool {
        let mut any = self.certain;
        for &p in &probs[self.from..self.to] {
            any |= rng.random_range(0.0..1.0) <= p;
        }
        any
    }
}

/// One state `(v_l, v_h, v_m)` of the dichotomy (Algorithm 2 lines 7–15).
/// The reachable states form a binary tree fixed by `(v_r, ξ)`; the call
/// builds the part of it its instances walk.
struct State {
    v_l: Value,
    v_m: Value,
    v_h: Value,
    /// The workers reduced at `v_m`, by the first instance to test it.
    test: Option<PaymentTest>,
    /// The states after a rejected / an accepted test at `v_m`; 0 (the
    /// root, nobody's successor) until an instance goes there.
    next: [usize; 2],
}

impl State {
    fn new(v_l: Value, v_h: Value) -> Self {
        State {
            v_l,
            v_m: 0.5 * (v_h - v_l) + v_l,
            v_h,
            test: None,
            next: [0; 2],
        }
    }
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

        let mut probs: Vec<f64> = Vec::new();
        let full_value = PaymentTest::reduce(workers, request_value, &mut probs);
        let mut states = vec![State::new(0.0, request_value)];
        let resolution = p.xi * request_value;
        let (mut tests, mut iters, mut draws) = (1u64, 0u64, 0u64);
        let mut sum = 0.0;
        for _ in 0..n_s {
            // Lines 4–6: if nobody accepts at the full value, this instance
            // reports v_r + ε.
            draws += (full_value.to - full_value.from) as u64;
            if !full_value.sample(&probs, rng) {
                sum += request_value + p.epsilon;
                continue;
            }
            // Lines 7–15: dichotomy over (0, v_r].
            let mut s = 0;
            while states[s].v_m - states[s].v_l > resolution {
                iters += 1;
                let test = match states[s].test {
                    Some(test) => test,
                    None => {
                        tests += 1;
                        let test = PaymentTest::reduce(workers, states[s].v_m, &mut probs);
                        *states[s].test.insert(test)
                    }
                };
                draws += (test.to - test.from) as u64;
                let accepted = test.sample(&probs, rng);
                if states[s].next[accepted as usize] == 0 {
                    let State { v_l, v_m, v_h, .. } = states[s];
                    states[s].next[accepted as usize] = states.len();
                    states.push(if accepted {
                        State::new(v_l, v_m)
                    } else {
                        State::new(v_m, v_h)
                    });
                }
                s = states[s].next[accepted as usize];
            }
            sum += states[s].v_m;
        }
        com_obs::counter_add("mc.dichotomy_iters", iters);
        com_obs::counter_add("mc.cdf_lookups", tests * workers.len() as u64);
        com_obs::counter_add("mc.draws", draws);
        sum / n_s as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bernoulli;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn estimator(xi: f64, eta: f64) -> MinPaymentEstimator {
        MinPaymentEstimator::new(MonteCarloParams::new(xi, eta, 0.01))
    }

    /// Algorithm 2 as the paper writes it — every instance re-samples
    /// every worker at every payment it tests — the reference `estimate`
    /// must match bit for bit, draw for draw.
    fn literal_algorithm_2<R: Rng + ?Sized>(
        p: &MonteCarloParams,
        request_value: Value,
        workers: &[&WorkerHistory],
        rng: &mut R,
    ) -> Value {
        // Lines 4/9: draws a decision for every worker, acceptor found or
        // not.
        fn someone_accepts<R: Rng + ?Sized>(
            ws: &[&WorkerHistory],
            payment: Value,
            rng: &mut R,
        ) -> bool {
            let mut any = false;
            for w in ws {
                if bernoulli(rng, w.acceptance_prob(payment)) {
                    any = true;
                }
            }
            any
        }
        if workers.is_empty() {
            return request_value + p.epsilon;
        }
        let n_s = p.instances();
        let mut sum = 0.0;
        for _ in 0..n_s {
            if !someone_accepts(workers, request_value, rng) {
                sum += request_value + p.epsilon;
                continue;
            }
            let mut v_l = 0.0f64;
            let mut v_h = request_value;
            let mut v_m = 0.5 * v_h;
            while v_m - v_l > p.xi * request_value {
                if someone_accepts(workers, v_m, rng) {
                    v_h = v_m;
                } else {
                    v_l = v_m;
                }
                v_m = 0.5 * (v_h - v_l) + v_l;
            }
            sum += v_m;
        }
        sum / n_s as f64
    }

    /// An RNG that counts the words drawn from it (one per `f64` draw).
    struct Counting(StdRng, u64);

    impl RngCore for Counting {
        fn next_u32(&mut self) -> u32 {
            self.1 += 1;
            self.0.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.0.fill_bytes(dest)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn memoised_estimate_is_bit_and_draw_identical_to_algorithm_2(
            // 0 = newcomer (empty history); values on a ¥0.5 lattice so
            // zeros, duplicates and values above v_r all occur.
            hists in proptest::collection::vec(
                proptest::collection::vec(0u32..48, 0..9), 1..25),
            value_steps in 1u32..41,
            on_lattice in proptest::bool::ANY,
            jitter in 0.0f64..0.5,
            xi_idx in 0usize..7,
            eta_idx in 0usize..2,
            seed in 0u64..1 << 20,
        ) {
            let xi = [0.02, 0.05, 0.1, 0.125, 0.2, 0.25, 0.4][xi_idx];
            let eta = [0.25, 0.5][eta_idx];
            let v_r = 0.5 * value_steps as f64 + if on_lattice { 0.0 } else { jitter };
            let hs: Vec<WorkerHistory> = hists
                .into_iter()
                .map(|h| WorkerHistory::from_values(h.into_iter().map(|k| 0.5 * k as f64).collect()))
                .collect();
            let workers: Vec<&WorkerHistory> = hs.iter().collect();
            let e = estimator(xi, eta);
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let memoised = e.estimate(v_r, &workers, &mut a);
            let literal = literal_algorithm_2(&e.params, v_r, &workers, &mut b);
            prop_assert_eq!(memoised.to_bits(), literal.to_bits(), "xi {} eta {} v_r {}", xi, eta, v_r);
            prop_assert_eq!(a.next_u64(), b.next_u64(), "RNG position, xi {} eta {} v_r {}", xi, eta, v_r);
        }
    }

    #[test]
    fn payment_test_extremes_draw_nothing() {
        // At ¥5: a newcomer always accepts, a ¥50-floor worker never does;
        // neither costs a draw.
        let yes = WorkerHistory::new();
        let no = WorkerHistory::from_values(vec![50.0]);
        let (mut rng, mut untouched) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        let mut probs = Vec::new();
        for (workers, accepts) in [
            (&[&no, &no][..], false),
            (&[&no, &yes][..], true),
            (&[][..], false),
        ] {
            let test = PaymentTest::reduce(workers, 5.0, &mut probs);
            assert_eq!(test.certain, accepts);
            assert_eq!(test.sample(&probs, &mut rng), accepts);
        }
        assert!(probs.is_empty());
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn every_uncertain_worker_draws_once_in_candidate_order() {
        // p = 1/2, 1/4 and 3/4 at ¥1, between a certain acceptor and a
        // certain refuser: three draws, in candidate order, all consumed
        // although the first worker already settles the answer.
        let yes = WorkerHistory::new();
        let no = WorkerHistory::from_values(vec![50.0]);
        let half = WorkerHistory::from_values(vec![1.0, 3.0]);
        let quarter = WorkerHistory::from_values(vec![1.0, 2.0, 3.0, 4.0]);
        let most = WorkerHistory::from_values(vec![0.5, 1.0, 1.0, 4.0]);
        let mut probs = Vec::new();
        let certain = PaymentTest::reduce(&[&yes, &half, &no, &quarter, &most], 1.0, &mut probs);
        assert!(certain.certain);
        assert_eq!(probs, [0.5, 0.25, 0.75]);
        let (mut a, mut twin) = (StdRng::seed_from_u64(42), StdRng::seed_from_u64(42));
        assert!(certain.sample(&probs, &mut a));
        for _ in 0..3 {
            let _: f64 = twin.random_range(0.0..1.0);
        }
        assert_eq!(a.next_u64(), twin.next_u64());

        // Without the certain acceptor the answer is the draws': over many
        // seeds it equals a hand-advanced twin's, and so does the stream.
        let uncertain = PaymentTest::reduce(&[&half, &no, &quarter, &most], 1.0, &mut probs);
        assert!(!uncertain.certain);
        assert_eq!((uncertain.from, uncertain.to), (3, 6));
        for seed in 0..64 {
            let (mut a, mut twin) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut expected = false;
            for p in [0.5, 0.25, 0.75] {
                expected |= twin.random_range(0.0..1.0) <= p;
            }
            assert_eq!(uncertain.sample(&probs, &mut a), expected, "seed {seed}");
            assert_eq!(a.next_u64(), twin.next_u64(), "seed {seed}");
        }
    }

    #[test]
    fn counters_show_one_lookup_per_payment_and_every_draw() {
        // Ten workers with spread-out histories at the default params: the
        // dichotomy can ask about 8 payments (v_r and the 7 inner nodes of
        // a depth-3 bisection), so at most 8 × |W| CDF lookups where the
        // literal loop does up to 48 × 4 × |W|; the draws are its draws.
        let hs: Vec<WorkerHistory> = (0..10)
            .map(|i| {
                WorkerHistory::from_values((0..12).map(|k| 0.4 * (i + 2 * k) as f64).collect())
            })
            .collect();
        let workers: Vec<&WorkerHistory> = hs.iter().collect();
        let e = MinPaymentEstimator::default();

        let mut counting = Counting(StdRng::seed_from_u64(8), 0);
        let literal = literal_algorithm_2(&e.params, 9.0, &workers, &mut counting);

        com_obs::install();
        com_obs::begin_run("test");
        let memoised = e.estimate(9.0, &workers, &mut StdRng::seed_from_u64(8));
        let t = com_obs::end_run().expect("collector installed");
        com_obs::uninstall();

        assert_eq!(memoised.to_bits(), literal.to_bits());
        let lookups = t.counter("mc.cdf_lookups").expect("mc.cdf_lookups");
        assert!(lookups > 10 && lookups <= 80, "{lookups} CDF lookups");
        assert_eq!(lookups % 10, 0);
        assert!(counting.1 > 0);
        assert_eq!(t.counter("mc.draws"), Some(counting.1));
        assert!(t.counter("mc.dichotomy_iters").expect("mc.dichotomy_iters") > 0);
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
