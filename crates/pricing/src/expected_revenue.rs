//! Maximum-expected-revenue pricing (Definition 4.1).
//!
//! RamCOM does not pay the bare minimum; it trades revenue against the
//! probability the borrowed workers actually accept:
//!
//! ```text
//! E(v', W)      = (v_r − v') · pr(v', W)
//! E(v_r, W)_max = max_{0 < v' ≤ v_r} E(v', W)
//! ```
//!
//! With empirical acceptance CDFs, `pr(v', W)` is a right-continuous step
//! function whose jumps sit exactly at the workers' history values, so the
//! maximiser is attained at a breakpoint (or at `v_r`). The paper invokes
//! "the algorithm in \[14\]" (Tong et al., SIGMOD'18) for this maximisation
//! and cites an `O(max v_r)` cost — our [`PriceCandidates::IntegerGrid`]
//! strategy matches that complexity; [`PriceCandidates::Breakpoints`] is
//! the exact maximiser.
//!
//! Every strategy is exact over its candidates *and* bounded: candidates
//! ascend, `pr ≤ 1`, so once the margin `v_r − v'` alone falls below the
//! best expected revenue found, no later candidate can win and the scan
//! stops (`BestTracker::spent` carries the argument). `Breakpoints` thus
//! costs `O(B'·|W|)` with `B'` the breakpoints below `v_r − E_max`, not all
//! `B` of them: against many outer workers the group acceptance is ≈ 1 at
//! the first breakpoint and `B'` is 1 or 2, which is how the paper's
//! `O(max v_r)` budget is met in the dense regime where `B·|W|` is largest.

use serde::{Deserialize, Serialize};

use crate::acceptance::group_acceptance_prob;
use crate::{Value, WorkerHistory};

/// How candidate payments are enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum PriceCandidates {
    /// Exact (the acceptance CDFs are step functions): evaluate at every
    /// distinct history value `≤ v_r` across the worker set, plus `v_r`
    /// itself. Cost `O(B'·|W|)` where `B'` counts the breakpoints below
    /// `v_r − E_max` (see the module docs).
    #[default]
    Breakpoints,
    /// The paper's `O(max v_r)` strategy: evaluate at integer payments
    /// `1, 2, …, ⌊v_r⌋` plus `v_r`. Exact when request values are
    /// integers (as in the paper's running example).
    IntegerGrid,
    /// A fixed-size uniform grid over `(0, v_r]`: an approximation whose
    /// cost does not depend on the histories (ablation).
    UniformGrid(usize),
}

/// The result of the expected-revenue maximisation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PricingOutcome {
    /// The maximising outer payment `v'_re`.
    pub payment: Value,
    /// Group acceptance probability `pr(v'_re, W)` at that payment.
    pub(crate) acceptance_prob: f64,
    /// `E(v_r, W)_max = (v_r − v'_re) · pr(v'_re, W)`.
    pub expected_revenue: Value,
}

/// Maximise the expected revenue of a cooperative request over the outer
/// payment. Returns `None` when the worker set is empty or no candidate
/// yields positive expected revenue (RamCOM then rejects / the request
/// falls through).
///
/// ```
/// use com_pricing::{max_expected_revenue, PriceCandidates, WorkerHistory};
///
/// let w = WorkerHistory::from_values(vec![4.0, 6.0, 8.0]);
/// let out = max_expected_revenue(10.0, &[&w], PriceCandidates::Breakpoints).unwrap();
/// // Candidates 4 (pr 1/3), 6 (pr 2/3), 8 (pr 1), 10 (pr 1):
/// // expected revenues 2.0, 2.67, 2.0, 0 — pay ¥6.
/// assert_eq!(out.payment, 6.0);
/// assert!((out.expected_revenue - 8.0 / 3.0).abs() < 1e-12);
/// ```
pub fn max_expected_revenue(
    request_value: Value,
    workers: &[&WorkerHistory],
    strategy: PriceCandidates,
) -> Option<PricingOutcome> {
    assert!(
        request_value > 0.0 && request_value.is_finite(),
        "request value must be positive and finite"
    );
    if workers.is_empty() {
        return None;
    }

    let mut tracker = BestTracker {
        request_value,
        best: None,
        evaluated: 0,
    };

    // Every arm enumerates its candidates ascending and stops at the first
    // one whose margin is spent (see `BestTracker::spent`). `walked_all`
    // says the cut came no earlier than the last candidate — `v_r` itself,
    // whose margin is 0, is cut in every call that found a price.
    let walked_all = match strategy {
        PriceCandidates::Breakpoints => {
            // Streaming k-way merge over the workers' sorted histories and
            // `v_r`: candidates come out ascending and deduplicated without
            // building, sorting, or deduplicating a pooled Vec, and each
            // worker's CDF is walked with a monotone cursor instead of a
            // binary search per candidate. Float operations and evaluation
            // order are those of the pooled collect-sort-dedup enumeration
            // (kept as a test reference), so decisions are bit-identical to
            // it.
            com_obs::counter_add("pricing.breakpoint_merges", 1);
            let mut lanes: Vec<Lane> = workers.iter().map(|w| Lane::new(w)).collect();
            loop {
                // The smallest pending breakpoint below `v_r`, else `v_r`
                // itself — always the last candidate.
                let mut cand = request_value;
                for lane in &lanes {
                    if let Some(&b) = lane.vals.get(lane.vpos) {
                        if b < cand {
                            cand = b;
                        }
                    }
                }
                if tracker.spent(cand) {
                    break cand == request_value;
                }
                let mut none_accept = 1.0f64;
                for lane in &mut lanes {
                    none_accept *= 1.0 - lane.prob_at(cand);
                }
                tracker.consider_with_pr(cand, 1.0 - none_accept);
                if cand == request_value {
                    break true;
                }
            }
        }
        PriceCandidates::IntegerGrid => {
            let mut p = 1.0;
            loop {
                let cand = request_value.min(p);
                if !tracker.offer(workers, cand) {
                    break cand == request_value;
                }
                if cand == request_value {
                    break true;
                }
                p += 1.0;
            }
        }
        PriceCandidates::UniformGrid(k) => {
            let k = k.max(1);
            (1..=k).all(|i| tracker.offer(workers, request_value * i as f64 / k as f64) || i == k)
        }
    };

    com_obs::counter_add("pricing.candidates_evaluated", tracker.evaluated);
    if !walked_all {
        com_obs::counter_add("pricing.margin_exits", 1);
    }
    tracker.best
}

/// Best-candidate accumulator shared by every candidate-enumeration
/// strategy, so the tie-break policy and the margin bound live in one
/// place.
struct BestTracker {
    request_value: Value,
    best: Option<PricingOutcome>,
    evaluated: u64,
}

impl BestTracker {
    /// Whether `payment`, and with it every higher one, can no longer
    /// become the best: its margin alone is below the best expected
    /// revenue by more than the tie band. Exact, not a heuristic:
    ///
    /// 1. every factor `1 − p_w` lies in [0, 1], so the computed `pr` does,
    ///    and rounding is monotone: `fl((v_r − c)·pr) ≤ v_r − c`;
    /// 2. hence `fl(expected − b) ≤ fl((v_r − c) − b) < −1e-12`, which fails
    ///    both clauses of `consider_with_pr`'s `better` test;
    /// 3. candidates ascend, so later margins are smaller still while
    ///    `best` stays put — nothing after the cut could have been taken.
    fn spent(&self, payment: Value) -> bool {
        self.best
            .is_some_and(|b| (self.request_value - payment) - b.expected_revenue < -1e-12)
    }

    /// Consider a candidate whose group acceptance probability the caller
    /// already knows (the streaming merge computes it incrementally).
    fn consider_with_pr(&mut self, payment: Value, pr: f64) {
        self.evaluated += 1;
        let expected = (self.request_value - payment) * pr;
        let better = match &self.best {
            None => expected > 0.0,
            Some(b) => {
                expected > b.expected_revenue + 1e-12
                    // Ties prefer the *higher* payment: same platform
                    // revenue, happier borrowed worker (better incentive).
                    || ((expected - b.expected_revenue).abs() <= 1e-12
                        && payment > b.payment)
            }
        };
        if better {
            self.best = Some(PricingOutcome {
                payment,
                acceptance_prob: pr,
                expected_revenue: expected,
            });
        }
    }

    /// Consider a candidate, computing `pr(payment, W)` from scratch.
    fn consider(&mut self, workers: &[&WorkerHistory], payment: Value) {
        if payment <= 0.0 || payment > self.request_value {
            self.evaluated += 1;
            return;
        }
        self.consider_with_pr(payment, group_acceptance_prob(workers, payment));
    }

    /// The grids' step: consider the next ascending candidate unless the
    /// margin is spent, in which case report `false` (stop enumerating).
    fn offer(&mut self, workers: &[&WorkerHistory], payment: Value) -> bool {
        let live = !self.spent(payment);
        if live {
            self.consider(workers, payment);
        }
        live
    }
}

/// One worker's CDF in the streaming breakpoint merge: the sorted raw
/// history and a monotone cursor into it (valid because candidates
/// ascend). `vpos` counts the values `<=` the last candidate, so
/// `vals[vpos]` *is* the worker's next distinct breakpoint.
struct Lane<'a> {
    vals: &'a [Value],
    vpos: usize,
}

impl<'a> Lane<'a> {
    fn new(worker: &'a WorkerHistory) -> Self {
        let vals = worker.values();
        // Candidates are positive and histories non-negative, so only
        // leading zeros sit at or below "no candidate yet". A linear scan:
        // it touches the cache line the merge reads next anyway, where a
        // binary search would drag in cold ones.
        let vpos = vals.iter().take_while(|&&v| v <= 0.0).count();
        Lane { vals, vpos }
    }

    /// `pr(cand, w)`: replicates `WorkerHistory::acceptance_prob` exactly
    /// (`partition_point(v <= cand) / N`, newcomer rule for an empty
    /// history) but advances a forward-only cursor instead of binary
    /// searching per candidate.
    fn prob_at(&mut self, cand: Value) -> f64 {
        if self.vals.is_empty() {
            // Newcomer rule: candidates are always positive here.
            return 1.0;
        }
        while self.vals.get(self.vpos).is_some_and(|&v| v <= cand) {
            self.vpos += 1;
        }
        self.vpos as f64 / self.vals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_3() {
        // Example 3: payments with acceptance probabilities such that the
        // platform margin distribution (v_r − v') ∈ {1,2,3,4,5} has
        // acceptance {0.9, 0.8, 0.4, 0.3, 0.2}; the maximum expected
        // revenue is 2·0.8 = 1.6 at margin 2 (payment v_r − 2 = 4 for
        // v_r = 6). We encode the same step acceptance with a history
        // CDF: worker history of 10 values, of which 9 are ≤ v'=5,
        // 8 ≤ 4, 4 ≤ 3, 3 ≤ 2, 2 ≤ 1.
        let history = vec![
            1.0, 1.0, // 2 values ≤ 1
            2.0, // 3 ≤ 2
            3.0, // 4 ≤ 3
            4.0, 4.0, 4.0, 4.0, // 8 ≤ 4
            5.0, // 9 ≤ 5
            9.0, // 10th value above v_r
        ];
        let w = WorkerHistory::from_values(history);
        let out = max_expected_revenue(6.0, &[&w], PriceCandidates::IntegerGrid).unwrap();
        assert_eq!(out.payment, 4.0);
        assert!((out.acceptance_prob - 0.8).abs() < 1e-12);
        assert!((out.expected_revenue - 1.6).abs() < 1e-12);
    }

    /// Every payment of `payments`, each evaluated from scratch, no margin
    /// bound: the reference the bounded arms are bit-compared against.
    fn exhaustive(
        request_value: Value,
        workers: &[&WorkerHistory],
        payments: impl IntoIterator<Item = Value>,
    ) -> Option<PricingOutcome> {
        let mut tracker = BestTracker {
            request_value,
            best: None,
            evaluated: 0,
        };
        for p in payments {
            tracker.consider(workers, p);
        }
        tracker.best
    }

    /// The enumeration the streaming merge replaced: pool every worker's
    /// history values in `(0, v_r]` plus `v_r`, sort, dedup, and evaluate
    /// each candidate from scratch. Test-only reference the merge is
    /// bit-compared against.
    fn rebuild_reference(
        request_value: Value,
        workers: &[&WorkerHistory],
    ) -> Option<PricingOutcome> {
        let mut cands: Vec<Value> = workers
            .iter()
            .flat_map(|w| w.values())
            .copied()
            .filter(|&b| b > 0.0 && b <= request_value)
            .collect();
        cands.push(request_value);
        cands.sort_by(|a, b| a.total_cmp(b));
        cands.dedup();
        exhaustive(request_value, workers, cands)
    }

    /// `IntegerGrid`'s payments: `1, 2, …` below `v_r`, then `v_r`.
    fn integer_payments(request_value: Value) -> Vec<Value> {
        let mut out = Vec::new();
        let mut p = 1.0;
        while p < request_value {
            out.push(p);
            p += 1.0;
        }
        out.push(request_value);
        out
    }

    /// `UniformGrid(k)`'s payments.
    fn uniform_payments(request_value: Value, k: usize) -> impl Iterator<Item = Value> {
        (1..=k).map(move |i| request_value * i as f64 / k as f64)
    }

    /// All three bounded arms against their exhaustive references.
    fn assert_arms_match_exhaustive(value: Value, workers: &[&WorkerHistory]) {
        let arm = |strategy| outcome_bits(&max_expected_revenue(value, workers, strategy));
        assert_eq!(
            arm(PriceCandidates::Breakpoints),
            outcome_bits(&rebuild_reference(value, workers)),
            "breakpoints, v_r = {value}"
        );
        assert_eq!(
            arm(PriceCandidates::IntegerGrid),
            outcome_bits(&exhaustive(value, workers, integer_payments(value))),
            "integer grid, v_r = {value}"
        );
        assert_eq!(
            arm(PriceCandidates::UniformGrid(16)),
            outcome_bits(&exhaustive(value, workers, uniform_payments(value, 16))),
            "uniform grid, v_r = {value}"
        );
    }

    fn outcome_bits(o: &Option<PricingOutcome>) -> Option<(u64, u64, u64)> {
        o.as_ref().map(|o| {
            (
                o.payment.to_bits(),
                o.acceptance_prob.to_bits(),
                o.expected_revenue.to_bits(),
            )
        })
    }

    #[test]
    fn streaming_merge_is_bit_identical_to_rebuild() {
        // Duplicated breakpoints across workers, a breakpoint equal to
        // v_r, one above v_r, and an empty (newcomer) history — the edge
        // cases the merge dedup/filter must handle.
        let hs = [
            WorkerHistory::from_values(vec![2.0, 5.0, 8.0, 12.0]),
            WorkerHistory::from_values(vec![5.0, 5.0, 7.0]),
            WorkerHistory::from_values(vec![]),
        ];
        let workers: Vec<&WorkerHistory> = hs.iter().collect();
        for value in [1.0, 5.0, 8.0, 8.5, 30.0] {
            assert_arms_match_exhaustive(value, &workers);
        }
    }

    #[test]
    fn margin_bound_keeps_an_exact_tie() {
        // E(4) = 8·½ = 4 = 4·1 = E(8): the margin at 8 equals the best, so
        // the bound must let it through and the tie rule pick it.
        let w = WorkerHistory::from_values(vec![4.0, 8.0]);
        let out = max_expected_revenue(12.0, &[&w], PriceCandidates::Breakpoints).unwrap();
        assert_eq!(out.payment, 8.0);
        assert_eq!(out.expected_revenue, 4.0);
    }

    #[test]
    fn margin_bound_respects_the_tie_band() {
        // E(2) = 4 and E(6.0000000000005) ≈ 4 − 5e-13: the second margin is
        // already *below* the best, but inside the 1e-12 band where the tie
        // rule prefers the higher payment. A bound written `< 0.0` instead
        // of `< -1e-12` would stop early and return 2.0.
        let w = WorkerHistory::from_values(vec![2.0, 6.000_000_000_000_5]);
        let workers = [&w];
        let out = max_expected_revenue(10.0, &workers, PriceCandidates::Breakpoints).unwrap();
        assert_eq!(out.payment, 6.000_000_000_000_5);
        assert!(out.expected_revenue < 4.0);
        assert_arms_match_exhaustive(10.0, &workers);
    }

    #[test]
    fn dense_worker_set_stops_at_the_first_breakpoint() {
        // 40 workers: group acceptance at the first breakpoint is
        // 1 − 0.75⁴⁰ ≈ 1, so E(5) ≈ 25 and no later margin (≤ 20) can
        // compete. The unbounded loop evaluates all 5 candidates.
        let h = WorkerHistory::from_values(vec![5.0, 10.0, 15.0, 20.0]);
        let workers = vec![&h; 40];
        com_obs::install();
        com_obs::begin_run("test");
        let out = max_expected_revenue(30.0, &workers, PriceCandidates::Breakpoints);
        let telemetry = com_obs::end_run().expect("collector installed");
        // The exact-tie case walks both breakpoints below `v_r`; only `v_r`
        // itself (margin 0) is cut, which is not a margin exit.
        com_obs::begin_run("test");
        let tie = WorkerHistory::from_values(vec![4.0, 8.0]);
        max_expected_revenue(12.0, &[&tie], PriceCandidates::Breakpoints);
        let sparse = com_obs::end_run().expect("collector installed");
        com_obs::uninstall();
        assert_eq!(sparse.counter("pricing.candidates_evaluated"), Some(2));
        assert_eq!(sparse.counter("pricing.margin_exits"), None);
        assert_eq!(out.unwrap().payment, 5.0);
        assert_eq!(
            outcome_bits(&out),
            outcome_bits(&rebuild_reference(30.0, &workers))
        );
        let evaluated = telemetry.counter("pricing.candidates_evaluated").unwrap();
        assert!(evaluated <= 2, "evaluated {evaluated} candidates");
        assert_eq!(telemetry.counter("pricing.margin_exits"), Some(1));
    }

    #[test]
    fn curve_maximum_matches_the_maximiser() {
        // The whole price → expected-revenue curve, computed the slow way
        // at every breakpoint: its maximum is what the maximiser returns.
        let a = WorkerHistory::from_values(vec![4.0, 8.0, 12.0]);
        let b = WorkerHistory::from_values(vec![6.0, 10.0]);
        let workers = [&a, &b];
        let best_on_curve = [4.0, 6.0, 8.0, 10.0, 11.0]
            .iter()
            .map(|&p| (11.0 - p) * group_acceptance_prob(&workers, p))
            .fold(0.0f64, f64::max);
        let opt = max_expected_revenue(11.0, &workers, PriceCandidates::Breakpoints)
            .map(|o| o.expected_revenue)
            .unwrap_or(0.0);
        assert!((best_on_curve - opt).abs() < 1e-12);
    }

    #[test]
    fn breakpoints_match_integer_grid_on_integer_histories() {
        let a = WorkerHistory::from_values(vec![2.0, 5.0, 7.0]);
        let b = WorkerHistory::from_values(vec![3.0, 4.0]);
        let workers = [&a, &b];
        let bp = max_expected_revenue(8.0, &workers, PriceCandidates::Breakpoints).unwrap();
        let grid = max_expected_revenue(8.0, &workers, PriceCandidates::IntegerGrid).unwrap();
        assert!((bp.expected_revenue - grid.expected_revenue).abs() < 1e-12);
        assert_eq!(bp.payment, grid.payment);
    }

    #[test]
    fn empty_workers_yield_none() {
        assert!(max_expected_revenue(5.0, &[], PriceCandidates::Breakpoints).is_none());
    }

    #[test]
    fn never_accepting_workers_yield_none() {
        // Same ¥50 floor as below, on the grid arm.
        let no = WorkerHistory::from_values(vec![50.0, 60.0]);
        assert!(max_expected_revenue(5.0, &[&no], PriceCandidates::UniformGrid(32)).is_none());
    }

    #[test]
    fn floor_higher_than_value_yields_none() {
        // The worker only ever accepted fares ≥ 50; a request worth 5 can
        // never attract them within (0, v_r].
        let w = WorkerHistory::from_values(vec![50.0, 60.0]);
        assert!(max_expected_revenue(5.0, &[&w], PriceCandidates::Breakpoints).is_none());
    }

    #[test]
    fn always_accepting_worker_prices_low() {
        // A newcomer (empty history) accepts any positive payment.
        let yes = WorkerHistory::new();
        let out = max_expected_revenue(10.0, &[&yes], PriceCandidates::UniformGrid(100)).unwrap();
        // Smallest candidate wins: margin is maximal.
        assert!(out.payment <= 0.1 + 1e-12);
        assert!(out.expected_revenue >= 9.9 - 1e-9);
    }

    #[test]
    fn payment_at_most_request_value_even_when_only_full_price_works() {
        let w = WorkerHistory::from_values(vec![6.0]);
        // Only v' = 6 = v_r has pr > 0, and margin 0 ⇒ expected 0 ⇒ None.
        assert!(max_expected_revenue(6.0, &[&w], PriceCandidates::Breakpoints).is_none());
    }

    #[test]
    fn more_workers_never_reduce_expected_revenue() {
        let a = WorkerHistory::from_values(vec![4.0, 6.0]);
        let b = WorkerHistory::from_values(vec![3.0, 8.0]);
        let one = [&a];
        let two = [&a, &b];
        let e1 = max_expected_revenue(9.0, &one, PriceCandidates::Breakpoints)
            .map(|o| o.expected_revenue)
            .unwrap_or(0.0);
        let e2 = max_expected_revenue(9.0, &two, PriceCandidates::Breakpoints)
            .map(|o| o.expected_revenue)
            .unwrap_or(0.0);
        assert!(e2 >= e1 - 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_breakpoints_dominate_uniform_grid(
            hist in proptest::collection::vec(0.5f64..20.0, 1..12),
            value in 1.0f64..25.0,
        ) {
            let w = WorkerHistory::from_values(hist);
            let workers = [&w];
            let exact = max_expected_revenue(value, &workers, PriceCandidates::Breakpoints)
                .map(|o| o.expected_revenue).unwrap_or(0.0);
            let grid = max_expected_revenue(value, &workers, PriceCandidates::UniformGrid(64))
                .map(|o| o.expected_revenue).unwrap_or(0.0);
            // The breakpoint maximiser is exact for step CDFs, so it must
            // dominate any grid.
            prop_assert!(exact >= grid - 1e-9,
                "breakpoints {exact} < uniform grid {grid}");
        }

        #[test]
        fn prop_merge_bit_identical_to_rebuild(
            // 1–20 workers × 0–30 values on a 0.1 lattice: zeros,
            // duplicates within and across workers, empty histories, and
            // values above v_r all occur.
            lattice in proptest::collection::vec(
                proptest::collection::vec(0u32..=250, 0..31), 1..21),
            value_step in 1u32..=300,
            off_lattice in proptest::bool::ANY,
        ) {
            let hs: Vec<WorkerHistory> = lattice
                .into_iter()
                .map(|h| {
                    WorkerHistory::from_values(h.into_iter().map(|k| f64::from(k) * 0.1).collect())
                })
                .collect();
            let workers: Vec<&WorkerHistory> = hs.iter().collect();
            let value = f64::from(value_step) * 0.1 + if off_lattice { 0.037 } else { 0.0 };
            assert_arms_match_exhaustive(value, &workers);
        }

        #[test]
        fn prop_outcome_is_consistent(
            hist in proptest::collection::vec(0.5f64..20.0, 1..12),
            value in 1.0f64..25.0,
        ) {
            let w = WorkerHistory::from_values(hist);
            let workers = [&w];
            if let Some(o) =
                max_expected_revenue(value, &workers, PriceCandidates::Breakpoints)
            {
                prop_assert!(o.payment > 0.0 && o.payment <= value);
                prop_assert!((0.0..=1.0).contains(&o.acceptance_prob));
                let recomputed = (value - o.payment)
                    * group_acceptance_prob(&workers, o.payment);
                prop_assert!((recomputed - o.expected_revenue).abs() < 1e-9);
                prop_assert!(o.expected_revenue > 0.0);
            }
        }
    }
}
