//! # com-pricing
//!
//! The incentive-mechanism substrate of Cross Online Matching.
//!
//! COM pays *outer* (borrowed) workers an outer payment `v'_r ∈ (0, v_r]`
//! and the target platform keeps `v_r − v'_r` (Definitions 2.4/2.5).
//! Whether a borrowed worker accepts is governed by an acceptance
//! probability estimated from the worker's request-completion history
//! (Definition 3.1, Eq. 4). This crate implements all of the pricing
//! machinery the two COM algorithms need:
//!
//! * [`WorkerHistory`] — a worker's completed-request values with the
//!   empirical-CDF acceptance probability `pr(v', w) = N(v ≤ v') / N`.
//!   It is the paper's only acceptance model, so every kernel below takes
//!   `&[&WorkerHistory]` — there is no acceptance trait to implement.
//! * `group_acceptance_prob.rs` — `pr(v', W) = 1 − Π_w (1 − pr(v', w))`,
//!   the group acceptance probability of Definition 4.1.
//! * [`MinPaymentEstimator`] — the paper's Algorithm 2: a Monte Carlo +
//!   dichotomy estimator of the minimum outer payment, with the
//!   `n_s = ⌈4·ln(2/ξ)/η²⌉` sample-size rule of Lemma 1. Its cost is its
//!   draws: each worker's CDF is consulted once per distinct payment of
//!   a call, not once per sampling instance.
//! * [`bernoulli`] — the one accept/reject draw behind every cooperative
//!   offer.
//! * [`max_expected_revenue`] — the maximum-expected-revenue pricing of
//!   Definition 4.1 (the role played by "\[14\]" in RamCOM):
//!   `argmax_{v'} (v_r − v')·pr(v', W)`. Exact and bounded: the ascending
//!   scan stops where the margin `v_r − v'` runs out, so its cost is the
//!   winning prefix of the breakpoints, not all of them.

mod acceptance;
mod expected_revenue;
mod history;
mod monte_carlo;
mod sampling;

pub use expected_revenue::{max_expected_revenue, PriceCandidates, PricingOutcome};
pub use history::WorkerHistory;
pub use monte_carlo::{MinPaymentEstimator, MonteCarloParams};
pub use sampling::bernoulli;

/// Monetary value of a request (`v_r`) or payment (`v'_r`), in the
/// paper's currency unit (¥). Defined here, in the lowest crate that
/// prices, and re-exported by `com-sim` for the rest of the workspace.
pub type Value = f64;
