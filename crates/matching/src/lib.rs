//! # com-matching
//!
//! Bipartite matching algorithms backing the OFF baseline of the COM paper.
//!
//! Section II-B reduces the offline version of COM to *maximum weighted
//! bipartite graph matching*: workers on one side, requests on the other,
//! an edge wherever all of Definition 2.6's constraints hold, weighted by
//! the revenue of that assignment (`v_r` for inner workers, `v_r − v'_r`
//! for outer workers). This crate provides:
//!
//! * [`BipartiteGraph`] — a sparse weighted bipartite graph.
//! * [`hungarian()`] — exact maximum-weight matching (dense Kuhn–Munkres,
//!   `O(min(n,m)²·max(n,m))`); the solver behind OFF's
//!   `ExactBipartite` mode, which the competitive-ratio experiments use.
//! * [`ssp_max_weight`] — exact maximum-weight matching via successive
//!   shortest augmenting paths with potentials (sparse; `O(K·E·log V)`),
//!   behind OFF's `SparseExact` mode. Only tests select that mode today:
//!   it is the Hungarian solver's cross-check.
//!
//! All solvers return a [`Matching`]; the two exact ones cross-validate
//! each other and are checked against brute-force enumeration and, in
//! test builds, against a sort-by-weight greedy 1/2-approximation
//! (`greedy.rs`) as a lower bound.

mod graph;
mod greedy;
mod hungarian;
mod ssp;
mod validate;

pub use graph::BipartiteGraph;
pub use hungarian::hungarian;
pub use ssp::ssp_max_weight;
pub use validate::is_valid_matching;

/// A matching: `pairs[i] = (left, right, weight)` with every left and right
/// vertex appearing at most once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matching {
    pub pairs: Vec<(usize, usize, f64)>,
}

#[cfg(test)]
impl Matching {
    /// Total weight of the matching.
    pub(crate) fn total_weight(&self) -> f64 {
        self.pairs.iter().map(|&(_, _, w)| w).sum()
    }

    /// Number of matched pairs.
    pub(crate) fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the matching is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}
