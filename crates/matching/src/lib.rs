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
//! * [`greedy_matching`] — sort-by-weight greedy (1/2-approximation); the
//!   fast fallback for very large instances.
//! * [`hungarian()`] — exact maximum-weight matching (dense Kuhn–Munkres,
//!   `O(min(n,m)²·max(n,m))`); the production solver for small/medium
//!   instances and all competitive-ratio experiments.
//! * [`ssp_max_weight`] — exact maximum-weight matching via successive
//!   shortest augmenting paths with potentials (sparse; `O(K·E·log V)`),
//!   which handles the city-scale offline instances where a dense matrix
//!   would not fit, and doubles as the Hungarian solver's test oracle.
//!
//! All solvers return a [`Matching`]; the two exact ones cross-validate
//! each other and are checked against brute-force enumeration.

pub mod graph;
pub mod greedy;
pub mod hungarian;
pub mod ssp;
pub mod validate;

pub use graph::{BipartiteGraph, Edge};
pub use greedy::greedy_matching;
pub use hungarian::hungarian;
pub use ssp::ssp_max_weight;
pub use validate::{is_valid_matching, matching_weight};

/// A matching: `pairs[i] = (left, right, weight)` with every left and right
/// vertex appearing at most once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matching {
    pub pairs: Vec<(usize, usize, f64)>,
}

impl Matching {
    /// Total weight of the matching.
    pub fn total_weight(&self) -> f64 {
        self.pairs.iter().map(|&(_, _, w)| w).sum()
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the matching is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The right vertex matched to `left`, if any.
    pub fn right_of(&self, left: usize) -> Option<usize> {
        self.pairs
            .iter()
            .find(|&&(l, _, _)| l == left)
            .map(|&(_, r, _)| r)
    }

    /// The left vertex matched to `right`, if any.
    pub fn left_of(&self, right: usize) -> Option<usize> {
        self.pairs
            .iter()
            .find(|&&(_, r, _)| r == right)
            .map(|&(l, _, _)| l)
    }
}
