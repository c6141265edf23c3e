//! Greedy maximum-weight matching (1/2-approximation), the lower bound
//! the exact solver's property tests compare against.
//!
//! Sorts edges by decreasing weight and takes an edge whenever both
//! endpoints are still free. This is the classical 1/2-approximation for
//! maximum weight matching.
#![cfg(test)]

use crate::graph::{BipartiteGraph, Matching};

/// Compute a greedy matching. Ties in weight break on `(left, right)`
/// index for determinism. Edges with non-positive weight are skipped (they
/// can never improve the revenue objective).
pub(crate) fn greedy_matching(g: &BipartiteGraph) -> Matching {
    let mut edges: Vec<(usize, usize, f64)> = g
        .edges()
        .filter(|e| e.weight > 0.0)
        .map(|e| (e.left, e.right, e.weight))
        .collect();
    edges.sort_by(|a, b| {
        b.2.total_cmp(&a.2)
            .then_with(|| a.0.cmp(&b.0))
            .then_with(|| a.1.cmp(&b.1))
    });

    let mut left_used = vec![false; g.n_left()];
    let mut right_used = vec![false; g.n_right()];
    let mut pairs = Vec::new();
    for (l, r, w) in edges {
        if !left_used[l] && !right_used[r] {
            left_used[l] = true;
            right_used[r] = true;
            pairs.push((l, r, w));
        }
    }
    Matching { pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::is_valid_matching;

    #[test]
    fn picks_heaviest_available() {
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(0, 0, 10.0);
        g.add_edge(0, 1, 9.0);
        g.add_edge(1, 0, 9.0);
        let m = greedy_matching(&g);
        // Greedy takes (0,0,10); left 1 then only has right 0 which is
        // used, so total is 10 — the optimal here would be 18.
        assert_eq!(m.total_weight(), 10.0);
        assert!(is_valid_matching(&g, &m));
    }

    #[test]
    fn achieves_optimum_on_disjoint_edges() {
        let mut g = BipartiteGraph::new(3, 3);
        g.add_edge(0, 0, 5.0);
        g.add_edge(1, 1, 3.0);
        g.add_edge(2, 2, 7.0);
        let m = greedy_matching(&g);
        assert_eq!(m.total_weight(), 15.0);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn skips_nonpositive_edges() {
        let mut g = BipartiteGraph::new(1, 2);
        g.add_edge(0, 0, 0.0);
        g.add_edge(0, 1, -1.0);
        let m = greedy_matching(&g);
        assert!(m.is_empty());
    }

    #[test]
    fn deterministic_under_ties() {
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(0, 0, 1.0);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 0, 1.0);
        g.add_edge(1, 1, 1.0);
        let m1 = greedy_matching(&g);
        let m2 = greedy_matching(&g);
        assert_eq!(m1, m2);
        assert_eq!(m1.len(), 2);
        // Tie-break by (left, right): (0,0) then (1,1).
        assert_eq!(m1.pairs, vec![(0, 0, 1.0), (1, 1, 1.0)]);
    }

    #[test]
    fn empty_graph_yields_empty_matching() {
        let g = BipartiteGraph::new(4, 4);
        assert!(greedy_matching(&g).is_empty());
    }
}
