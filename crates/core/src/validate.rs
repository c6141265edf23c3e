//! Matching validation: the run auditor's one-shot cross-check, and the
//! exact solver's tests.

use std::collections::HashSet;

use crate::graph::{BipartiteGraph, Matching};

/// Whether `m` is a valid matching of `g`:
///
/// * every endpoint is in range,
/// * no left or right vertex is used twice (the paper's 1-by-1
///   constraint),
/// * every pair corresponds to an actual graph edge, and the recorded
///   weight equals some parallel edge's weight.
pub(crate) fn is_valid_matching(g: &BipartiteGraph, m: &Matching) -> bool {
    let mut left_seen = HashSet::new();
    let mut right_seen = HashSet::new();
    for &(l, r, w) in &m.pairs {
        if l >= g.n_left() || r >= g.n_right() {
            return false;
        }
        if !left_seen.insert(l) || !right_seen.insert(r) {
            return false;
        }
        let has_edge = g
            .neighbors(l)
            .iter()
            .any(|&(rr, ww)| rr == r && (ww - w).abs() < 1e-9);
        if !has_edge {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[(usize, usize, f64)]) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(3, 3);
        for &(l, r, w) in edges {
            g.add_edge(l, r, w);
        }
        g
    }

    #[test]
    fn accepts_valid_matching() {
        let g = graph(&[(0, 0, 1.0), (1, 1, 2.0)]);
        let m = Matching {
            pairs: vec![(0, 0, 1.0), (1, 1, 2.0)],
        };
        assert!(is_valid_matching(&g, &m));
    }

    #[test]
    fn rejects_duplicate_left() {
        let g = graph(&[(0, 0, 1.0), (0, 1, 1.0)]);
        let m = Matching {
            pairs: vec![(0, 0, 1.0), (0, 1, 1.0)],
        };
        assert!(!is_valid_matching(&g, &m));
    }

    #[test]
    fn rejects_duplicate_right() {
        let g = graph(&[(0, 0, 1.0), (1, 0, 1.0)]);
        let m = Matching {
            pairs: vec![(0, 0, 1.0), (1, 0, 1.0)],
        };
        assert!(!is_valid_matching(&g, &m));
    }

    #[test]
    fn rejects_phantom_edge() {
        let g = graph(&[(0, 0, 1.0)]);
        let m = Matching {
            pairs: vec![(1, 1, 1.0)],
        };
        assert!(!is_valid_matching(&g, &m));
    }

    #[test]
    fn rejects_wrong_weight() {
        let g = graph(&[(0, 0, 1.0)]);
        let m = Matching {
            pairs: vec![(0, 0, 2.0)],
        };
        assert!(!is_valid_matching(&g, &m));
    }

    #[test]
    fn rejects_out_of_range() {
        let g = graph(&[]);
        let m = Matching {
            pairs: vec![(5, 0, 1.0)],
        };
        assert!(!is_valid_matching(&g, &m));
    }

    #[test]
    fn empty_matching_is_valid() {
        let g = graph(&[]);
        assert!(is_valid_matching(&g, &Matching::default()));
    }

    #[test]
    fn matching_helpers() {
        let m = Matching {
            pairs: vec![(0, 2, 1.5), (1, 0, 2.5)],
        };
        assert_eq!(m.total_weight(), 4.0);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }
}
