//! Sparse weighted bipartite graphs.

/// One edge of a bipartite graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Edge {
    pub(crate) left: usize,
    pub(crate) right: usize,
    pub(crate) weight: f64,
}

/// A sparse weighted bipartite graph with `n_left` left vertices (workers
/// in the COM reduction) and `n_right` right vertices (requests).
///
/// Edges are stored per left vertex in insertion order. Duplicate
/// `(left, right)` edges are allowed at the storage level; matchers treat
/// them as parallel edges (only the best one can ever matter).
#[derive(Debug, Clone)]
pub(crate) struct BipartiteGraph {
    n_left: usize,
    n_right: usize,
    adj: Vec<Vec<(usize, f64)>>,
    n_edges: usize,
}

impl BipartiteGraph {
    /// An empty graph with the given partition sizes.
    pub(crate) fn new(n_left: usize, n_right: usize) -> Self {
        BipartiteGraph {
            n_left,
            n_right,
            adj: vec![Vec::new(); n_left],
            n_edges: 0,
        }
    }

    /// Number of left vertices.
    #[inline]
    pub(crate) fn n_left(&self) -> usize {
        self.n_left
    }

    /// Number of right vertices.
    #[inline]
    pub(crate) fn n_right(&self) -> usize {
        self.n_right
    }

    /// Number of edges.
    #[inline]
    pub(crate) fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Add an edge. Weights must be finite.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or the weight is not
    /// finite.
    pub(crate) fn add_edge(&mut self, left: usize, right: usize, weight: f64) {
        assert!(left < self.n_left, "left vertex {left} out of range");
        assert!(right < self.n_right, "right vertex {right} out of range");
        assert!(weight.is_finite(), "edge weight must be finite");
        self.adj[left].push((right, weight));
        self.n_edges += 1;
    }

    /// Neighbours of a left vertex as `(right, weight)` pairs.
    #[inline]
    pub(crate) fn neighbors(&self, left: usize) -> &[(usize, f64)] {
        &self.adj[left]
    }

    /// Iterate over all edges.
    pub(crate) fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adj.iter().enumerate().flat_map(|(l, nbrs)| {
            nbrs.iter().map(move |&(r, w)| Edge {
                left: l,
                right: r,
                weight: w,
            })
        })
    }

    /// Weight of the edge `(left, right)` if present (the maximum over
    /// parallel edges).
    pub(crate) fn weight(&self, left: usize, right: usize) -> Option<f64> {
        self.adj[left]
            .iter()
            .filter(|&&(r, _)| r == right)
            .map(|&(_, w)| w)
            .fold(None, |acc, w| {
                Some(match acc {
                    None => w,
                    Some(a) => a.max(w),
                })
            })
    }
}

/// A matching: `pairs[i] = (left, right, weight)` with every left and right
/// vertex appearing at most once.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Matching {
    pub(crate) pairs: Vec<(usize, usize, f64)>,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = BipartiteGraph::new(2, 3);
        g.add_edge(0, 1, 4.0);
        g.add_edge(0, 2, 2.0);
        g.add_edge(1, 0, 7.0);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.neighbors(0), &[(1, 4.0), (2, 2.0)]);
        assert_eq!(g.weight(1, 0), Some(7.0));
        assert_eq!(g.weight(1, 1), None);
    }

    #[test]
    fn parallel_edges_take_max_weight() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(0, 0, 3.0);
        g.add_edge(0, 0, 5.0);
        g.add_edge(0, 0, 1.0);
        assert_eq!(g.weight(0, 0), Some(5.0));
    }

    #[test]
    fn from_edges_and_iter_roundtrip() {
        let edges = vec![
            Edge {
                left: 0,
                right: 0,
                weight: 1.0,
            },
            Edge {
                left: 1,
                right: 1,
                weight: 2.0,
            },
        ];
        let mut g = BipartiteGraph::new(2, 2);
        for e in &edges {
            g.add_edge(e.left, e.right, e.weight);
        }
        let back: Vec<Edge> = g.edges().collect();
        assert_eq!(back, edges);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(1, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn rejects_nan_weight() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(0, 0, f64::NAN);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::new(0, 0);
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }
}
