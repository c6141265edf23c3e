//! Sparse exact maximum-weight matching via successive shortest paths.
//!
//! The city-scale offline instances (tens of thousands of requests) are
//! far too large for a dense cost matrix, but their bipartite graphs are
//! spatially sparse: a request only has edges to the workers whose service
//! circle covers it. This module solves maximum-weight matching as a
//! min-cost flow with Johnson potentials and Dijkstra:
//!
//! * source → each left vertex (capacity 1, cost 0),
//! * left → right for each graph edge (capacity 1, cost `−w`),
//! * each right vertex → sink (capacity 1, cost 0).
//!
//! Successive shortest augmenting paths have non-decreasing cost, so we
//! stop as soon as the next path would have non-negative cost — that point
//! is exactly the maximum-weight (not-necessarily-perfect) matching.
//!
//! Costs are handled in **fixed-point integers** internally (20 fractional
//! bits). Floating-point reduced costs can go infinitesimally negative and
//! let Dijkstra chase ε-improvement cycles forever; integer arithmetic
//! makes every comparison exact. The quantisation error per edge is below
//! `10⁻⁶`, far beneath the 0.1-granular revenue weights this module is used
//! with.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{BipartiteGraph, Matching};

/// Fixed-point scale: 20 fractional bits.
const SCALE: f64 = (1u64 << 20) as f64;

#[derive(Debug, Clone)]
struct FlowEdge {
    to: usize,
    cap: i32,
    /// Fixed-point cost.
    cost: i64,
    /// Original weight for result extraction (forward matching edges
    /// only).
    weight: f64,
    /// Index of the reverse edge in `graph[to]`.
    rev: usize,
}

struct MinCostFlow {
    graph: Vec<Vec<FlowEdge>>,
}

impl MinCostFlow {
    fn new(n: usize) -> Self {
        MinCostFlow {
            graph: vec![Vec::new(); n],
        }
    }

    fn add_edge(&mut self, from: usize, to: usize, cap: i32, cost: i64, weight: f64) {
        let rev_from = self.graph[to].len();
        let rev_to = self.graph[from].len();
        self.graph[from].push(FlowEdge {
            to,
            cap,
            cost,
            weight,
            rev: rev_from,
        });
        self.graph[to].push(FlowEdge {
            to: from,
            cap: 0,
            cost: -cost,
            weight: 0.0,
            rev: rev_to,
        });
    }
}

#[derive(PartialEq, Eq)]
struct HeapItem {
    dist: i64,
    node: usize,
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance, tie-break on node for determinism.
        other
            .dist
            .cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Exact maximum-weight matching for sparse graphs. Edges with
/// non-positive weight are ignored (they can never help the objective).
pub(crate) fn ssp_max_weight(g: &BipartiteGraph) -> Matching {
    let n = g.n_left();
    let m = g.n_right();
    if n == 0 || m == 0 || g.n_edges() == 0 {
        return Matching::default();
    }

    // Node layout: 0 = source, 1..=n left, n+1..=n+m right, n+m+1 sink.
    let source = 0usize;
    let sink = n + m + 1;
    let total = n + m + 2;
    let mut mcf = MinCostFlow::new(total);

    let quantize = |w: f64| -> i64 { (w * SCALE).round() as i64 };

    for l in 0..n {
        mcf.add_edge(source, 1 + l, 1, 0, 0.0);
    }
    for e in g.edges() {
        if e.weight > 0.0 {
            mcf.add_edge(
                1 + e.left,
                1 + n + e.right,
                1,
                -quantize(e.weight),
                e.weight,
            );
        }
    }
    for r in 0..m {
        mcf.add_edge(1 + n + r, sink, 1, 0, 0.0);
    }

    // Initial potentials: the network is a DAG (source→L→R→sink), so one
    // layered relaxation gives exact shortest distances under the raw
    // (negative) costs.
    let mut potential = vec![0i64; total];
    let mut min_right = vec![0i64; m];
    for e in g.edges() {
        if e.weight > 0.0 {
            let c = -quantize(e.weight);
            if c < min_right[e.right] {
                min_right[e.right] = c;
            }
        }
    }
    let mut min_sink = 0i64;
    for r in 0..m {
        potential[1 + n + r] = min_right[r];
        min_sink = min_sink.min(min_right[r]);
    }
    potential[sink] = min_sink;

    let inf = i64::MAX / 4;
    let mut dist = vec![inf; total];
    let mut prev: Vec<(usize, usize)> = vec![(usize::MAX, usize::MAX); total];

    loop {
        // Dijkstra on reduced costs (exact integer arithmetic).
        dist.iter_mut().for_each(|d| *d = inf);
        dist[source] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(HeapItem {
            dist: 0,
            node: source,
        });
        while let Some(HeapItem { dist: d, node: u }) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for (i, e) in mcf.graph[u].iter().enumerate() {
                if e.cap <= 0 {
                    continue;
                }
                let nd = d + e.cost + potential[u] - potential[e.to];
                debug_assert!(nd >= d, "negative reduced cost: potentials out of sync");
                if nd < dist[e.to] {
                    dist[e.to] = nd;
                    prev[e.to] = (u, i);
                    heap.push(HeapItem {
                        dist: nd,
                        node: e.to,
                    });
                }
            }
        }
        if dist[sink] >= inf {
            break;
        }
        // True cost of this augmenting path (undo the potential shift).
        let true_cost = dist[sink] + potential[sink] - potential[source];
        if true_cost >= 0 {
            // Next pair would not increase total weight.
            break;
        }
        // Update potentials for the next round.
        for v in 0..total {
            if dist[v] < inf {
                potential[v] += dist[v];
            }
        }
        // Augment one unit along the path.
        let mut v = sink;
        while v != source {
            let (u, i) = prev[v];
            let rev = mcf.graph[u][i].rev;
            mcf.graph[u][i].cap -= 1;
            mcf.graph[v][rev].cap += 1;
            v = u;
        }
    }

    // Extract matched pairs: left→right edges whose capacity was consumed.
    let mut pairs = Vec::new();
    for l in 0..n {
        for e in &mcf.graph[1 + l] {
            if e.cap == 0 && e.to > n && e.to <= n + m && e.cost < 0 {
                pairs.push((l, e.to - n - 1, e.weight));
            }
        }
    }
    pairs.sort_by_key(|&(l, _, _)| l);
    Matching { pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_matching;
    use crate::hungarian::hungarian;
    use crate::validate::is_valid_matching;
    use proptest::prelude::*;

    fn graph(n: usize, m: usize, edges: &[(usize, usize, f64)]) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(n, m);
        for &(l, r, w) in edges {
            g.add_edge(l, r, w);
        }
        g
    }

    #[test]
    fn crossing_instance_is_solved_optimally() {
        let g = graph(2, 2, &[(0, 0, 10.0), (0, 1, 9.0), (1, 0, 9.0)]);
        let m = ssp_max_weight(&g);
        assert_eq!(m.total_weight(), 18.0);
        assert!(is_valid_matching(&g, &m));
    }

    #[test]
    fn does_not_force_unprofitable_pairs() {
        let g = graph(2, 2, &[(0, 0, 5.0), (1, 1, 0.5)]);
        let m = ssp_max_weight(&g);
        assert_eq!(m.len(), 2);
        assert_eq!(m.total_weight(), 5.5);
    }

    #[test]
    fn skips_zero_weight_edges() {
        let g = graph(2, 2, &[(0, 0, 5.0), (1, 1, 0.0)]);
        let m = ssp_max_weight(&g);
        assert_eq!(m.len(), 1);
        assert_eq!(m.total_weight(), 5.0);
    }

    #[test]
    fn agrees_with_hungarian_on_paper_example() {
        let g = graph(
            5,
            5,
            &[
                (0, 0, 4.0),
                (0, 1, 9.0),
                (1, 1, 9.0),
                (1, 2, 6.0),
                (2, 3, 3.0),
                (3, 2, 3.0),
                (4, 4, 2.0),
            ],
        );
        assert_eq!(ssp_max_weight(&g).total_weight(), 21.0);
    }

    #[test]
    fn empty_inputs() {
        assert!(ssp_max_weight(&BipartiteGraph::new(0, 3)).is_empty());
        assert!(ssp_max_weight(&BipartiteGraph::new(3, 0)).is_empty());
        assert!(ssp_max_weight(&BipartiteGraph::new(3, 3)).is_empty());
    }

    #[test]
    fn large_random_agrees_with_hungarian() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = BipartiteGraph::new(40, 60);
        for _ in 0..300 {
            g.add_edge(
                rng.random_range(0..40),
                rng.random_range(0..60),
                rng.random_range(0.1..30.0),
            );
        }
        let a = ssp_max_weight(&g).total_weight();
        let b = hungarian(&g).total_weight();
        assert!((a - b).abs() < 1e-4, "ssp {a} != hungarian {b}");
    }

    #[test]
    fn epsilon_weights_terminate() {
        // Weights differing by amounts near the f64 noise floor used to
        // send the float-based Dijkstra into ε-improvement cycles; the
        // fixed-point version must terminate and stay optimal.
        let w = 10.0 + 1e-13;
        let g = graph(
            3,
            3,
            &[
                (0, 0, w),
                (0, 1, 10.0),
                (1, 0, 10.0),
                (1, 1, w),
                (2, 2, 1e-12),
            ],
        );
        let m = ssp_max_weight(&g);
        assert!((m.total_weight() - 20.0).abs() < 1e-6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_agrees_with_hungarian(
            edges in proptest::collection::vec(
                (0usize..5, 0usize..5, 0.1f64..20.0), 0..14),
        ) {
            let mut g = BipartiteGraph::new(5, 5);
            for (l, r, w) in &edges {
                g.add_edge(*l, *r, *w);
            }
            let ssp = ssp_max_weight(&g);
            prop_assert!(is_valid_matching(&g, &ssp));
            let h = hungarian(&g).total_weight();
            prop_assert!((ssp.total_weight() - h).abs() < 1e-4,
                "ssp {} != hungarian {}", ssp.total_weight(), h);
        }

        #[test]
        fn prop_at_least_greedy(
            edges in proptest::collection::vec(
                (0usize..7, 0usize..7, 0.1f64..20.0), 0..25),
        ) {
            let mut g = BipartiteGraph::new(7, 7);
            for (l, r, w) in &edges {
                g.add_edge(*l, *r, *w);
            }
            prop_assert!(
                ssp_max_weight(&g).total_weight()
                    >= greedy_matching(&g).total_weight() - 1e-6);
        }
    }
}
