//! Exact maximum-weight bipartite matching via successive shortest paths
//! — the one exact solver: OFF's Fig. 4 matching (hence every
//! competitive ratio) and `BatchedCom`'s per-window assignment.
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

use std::cmp::Reverse;
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

/// Add a unit-capacity edge and its empty reverse to the residual graph.
fn add_edge(graph: &mut [Vec<FlowEdge>], from: usize, to: usize, cost: i64, weight: f64) {
    let (rev_from, rev_to) = (graph[to].len(), graph[from].len());
    graph[from].push(FlowEdge {
        to,
        cap: 1,
        cost,
        weight,
        rev: rev_from,
    });
    graph[to].push(FlowEdge {
        to: from,
        cap: 0,
        cost: -cost,
        weight: 0.0,
        rev: rev_to,
    });
}

/// Exact maximum-weight matching for sparse graphs. Edges with
/// non-positive weight are ignored (they can never help the objective).
///
/// A matching never crosses a connected component, so each component is
/// solved alone and every Dijkstra pass explores only its own component.
pub(crate) fn ssp_max_weight(g: &BipartiteGraph) -> Matching {
    let n = g.n_left();
    // Union-find over the vertices, right vertex `r` at `n + r`.
    let mut root: Vec<usize> = (0..n + g.n_right()).collect();
    fn find(root: &mut [usize], mut v: usize) -> usize {
        while root[v] != v {
            root[v] = root[root[v]];
            v = root[v];
        }
        v
    }
    let edges: Vec<_> = g.edges().filter(|e| e.weight > 0.0).collect();
    for e in &edges {
        let (a, b) = (find(&mut root, e.left), find(&mut root, n + e.right));
        root[a.max(b)] = a.min(b);
    }
    // Per component (indexed by its root): its edges, and its vertices
    // renumbered from 0 in their global order (`vertices` maps back).
    let mut parts = vec![Vec::new(); root.len()];
    for e in &edges {
        parts[find(&mut root, e.left)].push(*e);
    }
    let mut vertices = vec![[Vec::new(), Vec::new()]; root.len()];
    let mut local = vec![0; root.len()];
    for v in 0..root.len() {
        let c = find(&mut root, v);
        if !parts[c].is_empty() {
            let side = &mut vertices[c][usize::from(v >= n)];
            local[v] = side.len();
            side.push(v);
        }
    }
    let mut pairs = Vec::new();
    for (part, [lefts, rights]) in parts.iter().zip(&vertices) {
        if part.is_empty() {
            continue;
        }
        let mut sub = BipartiteGraph::new(lefts.len(), rights.len());
        for e in part {
            sub.add_edge(local[e.left], local[n + e.right], e.weight);
        }
        let solved = ssp_connected(&sub).pairs.into_iter();
        pairs.extend(solved.map(|(l, r, w)| (lefts[l], rights[r] - n, w)));
    }
    pairs.sort_by_key(|&(l, _, _)| l);
    Matching { pairs }
}

/// [`ssp_max_weight`] on a connected graph of positive edges.
fn ssp_connected(g: &BipartiteGraph) -> Matching {
    let (n, m) = (g.n_left(), g.n_right());
    // Node layout: 0 = source, 1..=n left, n+1..=n+m right, n+m+1 sink.
    let (source, sink, total) = (0, n + m + 1, n + m + 2);
    let quantize = |w: f64| -> i64 { (w * SCALE).round() as i64 };
    let mut graph = vec![Vec::new(); total];
    for l in 0..n {
        add_edge(&mut graph, source, 1 + l, 0, 0.0);
    }
    for e in g.edges() {
        let cost = -quantize(e.weight);
        add_edge(&mut graph, 1 + e.left, 1 + n + e.right, cost, e.weight);
    }
    for r in 0..m {
        add_edge(&mut graph, 1 + n + r, sink, 0, 0.0);
    }

    // Initial potentials: the network is a DAG (source→L→R→sink), so one
    // layered relaxation gives exact shortest distances under the raw
    // (negative) costs.
    let mut potential = vec![0i64; total];
    for e in g.edges() {
        let p = &mut potential[1 + n + e.right];
        *p = (*p).min(-quantize(e.weight));
    }
    potential[sink] = potential[1 + n..sink].iter().copied().min().unwrap_or(0);

    let inf = i64::MAX / 4;
    let mut dist = vec![inf; total];
    let mut prev = vec![(0, 0); total];
    let mut heap = BinaryHeap::new();
    loop {
        // Dijkstra on reduced costs (exact integer arithmetic), popping
        // the least `(distance, node)` first and stopping once the sink
        // is settled.
        dist.fill(inf);
        dist[source] = 0;
        heap.clear();
        heap.push(Reverse((0, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            if u == sink {
                break;
            }
            for (i, e) in graph[u].iter().enumerate() {
                if e.cap <= 0 {
                    continue;
                }
                let nd = d + e.cost + potential[u] - potential[e.to];
                debug_assert!(nd >= d, "negative reduced cost: potentials out of sync");
                if nd < dist[e.to] {
                    dist[e.to] = nd;
                    prev[e.to] = (u, i);
                    heap.push(Reverse((nd, e.to)));
                }
            }
        }
        // Stop when no path is left or the next one (its true cost undoes
        // the potential shift; the source's potential stays 0) would not
        // increase the total weight.
        if dist[sink] >= inf || dist[sink] + potential[sink] >= 0 {
            break;
        }
        // Capping at the sink's distance keeps every residual reduced
        // cost non-negative for the nodes the early stop left unsettled.
        let reach = dist[sink];
        for (p, &d) in potential.iter_mut().zip(&dist) {
            *p += d.min(reach);
        }
        // Augment one unit along the path.
        let mut v = sink;
        while v != source {
            let (u, i) = prev[v];
            let rev = graph[u][i].rev;
            graph[u][i].cap -= 1;
            graph[v][rev].cap += 1;
            v = u;
        }
    }

    // Matched pairs: forward left→right edges whose capacity was consumed.
    let mut pairs = Vec::new();
    for l in 0..n {
        let matched = graph[1 + l].iter().filter(|e| e.cap == 0 && e.weight > 0.0);
        pairs.extend(matched.map(|e| (l, e.to - n - 1, e.weight)));
    }
    Matching { pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_matching;
    use crate::validate::is_valid_matching;
    use proptest::prelude::*;

    fn graph(n: usize, m: usize, edges: &[(usize, usize, f64)]) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(n, m);
        for &(l, r, w) in edges {
            g.add_edge(l, r, w);
        }
        g
    }

    /// Brute force: the best matching over every choice, left vertex by
    /// left vertex, of one free neighbour or none.
    fn brute_max_weight(g: &BipartiteGraph) -> f64 {
        fn best(g: &BipartiteGraph, l: usize, used: &mut [bool]) -> f64 {
            if l == g.n_left() {
                return 0.0;
            }
            let mut top = best(g, l + 1, used);
            for &(r, w) in g.neighbors(l) {
                if !used[r] {
                    used[r] = true;
                    top = top.max(w + best(g, l + 1, used));
                    used[r] = false;
                }
            }
            top
        }
        best(g, 0, &mut vec![false; g.n_right()])
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
    fn paper_example_1_tota_offline() {
        // Fig. 4(a): the TOTA-only bipartite graph of Example 1 has the
        // optimal matching w1–r2(9), w2–r3(6), w4–r4(3) with revenue 18.
        // Left = workers w1,w2,w4 (indices 0,1,2); right = r1..r5.
        let g = graph(
            3,
            5,
            &[
                (0, 0, 4.0), // w1 can serve r1 (value 4)
                (0, 1, 9.0), // w1 can serve r2 (value 9)
                (1, 1, 9.0), // w2 can serve r2
                (1, 2, 6.0), // w2 can serve r3
                (2, 3, 3.0), // w4 can serve r4
            ],
        );
        let m = ssp_max_weight(&g);
        assert_eq!(m.total_weight(), 18.0);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn paper_example_1_com_offline() {
        // Fig. 4(b): adding outer workers w3 (serving r3 at 50%) and w5
        // (serving r5 at 50%) the optimum becomes
        // 4 + 9 + 6·0.5 + 3 + 4·0.5 = 21.
        let g = graph(
            5,
            5,
            &[
                (0, 0, 4.0),
                (0, 1, 9.0),
                (1, 1, 9.0),
                (1, 2, 6.0),
                (2, 3, 3.0),
                // outer worker w3: half-value edge to r3
                (3, 2, 3.0),
                // outer worker w5: half-value edge to r5
                (4, 4, 2.0),
            ],
        );
        let m = ssp_max_weight(&g);
        assert_eq!(m.total_weight(), 21.0);
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn leaves_unprofitable_vertices_unmatched() {
        let g = graph(2, 1, &[(0, 0, 5.0), (1, 0, 3.0)]);
        let m = ssp_max_weight(&g);
        assert_eq!(m.total_weight(), 5.0);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn transposed_instances_agree() {
        // More left than right vertices (n > m).
        let g = graph(4, 2, &[(0, 0, 1.0), (1, 0, 8.0), (2, 1, 3.0), (3, 1, 2.0)]);
        let m = ssp_max_weight(&g);
        assert_eq!(m.total_weight(), 11.0);
        assert!(is_valid_matching(&g, &m));
    }

    #[test]
    fn empty_inputs() {
        assert!(ssp_max_weight(&BipartiteGraph::new(0, 3)).is_empty());
        assert!(ssp_max_weight(&BipartiteGraph::new(3, 0)).is_empty());
        assert!(ssp_max_weight(&BipartiteGraph::new(3, 3)).is_empty());
    }

    #[test]
    fn large_random_agrees_with_hungarian() {
        // The literal is the optimum a dense Kuhn–Munkres solver computes
        // on this graph, bit for bit.
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
        let m = ssp_max_weight(&g);
        assert!(is_valid_matching(&g, &m));
        assert_eq!(m.total_weight(), 1014.3642684289398);
        assert_eq!(m.len(), 40);
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
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn prop_optimal_vs_brute_force(
            n in 1usize..=6,
            m in 1usize..=6,
            edges in proptest::collection::vec(
                (0usize..6, 0usize..6, 0.1f64..20.0), 0..16),
        ) {
            let mut g = BipartiteGraph::new(n, m);
            for (l, r, w) in &edges {
                g.add_edge(l % n, r % m, *w);
            }
            let flow = ssp_max_weight(&g);
            prop_assert!(is_valid_matching(&g, &flow));
            let brute = brute_max_weight(&g);
            prop_assert!((flow.total_weight() - brute).abs() < 1e-5,
                "flow {} != brute {}", flow.total_weight(), brute);
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
