//! Exact maximum-weight bipartite matching (dense Kuhn–Munkres).
//!
//! This is the solver the paper cites for the offline version of COM
//! (Ahuja et al. \[11\]): the request/worker bipartite graph is solved as an
//! assignment problem. The implementation is the `O(n²·m)` shortest
//! augmenting path formulation (Jonker–Volgenant potentials) on a dense
//! cost matrix, with `n = min(|L|, |R|)` rows.
//!
//! Maximum-weight (not-necessarily-perfect) matching is recovered by
//! using cost `−w` for existing edges and `0` for missing pairs: a row may
//! always "park" on a missing pair at zero cost, so assignments never pay
//! for an unprofitable edge. Pairs whose graph weight is not strictly
//! positive are dropped from the returned matching (they contribute
//! nothing to the revenue objective).

use crate::graph::{BipartiteGraph, Matching};

/// Exact maximum-weight matching. Suitable up to roughly
/// `min(n,m) ≈ 2–3·10³` with `max(n,m) ≈ 10⁵`; beyond that use
/// [`crate::ssp::ssp_max_weight`] (sparse).
pub(crate) fn hungarian(g: &BipartiteGraph) -> Matching {
    let (n, m) = (g.n_left(), g.n_right());
    if n == 0 || m == 0 || g.n_edges() == 0 {
        return Matching::default();
    }

    // Keep rows = the smaller side; transpose if needed.
    let transposed = n > m;
    let (rows, cols) = if transposed { (m, n) } else { (n, m) };

    // Dense cost matrix: -w for edges (max over parallel edges), 0 missing.
    let mut cost = vec![vec![0.0f64; cols]; rows];
    for e in g.edges() {
        if e.weight <= 0.0 {
            continue;
        }
        let (i, j) = if transposed {
            (e.right, e.left)
        } else {
            (e.left, e.right)
        };
        if -e.weight < cost[i][j] {
            cost[i][j] = -e.weight;
        }
    }

    let assignment = solve_rectangular(&cost);

    let mut pairs = Vec::new();
    for (i, j) in assignment {
        let (l, r) = if transposed { (j, i) } else { (i, j) };
        if let Some(w) = g.weight(l, r) {
            if w > 0.0 {
                pairs.push((l, r, w));
            }
        }
    }
    pairs.sort_by_key(|&(l, _, _)| l);
    Matching { pairs }
}

/// Solve the rectangular assignment problem (`rows ≤ cols`), minimizing
/// total cost with every row assigned. Returns `(row, col)` pairs.
///
/// Classic 1-indexed shortest-augmenting-path formulation; handles
/// negative costs.
fn solve_rectangular(cost: &[Vec<f64>]) -> Vec<(usize, usize)> {
    let n = cost.len();
    let m = cost[0].len();
    debug_assert!(n <= m, "solve_rectangular requires rows <= cols");

    let inf = f64::INFINITY;
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; m + 1];
    // p[j] = row (1-based) assigned to column j; 0 = free.
    let mut p = vec![0usize; m + 1];
    let mut way = vec![0usize; m + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=m {
                if !used[j] {
                    let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Unwind the alternating path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    (1..=m)
        .filter(|&j| p[j] != 0)
        .map(|j| (p[j] - 1, j - 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn beats_greedy_on_crossing_instance() {
        let g = graph(2, 2, &[(0, 0, 10.0), (0, 1, 9.0), (1, 0, 9.0)]);
        let m = hungarian(&g);
        assert_eq!(m.total_weight(), 18.0);
        assert!(is_valid_matching(&g, &m));
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
        let m = hungarian(&g);
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
        let m = hungarian(&g);
        assert_eq!(m.total_weight(), 21.0);
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn leaves_unprofitable_vertices_unmatched() {
        let g = graph(2, 1, &[(0, 0, 5.0), (1, 0, 3.0)]);
        let m = hungarian(&g);
        assert_eq!(m.total_weight(), 5.0);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn transposed_instances_agree() {
        // More left than right forces the transpose path.
        let g = graph(4, 2, &[(0, 0, 1.0), (1, 0, 8.0), (2, 1, 3.0), (3, 1, 2.0)]);
        let m = hungarian(&g);
        assert_eq!(m.total_weight(), 11.0);
        assert!(is_valid_matching(&g, &m));
    }

    #[test]
    fn zero_weight_edges_do_not_appear() {
        let g = graph(1, 1, &[(0, 0, 0.0)]);
        assert!(hungarian(&g).is_empty());
    }

    #[test]
    fn empty_graphs() {
        assert!(hungarian(&BipartiteGraph::new(0, 5)).is_empty());
        assert!(hungarian(&BipartiteGraph::new(5, 0)).is_empty());
        assert!(hungarian(&BipartiteGraph::new(3, 3)).is_empty());
    }

    /// Brute force: maximum weight over all subsets of edges forming a
    /// matching.
    fn brute_max_weight(g: &BipartiteGraph) -> f64 {
        let edges: Vec<(usize, usize, f64)> =
            g.edges().map(|e| (e.left, e.right, e.weight)).collect();
        let mut best = 0.0f64;
        for mask in 0u32..(1 << edges.len()) {
            let mut lu = vec![false; g.n_left()];
            let mut ru = vec![false; g.n_right()];
            let mut ok = true;
            let mut total = 0.0;
            for (i, &(l, r, w)) in edges.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    if lu[l] || ru[r] {
                        ok = false;
                        break;
                    }
                    lu[l] = true;
                    ru[r] = true;
                    total += w;
                }
            }
            if ok && total > best {
                best = total;
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn prop_optimal_vs_brute_force(
            edges in proptest::collection::vec(
                (0usize..4, 0usize..4, 0.1f64..20.0), 0..10),
        ) {
            let mut g = BipartiteGraph::new(4, 4);
            for (l, r, w) in &edges {
                g.add_edge(*l, *r, *w);
            }
            let m = hungarian(&g);
            prop_assert!(is_valid_matching(&g, &m));
            let brute = brute_max_weight(&g);
            prop_assert!((m.total_weight() - brute).abs() < 1e-6,
                "hungarian {} != brute {}", m.total_weight(), brute);
        }

        #[test]
        fn prop_at_least_greedy(
            edges in proptest::collection::vec(
                (0usize..6, 0usize..6, 0.1f64..50.0), 0..20),
        ) {
            let mut g = BipartiteGraph::new(6, 6);
            for (l, r, w) in &edges {
                g.add_edge(*l, *r, *w);
            }
            let opt = hungarian(&g).total_weight();
            let greedy = crate::greedy::greedy_matching(&g).total_weight();
            prop_assert!(opt >= greedy - 1e-9);
        }
    }
}
