//! Bipartite matching solver benchmarks — the cost of the OFF baseline
//! (Tables V–VII's OFF rows are one offline solve per day).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use com_matching::{greedy_matching, hungarian, ssp_max_weight, BipartiteGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random sparse bipartite graph shaped like an offline COM instance:
/// `n` workers × `4n` requests, ~6 feasible requests per worker.
fn spatial_like_graph(n: usize, seed: u64) -> BipartiteGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = BipartiteGraph::new(n, 4 * n);
    for l in 0..n {
        for _ in 0..6 {
            g.add_edge(l, rng.random_range(0..4 * n), rng.random_range(5.0..50.0));
        }
    }
    g
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("offline_matching");
    for n in [100usize, 400] {
        let g = spatial_like_graph(n, 42);
        group.bench_with_input(BenchmarkId::new("hungarian", n), &g, |b, g| {
            b.iter(|| black_box(hungarian(g).total_weight()))
        });
        group.bench_with_input(BenchmarkId::new("ssp", n), &g, |b, g| {
            b.iter(|| black_box(ssp_max_weight(g).total_weight()))
        });
        group.bench_with_input(BenchmarkId::new("greedy", n), &g, |b, g| {
            b.iter(|| black_box(greedy_matching(g).total_weight()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
