//! Spatial-index benchmarks: the grid queries behind every matcher's
//! inner loop (nearest-coverer and coverer-set queries under churn).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use com_geo::{BoundingBox, GridIndex, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn filled_index(n: usize, seed: u64) -> (GridIndex, Vec<Point>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = GridIndex::with_expected_radius(BoundingBox::square(30.0), 1.0);
    for id in 0..n as u64 {
        g.insert(
            id,
            Point::new(rng.random_range(0.0..30.0), rng.random_range(0.0..30.0)),
            rng.random_range(0.5..2.5),
        );
    }
    let queries: Vec<Point> = (0..1024)
        .map(|_| Point::new(rng.random_range(0.0..30.0), rng.random_range(0.0..30.0)))
        .collect();
    (g, queries)
}

fn bench_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_index");
    for n in [500usize, 5_000, 20_000] {
        let (g, queries) = filled_index(n, 3);
        group.bench_with_input(BenchmarkId::new("nearest_coverer", n), &g, |b, g| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % queries.len();
                black_box(g.nearest_coverer(queries[i]))
            })
        });
        group.bench_with_input(BenchmarkId::new("coverers", n), &g, |b, g| {
            let mut buf = Vec::new();
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % queries.len();
                g.coverers_into(queries[i], &mut buf);
                black_box(buf.len())
            })
        });
    }
    group.finish();
}

fn bench_churn(c: &mut Criterion) {
    // The waiting-list pattern: remove + reinsert (assignment + re-entry).
    let mut group = c.benchmark_group("grid_churn");
    let (mut g, queries) = filled_index(5_000, 5);
    group.bench_function("remove_insert_cycle", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let id = i % 5_000;
            let e = g.remove(id).unwrap();
            g.insert(id, queries[(i % 1024) as usize], e.radius);
            i += 1;
        })
    });
    group.finish();
}

criterion_group!(benches, bench_queries, bench_churn);
criterion_main!(benches);
