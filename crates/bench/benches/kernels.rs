//! Microbenchmarks for the distance hot path rebuilt around flat coordinate
//! storage: raw kernel throughput and pruned vs brute-force pivot assignment.
//!
//! The `seed_pointwise` variants replicate the layout the repository started
//! from — one heap-allocated `Vec<f64>` per point, an enum dispatch and a
//! `sqrt` per distance call — so the flat/pruned wins stay measurable as the
//! code evolves.  The acceptance bar for the layout refactor was pruned
//! assignment ≥ 2× faster than the seed path at 64+ pivots.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{forest_like, ForestConfig};
use geom::{kernels, CoordMatrix, DistanceMetric, Point};
use knnjoin::partition::VoronoiPartitioner;
use knnjoin::pivots::{select_pivots, PivotSelectionStrategy};

fn dataset(n: usize, dims: usize, seed: u64) -> geom::PointSet {
    forest_like(
        &ForestConfig {
            n_points: n,
            dims,
            n_clusters: 7,
        },
        seed,
    )
}

/// The seed repository's assignment loop: `Vec<Point>` pivots, enum dispatch
/// and a `sqrt` for every pivot, no pruning.
fn seed_pointwise_argmin(query: &Point, pivots: &[Point], metric: DistanceMetric) -> (usize, f64) {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, pivot) in pivots.iter().enumerate() {
        let d = metric.distance(query, pivot);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    (best, best_d)
}

fn bench_kernel_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_throughput");
    group.sample_size(200);
    for dims in [4usize, 10, 32] {
        // `uniform` rather than `forest_like`: the forest generator caps at
        // 10 attributes, and kernel cost only depends on dimensionality.
        let candidates = CoordMatrix::from_point_set(&datagen::uniform(2048, dims, 100.0, 11));
        let query: Vec<f64> = datagen::uniform(1, dims, 100.0, 12).points()[0]
            .coords
            .clone();
        group.bench_with_input(
            BenchmarkId::new("dispatched_distance", dims),
            &candidates,
            |b, m| {
                b.iter(|| {
                    let metric = DistanceMetric::Euclidean;
                    let mut acc = 0.0;
                    for row in m.rows() {
                        acc += metric.distance_coords(black_box(&query), row);
                    }
                    acc
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("euclidean_kernel", dims),
            &candidates,
            |b, m| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for row in m.rows() {
                        acc += kernels::euclidean(black_box(&query), row);
                    }
                    acc
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("squared_euclidean_kernel", dims),
            &candidates,
            |b, m| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for row in m.rows() {
                        acc += kernels::squared_euclidean(black_box(&query), row);
                    }
                    acc
                });
            },
        );
    }
    group.finish();
}

/// One query against a block of candidate rows: the scalar kernel loop (the
/// `Exact` hot path) against the multi-accumulator batch kernel that the
/// `Fast` mode streams [`kernels::PROBE_TILE`]-row tiles through.  The
/// acceptance bar for the batch layer was ≥ 2× the scalar loop on the
/// 10-dimensional squared-Euclidean workload.
fn bench_batch_kernel_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_kernel_throughput");
    group.sample_size(200);
    for dims in [4usize, 10, 32] {
        let candidates = CoordMatrix::from_point_set(&datagen::uniform(2048, dims, 100.0, 31));
        let query: Vec<f64> = datagen::uniform(1, dims, 100.0, 32).points()[0]
            .coords
            .clone();
        let mut out = vec![0.0f64; candidates.len()];
        // The pairwise kernels are consumed through hoisted function
        // pointers (`DistanceMetric::kernel()` / `fast_kernel()`) in every
        // join path, so the row-at-a-time baselines go through one too —
        // a direct call would let LLVM inline and specialize the loop in a
        // way no real consumer sees.
        let scalar: kernels::Kernel = kernels::squared_euclidean;
        let fast: kernels::Kernel = kernels::squared_euclidean_fast;
        group.bench_with_input(
            BenchmarkId::new("scalar_squared_euclidean", dims),
            &candidates,
            |b, m| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for row in m.rows() {
                        acc += scalar(black_box(&query), row);
                    }
                    acc
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("fast_squared_euclidean", dims),
            &candidates,
            |b, m| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for row in m.rows() {
                        acc += fast(black_box(&query), row);
                    }
                    acc
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("squared_euclidean_batch", dims),
            &candidates,
            |b, m| {
                b.iter(|| {
                    kernels::squared_euclidean_batch(
                        black_box(&query),
                        m.as_slice(),
                        dims,
                        &mut out,
                    );
                    out.iter().sum::<f64>()
                });
            },
        );
        // The tiled shape the probe paths actually use: PROBE_TILE rows per
        // call into a stack-sized scratch.
        group.bench_with_input(
            BenchmarkId::new("squared_euclidean_batch_tiled", dims),
            &candidates,
            |b, m| {
                b.iter(|| {
                    let rows = m.as_slice();
                    let mut scratch = [0.0f64; kernels::PROBE_TILE];
                    let mut acc = 0.0;
                    let mut t0 = 0;
                    while t0 < m.len() {
                        let t1 = (t0 + kernels::PROBE_TILE).min(m.len());
                        let tile = &mut scratch[..t1 - t0];
                        kernels::squared_euclidean_batch(
                            black_box(&query),
                            &rows[t0 * dims..t1 * dims],
                            dims,
                            tile,
                        );
                        acc += tile.iter().sum::<f64>();
                        t0 = t1;
                    }
                    acc
                });
            },
        );
    }
    group.finish();
}

fn bench_pivot_assignment(c: &mut Criterion) {
    // Both of the paper's dataset shapes: Forest-like (10-d, clustered) and
    // OSM-like (2-d, skewed geographic).
    let workloads: Vec<(&str, geom::PointSet)> = vec![
        ("forest10d", dataset(2000, 10, 1)),
        (
            "osm2d",
            datagen::osm_like(
                &datagen::OsmConfig {
                    n_points: 2000,
                    ..Default::default()
                },
                2,
            ),
        ),
    ];
    let mut group = c.benchmark_group("pivot_assignment");
    group.sample_size(20);
    for (label, data) in &workloads {
        for t in [16usize, 64, 256] {
            let pivots = select_pivots(
                data,
                t,
                PivotSelectionStrategy::Random { candidate_sets: 3 },
                1000,
                DistanceMetric::Euclidean,
                5,
            );
            let partitioner = VoronoiPartitioner::new(pivots.clone(), DistanceMetric::Euclidean);
            group.bench_with_input(
                BenchmarkId::new(format!("{label}/seed_pointwise"), t),
                &pivots,
                |b, pivots| {
                    b.iter(|| {
                        let mut acc = 0usize;
                        for p in data {
                            acc += seed_pointwise_argmin(p, pivots, DistanceMetric::Euclidean).0;
                        }
                        acc
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{label}/flat_bruteforce"), t),
                &partitioner,
                |b, part| {
                    b.iter(|| {
                        let mut acc = 0usize;
                        for p in data {
                            acc += part.nearest_pivot_bruteforce(&p.coords).partition;
                        }
                        acc
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{label}/pruned"), t),
                &partitioner,
                |b, part| {
                    b.iter(|| {
                        let mut acc = 0usize;
                        for p in data {
                            acc += part.nearest_pivot(&p.coords).partition;
                        }
                        acc
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kernel_throughput,
    bench_batch_kernel_throughput,
    bench_pivot_assignment
);
criterion_main!(benches);
