//! End-to-end comparison of PGBJ, PBJ, H-BRJ, the approximate H-zkNNJ and
//! the centralized nested-loop join on the default workload (supports the
//! "who wins" headline of Figures 8–12).

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::{forest_like, ForestConfig};
use knnjoin::{Algorithm, ExecutionContext, JoinBuilder};

fn bench_join_algorithms(c: &mut Criterion) {
    let data = forest_like(
        &ForestConfig {
            n_points: 800,
            dims: 10,
            n_clusters: 7,
        },
        1,
    );
    let ctx = ExecutionContext::default();
    let join = |algorithm| {
        JoinBuilder::new(&data, &data)
            .k(10)
            .algorithm(algorithm)
            .pivot_count(32)
            .reducers(9)
            .map_tasks(8)
            // The approximate join: constant candidates per object, so it
            // should sit well below every exact algorithm here.
            .z_window(8)
    };

    let mut group = c.benchmark_group("join_algorithms");
    group.sample_size(10);
    for algorithm in [
        Algorithm::NestedLoopJoin,
        Algorithm::Hbrj,
        Algorithm::Pbj,
        Algorithm::Pgbj,
        Algorithm::Zknn,
    ] {
        group.bench_function(algorithm.name(), |b| {
            b.iter(|| join(algorithm).run(&ctx).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_join_algorithms);
criterion_main!(benches);
