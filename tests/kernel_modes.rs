//! Integration tests of the `kernel_mode` plan knob: `Fast` reproduces the
//! `Exact` results within 1e-9 on every algorithm and metric, partitioning
//! and the shuffle do not depend on the mode, and the prepared/delta serving
//! path honours the mode across mutations and compaction.

use pgbj::prelude::*;

fn forest(n: usize, seed: u64) -> PointSet {
    datagen::forest_like(
        &datagen::ForestConfig {
            n_points: n,
            dims: 10,
            n_clusters: 7,
        },
        seed,
    )
}

fn run_mode(
    ctx: &ExecutionContext,
    algorithm: Algorithm,
    r: &PointSet,
    s: &PointSet,
    k: usize,
    metric: DistanceMetric,
    mode: KernelMode,
) -> JoinResult {
    Join::new(r, s)
        .k(k)
        .metric(metric)
        .algorithm(algorithm)
        .pivot_count(24)
        .reducers(6)
        .kernel_mode(mode)
        .run(ctx)
        .expect("join should succeed")
}

#[test]
fn fast_mode_matches_exact_mode_on_every_algorithm_and_metric() {
    let r = forest(350, 1);
    let s = forest(420, 2);
    let k = 8;
    let ctx = ExecutionContext::default();
    for metric in [
        DistanceMetric::Euclidean,
        DistanceMetric::Manhattan,
        DistanceMetric::Chebyshev,
    ] {
        for algorithm in Algorithm::ALL {
            let exact = run_mode(&ctx, algorithm, &r, &s, k, metric, KernelMode::Exact);
            let fast = run_mode(&ctx, algorithm, &r, &s, k, metric, KernelMode::Fast);
            assert!(
                fast.matches(&exact, 1e-9),
                "{algorithm}/{metric:?}: Fast deviates from Exact: {:?}",
                fast.mismatch_against(&exact, 1e-9)
            );
        }
    }
}

#[test]
fn partitioning_and_shuffle_do_not_depend_on_the_mode() {
    // The mode picks the scan kernel only: pivot selection, pivot assignment
    // and therefore every record the shuffle moves are the same in both.
    let r = forest(350, 3);
    let s = forest(420, 4);
    let ctx = ExecutionContext::default();
    for algorithm in [Algorithm::Pgbj, Algorithm::Pbj] {
        let metric = DistanceMetric::Euclidean;
        let exact = run_mode(&ctx, algorithm, &r, &s, 8, metric, KernelMode::Exact).metrics;
        let fast = run_mode(&ctx, algorithm, &r, &s, 8, metric, KernelMode::Fast).metrics;
        assert_eq!(
            (
                fast.pivot_assignment_computations,
                fast.shuffle_bytes,
                fast.shuffle_records,
                fast.s_records_shuffled,
            ),
            (
                exact.pivot_assignment_computations,
                exact.shuffle_bytes,
                exact.shuffle_records,
                exact.s_records_shuffled,
            ),
            "{algorithm}: (assignment computations, shuffle bytes, shuffle records, S records)"
        );
    }
}

#[test]
fn prepared_serving_honours_the_mode_across_mutations_and_compaction() {
    // The delta layer must flow through the same batch kernels: a Fast
    // prepared join tracks its Exact twin through inserts, deletes and the
    // explicit compaction, batch for batch.
    let r = forest(150, 5);
    let s = forest(300, 6);
    let k = 6;
    let ctx = ExecutionContext::default();
    for algorithm in [
        Algorithm::Pgbj,
        Algorithm::Pbj,
        Algorithm::Hbrj,
        Algorithm::BroadcastJoin,
        Algorithm::NestedLoopJoin,
    ] {
        let build = |mode: KernelMode| {
            Join::new(&r, &s)
                .k(k)
                .algorithm(algorithm)
                .pivot_count(20)
                .reducers(4)
                .kernel_mode(mode)
                .prepare(&ctx)
                .expect("prepare")
        };
        let exact = build(KernelMode::Exact);
        let fast = build(KernelMode::Fast);
        let victims: Vec<u64> = s.iter().take(3).map(|p| p.id).collect();
        for prepared in [&exact, &fast] {
            for i in 0..8u64 {
                prepared
                    .insert(Point::new(
                        1_000_000 + i,
                        (0..s.dims()).map(|d| (i + d as u64) as f64 * 3.5).collect(),
                    ))
                    .expect("insert");
            }
            for id in &victims {
                assert!(prepared.delete(*id));
            }
        }
        let want = exact.query(&r).expect("exact overlay query");
        let got = fast.query(&r).expect("fast overlay query");
        assert!(
            got.matches(&want, 1e-9),
            "{algorithm}: Fast overlay serving deviates: {:?}",
            got.mismatch_against(&want, 1e-9)
        );
        // Compaction folds the overlay while keeping the epoch's mode.
        assert!(exact.compact(), "{algorithm}: exact compaction ran");
        assert!(fast.compact(), "{algorithm}: fast compaction ran");
        let want = exact.query(&r).expect("exact compacted query");
        let got = fast.query(&r).expect("fast compacted query");
        assert!(
            got.matches(&want, 1e-9),
            "{algorithm}: Fast compacted serving deviates: {:?}",
            got.mismatch_against(&want, 1e-9)
        );
    }
}
