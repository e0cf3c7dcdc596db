//! Integration tests of the `kernel_mode` builder knob, which no scan reads:
//! `Fast` reproduces the `Exact` answers bit for bit, at the same counters,
//! on every algorithm and metric, cold, prepared, mutated and compacted.

use pgbj::knnjoin::JoinMetrics;
use pgbj::prelude::*;
use proptest::prelude::*;

/// Forest-like points scaled off the integer grid: Forest CoverType's
/// attributes are integers, and over integers every summation order gives
/// the same bits, so a reassociated kernel would go unnoticed.
fn forest(n: usize, seed: u64) -> PointSet {
    let config = datagen::ForestConfig {
        n_points: n,
        dims: 10,
        n_clusters: 7,
    };
    let forest = datagen::forest_like(&config, seed);
    let points = forest.iter().map(|p| {
        let coords = p.coords.iter().map(|c| c * 0.37 + 0.013).collect();
        Point::new(p.id, coords)
    });
    PointSet::from_points(points.collect())
}

/// Every counter of `m`: all of it but the wall-clock phase times.
fn counters(m: &JoinMetrics) -> String {
    let counters = JoinMetrics {
        phase_times: Vec::new(),
        ..m.clone()
    };
    format!("{counters:?}")
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
                fast.matches(&exact, 0.0),
                "{algorithm}/{metric:?}: Fast deviates from Exact: {:?}",
                fast.mismatch_against(&exact, 0.0)
            );
            assert_eq!(
                counters(&fast.metrics),
                counters(&exact.metrics),
                "{algorithm}/{metric:?}"
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
    // The delta's adds are ranked by the same column kernel as the frozen
    // cells: a Fast prepared join answers what its Exact twin answers
    // through inserts, deletes and the explicit compaction, bit for bit and
    // counter for counter.
    let r = forest(150, 5);
    let s = forest(300, 6);
    let k = 6;
    let ctx = ExecutionContext::default();
    let build = |mode: KernelMode| {
        Join::new(&r, &s)
            .k(k)
            .algorithm(Algorithm::Pgbj)
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
        got.matches(&want, 0.0),
        "Fast overlay serving deviates: {:?}",
        got.mismatch_against(&want, 0.0)
    );
    assert!(want.metrics.delta_probe_computations > 0 && want.metrics.tombstone_masked > 0);
    assert_eq!(counters(&got.metrics), counters(&want.metrics), "overlay");
    // Compaction folds the overlay while keeping the epoch's mode.
    assert!(exact.compact(), "exact compaction ran");
    assert!(fast.compact(), "fast compaction ran");
    let want = exact.query(&r).expect("exact compacted query");
    let got = fast.query(&r).expect("fast compacted query");
    assert!(
        got.matches(&want, 0.0),
        "Fast compacted serving deviates: {:?}",
        got.mismatch_against(&want, 0.0)
    );
    assert_eq!(counters(&got.metrics), counters(&want.metrics), "compacted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Cold PGBJ and PBJ over data shape, `k`, metric, pivot count and
    /// reducers: `Exact` equals the oracle bit for bit, and `Fast` equals
    /// `Exact` bit for bit, at the same counters.
    #[test]
    fn fast_equals_exact_and_the_oracle_on_the_voronoi_joins(
        n_r in 40usize..160,
        n_s in 300usize..1500,
        dims in 2usize..8,
        clustered in 0usize..2,
        k in 1usize..12,
        pivot_count in 2usize..10,
        reducers in 1usize..10,
        which_metric in 0usize..3,
        seed in 0u64..1000,
    ) {
        let generate = |n: usize, seed: u64| {
            if clustered == 1 {
                gaussian_clusters(
                    &ClusterConfig {
                        n_points: n,
                        dims,
                        n_clusters: 4,
                        std_dev: 6.0,
                        extent: 120.0,
                        skew: 0.6,
                    },
                    seed,
                )
            } else {
                uniform(n, dims, 120.0, seed)
            }
        };
        let (r, s) = (generate(n_r, seed), generate(n_s, seed ^ 0xF00D));
        let metric = [
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Chebyshev,
        ][which_metric];
        let ctx = ExecutionContext::default();
        let oracle = Join::new(&r, &s)
            .k(k)
            .metric(metric)
            .algorithm(Algorithm::NestedLoopJoin)
            .run(&ctx)
            .expect("oracle");
        for algorithm in [Algorithm::Pgbj, Algorithm::Pbj] {
            let run = |mode| {
                Join::new(&r, &s)
                    .k(k)
                    .metric(metric)
                    .algorithm(algorithm)
                    .pivot_count(pivot_count)
                    .reducers(reducers)
                    .seed(seed)
                    .kernel_mode(mode)
                    .run(&ctx)
                    .expect("join")
            };
            let (exact, fast) = (run(KernelMode::Exact), run(KernelMode::Fast));
            prop_assert!(
                exact.matches(&oracle, 0.0),
                "{algorithm} Exact: {:?}",
                exact.mismatch_against(&oracle, 0.0)
            );
            prop_assert!(
                fast.matches(&exact, 0.0),
                "{algorithm} Fast: {:?}",
                fast.mismatch_against(&exact, 0.0)
            );
            prop_assert_eq!(counters(&fast.metrics), counters(&exact.metrics), "{}", algorithm);
        }
    }
}
