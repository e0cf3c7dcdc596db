//! Integration tests of the prepared (build/probe) serving API:
//! bit-identical agreement with the one-shot PGBJ path, the refusal of
//! every other algorithm (PBJ included) and of duplicate `S` ids, flat
//! `index_builds` / `pivot_selections` counters across repeated queries,
//! correctness on batches the join was never prepared with, the cumulative
//! metrics, and the epoch counter under concurrent writers.

use pgbj::knnjoin::JoinMetrics;
use pgbj::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

fn clustered(n: usize, dims: usize, seed: u64) -> PointSet {
    gaussian_clusters(
        &ClusterConfig {
            n_points: n,
            dims,
            n_clusters: 5,
            std_dev: 5.0,
            extent: 200.0,
            skew: 0.5,
        },
        seed,
    )
}

fn builder_for<'a>(r: &'a PointSet, s: &'a PointSet, algorithm: Algorithm, k: usize) -> Join<'a> {
    Join::new(r, s)
        .k(k)
        .algorithm(algorithm)
        .pivot_count(12)
        .reducers(4)
        .seed(99)
}

/// The core guarantee: for several metrics, `prepare().query(r)` equals
/// PGBJ's `run()` on the same inputs — same rows, same neighbour counts,
/// identical distances.
#[test]
fn prepared_query_is_bit_identical_to_one_shot_run_across_metrics() {
    let r = clustered(180, 3, 1);
    let s = clustered(220, 3, 2);
    let ctx = ExecutionContext::default();
    for metric in [DistanceMetric::Euclidean, DistanceMetric::Manhattan] {
        let builder = || builder_for(&r, &s, Algorithm::Pgbj, 6).metric(metric);
        let cold = builder().run(&ctx).expect("cold join");
        let prepared = builder().prepare(&ctx).expect("prepare");
        let served = prepared.query(&r).expect("prepared query");
        assert!(served.rows.windows(2).all(|w| w[0].r_id < w[1].r_id));
        assert!(
            served.matches(&cold, 0.0),
            "{metric:?} prepared vs cold: {:?}",
            served.mismatch_against(&cold, 0.0)
        );
    }
}

/// Across consecutive queries on one `PreparedJoin`, the `index_builds` and
/// `pivot_selections` counters must not grow: all of that work happened at
/// build time.
#[test]
fn repeated_queries_keep_index_builds_and_pivot_selections_flat() {
    let r = clustered(150, 2, 3);
    let s = clustered(200, 2, 4);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&r, &s, Algorithm::Pgbj, 5)
        .prepare(&ctx)
        .expect("prepare");
    let build = prepared.build_metrics();
    assert_eq!(build.pivot_selections, 1);
    // `prepare` assigns S the way a probe assigns R, and bills it: at least
    // one pivot distance per object.
    assert!(
        build.pivot_assignment_computations >= s.len() as u64,
        "build billed {} assignment computations for {} objects",
        build.pivot_assignment_computations,
        s.len()
    );
    let mut first: Option<JoinResult> = None;
    for round in 0..3 {
        let result = prepared.query(&r).expect("query");
        assert_eq!(
            result.metrics.index_builds, 0,
            "round {round}: per-query index builds"
        );
        assert_eq!(
            result.metrics.pivot_selections, 0,
            "round {round}: per-query pivot selections"
        );
        match &first {
            None => first = Some(result),
            Some(reference) => {
                assert!(result.matches(reference, 0.0), "round {round} drifted");
                // The deterministic cost counters are stable per query.
                assert_eq!(
                    result.metrics.distance_computations,
                    reference.metrics.distance_computations
                );
            }
        }
    }
    // The session-wide accumulation saw every query, and still no rebuild
    // leaked into the query side.
    let cumulative = prepared.cumulative_metrics();
    assert_eq!(cumulative.index_builds, 0);
    assert_eq!(cumulative.pivot_selections, 0);
    assert_eq!(prepared.stats().queries, 3);
}

/// The prepared state is R-independent: batches the join was never prepared
/// with are answered exactly.
#[test]
fn prepared_state_serves_unseen_batches() {
    let calibration = clustered(120, 2, 5);
    let s = clustered(250, 2, 6);
    let unseen = uniform(80, 2, 180.0, 7);
    let ctx = ExecutionContext::default();
    let oracle = NestedLoopJoin
        .join(&unseen, &s, 4, DistanceMetric::Euclidean)
        .expect("oracle");
    let prepared = builder_for(&calibration, &s, Algorithm::Pgbj, 4)
        .prepare(&ctx)
        .expect("prepare");
    let served = prepared.query(&unseen).expect("query unseen batch");
    assert!(
        served.matches(&oracle, 1e-9),
        "on an unseen batch: {:?}",
        served.mismatch_against(&oracle, 1e-9)
    );
}

/// `prepare` builds PGBJ's Voronoi index only: every other algorithm, PBJ
/// included (it would probe that same index), is refused with a typed error
/// naming it and pointing at PGBJ, after the input checks, while `run` on
/// the same builder serves it cold.
#[test]
fn prepare_refuses_the_competitors_and_run_still_serves_them() {
    let r = clustered(60, 2, 30);
    let s = clustered(90, 2, 31);
    let ctx = ExecutionContext::default();
    let refused = Algorithm::ALL.into_iter().filter(|&a| a != Algorithm::Pgbj);
    assert_eq!(refused.clone().count(), 5);
    for algorithm in refused {
        match builder_for(&r, &s, algorithm, 3).prepare(&ctx) {
            Err(JoinError::InvalidConfig(message)) => assert!(
                message.contains(algorithm.name()) && message.contains("PGBJ"),
                "{algorithm}: the refusal does not name it and PGBJ: {message}"
            ),
            other => panic!("{algorithm}: prepare returned {other:?}"),
        }
        let cold = builder_for(&r, &s, algorithm, 3)
            .run(&ctx)
            .expect("cold run");
        assert_eq!(cold.len(), r.len(), "{algorithm}");
        assert!(
            cold.rows.iter().all(|row| row.neighbors.len() == 3),
            "{algorithm}: a cold row without its k neighbours"
        );
        // Input errors still come first.
        assert_eq!(
            builder_for(&r, &s, algorithm, 0).prepare(&ctx).unwrap_err(),
            JoinError::InvalidK
        );
    }
}

/// The resident corpus is keyed by id, so `prepare` refuses an `S` that
/// repeats one: with the repeats kept, `s_len()` counted ids while the cells
/// held every row, and the first compaction broke the id index.
#[test]
fn prepare_refuses_duplicate_s_ids_with_a_typed_error() {
    let r = clustered(40, 2, 32);
    let mut s = clustered(60, 2, 33);
    for at in [10, 20] {
        let coords = s.points()[at].coords.clone();
        s.points_mut()[at] = Point::new(5, coords);
    }
    let ctx = ExecutionContext::default();
    assert_eq!(
        builder_for(&r, &s, Algorithm::Pgbj, 3)
            .prepare(&ctx)
            .unwrap_err(),
        JoinError::DuplicateId {
            dataset: "S",
            id: 5
        }
    );
}

#[test]
fn query_one_answers_single_points() {
    let r = clustered(100, 2, 8);
    let s = clustered(150, 2, 9);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&r, &s, Algorithm::Pgbj, 3)
        .prepare(&ctx)
        .expect("prepare");
    let oracle = NestedLoopJoin
        .join(&r, &s, 3, DistanceMetric::Euclidean)
        .expect("oracle");
    for point in r.iter().take(5) {
        let row = prepared.query_one(point).expect("query_one");
        assert_eq!(row.r_id, point.id);
        let expected = oracle.row(point.id).expect("oracle row");
        assert_eq!(row.neighbors.len(), expected.neighbors.len());
        for (got, want) in row.neighbors.iter().zip(&expected.neighbors) {
            assert!((got.distance - want.distance).abs() < 1e-12);
        }
    }
}

#[test]
fn prepared_query_validates_batches() {
    let r = clustered(50, 2, 12);
    let s = clustered(80, 2, 13);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&r, &s, Algorithm::Pgbj, 3)
        .prepare(&ctx)
        .expect("prepare");
    assert_eq!(
        prepared.query(&PointSet::new()).unwrap_err(),
        JoinError::EmptyInput("R")
    );
    let wrong_dims = uniform(10, 3, 10.0, 14);
    assert!(matches!(
        prepared.query(&wrong_dims).unwrap_err(),
        JoinError::DimensionalityMismatch {
            r_dims: 3,
            s_dims: 2
        }
    ));
    let ragged = PointSet::from_coords(vec![vec![0.0, 1.0], vec![2.0]]);
    assert!(matches!(
        prepared.query(&ragged).unwrap_err(),
        JoinError::RaggedInput { dataset: "R", .. }
    ));
}

/// Clones of the handle share state and statistics — several "request
/// handlers" serving one resident index.
#[test]
fn prepared_clones_share_state_and_stats() {
    let r = clustered(80, 2, 15);
    let s = clustered(120, 2, 16);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&r, &s, Algorithm::Pgbj, 4)
        .prepare(&ctx)
        .expect("prepare");
    let clone = prepared.clone();
    let a = prepared.query(&r).expect("query via original");
    let b = clone.query(&r).expect("query via clone");
    assert!(a.matches(&b, 0.0));
    assert_eq!(prepared.stats().queries, 2);
    assert_eq!(clone.stats().queries, 2);
}

/// The deterministic counters of one query's (or the handle's cumulative)
/// metrics, in a comparable shape.
fn counters(m: &JoinMetrics) -> [u64; 10] {
    [
        m.distance_computations,
        m.pivot_assignment_computations,
        m.delta_probe_computations,
        m.tombstone_masked,
        m.shuffle_bytes,
        m.shuffle_records,
        m.index_builds,
        m.pivot_selections,
        m.compactions,
        m.compacted_points,
    ]
}

/// What the queries of a handle cost is read from the handle itself:
/// `cumulative_metrics()` is the field-wise sum of every returned
/// `JoinResult::metrics`, no rebuild leaks into it, and a forced compaction
/// adds exactly one `compactions`.
#[test]
fn cumulative_metrics_sum_the_returned_query_metrics() {
    let r = clustered(60, 2, 20);
    let s = clustered(90, 2, 21);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&r, &s, Algorithm::Pgbj, 3)
        .prepare(&ctx)
        .expect("prepare");
    let mut expected = JoinMetrics::default();
    expected.absorb(&prepared.query(&r).expect("query 1").metrics);
    expected.absorb(&prepared.query(&r).expect("query 2").metrics);
    // A pending overlay makes the delta counters part of the sum too.
    prepared
        .insert(Point::new(700_000, vec![1.0, 2.0]))
        .expect("insert");
    prepared.delete(r.points()[0].id);
    let mutated = prepared.query(&r).expect("query 3").metrics;
    assert!(mutated.delta_probe_computations > 0);
    expected.absorb(&mutated);

    let cumulative = prepared.cumulative_metrics();
    assert_eq!(counters(&cumulative), counters(&expected));
    assert!(cumulative.distance_computations > 0);
    assert_eq!(cumulative.pivot_selections, 0);
    assert_eq!(cumulative.index_builds, 0);
    assert_eq!(cumulative.compactions, 0);

    assert!(prepared.compact(), "a pending overlay compacts");
    let after = prepared.cumulative_metrics();
    assert_eq!(after.compactions, 1);
    assert_eq!(
        after.compacted_points,
        prepared.delta_stats().compacted_points
    );
    assert_eq!(
        after.distance_computations,
        cumulative.distance_computations
    );
    assert_eq!(prepared.delta_stats().compactions, 1);
}

/// `epoch()` reads the published snapshot: while writers insert
/// concurrently, every reader sees it move forward only, and never past the
/// number of mutations that have started.  The readers query between reads,
/// and `stats().queries` counts every one of their calls.
#[test]
fn epoch_is_monotone_and_bounded_by_mutations_under_concurrent_writers() {
    const WRITERS: u64 = 3;
    const INSERTS_PER_WRITER: u64 = 40;
    let r = clustered(40, 2, 22);
    let s = clustered(80, 2, 23);
    let ctx = ExecutionContext::default();
    // A threshold above the total keeps automatic compactions (which are
    // epoch bumps too) out of the count.
    let prepared = builder_for(&r, &s, Algorithm::Pgbj, 3)
        .delta_threshold(1_000)
        .prepare(&ctx)
        .expect("prepare");
    let started = AtomicU64::new(0);
    let barrier = std::sync::Barrier::new(WRITERS as usize + 2);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (prepared, started, barrier) = (&prepared, &started, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for i in 0..INSERTS_PER_WRITER {
                    let id = 800_000 + w * INSERTS_PER_WRITER + i;
                    // ORDERING: SeqCst — the count must be visible before
                    // the insert can publish the epoch it accounts for.
                    started.fetch_add(1, Ordering::SeqCst);
                    prepared
                        .insert(Point::new(id, vec![i as f64, w as f64]))
                        .expect("insert");
                }
            });
        }
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (prepared, started, barrier, r) = (&prepared, &started, &barrier, &r);
                scope.spawn(move || {
                    barrier.wait();
                    let (mut last, mut queries) = (0, 0u64);
                    while last < WRITERS * INSERTS_PER_WRITER {
                        let seen = prepared.epoch();
                        let bound = started.load(Ordering::SeqCst);
                        assert!(seen >= last, "epoch went back: {last} -> {seen}");
                        assert!(seen <= bound, "epoch {seen} ahead of {bound} mutations");
                        last = seen;
                        prepared.query(r).expect("query");
                        queries += 1;
                    }
                    queries
                })
            })
            .collect();
        let queries: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(prepared.stats().queries, queries);
    });
    // Every insert used a fresh id, so each one was an effective mutation.
    assert_eq!(prepared.epoch(), WRITERS * INSERTS_PER_WRITER);
    assert_eq!(prepared.delta_stats().epoch, prepared.epoch());
}
