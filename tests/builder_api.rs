//! Integration tests of the unified `JoinBuilder` / `ExecutionContext` API:
//! cross-algorithm agreement against the nested-loop oracle, typed plan
//! validation, and plan inspection.

use pgbj::prelude::*;

fn uniform_pair(n_r: usize, n_s: usize, dims: usize, seed: u64) -> (PointSet, PointSet) {
    (
        uniform(n_r, dims, 120.0, seed),
        uniform(n_s, dims, 120.0, seed ^ 0xABCD),
    )
}

fn clustered(n: usize, dims: usize, seed: u64) -> PointSet {
    gaussian_clusters(
        &ClusterConfig {
            n_points: n,
            dims,
            n_clusters: 6,
            std_dev: 4.0,
            extent: 250.0,
            skew: 0.6,
        },
        seed,
    )
}

/// Every distributed algorithm must match the `NestedLoopJoin` oracle, row
/// for row (ties broken by id, per `geom::neighbor` ordering), when driven
/// through the builder — except the approximate H-zkNNJ, which must keep its
/// shape (one row per `R` object, true distances) and high recall.
fn assert_all_algorithms_agree(r: &PointSet, s: &PointSet, k: usize, label: &str) {
    let ctx = ExecutionContext::default();
    let oracle = Join::new(r, s)
        .k(k)
        .algorithm(Algorithm::NestedLoopJoin)
        .run(&ctx)
        .expect("oracle join");
    for algorithm in Algorithm::ALL {
        let mut builder = Join::new(r, s)
            .k(k)
            .algorithm(algorithm)
            .pivot_count(16.min(r.len()).min(s.len()))
            .reducers(6)
            .seed(2012);
        if !algorithm.is_exact() {
            // Turn the accuracy knob up for the quality assertion below:
            // a wider candidate window costs distance computations, not
            // shuffle volume.
            builder = builder.z_window(8);
        }
        let result = builder
            .run(&ctx)
            .unwrap_or_else(|e| panic!("{algorithm} failed on {label}: {e}"));
        assert_eq!(
            result.rows.len(),
            r.len(),
            "{algorithm} row count on {label}"
        );
        if algorithm.is_exact() {
            // Distances must agree everywhere; with the shared deterministic
            // tie-break, ids agree too wherever distances are unique.
            assert!(
                result.matches(&oracle, 1e-9),
                "{algorithm} deviates from the oracle on {label}: {:?}",
                result.mismatch_against(&oracle, 1e-9)
            );
        } else {
            let quality = result.quality_against(&oracle);
            assert!(
                quality.recall >= 0.85,
                "{algorithm} recall {} on {label}",
                quality.recall
            );
            assert!(
                quality.distance_ratio >= 1.0 - 1e-9,
                "{algorithm} ratio {} on {label}",
                quality.distance_ratio
            );
        }
    }
}

#[test]
fn all_algorithms_match_the_oracle_on_seeded_uniform_data() {
    let (r, s) = uniform_pair(220, 260, 3, 41);
    assert_all_algorithms_agree(&r, &s, 7, "uniform r-s join");
}

#[test]
fn all_algorithms_match_the_oracle_on_gaussian_clusters() {
    let r = clustered(240, 2, 51);
    let s = clustered(280, 2, 52);
    assert_all_algorithms_agree(&r, &s, 9, "gaussian r-s join");
}

#[test]
fn all_algorithms_match_the_oracle_on_clustered_self_join() {
    let data = clustered(250, 3, 61);
    assert_all_algorithms_agree(&data, &data, 6, "gaussian self-join");
}

#[test]
fn zero_k_is_rejected_with_invalid_k() {
    let (r, s) = uniform_pair(10, 10, 2, 1);
    let err = Join::new(&r, &s).k(0).plan().unwrap_err();
    assert_eq!(err, JoinError::InvalidK);
    assert_eq!(err.kind(), JoinErrorKind::PlanValidation);
}

#[test]
fn empty_inputs_are_rejected_with_empty_input() {
    let data = uniform(10, 2, 10.0, 2);
    let empty = PointSet::new();
    assert_eq!(
        Join::new(&empty, &data).k(1).plan().unwrap_err(),
        JoinError::EmptyInput("R")
    );
    assert_eq!(
        Join::new(&data, &empty).k(1).plan().unwrap_err(),
        JoinError::EmptyInput("S")
    );
}

#[test]
fn pivot_count_beyond_s_is_rejected_with_a_distinct_variant() {
    let (r, s) = uniform_pair(50, 8, 2, 3);
    let err = Join::new(&r, &s).k(2).pivot_count(9).plan().unwrap_err();
    assert_eq!(
        err,
        JoinError::PivotCountOutOfRange {
            pivot_count: 9,
            r_len: 50,
            s_len: 8
        }
    );
    // Zero pivots is the same family of mistake.
    let err = Join::new(&r, &s).k(2).pivot_count(0).plan().unwrap_err();
    assert!(matches!(
        err,
        JoinError::PivotCountOutOfRange { pivot_count: 0, .. }
    ));
}

#[test]
fn zero_reducers_is_rejected_with_zero_reducers() {
    let (r, s) = uniform_pair(10, 10, 2, 4);
    let err = Join::new(&r, &s).k(1).reducers(0).plan().unwrap_err();
    assert_eq!(err, JoinError::ZeroReducers);
    let err = Join::new(&r, &s).k(1).map_tasks(0).plan().unwrap_err();
    assert_eq!(err, JoinError::ZeroMapTasks);
}

#[test]
fn dimension_mismatch_is_rejected_with_dimensionality_mismatch() {
    let r = uniform(10, 2, 10.0, 5);
    let s = uniform(10, 3, 10.0, 6);
    let err = Join::new(&r, &s).k(1).plan().unwrap_err();
    assert_eq!(
        err,
        JoinError::DimensionalityMismatch {
            r_dims: 2,
            s_dims: 3
        }
    );
}

#[test]
fn validation_failures_never_panic_and_never_run() {
    // run() must surface the same typed errors as plan(), without executing.
    let (r, s) = uniform_pair(12, 12, 2, 7);
    let ctx = ExecutionContext::default();
    let err = Join::new(&r, &s).k(0).run(&ctx).unwrap_err();
    assert_eq!(err, JoinError::InvalidK);
    let err = Join::new(&r, &s).k(1).reducers(0).run(&ctx).unwrap_err();
    assert_eq!(err, JoinError::ZeroReducers);
}

#[test]
fn plans_are_inspectable_and_reusable() {
    let r = clustered(225, 2, 71);
    let plan = Join::new(&r, &r)
        .k(4)
        .algorithm(Algorithm::Pgbj)
        .reducers(5)
        .plan()
        .expect("valid plan");
    // √225 = 15 auto-tuned pivots.
    assert_eq!(plan.pivot_count, 15);
    assert!(plan.pivots_auto_tuned);
    assert_eq!(plan.reducers, 5);
    assert_eq!(plan.algorithm, Algorithm::Pgbj);

    // The same plan executes directly against a context.
    let ctx = ExecutionContext::default();
    let a = plan.execute(&r, &r, &ctx).unwrap();
    let b = plan.execute(&r, &r, &ctx).unwrap();
    assert!(a.matches(&b, 0.0));
}

/// A `NaN` or infinite coordinate is refused with the same typed error at
/// every entry point of every algorithm — it used to panic PGBJ / PBJ inside
/// the summary-table sort and slip through H-BRJ and the nested loop.
#[test]
fn non_finite_coordinates_are_rejected_at_every_entry_point() {
    let ctx = ExecutionContext::default();
    let good = uniform(30, 2, 10.0, 81);
    let poisoned = |bad: f64| {
        let mut set = uniform(30, 2, 10.0, 82);
        set.points_mut()[7].coords[1] = bad;
        set
    };
    for algorithm in Algorithm::ALL {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let join = |r, s| Join::new(r, s).k(3).algorithm(algorithm).reducers(3);
            let in_s = JoinError::NonFiniteInput {
                dataset: "S",
                index: 7,
            };
            let in_r = JoinError::NonFiniteInput {
                dataset: "R",
                index: 7,
            };
            let bad_set = poisoned(bad);
            assert_eq!(join(&good, &bad_set).run(&ctx).unwrap_err(), in_s);
            assert_eq!(join(&bad_set, &good).run(&ctx).unwrap_err(), in_r);
            assert_eq!(join(&good, &bad_set).prepare(&ctx).unwrap_err(), in_s);
            if algorithm != Algorithm::Pgbj {
                continue; // every other algorithm runs cold only
            }
            let prepared = join(&good, &good).prepare(&ctx).expect("prepare");
            assert_eq!(prepared.query(&bad_set).unwrap_err(), in_r);
            let bad_point = Point::new(900, vec![1.0, bad]);
            assert_eq!(
                prepared.query_one(&bad_point).unwrap_err(),
                JoinError::NonFiniteInput {
                    dataset: "R",
                    index: 0
                }
            );
            assert_eq!(
                prepared.insert(bad_point).unwrap_err(),
                JoinError::NonFiniteInput {
                    dataset: "S",
                    index: 0
                }
            );
            // The refused insert left the corpus untouched and queryable.
            assert_eq!(prepared.epoch(), 0);
            assert_eq!(prepared.query(&good).expect("query").len(), good.len());
        }
    }
}

/// `JoinPlan` has public fields and a public `execute`: a hand-built plan
/// must meet the same validation as one from the builder instead of
/// panicking deep inside pivot selection.
#[test]
fn hand_built_plans_are_validated_on_execute() {
    let (r, s) = uniform_pair(20, 20, 2, 83);
    let ctx = ExecutionContext::default();
    let plan = Join::new(&r, &s).k(2).plan().expect("valid plan");
    let broken = JoinPlan {
        pivot_sample_size: 0,
        ..plan
    };
    let err = broken.execute(&r, &s, &ctx).unwrap_err();
    assert_eq!(err.kind(), JoinErrorKind::Configuration, "{err}");
}
