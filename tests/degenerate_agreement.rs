//! Cross-algorithm agreement on degenerate inputs, driven by proptest.
//!
//! The exact algorithms (everything but H-zkNNJ) must match the
//! `NestedLoopJoin` oracle on the inputs that historically break spatial
//! code: duplicate points, all-identical coordinates, 1-d data, and
//! `k ≥ |S|`.  H-zkNNJ is held to its own contract instead — one row per `R`
//! object, true distances, and recall against the oracle above a threshold.

use pgbj::prelude::*;
use proptest::prelude::*;

/// Runs one algorithm through the builder with small-topology settings.
fn try_run(
    algorithm: Algorithm,
    r: &PointSet,
    s: &PointSet,
    k: usize,
    reducers: usize,
) -> Result<JoinResult, JoinError> {
    Join::new(r, s)
        .k(k)
        .algorithm(algorithm)
        .pivot_count(8.min(r.len()).min(s.len()))
        .reducers(reducers)
        .map_tasks(3)
        .seed(2012)
        .run(&ExecutionContext::default())
}

/// [`try_run`], failing the test on an error.
fn run(algorithm: Algorithm, r: &PointSet, s: &PointSet, k: usize, reducers: usize) -> JoinResult {
    try_run(algorithm, r, s, k, reducers).unwrap_or_else(|e| panic!("{algorithm} failed: {e}"))
}

/// Asserts the full six-algorithm contract for one input pair: the five
/// exact algorithms match the oracle bit for bit (up to distance ties), and
/// H-zkNNJ keeps its shape and at least `zknn_recall` recall.
fn check_all_six(r: &PointSet, s: &PointSet, k: usize, reducers: usize, zknn_recall: f64) {
    let oracle = NestedLoopJoin
        .join(r, s, k, DistanceMetric::Euclidean)
        .expect("oracle");
    for algorithm in Algorithm::ALL {
        if !algorithm.is_exact() {
            continue;
        }
        let result = run(algorithm, r, s, k, reducers);
        assert!(
            result.matches(&oracle, 1e-9),
            "{algorithm} deviates: {:?}",
            result.mismatch_against(&oracle, 1e-9)
        );
    }
    let approx = run(Algorithm::Zknn, r, s, k, reducers);
    assert_eq!(approx.rows.len(), r.len(), "H-zkNNJ row count");
    let quality = approx.quality_against(&oracle);
    assert!(
        quality.recall >= zknn_recall,
        "H-zkNNJ recall {} below {zknn_recall}",
        quality.recall
    );
    assert!(
        quality.distance_ratio >= 1.0 - 1e-9,
        "H-zkNNJ ratio {} below 1",
        quality.distance_ratio
    );
}

/// `pivot_count = |R|` makes every `R` object a pivot, so two `R` objects at
/// one location are two pivots at distance 0 and every object nearest to them
/// ties exactly.  The one tie rule (lower pivot index) has to hold wherever
/// an object is assigned — job 1 of cold PGBJ and PBJ, `prepare`, a probe and
/// a compaction — or an object and its bounds end up in different cells.
#[test]
fn agreement_when_two_pivots_share_a_location() {
    let mut r_rows: Vec<Vec<f64>> = (0..10)
        .map(|i| vec![(i % 5) as f64 * 7.0, (i / 5) as f64 * 9.0])
        .collect();
    let shared = r_rows[3].clone();
    r_rows.push(shared.clone());
    let r = PointSet::from_coords(r_rows);
    let s = PointSet::from_coords(
        (0..40)
            .map(|i| vec![(i % 8) as f64 * 4.0 - 1.0, (i / 8) as f64 * 3.0])
            .collect(),
    );
    let (k, ctx) = (3, ExecutionContext::default());
    let oracle_over = |s: &PointSet| {
        NestedLoopJoin
            .join(&r, s, k, DistanceMetric::Euclidean)
            .expect("oracle")
    };
    let join = |algorithm| {
        Join::new(&r, &s)
            .k(k)
            .algorithm(algorithm)
            .pivot_count(r.len())
            .reducers(4)
    };
    let oracle = oracle_over(&s);
    for algorithm in [Algorithm::Pgbj, Algorithm::Pbj] {
        let cold = join(algorithm).run(&ctx).expect("cold join");
        assert!(
            cold.matches(&oracle, 1e-9),
            "cold {algorithm}: {:?}",
            cold.mismatch_against(&oracle, 1e-9)
        );
    }
    let prepared = join(Algorithm::Pgbj).prepare(&ctx).expect("prepare");
    let served = prepared.query(&r).expect("query");
    assert!(served.matches(&oracle, 1e-9), "prepared PGBJ");
    // Churn right at the shared location, then fold it in.
    prepared
        .insert(Point::new(9_000, shared.clone()))
        .expect("insert");
    prepared
        .insert(Point::new(9_001, vec![shared[0] + 0.5, shared[1]]))
        .expect("insert");
    assert!(prepared.delete(s.points()[5].id));
    assert!(prepared.compact());
    let served = prepared.query(&r).expect("query after compaction");
    let oracle = oracle_over(&prepared.materialized_corpus());
    assert!(
        served.matches(&oracle, 1e-9),
        "compacted PGBJ: {:?}",
        served.mismatch_against(&oracle, 1e-9)
    );
}

/// One input the pivot-order cut of the Voronoi cell walk is aimed at:
/// `calibration` seeds the pivots of the prepared join (the cold joins draw
/// them from `r`), `r` is the probe side.
struct CutLayout {
    name: &'static str,
    calibration: PointSet,
    r: PointSet,
    s: PointSet,
    k: usize,
    pivot_count: usize,
}

/// Layouts where `|p_i, p_j| / 2 − |r, p_i|` is negative, zero, exactly on a
/// bound, or never beaten by a finite θ.
fn cut_layouts() -> Vec<CutLayout> {
    let near = |n: usize, seed: u64| uniform(n, 2, 50.0, seed);
    // Probes far outside every cell: |r, p_i| exceeds every |p_i, p_j|.
    let mut far_rows: Vec<Vec<f64>> = near(12, 1).iter().map(|p| p.coords.clone()).collect();
    far_rows.extend([
        vec![4_000.0, 3_000.0],
        vec![-2_500.0, 60.0],
        vec![25.0, -9_000.0],
    ]);
    // Every R object a pivot, three of them at one location: |p_i, p_j| = 0.
    let mut shared_rows: Vec<Vec<f64>> = (0..9)
        .map(|i| vec![(i % 3) as f64 * 11.0, (i / 3) as f64 * 8.0])
        .collect();
    shared_rows.extend([shared_rows[4].clone(), shared_rows[4].clone()]);
    let shared = PointSet::from_coords(shared_rows);
    // Pivots on the even integers, S on every integer: the odd ones sit on a
    // bisector, and every distance and bound is exact in floating point.
    let evens = PointSet::from_coords((0..11).map(|i| vec![2.0 * i as f64]).collect());
    let integers = PointSet::from_coords((-3..24).map(|i| vec![i as f64]).collect());
    vec![
        CutLayout {
            name: "probes far outside their cell",
            calibration: near(40, 2),
            r: PointSet::from_coords(far_rows),
            s: near(200, 3),
            k: 4,
            pivot_count: 6,
        },
        CutLayout {
            name: "pivots sharing a location",
            calibration: shared.clone(),
            r: shared.clone(),
            s: near(60, 4),
            k: 3,
            pivot_count: shared.len(),
        },
        CutLayout {
            name: "integer lattice with objects on bisectors",
            calibration: evens.clone(),
            r: evens.clone(),
            s: integers,
            k: 3,
            pivot_count: evens.len(),
        },
        CutLayout {
            name: "k larger than any cell",
            calibration: near(30, 5),
            r: near(30, 5),
            s: near(64, 6),
            k: 20,
            pivot_count: 8,
        },
        CutLayout {
            name: "k larger than S",
            calibration: near(20, 7),
            r: near(20, 7),
            s: near(9, 8),
            k: 12,
            pivot_count: 4,
        },
    ]
}

/// The cell walk stops at the first cell whose pivot is too far from `p_i`
/// for any of its objects to be within θ of `r`.  On the layouts that bound
/// is weakest or tightest on, every path through the walk — cold PGBJ, cold
/// PBJ, a prepared probe, a probe under an overlay with adds and tombstones
/// (θ_i = ∞), a probe after compaction — still answers what brute force
/// answers bit for bit, in either kernel mode, under every metric.
#[test]
fn agreement_on_layouts_that_stress_the_pivot_order_cut() {
    let ctx = ExecutionContext::default();
    for layout in cut_layouts() {
        let CutLayout { name, r, s, k, .. } = &layout;
        for metric in [
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Chebyshev,
        ] {
            let oracle_over = |s: &PointSet| NestedLoopJoin.join(r, s, *k, metric).expect("oracle");
            let oracle = oracle_over(s);
            for mode in [KernelMode::Exact, KernelMode::Fast] {
                let check = |what: &str, got: &JoinResult, want: &JoinResult| {
                    assert!(
                        got.matches(want, 0.0),
                        "{name}, {metric:?}, {mode:?}, {what}: {:?}",
                        got.mismatch_against(want, 0.0)
                    );
                };
                let join = |r, algorithm| {
                    Join::new(r, s)
                        .k(*k)
                        .metric(metric)
                        .kernel_mode(mode)
                        .algorithm(algorithm)
                        .pivot_count(layout.pivot_count)
                        .reducers(4)
                        .seed(7)
                };
                for algorithm in [Algorithm::Pgbj, Algorithm::Pbj] {
                    let cold = join(r, algorithm).run(&ctx).expect("cold join");
                    check(&format!("cold {algorithm}"), &cold, &oracle);
                }
                let prepared = join(&layout.calibration, Algorithm::Pgbj)
                    .delta_threshold(usize::MAX)
                    .prepare(&ctx)
                    .expect("prepare");
                check("prepared", &prepared.query(r).expect("query"), &oracle);
                // Adds beside the first probes, every fourth S object gone.
                for (i, p) in r.iter().take(3).enumerate() {
                    let beside: Vec<f64> = p.coords.iter().map(|c| c + 0.25).collect();
                    prepared
                        .insert(Point::new(50_000 + i as u64, beside))
                        .expect("insert");
                }
                for victim in s.iter().step_by(4) {
                    assert!(prepared.delete(victim.id), "frozen id is live");
                }
                let churned = oracle_over(&prepared.materialized_corpus());
                check("overlay", &prepared.query(r).expect("query"), &churned);
                assert!(prepared.compact());
                check("compacted", &prepared.query(r).expect("query"), &churned);
            }
        }
    }
}

/// Points on the line `y = x / 2` with `x = (i − 20)·scale + i mod 3`, as
/// `R`, and `S = 0.9·R + 7`: at a large enough scale the squared distances
/// between them overflow although every coordinate is finite.
fn far_apart(scale: f64) -> (PointSet, PointSet) {
    let x = |i: usize| (i as f64 - 20.0) * scale + (i % 3) as f64;
    let r = PointSet::from_coords((0..40).map(|i| vec![x(i), x(i) / 2.0]).collect());
    let s = r
        .iter()
        .map(|p| p.coords.iter().map(|c| 0.9 * c + 7.0).collect());
    let s = PointSet::from_coords(s.collect());
    (r, s)
}

/// Beyond `sqrt(f64::MAX / (16·dims))` a coordinate is refused with the
/// typed error by every algorithm, cold and through `prepare`, and by the
/// prepared PGBJ on `query` and on `insert` (which leaves the epoch
/// alone) — PGBJ and PBJ used to return
/// wrong or missing neighbours there.  Just inside the range every algorithm
/// still answers what the oracle answers.
#[test]
fn coordinates_out_of_range_are_refused_and_just_inside_it_agree() {
    fn join<'a>(r: &'a PointSet, s: &'a PointSet, algorithm: Algorithm) -> Join<'a> {
        let join = Join::new(r, s).k(5).algorithm(algorithm);
        join.pivot_count(8).reducers(3)
    }
    let ctx = ExecutionContext::default();
    let (small_r, small_s) = far_apart(1.0);
    // The first point, at x = −20·scale, is already out of range.
    let refused = |dataset| JoinError::NonFiniteInput { dataset, index: 0 };
    for scale in [1e160, 5e152] {
        let (r, s) = far_apart(scale);
        for algorithm in Algorithm::ALL {
            let label = format!("{algorithm} at scale {scale:e}");
            assert_eq!(
                join(&r, &s, algorithm).run(&ctx).unwrap_err(),
                refused("R"),
                "{label}"
            );
            let prepare = join(&small_r, &s, algorithm).prepare(&ctx);
            assert_eq!(prepare.unwrap_err(), refused("S"), "{label}");
            if algorithm != Algorithm::Pgbj {
                continue;
            }
            let prepared = join(&small_r, &small_s, algorithm)
                .prepare(&ctx)
                .expect("prepare");
            assert_eq!(prepared.query(&r).unwrap_err(), refused("R"), "{label}");
            let far = Point::new(9_000, s.points()[0].coords.clone());
            assert_eq!(prepared.insert(far).unwrap_err(), refused("S"), "{label}");
            assert_eq!(prepared.epoch(), 0, "{label}");
        }
    }
    let (r, s) = far_apart(1.15e152);
    let oracle = NestedLoopJoin
        .join(&r, &s, 5, DistanceMetric::Euclidean)
        .expect("oracle");
    for algorithm in Algorithm::ALL {
        let result = join(&r, &s, algorithm).run(&ctx).expect("in range");
        assert!(
            result.matches(&oracle, 0.0),
            "{algorithm}: {:?}",
            result.mismatch_against(&oracle, 0.0)
        );
    }
}

/// Hostile shapes, every algorithm cold: zero-dimensional `R` and `S` (no
/// coordinate to sort, split or bound on; every distance is 0), and an
/// all-equal `S` with `k > |S|`.  Each algorithm answers like the oracle or
/// refuses with a typed configuration error — never a panic, and never a
/// failure inside a job.
#[test]
fn every_algorithm_answers_or_refuses_zero_dimensions_and_k_past_an_all_equal_s() {
    let zero_dims = |n: usize| PointSet::from_coords(vec![Vec::new(); n]);
    let cases = [
        (zero_dims(30), zero_dims(200), 5),
        (
            uniform(20, 3, 40.0, 7),
            PointSet::from_coords(vec![vec![1.5; 3]; 6]),
            9,
        ),
    ];
    for (r, s, k) in &cases {
        let oracle = NestedLoopJoin
            .join(r, s, *k, DistanceMetric::Euclidean)
            .expect("oracle");
        for algorithm in Algorithm::ALL {
            match try_run(algorithm, r, s, *k, 3) {
                Ok(result) => assert!(
                    result.matches(&oracle, 1e-9),
                    "{algorithm} deviates on {} dims: {:?}",
                    s.dims(),
                    result.mismatch_against(&oracle, 1e-9)
                ),
                Err(e) => assert_eq!(
                    e.kind(),
                    JoinErrorKind::Configuration,
                    "{algorithm} on {} dims: {e}",
                    s.dims()
                ),
            }
        }
    }
}

/// Builds a 2-d dataset from flat coordinates, then duplicates roughly a
/// third of the points (picked deterministically from `seed`).
fn with_duplicates(flat: &[f64], seed: u64) -> PointSet {
    let mut rows: Vec<Vec<f64>> = flat.chunks_exact(2).map(|c| c.to_vec()).collect();
    let n = rows.len();
    for i in 0..n / 3 {
        let src = (seed as usize + i * 7) % n;
        rows.push(rows[src].clone());
    }
    PointSet::from_coords(rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn agreement_with_duplicate_points(
        r_flat in proptest::collection::vec(-50.0f64..50.0, 8..60),
        s_flat in proptest::collection::vec(-50.0f64..50.0, 8..60),
        seed in 0u64..1000,
        k in 1usize..6,
        reducers in 1usize..8,
    ) {
        let r = with_duplicates(&r_flat, seed);
        let s = with_duplicates(&s_flat, seed ^ 0x33);
        // Arbitrary tiny scatters are the z-curve's worst case (every point
        // near a seam matters), so the recall floor here is deliberately
        // looser than the ≥ 0.9 the bench workloads are held to.
        check_all_six(&r, &s, k, reducers, 0.7);
    }

    #[test]
    fn agreement_on_one_dimensional_data(
        r_rows in proptest::collection::vec(-100.0f64..100.0, 4..50),
        s_rows in proptest::collection::vec(-100.0f64..100.0, 4..50),
        k in 1usize..6,
        reducers in 1usize..8,
    ) {
        let r = PointSet::from_coords(r_rows.into_iter().map(|v| vec![v]).collect());
        let s = PointSet::from_coords(s_rows.into_iter().map(|v| vec![v]).collect());
        // 1-d z-order is the plain sorted order: H-zkNNJ candidates always
        // bracket the true neighbours, so it is essentially exact here.
        check_all_six(&r, &s, k, reducers, 0.99);
    }

    #[test]
    fn agreement_when_every_coordinate_is_identical(
        n_r in 2usize..25,
        n_s in 2usize..25,
        coord in -10.0f64..10.0,
        dims in 1usize..5,
        k in 1usize..30,
        reducers in 1usize..6,
    ) {
        // Every pair is at distance zero: any k (even k ≥ |S|) must yield
        // min(k, |S|) zero-distance neighbours everywhere, exactly.
        let r = PointSet::from_coords(vec![vec![coord; dims]; n_r]);
        let s = PointSet::from_coords(vec![vec![coord; dims]; n_s]);
        check_all_six(&r, &s, k, reducers, 1.0 - 1e-9);
    }

    #[test]
    fn agreement_when_k_exceeds_s(
        n_r in 2usize..20,
        n_s in 1usize..8,
        extra_k in 0usize..10,
        reducers in 1usize..6,
        seed in 0u64..100,
    ) {
        // k ≥ |S| degenerates every algorithm to a cross join: all |S|
        // neighbours per object, so even H-zkNNJ is exact (its candidate
        // window covers all of S).
        let r = uniform(n_r, 3, 40.0, seed);
        let s = uniform(n_s, 3, 40.0, seed ^ 0xEE);
        let k = n_s + extra_k;
        check_all_six(&r, &s, k, reducers, 1.0 - 1e-9);
    }
}
