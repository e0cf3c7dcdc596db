//! Differential matrix for the direct prepared probe of PGBJ's index:
//! {no overlay, adds, adds + tombstones} × batch size
//! (either side of the serial/parallel cut) × workers.
//!
//! Three claims, each checked in every cell:
//!
//! * rows equal a cold `run` over `materialized_corpus()` — the probe skips
//!   the job substrate, not any of the work that decides an answer;
//! * rows and the four work counters are independent of `workers` — the
//!   row-range split is invisible;
//! * a prepared query reports no shuffle, and a singleton's counters equal
//!   the values the MapReduce serve job reported at the commit before the
//!   direct probe replaced it (`SINGLETON_COUNTERS_AT_PARENT`).

use pgbj::knnjoin::algorithms::common::PARALLEL_PROBE_CUT as CUT;
use pgbj::prelude::*;

const K: usize = 4;
const WORKERS: [usize; 3] = [1, 2, 8];
const SIZES: [usize; 6] = [1, 2, CUT - 1, CUT, CUT + 1, 1_000];

#[derive(Debug, Clone, Copy)]
enum Overlay {
    None,
    Adds,
    AddsAndTombstones,
}
const OVERLAYS: [Overlay; 3] = [Overlay::None, Overlay::Adds, Overlay::AddsAndTombstones];

/// `[distance_computations, pivot_assignment_computations,
/// delta_probe_computations, tombstone_masked]` of one query.
type Counters = [u64; 4];

fn counters(result: &JoinResult) -> Counters {
    let m = &result.metrics;
    [
        m.distance_computations,
        m.pivot_assignment_computations,
        m.delta_probe_computations,
        m.tombstone_masked,
    ]
}

/// Counters of the one-point query (`SIZES[0]`) in every overlay cell, in
/// loop order, recorded at the parent commit where the probe still ran as a
/// MapReduce job.  They were recorded again when the cells became sorted
/// and the candidate walk window-first (30 / 15 / 13 distance
/// computations), and once more when the walk took 32-row tiles (15 / 11 /
/// 10, no row masked).  Since every probe runs under its epoch's overlay,
/// the `none` row is also the pin that an empty overlay changes no counter.
#[rustfmt::skip]
const SINGLETON_COUNTERS_AT_PARENT: [Counters; 3] = [
    // {none, adds, adds + tombstones}
    [48, 8, 0, 0], [41, 8, 7, 0], [32, 8, 8, 1],
];

fn clustered(n: usize, seed: u64) -> PointSet {
    gaussian_clusters(
        &ClusterConfig {
            n_points: n,
            dims: 2,
            n_clusters: 5,
            std_dev: 5.0,
            extent: 200.0,
            skew: 0.5,
        },
        seed,
    )
}

/// Ids of two far-corner points (never deleted) in the corpus the counters
/// above were recorded over: removing them would move those pins.
const SENTINEL_ID_BASE: u64 = 900_000;
const ADD_ID_BASE: u64 = 10_000;

fn corpus() -> PointSet {
    let mut points = clustered(300, 21).into_points();
    points.push(Point::new(SENTINEL_ID_BASE, vec![-250.0, -250.0]));
    points.push(Point::new(SENTINEL_ID_BASE + 1, vec![450.0, 450.0]));
    PointSet::from_points(points)
}

fn builder_for<'a>(r: &'a PointSet, s: &'a PointSet) -> Join<'a> {
    Join::new(r, s)
        .k(K)
        .algorithm(Algorithm::Pgbj)
        .pivot_count(8.min(r.len()))
        .reducers(4)
        .seed(99)
}

fn mutate(prepared: &PreparedJoin, overlay: Overlay, s: &PointSet) {
    if matches!(overlay, Overlay::None) {
        return;
    }
    for i in 0..7u64 {
        let c = i as f64;
        prepared
            .insert(Point::new(
                ADD_ID_BASE + i,
                vec![20.0 + 25.0 * c, 180.0 - 20.0 * c],
            ))
            .expect("insert");
    }
    if matches!(overlay, Overlay::AddsAndTombstones) {
        for victim in s.iter().step_by(37).take(6) {
            assert!(prepared.delete(victim.id), "frozen id is live");
        }
        // An upsert over a frozen id: one more tombstone, one more add.
        let moved = s.points()[5].id;
        prepared
            .insert(Point::new(moved, vec![90.0, 90.0]))
            .expect("upsert");
    }
}

#[test]
fn direct_probe_matches_cold_runs_and_parent_counters_across_the_matrix() {
    let s = corpus();
    let pool = clustered(1_000, 22);
    let cold_ctx = ExecutionContext::default();
    let mut at_parent = SINGLETON_COUNTERS_AT_PARENT.iter();
    for overlay in OVERLAYS {
        // One handle per worker count, mutated identically.
        let handles = WORKERS.map(|workers| {
            let ctx = ExecutionContext::builder().workers(workers).build();
            let prepared = builder_for(&pool, &s)
                .delta_threshold(usize::MAX)
                .prepare(&ctx)
                .expect("prepare");
            mutate(&prepared, overlay, &s);
            prepared
        });
        let materialized = handles[0].materialized_corpus();
        for n in SIZES {
            let cell = format!("{overlay:?} n={n}");
            let batch = PointSet::from_points(pool.points()[..n].to_vec());
            let served = handles
                .each_ref()
                .map(|prepared| prepared.query(&batch).expect("prepared query"));
            let cold = builder_for(&batch, &materialized)
                .run(&cold_ctx)
                .expect("cold run");
            assert!(
                served[0].matches(&cold, 1e-9),
                "{cell}: served vs cold: {:?}",
                served[0].mismatch_against(&cold, 1e-9)
            );
            for (result, workers) in served.iter().zip(WORKERS) {
                assert!(
                    result.matches(&served[0], 0.0),
                    "{cell}: rows differ at workers={workers}"
                );
                assert_eq!(
                    counters(result),
                    counters(&served[0]),
                    "{cell}: counters differ at workers={workers}"
                );
                let m = &result.metrics;
                assert_eq!(
                    (m.shuffle_bytes, m.shuffle_records, m.r_records_shuffled),
                    (0, 0, 0),
                    "{cell}: a prepared probe shuffles nothing"
                );
            }
            if n == 1 {
                assert_eq!(
                    counters(&served[0]),
                    *at_parent.next().expect("one recorded row per cell"),
                    "{cell}: singleton counters moved from the parent commit's"
                );
            }
        }
    }
    assert!(at_parent.next().is_none(), "recorded rows left over");
}
