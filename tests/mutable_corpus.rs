//! Integration tests of the mutable-corpus delta layer: insert/delete
//! semantics, the mutated-equals-cold guarantee for the prepared PGBJ
//! index and every metric (DBSP-style, proptested over random interleavings), compaction
//! boundaries, empty-overlay bit-identity, and snapshot consistency under
//! concurrent mutation.

use pgbj::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

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

/// A PGBJ join over `r` and `s`: the one algorithm `prepare` builds an
/// index for, and the cold join a mutated handle must equal.
fn builder_for<'a>(r: &'a PointSet, s: &'a PointSet, k: usize) -> Join<'a> {
    Join::new(r, s)
        .k(k)
        .algorithm(Algorithm::Pgbj)
        .pivot_count(8.min(r.len()).min(s.len()))
        .reducers(4)
        .seed(99)
}

/// Ids used for inserted points, far above anything the generators assign.
const ADD_ID_BASE: u64 = 10_000;

// ---------------------------------------------------------------------------
// Mutation semantics
// ---------------------------------------------------------------------------

#[test]
fn insert_delete_and_upsert_semantics() {
    let r = clustered(40, 2, 1);
    let s = clustered(60, 2, 2);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&r, &s, 3).prepare(&ctx).expect("prepare");
    let pending = || {
        let stats = prepared.delta_stats();
        (stats.pending_adds, stats.pending_tombstones)
    };
    assert_eq!(prepared.epoch(), 0);
    assert_eq!(prepared.s_len(), 60);

    // Insert a fresh point: live count and epoch move, stats see the add.
    prepared
        .insert(Point::new(ADD_ID_BASE, vec![1.0, 2.0]))
        .expect("insert");
    assert_eq!(prepared.epoch(), 1);
    assert_eq!(prepared.s_len(), 61);
    assert_eq!(pending(), (1, 0));

    // Upsert over a frozen id: tombstone + add, live count unchanged.
    let frozen_id = s.iter().next().expect("s nonempty").id;
    prepared
        .insert(Point::new(frozen_id, vec![3.0, 4.0]))
        .expect("upsert");
    assert_eq!(prepared.s_len(), 61);
    assert_eq!(pending(), (2, 1));

    // Delete the added point; delete of a missing id is a published no-op.
    assert!(prepared.delete(ADD_ID_BASE));
    assert!(!prepared.delete(ADD_ID_BASE), "second delete is a no-op");
    let epoch_after = prepared.epoch();
    assert!(!prepared.delete(ADD_ID_BASE + 77), "unknown id is a no-op");
    assert_eq!(prepared.epoch(), epoch_after, "no-op must not bump epoch");
    assert_eq!(prepared.s_len(), 60);

    // Deleted ids never come back in results.
    let deleted_frozen = s.iter().nth(1).expect("s has 2 points").id;
    assert!(prepared.delete(deleted_frozen));
    let result = prepared.query(&r).expect("query");
    assert!(result
        .rows
        .iter()
        .all(|row| row.neighbors.iter().all(|n| n.id != deleted_frozen)));

    // Wrong-dimensionality inserts are rejected.
    assert!(matches!(
        prepared.insert(Point::new(ADD_ID_BASE + 1, vec![1.0, 2.0, 3.0])),
        Err(JoinError::DimensionalityMismatch { .. })
    ));

    // Across a compaction the deleted id leaves the frozen side: deleting
    // it again is a no-op, and re-inserting it is a plain add.
    assert!(prepared.compact());
    let epoch_after = prepared.epoch();
    assert!(!prepared.delete(deleted_frozen), "dropped id");
    assert_eq!(prepared.epoch(), epoch_after, "no-op must not bump epoch");
    prepared
        .insert(Point::new(deleted_frozen, vec![5.0, 6.0]))
        .expect("re-insert");
    assert_eq!(pending(), (1, 0), "a plain add, no tombstone");
    // Upserting a pending add replaces it in place.
    prepared
        .insert(Point::new(deleted_frozen, vec![7.0, 8.0]))
        .expect("upsert of a pending add");
    assert_eq!(pending(), (1, 0));
    assert_eq!(prepared.s_len(), 60);

    // Every live id deleted: nothing left to compact over, and a query
    // still answers every row, with no neighbours.
    for p in prepared.materialized_corpus().iter() {
        assert!(prepared.delete(p.id), "{} is live", p.id);
    }
    assert_eq!(prepared.s_len(), 0);
    assert!(!prepared.compact(), "no live object");
    let emptied = prepared.query(&r).expect("query over an emptied corpus");
    assert_eq!(emptied.rows.len(), r.len());
    assert!(emptied.rows.iter().all(|row| row.neighbors.is_empty()));
}

#[test]
fn forced_compaction_folds_the_overlay_and_preserves_answers() {
    let r = clustered(50, 2, 3);
    // Ids permuted against arrival order (37 is prime to 80).
    let mut points = clustered(80, 2, 4).into_points();
    for (i, p) in points.iter_mut().enumerate() {
        p.id = (37 * i as u64) % 80;
    }
    let s = PointSet::from_points(points);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&r, &s, 4).prepare(&ctx).expect("prepare");
    assert!(!prepared.compact(), "empty overlay: nothing to compact");
    for i in 0..6 {
        prepared
            .insert(Point::new(ADD_ID_BASE + i, vec![i as f64 * 10.0, 50.0]))
            .expect("insert");
    }
    let victim = s.points()[0].id;
    assert!(prepared.delete(victim));
    // An upsert of a frozen id: the frozen copy masked, the new one added.
    let moved = s.points()[3].id;
    prepared
        .insert(Point::new(moved, vec![120.0, 60.0]))
        .expect("upsert");
    let before = prepared.query(&r).expect("query with overlay");
    assert!(
        before.metrics.delta_probe_computations > 0,
        "overlay adds must be probed through the memtable"
    );

    assert!(prepared.compact(), "non-empty overlay must compact");
    let stats = prepared.delta_stats();
    assert_eq!((stats.pending_adds, stats.pending_tombstones), (0, 0));
    assert_eq!(stats.compactions, 1);
    assert!(stats.compacted_points > 0);

    // Same corpus, now frozen: answers identical, delta counters silent.
    let after = prepared.query(&r).expect("query after compaction");
    assert!(
        after.matches(&before, 1e-9),
        "drifted across compaction: {:?}",
        after.mismatch_against(&before, 1e-9)
    );
    assert_eq!(after.metrics.delta_probe_computations, 0);
    assert_eq!(after.metrics.tombstone_masked, 0);

    // And it is the state a fresh prepare over the live corpus, with the
    // same calibration `R`, builds: same rows, same work.
    let live = prepared.materialized_corpus();
    let fresh = builder_for(&r, &live, 4)
        .prepare(&ctx)
        .expect("fresh prepare")
        .query(&r)
        .expect("fresh query");
    assert!(
        after.matches(&fresh, 0.0),
        "compacted vs fresh: {:?}",
        after.mismatch_against(&fresh, 0.0)
    );
    assert_eq!(all_counters(&after), all_counters(&fresh));
}

/// Every deterministic field of a query's [`JoinMetrics`], in declaration
/// order.
fn all_counters(result: &JoinResult) -> [u64; 14] {
    let m = &result.metrics;
    [
        m.distance_computations,
        m.pivot_assignment_computations,
        m.r_records_shuffled,
        m.s_records_shuffled,
        m.index_builds,
        m.pivot_selections,
        m.shuffle_bytes,
        m.shuffle_records,
        m.combine_input_records,
        m.combine_output_records,
        m.delta_probe_computations,
        m.tombstone_masked,
        m.compactions,
        m.compacted_points,
    ]
}

/// An empty overlay is zero add rows and no mask, not a separate code path:
/// after an insert is undone by its delete the overlay the probes run under
/// is one that mutations emptied, and rows and every counter are
/// bit-identical to a never-mutated handle's.  (That
/// the never-mutated handle itself answers as it did before every probe took
/// an overlay is pinned by the `none` rows of `tests/probe_differential.rs`
/// and by the drift gates' prepared rows.)
#[test]
fn empty_overlay_queries_are_bit_identical_to_the_frozen_path() {
    let r = clustered(60, 2, 5);
    let s = clustered(90, 2, 6);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&r, &s, 5).prepare(&ctx).expect("prepare");
    let pristine = prepared.query(&r).expect("pristine query");
    prepared
        .insert(Point::new(ADD_ID_BASE, vec![0.0, 0.0]))
        .expect("insert");
    assert!(prepared.delete(ADD_ID_BASE));
    assert!(prepared.delta_stats().pending_adds == 0);
    let roundtrip = prepared.query(&r).expect("round-trip query");
    assert!(roundtrip.matches(&pristine, 0.0));
    assert_eq!(
        all_counters(&roundtrip),
        all_counters(&pristine),
        "an empty overlay must not perturb a counter"
    );
    assert_eq!(roundtrip.metrics.delta_probe_computations, 0);
    assert_eq!(roundtrip.metrics.tombstone_masked, 0);
}

// ---------------------------------------------------------------------------
// Mutated-equals-cold (DBSP-style): random interleavings
// ---------------------------------------------------------------------------

/// The in-test model of the live corpus: id → coordinates.
type Model = BTreeMap<u64, Vec<f64>>;

fn model_of(s: &PointSet) -> Model {
    s.iter().map(|p| (p.id, p.coords.clone())).collect()
}

/// One scripted mutation, drawn by proptest as plain integers/floats.
#[derive(Debug, Clone)]
enum Op {
    InsertNew(Vec<f64>),
    Upsert(usize, Vec<f64>),
    Delete(usize),
}

fn apply_op(prepared: &PreparedJoin, model: &mut Model, op: &Op, op_index: usize) {
    match op {
        Op::InsertNew(coords) => {
            let id = ADD_ID_BASE + op_index as u64;
            prepared
                .insert(Point::new(id, coords.clone()))
                .expect("insert");
            model.insert(id, coords.clone());
        }
        Op::Upsert(pick, coords) => {
            let id = *model.keys().nth(pick % model.len()).expect("nonempty");
            prepared
                .insert(Point::new(id, coords.clone()))
                .expect("upsert");
            model.insert(id, coords.clone());
        }
        Op::Delete(pick) => {
            if model.len() <= 1 {
                return; // keep one point alive for the cold rebuild
            }
            let id = *model.keys().nth(pick % model.len()).expect("nonempty");
            assert!(prepared.delete(id), "model says {id} is live");
            model.remove(&id);
        }
    }
}

/// The core guarantee, checked at one instant: for each metric, a query
/// against the mutated handle is distance-identical to a cold PGBJ `run`
/// over the materialized corpus, and no tombstoned id appears.
fn assert_matches_cold(
    prepared: &PreparedJoin,
    r: &PointSet,
    model: &Model,
    ctx: &ExecutionContext,
    k: usize,
    metric: DistanceMetric,
    label: &str,
) {
    let materialized = prepared.materialized_corpus();
    assert_eq!(model_of(&materialized), *model, "{label}: model drift");
    let cold = builder_for(r, &materialized, k)
        .metric(metric)
        .run(ctx)
        .expect("cold rebuild");
    let served = prepared.query(r).expect("mutated query");
    assert!(
        served.matches(&cold, 1e-9),
        "{label} ({metric:?}) mutated vs cold: {:?}",
        served.mismatch_against(&cold, 1e-9)
    );
    for row in &served.rows {
        for n in &row.neighbors {
            assert!(
                model.contains_key(&n.id),
                "{label}: tombstoned/unknown id {} appeared",
                n.id
            );
        }
    }
}

/// Decodes the proptest shim's flat draws (no `prop_oneof`/`prop_map` there)
/// into a mutation script: kind 0 = insert-new, 1 = upsert, 2 = delete.
fn decode_ops(kinds: &[usize], picks: &[usize], flat_coords: &[f64]) -> Vec<Op> {
    kinds
        .iter()
        .enumerate()
        .map(|(i, kind)| {
            let pick = picks[i % picks.len()];
            let coords = vec![
                flat_coords[(2 * i) % flat_coords.len()],
                flat_coords[(2 * i + 1) % flat_coords.len()],
            ];
            match kind % 3 {
                0 => Op::InsertNew(coords),
                1 => Op::Upsert(pick, coords),
                _ => Op::Delete(pick),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random insert/delete/upsert interleavings: after every prefix the
    /// mutated handle answers exactly like a cold build over the
    /// materialized corpus — for both paper metrics,
    /// across auto-compaction boundaries (threshold 4 forces several).
    #[test]
    fn interleaved_mutations_match_cold_rebuild(
        s_flat in collection::vec(-180.0f64..180.0, 50..90),
        op_kinds in collection::vec(0usize..3, 6..14),
        op_picks in collection::vec(0usize..64, 14),
        op_coords in collection::vec(-200.0f64..200.0, 28),
        k in 1usize..5,
        checkpoint in 1usize..6,
    ) {
        let ops = decode_ops(&op_kinds, &op_picks, &op_coords);
        let s = PointSet::from_coords(s_flat.chunks_exact(2).map(|c| c.to_vec()).collect());
        let r = clustered(30, 2, 7);
        let ctx = ExecutionContext::default();
        for metric in [DistanceMetric::Euclidean, DistanceMetric::Manhattan] {
            let prepared = builder_for(&r, &s, k)
                .metric(metric)
                .delta_threshold(4)
                .prepare(&ctx)
                .expect("prepare");
            let mut model = model_of(&s);
            let checkpoint = checkpoint.min(ops.len() - 1);
            for (i, op) in ops.iter().enumerate() {
                apply_op(&prepared, &mut model, op, i);
                if i == checkpoint {
                    assert_matches_cold(&prepared, &r, &model, &ctx, k, metric, "mid");
                }
            }
            assert_matches_cold(&prepared, &r, &model, &ctx, k, metric, "end");
            // Force the remaining overlay down and re-check: crossing a
            // compaction boundary must not change a single distance.
            prepared.compact();
            assert_matches_cold(&prepared, &r, &model, &ctx, k, metric, "post-compact");
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot consistency under concurrent mutation
// ---------------------------------------------------------------------------

/// Queries racing inserts/deletes/compactions must each observe one
/// consistent epoch: with the corpus toggling between exactly two states,
/// every concurrent result equals the cold answer for one of them — never a
/// torn in-between (the `query_one` path included).
#[test]
fn queries_observe_a_consistent_snapshot_while_mutating() {
    let r = clustered(40, 2, 8);
    let s = clustered(70, 2, 9);
    let ctx = ExecutionContext::default();
    let extra = Point::new(ADD_ID_BASE, vec![0.0, 0.0]);

    let prepared = builder_for(&r, &s, 4).prepare(&ctx).expect("prepare");
    let without = prepared.query(&r).expect("state A");
    prepared.insert(extra.clone()).expect("insert");
    let with = prepared.query(&r).expect("state B");
    assert!(prepared.delete(extra.id));

    let probe = r.iter().next().expect("r nonempty").clone();
    let row_without = without.row(probe.id).expect("row A").clone();
    let row_with = with.row(probe.id).expect("row B").clone();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let prepared = prepared.clone();
            let (r, without, with) = (&r, &without, &with);
            scope.spawn(move || {
                for _ in 0..12 {
                    let got = prepared.query(r).expect("concurrent query");
                    assert!(
                        got.matches(without, 1e-9) || got.matches(with, 1e-9),
                        "torn snapshot: matches neither corpus state"
                    );
                }
            });
        }
        {
            let prepared = prepared.clone();
            let (probe, row_without, row_with) = (&probe, &row_without, &row_with);
            scope.spawn(move || {
                let close = |a: f64, b: f64| (a - b).abs() <= 1e-9;
                for _ in 0..24 {
                    let row = prepared.query_one(probe).expect("concurrent query_one");
                    let matches_state = |want: &JoinRow| {
                        row.neighbors.len() == want.neighbors.len()
                            && row
                                .neighbors
                                .iter()
                                .zip(&want.neighbors)
                                .all(|(g, w)| close(g.distance, w.distance))
                    };
                    assert!(
                        matches_state(row_without) || matches_state(row_with),
                        "torn query_one snapshot"
                    );
                }
            });
        }
        // The mutator toggles A ⇄ B, occasionally forcing a compaction —
        // which changes the representation but never the live corpus.
        scope.spawn(|| {
            for round in 0..16 {
                prepared.insert(extra.clone()).expect("insert");
                if round % 5 == 0 {
                    prepared.compact();
                }
                assert!(prepared.delete(extra.id));
            }
        });
    });
}
