//! Concurrency harness for the serving front-end and the prepared/delta
//! stack: a multi-client stress test with oracle-verified responses, a
//! mutate-under-load soak test (every answer consistent with *some* published
//! epoch), coalescer batching/ordering/bit-identity coverage, admission (validation, backpressure) and drain behaviour, and
//! histogram merge associativity.
//!
//! Everything is seeded and bounded so the harness is deterministic enough
//! for CI: thread interleavings vary, but every assertion is
//! interleaving-independent (exactness against precomputed oracles, counter
//! identities, typed errors).

use pgbj::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

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

/// A PGBJ join over `r` and `s`, the one algorithm `prepare` builds an
/// index for.
fn builder_for<'a>(r: &'a PointSet, s: &'a PointSet, k: usize) -> Join<'a> {
    Join::new(r, s)
        .k(k)
        .algorithm(Algorithm::Pgbj)
        .pivot_count(8.min(r.len()).min(s.len()))
        .reducers(4)
        .seed(99)
}

/// Exact distance equality between two rows — the repo's "bit-identical"
/// sense: same neighbour count, same distances at every rank (ids may differ
/// on exact ties).
fn rows_identical(a: &JoinRow, b: &JoinRow) -> bool {
    a.r_id == b.r_id
        && a.neighbors.len() == b.neighbors.len()
        && a.neighbors
            .iter()
            .zip(&b.neighbors)
            .all(|(x, y)| x.distance == y.distance)
}

/// Brute-force kNN distances of one point against a corpus.
fn brute_force_distances(
    point: &Point,
    corpus: &PointSet,
    k: usize,
    metric: DistanceMetric,
) -> Vec<f64> {
    let mut dists: Vec<f64> = corpus.iter().map(|s| metric.distance(point, s)).collect();
    dists.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
    dists.truncate(k);
    dists
}

// ---------------------------------------------------------------------------
// Stress harness: N clients × mixed singles/batches, oracle-verified
// ---------------------------------------------------------------------------

/// Many client threads fire a seeded mix of `query_one` and batch `query`
/// calls at one server over one shared `PreparedJoin`; every response row is
/// verified bit-identical against a precomputed oracle (one sequential probe
/// of the full query set before the server starts).
#[test]
fn stress_mixed_clients_all_responses_exact() {
    const CLIENTS: usize = 6;
    const OPS_PER_CLIENT: usize = 20;
    let corpus = clustered(400, 3, 50);
    let queries = clustered(60, 3, 51);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&queries, &corpus, 5)
        .prepare(&ctx)
        .expect("prepare");

    // Precomputed oracle: one sequential probe over the whole query set.
    let oracle: BTreeMap<u64, JoinRow> = prepared
        .query(&queries)
        .expect("oracle probe")
        .into_iter()
        .map(|row| (row.r_id, row))
        .collect();

    let server = Arc::new(Server::start(prepared, ServerConfig::default().workers(3)));
    let points: Vec<Point> = queries.iter().cloned().collect();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = Arc::clone(&server);
            let points = &points;
            let oracle = &oracle;
            scope.spawn(move || {
                // Seeded per-client op mix: deterministic sequence of single
                // and batch queries over rotating slices of the query set.
                for op in 0..OPS_PER_CLIENT {
                    let at = (client * 7 + op * 3) % points.len();
                    if (client + op) % 3 == 0 {
                        // Batch of 4 consecutive (wrapping) query points.
                        let batch: Vec<Point> = (0..4)
                            .map(|i| points[(at + i) % points.len()].clone())
                            .collect();
                        let result = server
                            .query(PointSet::from_points(batch))
                            .expect("batch query");
                        assert_eq!(result.len(), 4);
                        for row in &result {
                            assert!(
                                rows_identical(row, &oracle[&row.r_id]),
                                "client {client} op {op}: batch row {} deviates",
                                row.r_id
                            );
                        }
                    } else {
                        let point = points[at].clone();
                        let row = server.query_one(point).expect("single query");
                        assert!(
                            rows_identical(&row, &oracle[&row.r_id]),
                            "client {client} op {op}: row {} deviates",
                            row.r_id
                        );
                    }
                }
            });
        }
    });
    let stats = server.shutdown();
    // Counter identities, independent of interleaving: every op was admitted
    // and answered, none rejected (closed-loop clients never outrun the
    // default queue depth), none failed.
    let singles: u64 = (0..CLIENTS)
        .flat_map(|c| (0..OPS_PER_CLIENT).map(move |o| (c, o)))
        .filter(|(c, o)| (c + o) % 3 != 0)
        .count() as u64;
    let batches = (CLIENTS * OPS_PER_CLIENT) as u64 - singles;
    assert_eq!(stats.submitted, singles + batches);
    assert_eq!(stats.completed, singles + batches);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.batch_requests, batches);
    assert_eq!(stats.coalesced_points, singles);
    assert_eq!(stats.latency.count(), stats.completed);
}

// ---------------------------------------------------------------------------
// Mutate-under-load soak: every answer consistent with SOME published epoch
// ---------------------------------------------------------------------------

/// A writer thread inserts/deletes/compacts through the shared handle while
/// reader threads query through the server.  The writer logs the
/// materialized corpus after every mutation; afterwards every reader
/// response must match the brute-force kNN of *some* logged epoch — i.e. no
/// answer ever mixes two corpus versions (extends the PR 6 snapshot proptest
/// to the batched/coalesced serving path).
#[test]
fn soak_mutate_under_load_answers_match_some_epoch() {
    const READERS: usize = 4;
    const QUERIES_PER_READER: usize = 15;
    const WRITER_OPS: usize = 24;
    const K: usize = 3;
    let corpus = clustered(150, 2, 60);
    let queries = clustered(24, 2, 61);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&queries, &corpus, K)
        // Low threshold so the soak crosses compaction boundaries too.
        .delta_threshold(6)
        .prepare(&ctx)
        .expect("prepare");

    // Epoch log: the corpus of every version the writer publishes (only the
    // writer mutates, so logging right after each mutation captures all).
    let epochs = Mutex::new(vec![prepared.materialized_corpus()]);
    let answers: Mutex<Vec<(Point, JoinRow)>> = Mutex::new(Vec::new());

    let server = Server::start(prepared.clone(), ServerConfig::default().workers(2));
    let points: Vec<Point> = queries.iter().cloned().collect();
    std::thread::scope(|scope| {
        // Writer: seeded insert/delete/compact churn.
        scope.spawn(|| {
            for op in 0..WRITER_OPS {
                match op % 4 {
                    0 | 1 => {
                        let id = 50_000 + op as u64;
                        let c = op as f64;
                        prepared
                            .insert(Point::new(id, vec![c * 3.0, 200.0 - c]))
                            .expect("insert");
                    }
                    2 => {
                        // Delete a frozen id (may be a published no-op the
                        // second time round; both fine).
                        let victim = corpus.iter().nth(op * 5 % corpus.len()).unwrap().id;
                        prepared.delete(victim);
                    }
                    _ => {
                        prepared.compact();
                    }
                }
                epochs.lock().unwrap().push(prepared.materialized_corpus());
                std::thread::yield_now();
            }
        });
        // Readers: singles through the coalescer, responses logged for
        // post-hoc verification.
        for reader in 0..READERS {
            let server = &server;
            let answers = &answers;
            let points = &points;
            scope.spawn(move || {
                for op in 0..QUERIES_PER_READER {
                    let point = points[(reader * 5 + op) % points.len()].clone();
                    let row = server.query_one(point.clone()).expect("query under churn");
                    answers.lock().unwrap().push((point, row));
                }
            });
        }
    });
    server.shutdown();

    let epochs = epochs.into_inner().unwrap();
    let answers = answers.into_inner().unwrap();
    assert_eq!(answers.len(), READERS * QUERIES_PER_READER);
    for (point, row) in &answers {
        assert_eq!(row.r_id, point.id);
        let got: Vec<f64> = row.neighbors.iter().map(|n| n.distance).collect();
        let consistent = epochs.iter().any(|corpus| {
            let want = brute_force_distances(point, corpus, K, DistanceMetric::Euclidean);
            want.len() == got.len() && want.iter().zip(&got).all(|(w, g)| (w - g).abs() <= 1e-9)
        });
        assert!(
            consistent,
            "row for point {} matches no published epoch: {got:?}",
            point.id
        );
    }
}

// ---------------------------------------------------------------------------
// Coalescer: bit-identity, ordering, flush triggers
// ---------------------------------------------------------------------------

/// Rows answered through a coalesced probe batch of the prepared index are
/// bit-identical to sequential uncoalesced `query_one` calls on the
/// same prepared handle — coalescing is a pure batching optimisation,
/// invisible in the results.
#[test]
fn coalesced_rows_bit_identical_to_query_one_for_every_algorithm() {
    let corpus = clustered(220, 3, 70);
    let queries = clustered(12, 3, 71);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&queries, &corpus, 4)
        .prepare(&ctx)
        .expect("prepare");
    let expected: Vec<JoinRow> = queries
        .iter()
        .map(|p| prepared.query_one(p).expect("uncoalesced query_one"))
        .collect();
    // Submit all, then wait: the first wait leads one round that takes
    // all 12 queued singles (≤ 16 per round) as one coalesced batch.
    let server = Server::start(prepared, ServerConfig::default().workers(2));
    let tickets: Vec<_> = queries
        .iter()
        .map(|p| server.submit_one(p.clone()).expect("submit"))
        .collect();
    for (ticket, want) in tickets.into_iter().zip(&expected) {
        let got = ticket.wait().expect("coalesced answer");
        assert!(
            rows_identical(&got, want),
            "coalesced row {} deviates from query_one",
            want.r_id
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.coalesced_points, queries.len() as u64);
    assert_eq!(stats.coalesced_batches, 1);
    assert_eq!(stats.failed, 0);
}

/// Two clients submitting points with the *same* id share a coalesced batch
/// without cross-talk: each ticket gets its own point's answer (the batcher
/// re-labels points internally, never merging requests by id).
#[test]
fn coalescing_never_reorders_or_merges_same_id_requests() {
    let corpus = clustered(200, 2, 72);
    let queries = clustered(8, 2, 73);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&queries, &corpus, 3)
        .prepare(&ctx)
        .expect("prepare");
    let a = queries.iter().next().unwrap().clone();
    let b = queries.iter().nth(1).unwrap().clone();
    // Same id, different coordinates: distinct answers required.
    let a_imposter = Point::new(a.id, b.coords.clone());
    let want_a = prepared.query_one(&a).unwrap();
    let want_b = prepared.query_one(&b).unwrap();

    let server = Server::start(prepared, ServerConfig::default().workers(1));
    let t1 = server.submit_one(a.clone()).unwrap();
    let t2 = server.submit_one(a_imposter.clone()).unwrap();
    let t3 = server.submit_one(a.clone()).unwrap();
    let r1 = t1.wait().unwrap();
    let r2 = t2.wait().unwrap();
    let r3 = t3.wait().unwrap();
    // All three rows answer under the submitted id...
    assert!(rows_identical(&r1, &want_a));
    assert!(rows_identical(&r3, &want_a));
    // ...but the imposter (same id, b's coordinates) gets b's distances.
    assert_eq!(r2.r_id, a.id);
    assert_eq!(
        r2.neighbors.iter().map(|n| n.distance).collect::<Vec<_>>(),
        want_b
            .neighbors
            .iter()
            .map(|n| n.distance)
            .collect::<Vec<_>>()
    );
    let stats = server.shutdown();
    // One coalesced flush carried all three.
    assert_eq!(stats.coalesced_batches, 1);
    assert_eq!(stats.coalesced_points, 3);
}

/// The waiting client probes at once: an idle server answers a lone single
/// alone, with no second submit and no timer to release it, so closed-loop
/// singles never coalesce.
#[test]
fn idle_server_answers_a_lone_single_alone() {
    let corpus = clustered(200, 2, 74);
    let queries = clustered(6, 2, 75);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&queries, &corpus, 3)
        .prepare(&ctx)
        .expect("prepare");
    let server = Server::start(prepared.clone(), ServerConfig::default().workers(1));
    for (answered, point) in queries.iter().enumerate() {
        let row = server.query_one(point.clone()).expect("lone answer");
        assert!(rows_identical(&row, &prepared.query_one(point).unwrap()));
        let stats = server.stats();
        assert_eq!(stats.coalesced_batches, answered as u64 + 1);
        assert_eq!(stats.mean_coalesced_batch(), 1.0);
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, queries.len() as u64);
    assert_eq!(stats.coalesced_points, queries.len() as u64);
}

/// Admission validates finiteness: a NaN point fails its own submit
/// synchronously, with its own index, and never reaches the queue — so the
/// other clients' singles it would have shared a coalesced batch with all
/// succeed.
#[test]
fn non_finite_points_are_refused_at_admission_not_in_the_batch() {
    let corpus = clustered(200, 2, 78);
    let queries = clustered(5, 2, 79);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&queries, &corpus, 3)
        .prepare(&ctx)
        .expect("prepare");
    let server = Server::start(prepared.clone(), ServerConfig::default().workers(1));
    let mut tickets = Vec::new();
    for (i, point) in queries.iter().enumerate() {
        if i == 2 {
            for bad in [f64::NAN, f64::INFINITY] {
                let poisoned = Point::new(777, vec![bad, 1.0]);
                assert_eq!(
                    server.submit_one(poisoned).unwrap_err(),
                    JoinError::NonFiniteInput {
                        dataset: "R",
                        index: 0
                    }
                );
            }
            let mut batch = queries.clone();
            batch.points_mut()[3].coords[1] = f64::NEG_INFINITY;
            assert_eq!(
                server.submit(batch).unwrap_err(),
                JoinError::NonFiniteInput {
                    dataset: "R",
                    index: 3
                }
            );
        }
        tickets.push((point, server.submit_one(point.clone()).expect("submit")));
    }
    assert_eq!(server.queue_depth(), queries.len());
    for (point, ticket) in tickets {
        let row = ticket.wait().expect("innocent ticket succeeds");
        assert!(rows_identical(&row, &prepared.query_one(point).unwrap()));
    }
    let stats = server.shutdown();
    // All five innocents rode one batch; the refused submits were never
    // admitted, so they count as neither submitted nor failed.
    assert_eq!(stats.coalesced_batches, 1);
    assert_eq!(stats.submitted, queries.len() as u64);
    assert_eq!(stats.completed, queries.len() as u64);
    assert_eq!(stats.failed, 0);
}

/// The drain trigger: shutdown answers everything still queued, before any
/// ticket is waited.
#[test]
fn coalescer_drain_trigger_answers_all_pending_on_shutdown() {
    let corpus = clustered(200, 2, 76);
    let queries = clustered(5, 2, 77);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&queries, &corpus, 3)
        .prepare(&ctx)
        .expect("prepare");
    let expected: Vec<JoinRow> = queries
        .iter()
        .map(|p| prepared.query_one(p).unwrap())
        .collect();
    let server = Server::start(prepared, ServerConfig::default().workers(2));
    let tickets: Vec<_> = queries
        .iter()
        .map(|p| server.submit_one(p.clone()).unwrap())
        .collect();
    let stats = server.shutdown();
    assert_eq!(stats.completed, queries.len() as u64);
    for (ticket, want) in tickets.into_iter().zip(&expected) {
        assert!(rows_identical(&ticket.wait().unwrap(), want));
    }
}

// ---------------------------------------------------------------------------
// Backpressure / overload
// ---------------------------------------------------------------------------

/// Concurrent submitters against a tiny queue that nobody waits on yet:
/// exactly `cap` are admitted, the rest get `JoinError::Overloaded`
/// immediately (no hang, no panic), and the admitted ones complete when
/// waited.
#[test]
fn concurrent_overload_rejects_typed_and_never_hangs() {
    const SUBMITTERS: usize = 8;
    const CAP: usize = 3;
    let corpus = clustered(150, 2, 80);
    let queries = clustered(SUBMITTERS, 2, 81);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&queries, &corpus, 2)
        .prepare(&ctx)
        .expect("prepare");
    // Unwaited tickets run nothing, so the queue fills to `CAP`; the first
    // wait takes all `CAP` as one batch.
    let server = Server::start(
        prepared,
        ServerConfig::default().workers(1).queue_depth(CAP),
    );
    let admitted = Mutex::new(Vec::new());
    let rejected = Mutex::new(0usize);
    let points: Vec<Point> = queries.iter().cloned().collect();
    std::thread::scope(|scope| {
        for point in &points {
            let server = &server;
            let admitted = &admitted;
            let rejected = &rejected;
            scope.spawn(move || match server.submit_one(point.clone()) {
                Ok(ticket) => admitted.lock().unwrap().push((point.id, ticket)),
                Err(JoinError::Overloaded { depth, capacity }) => {
                    assert!(depth >= CAP);
                    assert_eq!(capacity, CAP);
                    *rejected.lock().unwrap() += 1;
                }
                Err(other) => panic!("unexpected submit error: {other}"),
            });
        }
    });
    let admitted = admitted.into_inner().unwrap();
    let rejected = rejected.into_inner().unwrap();
    assert_eq!(admitted.len(), CAP);
    assert_eq!(rejected, SUBMITTERS - CAP);
    for (id, ticket) in admitted {
        assert_eq!(ticket.wait().expect("admitted completes").r_id, id);
    }
    let stats = server.shutdown();
    assert_eq!(stats.rejected, (SUBMITTERS - CAP) as u64);
    assert_eq!(stats.completed, CAP as u64);
    // Overload is the retryable serving family, distinct from plan errors.
    assert_eq!(
        JoinError::Overloaded {
            depth: CAP,
            capacity: CAP
        }
        .kind(),
        JoinErrorKind::Serving
    );
}

/// Shutdown with requests still in flight: the drain answers every admitted
/// ticket, later submits get the typed shutdown error, and a second
/// shutdown is an idempotent no-op.
#[test]
fn shutdown_drains_in_flight_and_is_idempotent() {
    let corpus = clustered(200, 2, 82);
    let queries = clustered(10, 2, 83);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&queries, &corpus, 3)
        .prepare(&ctx)
        .expect("prepare");
    let server = Server::start(prepared, ServerConfig::default().workers(2));
    let tickets: Vec<_> = queries
        .iter()
        .map(|p| (p.id, server.submit_one(p.clone()).unwrap()))
        .collect();
    let first = server.shutdown();
    assert_eq!(first.completed, queries.len() as u64);
    for (id, ticket) in tickets {
        assert_eq!(ticket.wait().expect("drained").r_id, id);
    }
    let again = server.shutdown();
    assert_eq!(again.completed, first.completed);
    assert_eq!(
        server
            .query_one(queries.iter().next().unwrap().clone())
            .unwrap_err(),
        JoinError::ServerShutdown
    );
}

/// Shutdown under load: four clients loop `query_one` while the main thread
/// shuts the server down.  Every call returns a row or `ServerShutdown`
/// (none hangs, none fails otherwise), and the stats `shutdown` returns
/// count exactly the answers the clients saw.  Every snapshot the main
/// thread takes under load books each answer in the latency histogram and
/// in a count together.
#[test]
fn shutdown_under_load_answers_or_refuses_every_call() {
    const CLIENTS: usize = 4;
    let corpus = clustered(300, 2, 84);
    let queries = clustered(40, 2, 85);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&queries, &corpus, 3)
        .prepare(&ctx)
        .expect("prepare");
    let server = Server::start(prepared, ServerConfig::default().workers(2));
    let points: Vec<Point> = queries.iter().cloned().collect();
    let answered = AtomicU64::new(0);
    let started = Barrier::new(CLIENTS + 1);
    let (stats, split) = std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (server, points, answered, started) = (&server, &points, &answered, &started);
            scope.spawn(move || {
                started.wait();
                for op in 0.. {
                    let point = points[(client * 11 + op) % points.len()].clone();
                    let id = point.id;
                    match server.query_one(point) {
                        Ok(row) => {
                            assert_eq!(row.r_id, id);
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(JoinError::ServerShutdown) => break,
                        Err(other) => panic!("client {client}: unexpected error {other}"),
                    }
                }
            });
        }
        started.wait();
        // Counted, not asserted here, and a failure ends the wait: a panic on
        // this thread, or a wait for answers that never come, would leave the
        // clients looping on a server nobody shuts down.
        let mut split = 0;
        loop {
            let stats = server.stats();
            split += u64::from(stats.latency.count() != stats.completed + stats.failed);
            if stats.completed >= 50 || stats.failed > 0 {
                break;
            }
            std::thread::yield_now();
        }
        (server.shutdown(), split)
    });
    assert_eq!(
        split, 0,
        "snapshots that split an answer's latency from its count"
    );
    let answered = answered.into_inner();
    assert!(answered >= 50);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.completed + stats.failed, answered);
    assert_eq!(stats.submitted, answered);
    assert_eq!(server.queue_depth(), 0);
}

// ---------------------------------------------------------------------------
// Histogram merge associativity (proptest)
// ---------------------------------------------------------------------------

fn histogram_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &nanos in samples {
        h.record_nanos(nanos);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging is associative and commutative, and any grouping equals the
    /// histogram of the concatenated samples — so per-permit histograms can
    /// be folded in any order without changing the reported quantiles.
    #[test]
    fn histogram_merge_is_associative(
        a in proptest::collection::vec(1u64..5_000_000_000, 0..40),
        b in proptest::collection::vec(1u64..5_000_000_000, 0..40),
        c in proptest::collection::vec(1u64..5_000_000_000, 0..40),
    ) {
        let (ha, hb, hc) = (histogram_of(&a), histogram_of(&b), histogram_of(&c));
        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut right_inner = hb.clone();
        right_inner.merge(&hc);
        let mut right = ha.clone();
        right.merge(&right_inner);
        prop_assert_eq!(&left, &right);
        // Commutes: c ⊕ b ⊕ a.
        let mut reversed = hc.clone();
        reversed.merge(&hb);
        reversed.merge(&ha);
        prop_assert_eq!(&left, &reversed);
        // And equals one histogram over the concatenation.
        let mut all = a.clone();
        all.extend(&b);
        all.extend(&c);
        prop_assert_eq!(&left, &histogram_of(&all));
        prop_assert_eq!(left.count(), (a.len() + b.len() + c.len()) as u64);
    }
}
