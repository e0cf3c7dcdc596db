//! Concurrent serving: many client threads sharing one [`Server`] over a
//! prepared PGBJ handle, with latency SLOs read off the built-in histogram.
//!
//! Scenario: the POI corpus from the `mutable_corpus` example goes online.
//! Requests arrive one point at a time from independent client threads.  The
//! server runs no thread of its own: a waiting client probes its own request
//! the moment a probe permit is free, and while every permit is out the
//! queued singles coalesce into probe batches (of at most 16), led by
//! whichever waiter gets the next permit.  Every request is answered with
//! exactly what [`PreparedJoin::query_one`] would have returned.  Admission
//! control caps the queue: past `queue_depth` pending requests, `submit_one`
//! fails fast with the typed [`JoinError::Overloaded`] instead of letting
//! latency collapse.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use pgbj::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

fn main() {
    // The corpus and a pool of query points.
    let pois = osm_like(
        &OsmConfig {
            n_points: 8000,
            ..Default::default()
        },
        7,
    );
    let requests = osm_like(
        &OsmConfig {
            n_points: 512,
            ..Default::default()
        },
        8,
    );
    let k = 5;
    let ctx = ExecutionContext::default();

    // Build the PGBJ serving state once; the server owns a handle to it.
    let prepared = Join::new(&requests, &pois)
        .k(k)
        .metric(DistanceMetric::Euclidean)
        .algorithm(Algorithm::Pgbj)
        .pivot_count(64)
        .reducers(9)
        .prepare(&ctx)
        .expect("preparing the POI corpus should succeed");
    println!(
        "built {} serving state over {} POIs",
        prepared.plan().algorithm,
        prepared.s_len(),
    );

    // A server with 4 probe permits: singles that queue up while all four
    // are out leave in batches of up to 16, and at most 1024 requests may be
    // pending before admission control pushes back.
    let server = Server::start(
        prepared,
        ServerConfig::default().workers(4).queue_depth(1024),
    );

    // Closed-loop load: 8 client threads, 64 requests each, every client
    // verifying its answers arrive under its own request id.
    let clients = 8;
    let per_client = 64;
    let answered = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let server = &server;
            let answered = &answered;
            let points = requests.points();
            scope.spawn(move || {
                for i in 0..per_client {
                    let point = points[(c * per_client + i) % points.len()].clone();
                    let id = point.id;
                    let row = server.query_one(point).expect("serving query");
                    assert_eq!(row.r_id, id);
                    assert_eq!(row.neighbors.len(), k);
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let stats = server.shutdown();
    assert_eq!(stats.completed, answered.load(Ordering::Relaxed));
    println!(
        "served {} requests from {clients} clients at {:.0} QPS",
        stats.completed,
        stats.qps(),
    );
    println!(
        "latency p50 {:?}  p95 {:?}  p99 {:?}  (max {:?})",
        stats.latency.p50(),
        stats.latency.p95(),
        stats.latency.p99(),
        stats.latency.max(),
    );
    println!(
        "coalescing: {} probe batches carried {} singles ({:.1} per flush)",
        stats.coalesced_batches,
        stats.coalesced_points,
        stats.mean_coalesced_batch(),
    );
}
