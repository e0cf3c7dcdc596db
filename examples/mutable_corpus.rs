//! A *mutable* serving corpus: inserts and deletes interleaved with queries
//! on one prepared handle, LSM-style.
//!
//! Scenario: `S` is a live map of points of interest.  POIs open and close
//! while candidate batches keep arriving.  Rebuilding the prepared state on
//! every change would forfeit the build/probe split, so
//! [`PreparedJoin::insert`] / [`PreparedJoin::delete`] land in a resident
//! delta memtable (an append log of added points plus a tombstone set)
//! that every query merges with the frozen Voronoi state — results stay
//! distance-identical to a cold join over the current corpus.  Once the
//! overlay exceeds [`Join::delta_threshold`] (or [`PreparedJoin::compact`]
//! is called), a compaction folds it back into the frozen structures,
//! rebuilding only the affected cells, and the delta counters go quiet
//! again.
//!
//! ```text
//! cargo run --release --example mutable_corpus
//! ```

use pgbj::prelude::*;

fn main() {
    // The "map": 8,000 POIs; candidate sites to serve against it.
    let pois = osm_like(
        &OsmConfig {
            n_points: 8000,
            ..Default::default()
        },
        7,
    );
    let candidates = osm_like(
        &OsmConfig {
            n_points: 400,
            ..Default::default()
        },
        8,
    );
    let k = 5;
    let ctx = ExecutionContext::default();

    // Build the PGBJ serving state once.  A high delta threshold keeps
    // compaction manual for this walkthrough; production would let the
    // overlay trip it automatically.
    let prepared = Join::new(&candidates, &pois)
        .k(k)
        .metric(DistanceMetric::Euclidean)
        .algorithm(Algorithm::Pgbj)
        .pivot_count(64)
        .reducers(9)
        .delta_threshold(100_000)
        .prepare(&ctx)
        .expect("preparing the POI corpus should succeed");
    println!(
        "built {} serving state over {} POIs (epoch {})",
        prepared.plan().algorithm,
        prepared.s_len(),
        prepared.epoch(),
    );

    // Day 1: a batch served from the frozen state alone.
    let day1 = prepared.query(&candidates).expect("day-1 batch");
    println!(
        "day 1: {} candidates | delta probes {} | tombstones masked {}",
        day1.len(),
        day1.metrics.delta_probe_computations,
        day1.metrics.tombstone_masked,
    );

    // Overnight: 300 new POIs open, 200 existing ones close.  Each
    // mutation publishes a new epoch; in-flight queries keep reading the
    // snapshot they started on.
    let next_id = pois.iter().map(|p| p.id).max().unwrap() + 1;
    let openings = osm_like(
        &OsmConfig {
            n_points: 300,
            ..Default::default()
        },
        9,
    );
    for (i, p) in openings.iter().enumerate() {
        prepared
            .insert(Point::new(next_id + i as u64, p.coords.clone()))
            .expect("new POIs share the corpus dimensionality");
    }
    for p in pois.iter().step_by(40) {
        assert!(prepared.delete(p.id), "closing an existing POI");
    }
    let stats = prepared.delta_stats();
    println!(
        "overnight churn: +{} −{} | live {} | epoch {} | overlay resident",
        stats.pending_adds,
        stats.pending_tombstones,
        prepared.s_len(),
        prepared.epoch(),
    );

    // Day 2: the same batch now consults the memtable alongside the frozen
    // Voronoi cells — new POIs can win, closed ones are masked out.
    let day2 = prepared.query(&candidates).expect("day-2 batch");
    println!(
        "day 2: {} candidates | delta probes {} | tombstones masked {}",
        day2.len(),
        day2.metrics.delta_probe_computations,
        day2.metrics.tombstone_masked,
    );

    // The overlay answers are exact: a cold join over the materialized
    // corpus (frozen minus closures plus openings) must agree.
    let current = prepared.materialized_corpus();
    let cold = Join::new(&candidates, &current)
        .k(k)
        .metric(DistanceMetric::Euclidean)
        .algorithm(Algorithm::Pgbj)
        .reducers(9)
        .run(&ctx)
        .expect("cold join over the materialized corpus");
    assert!(
        day2.matches(&cold, 1e-9),
        "overlay serving must match a cold rebuild, neighbour for neighbour"
    );
    println!("day 2 answers match a cold rebuild over the current corpus");

    // Fold the overlay into the frozen state: only the Voronoi cells the
    // churn touched are rebuilt, and the delta counters return to zero.
    assert!(prepared.compact(), "a non-empty overlay compacts");
    let stats = prepared.delta_stats();
    let day3 = prepared.query(&candidates).expect("post-compaction batch");
    println!(
        "compacted: {} compaction(s), {} points rewritten | epoch {}",
        stats.compactions,
        stats.compacted_points,
        prepared.epoch(),
    );
    println!(
        "day 3: delta probes {} | tombstones masked {} (frozen path again)",
        day3.metrics.delta_probe_computations, day3.metrics.tombstone_masked,
    );
    assert_eq!(day3.metrics.delta_probe_computations, 0);
    assert!(
        day3.matches(&cold, 1e-9),
        "compaction must preserve the answers"
    );
}
