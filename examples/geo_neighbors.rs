//! Geospatial nearest-neighbour *serving* over OSM-like data — the paper's
//! second evaluation dataset is an OpenStreetMap extract of (longitude,
//! latitude) records.
//!
//! Scenario: `S` is the full map of existing points of interest — the
//! long-lived corpus — and candidate store locations arrive in batches.  A
//! batch system would rerun the whole join (rebuilding pivots, partitions
//! and summaries every time); the serving API builds that S-side state once
//! with [`Join::prepare`] and answers every batch from the resident state,
//! so per-query `index_builds` / `pivot_selections` stay at zero and the
//! build cost amortizes across batches.
//!
//! ```text
//! cargo run --release --example geo_neighbors
//! ```

use pgbj::prelude::*;

fn main() {
    // The "map": 20,000 POIs clustered into cities and towns.
    let pois = osm_like(
        &OsmConfig {
            n_points: 20_000,
            ..Default::default()
        },
        99,
    );
    // Two batches of candidate locations from the same distribution but
    // different seeds (so they are not existing POIs) — e.g. this week's and
    // next week's site proposals.
    let batch_a = osm_like(
        &OsmConfig {
            n_points: 1000,
            ..Default::default()
        },
        100,
    );
    let batch_b = osm_like(
        &OsmConfig {
            n_points: 600,
            ..Default::default()
        },
        101,
    );
    let k = 5;

    let ctx = ExecutionContext::default();

    // Build the PGBJ serving state once: pivot selection, Voronoi
    // partitioning of the POIs, summary tables.
    let prepared = Join::new(&batch_a, &pois)
        .k(k)
        .metric(DistanceMetric::Euclidean)
        .algorithm(Algorithm::Pgbj)
        .pivot_count(64)
        .reducers(9)
        .prepare(&ctx)
        .expect("preparing the POI corpus should succeed");
    println!(
        "built {} serving state over {} POIs in {:.3} s (pivot selections: {})",
        prepared.plan().algorithm,
        prepared.s_len(),
        prepared.stats().build_time.as_secs_f64(),
        prepared.build_metrics().pivot_selections,
    );

    // Serve both candidate batches from the resident state.
    let result_a = prepared.query(&batch_a).expect("batch A should serve");
    let result_b = prepared.query(&batch_b).expect("batch B should serve");
    for (batch, result) in [("A", &result_a), ("B", &result_b)] {
        let m = &result.metrics;
        println!(
            "batch {batch}: {:>4} candidates | query {:>7.3} s | selectivity {:>7.3}/1000 \
             | shuffle {:>8.3} MiB | pivot selections {} | index builds {}",
            result.len(),
            m.total_time().as_secs_f64(),
            m.computation_selectivity() * 1000.0,
            m.shuffle_mib(),
            m.pivot_selections,
            m.index_builds,
        );
    }

    // The prepared answers are the exact join: the one-shot H-BRJ baseline
    // over the same batch must agree, neighbour for neighbour.
    let cold_hbrj = Join::new(&batch_a, &pois)
        .k(k)
        .metric(DistanceMetric::Euclidean)
        .algorithm(Algorithm::Hbrj)
        .reducers(9)
        .run(&ctx)
        .expect("cold H-BRJ join should succeed");
    assert!(
        result_a.matches(&cold_hbrj, 1e-9),
        "prepared PGBJ and cold H-BRJ must return the same neighbours"
    );

    let stats = prepared.stats();
    println!(
        "\nserved {} queries | mean query {:.3} s | build amortized to {:.3} s/query",
        stats.queries,
        stats.mean_query_time().as_secs_f64(),
        stats.amortized_build_time().as_secs_f64(),
    );

    println!("\nsample: nearest POIs of the first three candidates of batch A");
    for row in result_a.iter().take(3) {
        let poi_list: Vec<String> = row
            .neighbors
            .iter()
            .map(|n| format!("poi#{} ({:.4}°)", n.id, n.distance))
            .collect();
        println!("candidate {:>4}: {}", row.r_id, poi_list.join(", "));
    }
}
