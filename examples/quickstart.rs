//! Quickstart: run the PGBJ kNN join on a small clustered dataset and inspect
//! the result and the MapReduce-level metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pgbj::prelude::*;

fn main() {
    // R: 1,000 "query" objects; S: 2,000 "reference" objects.  Both are drawn
    // from the same clustered 4-dimensional population (the regime the paper
    // targets — its experiments are self-joins), split 1:2.
    let population = gaussian_clusters(
        &ClusterConfig {
            n_points: 3000,
            dims: 4,
            n_clusters: 8,
            std_dev: 4.0,
            extent: 500.0,
            skew: 0.6,
        },
        42,
    );
    let mut points = population.into_points();
    let s_points = points.split_off(1000);
    let r = PointSet::from_points(points);
    let s = PointSet::from_points(
        s_points
            .into_iter()
            .enumerate()
            .map(|(i, mut p)| {
                p.id = i as u64;
                p
            })
            .collect(),
    );
    let k = 10;

    // One execution context per application: it owns the MapReduce worker
    // pool.
    let ctx = ExecutionContext::default();

    // PGBJ: Voronoi partitioning around 48 pivots, geometric grouping onto 8
    // reducers — the configuration shape the paper's parameter study selects.
    let result = Join::new(&r, &s)
        .k(k)
        .metric(DistanceMetric::Euclidean)
        .algorithm(Algorithm::Pgbj)
        .pivot_count(48)
        .reducers(8)
        .grouping_strategy(GroupingStrategy::Geometric)
        .run(&ctx)
        .expect("join should succeed on valid inputs");

    println!(
        "kNN join of |R| = {} with |S| = {} (k = {k})",
        r.len(),
        s.len()
    );
    println!("produced {} result rows\n", result.len());

    // Show the neighbours of the first few R objects.
    for row in result.iter().take(3) {
        let ids: Vec<String> = row
            .neighbors
            .iter()
            .map(|n| format!("{}@{:.1}", n.id, n.distance))
            .collect();
        println!("r#{:<4} -> {}", row.r_id, ids.join(", "));
    }

    // The metrics the paper reports.
    let m = &result.metrics;
    println!("\n--- execution metrics ---");
    for (phase, duration) in &m.phase_times {
        println!("{phase:<22} {:>8.3} s", duration.as_secs_f64());
    }
    println!("{:<22} {:>8.3} s", "total", m.total_time().as_secs_f64());
    println!("distance computations  {:>10}", m.distance_computations);
    println!(
        "computation selectivity {:>8.3} per thousand",
        m.computation_selectivity() * 1000.0
    );
    println!(
        "S replicas shuffled     {:>9} (avg {:.2} per object)",
        m.s_records_shuffled,
        m.average_replication()
    );
    println!("shuffle volume          {:>9.3} MiB", m.shuffle_mib());

    // Cross-check against the exact nested-loop join, selected at runtime
    // through the same builder.
    let exact = Join::new(&r, &s)
        .k(k)
        .algorithm(Algorithm::NestedLoopJoin)
        .run(&ctx)
        .expect("exact join");
    assert!(
        result.matches(&exact, 1e-9),
        "PGBJ must agree with the exact join"
    );
    println!("\nverified against the exact nested-loop join: OK");
}
