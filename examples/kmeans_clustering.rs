//! k-means clustering with the assignment step expressed as a kNN join —
//! the first application the paper's introduction lists for the operator.
//!
//! Each Lloyd iteration needs every object's nearest centroid; that is exactly
//! a kNN join with `k = 1`, `R` = the dataset and `S` = the current centroids.
//! Running the assignment through PGBJ demonstrates how the join primitive
//! slots into an iterative mining algorithm (and keeps working when the
//! dataset is too large for a single machine in the real deployment).
//!
//! ```text
//! cargo run --release --example kmeans_clustering
//! ```

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use pgbj::prelude::*;
use std::collections::HashMap;

const CLUSTERS: usize = 6;
const ITERATIONS: usize = 8;

fn main() {
    // A dataset with 6 well-defined clusters (plus skew) in 3-d.
    let data = gaussian_clusters(
        &ClusterConfig {
            n_points: 5000,
            dims: 3,
            n_clusters: CLUSTERS,
            std_dev: 6.0,
            extent: 600.0,
            skew: 0.4,
        },
        2024,
    );

    // Initialise centroids with the first few distinct points.
    let mut centroids: Vec<Vec<f64>> = data
        .points()
        .iter()
        .step_by(data.len() / CLUSTERS)
        .take(CLUSTERS)
        .map(|p| p.coords.clone())
        .collect();

    let ctx = ExecutionContext::default();
    let mut assignment: HashMap<u64, u64> = HashMap::new();

    for iteration in 0..ITERATIONS {
        // S = current centroids (ids 0..CLUSTERS), R = the dataset.
        let centroid_set = PointSet::from_points(
            centroids
                .iter()
                .enumerate()
                .map(|(i, c)| Point::new(i as u64, c.clone()))
                .collect(),
        );

        // Assignment step: 1-NN join of the data against the centroids.
        let result = Join::new(&data, &centroid_set)
            .k(1)
            .metric(DistanceMetric::Euclidean)
            .algorithm(Algorithm::Pgbj)
            .pivot_count(CLUSTERS)
            .reducers(4)
            .run(&ctx)
            .expect("assignment join should succeed");

        let mut moved = 0usize;
        let mut sums = vec![vec![0.0; data.dims()]; CLUSTERS];
        let mut counts = [0usize; CLUSTERS];
        let mut sse = 0.0;
        for row in &result {
            let nearest = row.neighbors[0];
            let cluster = nearest.id;
            if assignment.insert(row.r_id, cluster) != Some(cluster) {
                moved += 1;
            }
            sse += nearest.distance * nearest.distance;
            counts[cluster as usize] += 1;
            let point = &data.points()[row.r_id as usize];
            for (d, c) in point.coords.iter().enumerate() {
                sums[cluster as usize][d] += c;
            }
        }

        // Update step: new centroids are the cluster means.
        for c in 0..CLUSTERS {
            if counts[c] > 0 {
                for d in 0..data.dims() {
                    centroids[c][d] = sums[c][d] / counts[c] as f64;
                }
            }
        }

        println!(
            "iteration {iteration}: SSE {sse:>14.1}, {moved:>5} objects changed cluster, join took {:.3} s",
            result.metrics.total_time().as_secs_f64()
        );
        if moved == 0 {
            println!("converged after {} iterations", iteration + 1);
            break;
        }
    }

    // Report final cluster sizes.
    let mut sizes = vec![0usize; CLUSTERS];
    for cluster in assignment.values() {
        sizes[*cluster as usize] += 1;
    }
    println!("final cluster sizes: {sizes:?}");
    assert_eq!(sizes.iter().sum::<usize>(), data.len());
    assert!(
        sizes.iter().all(|&s| s > 0),
        "no cluster should end up empty"
    );
}
