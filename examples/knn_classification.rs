//! kNN classification driven by the kNN join — the classic "label a batch of
//! unlabelled objects against a labelled reference set" workload that makes
//! kNN join a primitive in data-mining pipelines (the paper's motivation).
//!
//! A synthetic ground truth assigns every object a class from its position
//! (which spatial cluster generated it).  The labelled training set is `S`,
//! the unlabelled test set is `R`; a single PGBJ join labels every test
//! object by majority vote over its k nearest training objects.
//!
//! ```text
//! cargo run --release --example knn_classification
//! ```

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use pgbj::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Draws `n` points around the given class centres (round-robin), with
/// Gaussian-ish noise of the given spread, assigning sequential ids.
fn sample_around_centers(centers: &[Vec<f64>], n: usize, spread: f64, seed: u64) -> PointSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let gaussian = move |rng: &mut StdRng| {
        // Box–Muller transform; enough for an example.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    let points = (0..n)
        .map(|i| {
            let center = &centers[i % centers.len()];
            let coords = center
                .iter()
                .map(|c| c + gaussian(&mut rng) * spread)
                .collect();
            Point::new(i as u64, coords)
        })
        .collect();
    PointSet::from_points(points)
}

/// Class of an object: the index of the nearest of the fixed class centres.
/// Using the generating geometry as ground truth keeps the example honest —
/// the classifier never sees this function, only labelled training points.
fn true_class(p: &Point, centers: &[Vec<f64>]) -> usize {
    let metric = DistanceMetric::Euclidean;
    centers
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            metric
                .distance_coords(&p.coords, a)
                .partial_cmp(&metric.distance_coords(&p.coords, b))
                .expect("finite distances")
        })
        .map(|(i, _)| i)
        .expect("at least one class centre")
}

fn main() {
    // Four well-separated class centres in 2-d.
    let centers = vec![
        vec![100.0, 100.0],
        vec![400.0, 120.0],
        vec![150.0, 420.0],
        vec![430.0, 400.0],
    ];

    // Training set (S): 4,000 labelled points; test set (R): 800 points.
    // Both are sampled around the four class centres (std 35 ≪ the ~300
    // separation between centres), so the geometric ground-truth labels agree
    // with the generating class almost everywhere.
    let train = sample_around_centers(&centers, 4000, 35.0, 11);
    let test = sample_around_centers(&centers, 800, 35.0, 12);
    let train_labels: HashMap<u64, usize> = train
        .iter()
        .map(|p| (p.id, true_class(p, &centers)))
        .collect();

    // One kNN join labels the whole test set.
    let k = 15;
    let ctx = ExecutionContext::default();
    let result = Join::new(&test, &train)
        .k(k)
        .metric(DistanceMetric::Euclidean)
        .algorithm(Algorithm::Pgbj)
        .pivot_count(40)
        .reducers(8)
        .run(&ctx)
        .expect("classification join should succeed");

    let mut correct = 0usize;
    for row in &result {
        // Majority vote over the k nearest training labels.
        let mut votes: HashMap<usize, usize> = HashMap::new();
        for n in &row.neighbors {
            *votes.entry(train_labels[&n.id]).or_insert(0) += 1;
        }
        let predicted = votes
            .into_iter()
            .max_by_key(|(_, count)| *count)
            .map(|(class, _)| class)
            .expect("k >= 1 neighbours");
        let actual = true_class(
            test.iter()
                .find(|p| p.id == row.r_id)
                .expect("row ids come from the test set"),
            &centers,
        );
        if predicted == actual {
            correct += 1;
        }
    }

    let accuracy = correct as f64 / result.len() as f64;
    println!(
        "classified {} test objects against {} training objects (k = {k})",
        result.len(),
        train.len()
    );
    println!("accuracy: {:.1}%", accuracy * 100.0);
    println!(
        "join cost: {:.3} s, {:.3} MiB shuffled, selectivity {:.3} per thousand",
        result.metrics.total_time().as_secs_f64(),
        result.metrics.shuffle_mib(),
        result.metrics.computation_selectivity() * 1000.0
    );
    // The clusters overlap a little, so demand a high-but-not-perfect bar.
    assert!(
        accuracy > 0.9,
        "kNN classification should be highly accurate on separated clusters"
    );
}
