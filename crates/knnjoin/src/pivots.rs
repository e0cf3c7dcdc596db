//! Pivot selection strategies (Section 4.1 of the paper).
//!
//! PGBJ partitions the space with a Voronoi diagram around a set of pivots
//! selected from `R` in a preprocessing step executed on the master node.
//! The paper describes three strategies, all implemented here:
//!
//! * **Random selection** — draw `T` candidate sets of pivots at random and
//!   keep the set with the largest total pairwise distance;
//! * **Farthest selection** — iteratively pick the sample object farthest (in
//!   summed distance) from the pivots chosen so far;
//! * **k-means selection** — run k-means on a sample and use the cluster
//!   centroids (which need not be dataset objects) as pivots.

use geom::kernels::Kernel;
use geom::{CoordMatrix, DistanceMetric, Point, PointSet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Which preprocessing strategy selects the pivots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PivotSelectionStrategy {
    /// Draw `candidate_sets` random sets and keep the one with the maximum
    /// total pairwise distance.
    Random {
        /// Number of candidate sets (`T` in the paper).
        candidate_sets: usize,
    },
    /// Iteratively select the object with the largest summed distance to the
    /// already-selected pivots, starting from a random object.
    Farthest,
    /// k-means cluster centres of a sample of `R`.
    KMeans {
        /// Number of Lloyd iterations to run.
        iterations: usize,
    },
}

impl Default for PivotSelectionStrategy {
    fn default() -> Self {
        // The paper's parameter study concludes random selection offers the
        // best overall running time, and adopts it for the main experiments.
        PivotSelectionStrategy::Random { candidate_sets: 5 }
    }
}

impl PivotSelectionStrategy {
    /// Short label used in experiment tables ("R", "F", "K" in the paper's
    /// RGE/FGE/KGE naming scheme).
    pub fn label(&self) -> &'static str {
        match self {
            PivotSelectionStrategy::Random { .. } => "random",
            PivotSelectionStrategy::Farthest => "farthest",
            PivotSelectionStrategy::KMeans { .. } => "k-means",
        }
    }
}

/// Selects `count` pivots from dataset `r` using the given strategy.
///
/// `sample_size` bounds how many objects of `r` the preprocessing step looks
/// at (the paper samples because preprocessing runs on a single master node);
/// pass `usize::MAX` to use the full dataset.  The returned pivots are
/// re-labelled with ids `0..count`, since pivot identity is positional from
/// here on.
///
/// # Panics
/// Panics if `count` is zero or the dataset is empty.
pub fn select_pivots(
    r: &PointSet,
    count: usize,
    strategy: PivotSelectionStrategy,
    sample_size: usize,
    metric: DistanceMetric,
    seed: u64,
) -> Vec<Point> {
    assert!(count > 0, "pivot count must be positive");
    assert!(!r.is_empty(), "cannot select pivots from an empty dataset");
    let mut rng = StdRng::seed_from_u64(seed);

    let sample = sample_points(r, sample_size.min(r.len()), &mut rng);
    let count = count.min(sample.len());

    let mut pivots = match strategy {
        PivotSelectionStrategy::Random { candidate_sets } => {
            random_selection(&sample, count, candidate_sets.max(1), metric, &mut rng)
        }
        PivotSelectionStrategy::Farthest => farthest_selection(&sample, count, metric, &mut rng),
        PivotSelectionStrategy::KMeans { iterations } => {
            kmeans_selection(&sample, count, iterations.max(1), metric, &mut rng)
        }
    };

    for (i, p) in pivots.iter_mut().enumerate() {
        p.id = i as u64;
    }
    pivots
}

/// Draws a uniform sample of `n` points without replacement, by reference:
/// no point is copied until a strategy has chosen its pivots.
fn sample_points<'r>(r: &'r PointSet, n: usize, rng: &mut StdRng) -> Vec<&'r Point> {
    if n >= r.len() {
        return r.iter().collect();
    }
    r.points().choose_multiple(rng, n).collect()
}

/// Total pairwise distance of a candidate pivot set.
fn total_pairwise_distance(set: &[&Point], kernel: Kernel) -> f64 {
    let mut total = 0.0;
    for (i, a) in set.iter().enumerate() {
        for b in &set[i + 1..] {
            total += kernel(&a.coords, &b.coords);
        }
    }
    total
}

fn random_selection(
    sample: &[&Point],
    count: usize,
    candidate_sets: usize,
    metric: DistanceMetric,
    rng: &mut StdRng,
) -> Vec<Point> {
    let kernel = metric.kernel();
    let mut best: Option<(f64, Vec<&Point>)> = None;
    for _ in 0..candidate_sets {
        let candidate: Vec<&Point> = sample.choose_multiple(rng, count).copied().collect();
        let score = total_pairwise_distance(&candidate, kernel);
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, candidate));
        }
    }
    best.expect("at least one candidate set")
        .1
        .into_iter()
        .cloned()
        .collect()
}

fn farthest_selection(
    sample: &[&Point],
    count: usize,
    metric: DistanceMetric,
    rng: &mut StdRng,
) -> Vec<Point> {
    let kernel = metric.kernel();
    let mut pivots: Vec<Point> = Vec::with_capacity(count);
    let first = sample[rng.gen_range(0..sample.len())];
    // Summed distance from every sample object to the chosen pivots,
    // maintained incrementally so selection is O(count · |sample|).
    let mut summed: Vec<f64> = sample
        .iter()
        .map(|p| kernel(&p.coords, &first.coords))
        .collect();
    pivots.push(first.clone());
    while pivots.len() < count {
        let (best_idx, _) = summed
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("sample is non-empty");
        let next = sample[best_idx];
        for (i, p) in sample.iter().enumerate() {
            summed[i] += kernel(&p.coords, &next.coords);
        }
        // Prevent re-selection by zeroing out the chosen object's score.
        summed[best_idx] = f64::NEG_INFINITY;
        pivots.push(next.clone());
    }
    pivots
}

/// Lloyd's algorithm over flat coordinate storage: the sample and the centres
/// both live in [`CoordMatrix`]es, and the assignment argmin compares ranks
/// (squared distances under L2) — the same kernel discipline as
/// `VoronoiPartitioner::nearest_pivot`.
fn kmeans_selection(
    sample: &[&Point],
    count: usize,
    iterations: usize,
    metric: DistanceMetric,
    rng: &mut StdRng,
) -> Vec<Point> {
    let dims = sample[0].dims();
    let mut flat_sample = CoordMatrix::with_capacity(dims, sample.len());
    for p in sample {
        flat_sample.push_row(&p.coords);
    }
    // Initialise centres with a random subset of the sample.
    let mut centers = CoordMatrix::with_capacity(dims, count);
    for p in sample.choose_multiple(rng, count) {
        centers.push_row(&p.coords);
    }

    let rank = metric.rank_kernel();
    let mut assignment = vec![0usize; sample.len()];
    for _ in 0..iterations {
        // Assignment step: first-index-wins argmin in rank space.
        for (i, row) in flat_sample.rows().enumerate() {
            let mut best = 0;
            let mut best_rank = rank(row, centers.row(0));
            for c in 1..centers.len() {
                let candidate = rank(row, centers.row(c));
                if candidate < best_rank {
                    best_rank = candidate;
                    best = c;
                }
            }
            assignment[i] = best;
        }
        // Update step (empty clusters keep their previous centre).
        let mut sums = CoordMatrix::from_raw(vec![0.0; dims * count], dims);
        let mut counts = vec![0usize; count];
        for (i, row) in flat_sample.rows().enumerate() {
            let c = assignment[i];
            counts[c] += 1;
            for (sum, coord) in sums.row_mut(c).iter_mut().zip(row) {
                *sum += coord;
            }
        }
        for (c, &cnt) in counts.iter().enumerate() {
            if cnt > 0 {
                for d in 0..dims {
                    centers.row_mut(c)[d] = sums.row(c)[d] / cnt as f64;
                }
            }
        }
    }

    (0..centers.len())
        .map(|c| centers.row_point(c, 0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{gaussian_clusters, ClusterConfig};

    fn dataset(n: usize) -> PointSet {
        gaussian_clusters(
            &ClusterConfig {
                n_points: n,
                dims: 3,
                n_clusters: 6,
                std_dev: 2.0,
                extent: 100.0,
                skew: 0.5,
            },
            42,
        )
    }

    #[test]
    fn selects_requested_number_with_sequential_ids() {
        let r = dataset(500);
        for strategy in [
            PivotSelectionStrategy::Random { candidate_sets: 3 },
            PivotSelectionStrategy::Farthest,
            PivotSelectionStrategy::KMeans { iterations: 5 },
        ] {
            let pivots = select_pivots(&r, 12, strategy, 200, DistanceMetric::Euclidean, 7);
            assert_eq!(pivots.len(), 12, "strategy {strategy:?}");
            let ids: Vec<u64> = pivots.iter().map(|p| p.id).collect();
            assert_eq!(ids, (0..12).collect::<Vec<u64>>());
            assert!(pivots.iter().all(|p| p.dims() == 3));
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let r = dataset(300);
        for strategy in [
            PivotSelectionStrategy::Random { candidate_sets: 4 },
            PivotSelectionStrategy::Farthest,
            PivotSelectionStrategy::KMeans { iterations: 3 },
        ] {
            let a = select_pivots(&r, 8, strategy, 150, DistanceMetric::Euclidean, 11);
            let b = select_pivots(&r, 8, strategy, 150, DistanceMetric::Euclidean, 11);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn random_and_farthest_pivots_come_from_dataset() {
        let r = dataset(200);
        let in_dataset = |p: &Point| r.iter().any(|q| q.coords == p.coords);
        for strategy in [
            PivotSelectionStrategy::Random { candidate_sets: 2 },
            PivotSelectionStrategy::Farthest,
        ] {
            let pivots = select_pivots(&r, 5, strategy, usize::MAX, DistanceMetric::Euclidean, 3);
            assert!(pivots.iter().all(in_dataset), "strategy {strategy:?}");
        }
    }

    /// Total pairwise L2 distance of a pivot set.
    fn spread(pivots: &[Point]) -> f64 {
        let set: Vec<&Point> = pivots.iter().collect();
        total_pairwise_distance(&set, DistanceMetric::Euclidean.kernel())
    }

    #[test]
    fn farthest_selection_spreads_more_than_random() {
        let r = dataset(400);
        let m = DistanceMetric::Euclidean;
        let rand_pivots = select_pivots(
            &r,
            10,
            PivotSelectionStrategy::Random { candidate_sets: 1 },
            400,
            m,
            5,
        );
        let far_pivots = select_pivots(&r, 10, PivotSelectionStrategy::Farthest, 400, m, 5);
        assert!(
            spread(&far_pivots) >= spread(&rand_pivots),
            "farthest selection should maximise spread"
        );
    }

    #[test]
    fn more_candidate_sets_never_decrease_spread() {
        let r = dataset(300);
        let m = DistanceMetric::Euclidean;
        // With the same seed the candidate sets are nested only statistically,
        // so just verify the score is computed and positive.
        let p1 = select_pivots(
            &r,
            6,
            PivotSelectionStrategy::Random { candidate_sets: 1 },
            300,
            m,
            9,
        );
        let p10 = select_pivots(
            &r,
            6,
            PivotSelectionStrategy::Random { candidate_sets: 10 },
            300,
            m,
            9,
        );
        assert!(spread(&p1) > 0.0);
        assert!(spread(&p10) > 0.0);
    }

    #[test]
    fn kmeans_pivots_lie_within_data_bounding_box() {
        let r = dataset(300);
        let pivots = select_pivots(
            &r,
            6,
            PivotSelectionStrategy::KMeans { iterations: 10 },
            usize::MAX,
            DistanceMetric::Euclidean,
            13,
        );
        for d in 0..3 {
            let lo = r.iter().map(|p| p.coords[d]).fold(f64::INFINITY, f64::min);
            let hi = r
                .iter()
                .map(|p| p.coords[d])
                .fold(f64::NEG_INFINITY, f64::max);
            for p in &pivots {
                assert!(p.coords[d] >= lo - 1e-9 && p.coords[d] <= hi + 1e-9);
            }
        }
    }

    /// One Lloyd iteration at 128 dims, replayed by hand: the initial
    /// centres are the first draw of the seeded generator, every sample is
    /// assigned by a scalar first-index-wins argmin written out here, and
    /// the returned pivots must be exactly the means of those clusters.
    #[test]
    fn kmeans_assignment_at_128_dims_matches_a_scalar_argmin() {
        let (dims, count, seed) = (128, 9, 29);
        let r = datagen::uniform(240, dims, 50.0, 77);
        for metric in [
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Chebyshev,
        ] {
            let strategy = PivotSelectionStrategy::KMeans { iterations: 1 };
            let pivots = select_pivots(&r, count, strategy, usize::MAX, metric, seed);

            let mut rng = StdRng::seed_from_u64(seed);
            let initial: Vec<&Point> = r.points().choose_multiple(&mut rng, count).collect();
            let rank = |a: &Point, b: &Point| {
                let gaps = a.coords.iter().zip(&b.coords).map(|(x, y)| (x - y).abs());
                match metric {
                    DistanceMetric::Euclidean => gaps.fold(0.0, |acc, g| acc + g * g),
                    DistanceMetric::Manhattan => gaps.fold(0.0, |acc, g| acc + g),
                    DistanceMetric::Chebyshev => gaps.fold(0.0, f64::max),
                }
            };
            let mut sums = vec![vec![0.0; dims]; count];
            let mut sizes = vec![0usize; count];
            for p in &r {
                let mut best = 0;
                for c in 1..count {
                    if rank(p, initial[c]) < rank(p, initial[best]) {
                        best = c;
                    }
                }
                sizes[best] += 1;
                for (sum, x) in sums[best].iter_mut().zip(&p.coords) {
                    *sum += x;
                }
            }
            for c in 0..count {
                let want: Vec<f64> = if sizes[c] == 0 {
                    initial[c].coords.clone()
                } else {
                    sums[c].iter().map(|sum| sum / sizes[c] as f64).collect()
                };
                assert_eq!(pivots[c].coords, want, "{metric:?} centre {c}");
            }
        }
    }

    #[test]
    fn count_larger_than_sample_is_clamped() {
        let r = dataset(10);
        let pivots = select_pivots(
            &r,
            50,
            PivotSelectionStrategy::Farthest,
            usize::MAX,
            DistanceMetric::Euclidean,
            1,
        );
        assert_eq!(pivots.len(), 10);
    }

    #[test]
    #[should_panic(expected = "pivot count")]
    fn zero_count_panics() {
        let r = dataset(10);
        let _ = select_pivots(
            &r,
            0,
            PivotSelectionStrategy::Farthest,
            10,
            DistanceMetric::Euclidean,
            0,
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PivotSelectionStrategy::default().label(), "random");
        assert_eq!(PivotSelectionStrategy::Farthest.label(), "farthest");
        assert_eq!(
            PivotSelectionStrategy::KMeans { iterations: 1 }.label(),
            "k-means"
        );
    }
}
