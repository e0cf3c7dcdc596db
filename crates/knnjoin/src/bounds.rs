//! Distance bounds and pruning rules (Theorems 1–7, Algorithm 1 and 2).
//!
//! All pruning in the paper follows from the triangle inequality applied to
//! object-to-pivot distances, which are the only distances available without
//! touching the raw data again:
//!
//! * **Theorem 1 / Corollary 1** — the distance from a query to the
//!   generalized hyperplane separating two pivots lower-bounds its distance to
//!   every object of the other pivot's cell; whole cells can be skipped.
//! * **Theorem 2** — within a cell, only objects whose pivot distance falls in
//!   a window around the query's pivot distance can be within `θ`.
//! * **Theorem 3 / Equation 6 / Algorithm 1** — an upper bound `θ_i` on the
//!   kNN distance of *every* object of an `R` partition, computed from the
//!   summary tables alone.
//! * **Theorem 4 / 5 / Corollary 2** — a lower bound on the distance from an
//!   `S` object to every object of an `R` partition, and hence the rule that
//!   decides which `S` objects must be replicated to which partition/group.
//! * **Theorem 6 / 7** — the same rule lifted to partition groups, and the
//!   resulting replication count `RP(S)` used as the grouping cost model.

use crate::grouping::PartitionGrouping;
use crate::partition::PartitionedDataset;
use crate::summary::SummaryTables;
use std::collections::BinaryHeap;

/// Theorem 1: distance from an object `q` to the generalized hyperplane
/// `HP(p_q, p_i)` between its own pivot `p_q` and another pivot `p_i`.
///
/// `d_q_own` is `|q, p_q|`, `d_q_other` is `|q, p_i|` and `pivot_dist` is
/// `|p_q, p_i|`.  The value is non-negative whenever `q` really is closer to
/// its own pivot.  A zero `pivot_dist` (duplicate pivots) yields zero, which
/// keeps the bound sound (it never over-prunes).
pub fn hyperplane_distance(d_q_own: f64, d_q_other: f64, pivot_dist: f64) -> f64 {
    if pivot_dist <= 0.0 {
        return 0.0;
    }
    (d_q_other * d_q_other - d_q_own * d_q_own) / (2.0 * pivot_dist)
}

/// Metric-aware version of the Corollary 1 pruning bound.
///
/// The paper's Theorem 1 formula is the (signed) Euclidean distance from the
/// query to the bisector hyperplane of the two pivots, which is only a valid
/// lower bound on `|q, o|` under the Euclidean metric.  For the other metrics
/// the generalized-hyperplane bound `(|q, p_other| − |q, p_own|) / 2` — which
/// follows from the triangle inequality alone — is used instead.  Both return
/// a value `B` such that every `o` in the other pivot's cell satisfies
/// `|q, o| ≥ B`, so partitions with `B > θ` can be skipped.
pub fn hyperplane_bound(
    d_q_own: f64,
    d_q_other: f64,
    pivot_dist: f64,
    metric: geom::DistanceMetric,
) -> f64 {
    match metric {
        geom::DistanceMetric::Euclidean => hyperplane_distance(d_q_own, d_q_other, pivot_dist),
        _ => (d_q_other - d_q_own) / 2.0,
    }
}

/// Theorem 2: the window of pivot distances an object `o ∈ P_j` must fall in
/// to possibly satisfy `|q, o| ≤ θ`, given the partition's `L`/`U` statistics
/// and `|p_j, q|`.  Returns `(low, high)`; the window may be empty
/// (`low > high`), meaning the whole partition can be skipped.
pub fn theorem2_window(lower: f64, upper: f64, pivot_to_query: f64, theta: f64) -> (f64, f64) {
    (
        lower.max(pivot_to_query - theta),
        upper.min(pivot_to_query + theta),
    )
}

/// Theorem 3: upper bound on the distance from an `S` object `s ∈ P_j^S` to
/// *any* object of partition `P_i^R`:
/// `ub(s, P_i^R) = U(P_i^R) + |p_i, p_j| + |p_j, s|`.
pub fn upper_bound(u_r_partition: f64, pivot_dist: f64, s_pivot_dist: f64) -> f64 {
    u_r_partition + pivot_dist + s_pivot_dist
}

/// Theorem 4: lower bound on the distance from an `S` object `s ∈ P_j^S` to
/// *any* object of partition `P_i^R`:
/// `lb(s, P_i^R) = max{0, |p_i, p_j| − U(P_i^R) − |p_j, s|}`.
pub fn lower_bound(u_r_partition: f64, pivot_dist: f64, s_pivot_dist: f64) -> f64 {
    (pivot_dist - u_r_partition - s_pivot_dist).max(0.0)
}

/// Algorithm 1 (`boundingKNN`): `θ_i`, an upper bound on the kNN distance
/// of every object of `R` partition `r_partition`, whose objects lie at most
/// `upper` (`U(P_i^R)`) from its pivot, read off the `S` summaries alone.
///
/// The `S` cells are walked in `order`, which must name every non-empty
/// one.  A max-heap keeps the `k` smallest upper bounds `U + |p_i, p_j| +
/// |p_j, s|` (Theorem 3) seen; its top is θ.  Once it holds `k` values, a
/// cell with `U + |p_i, p_j| ≥ θ` is skipped whole: each of its bounds is
/// `(U + |p_i, p_j|) + |p_j, s|`, no smaller in floating point (addition is
/// monotone and `|p_j, s| ≥ 0`), the heap admits only values strictly below
/// its top, and the top only falls.  So θ has the bits of the walk over
/// every cell, in any order; walked by ascending `|p_i, p_j|`, as a probe
/// walks its scan order, almost every cell after the first few is skipped.
///
/// Returns `f64::INFINITY` when the walked cells hold fewer than `k`
/// objects (the bound is then vacuous but still sound).
pub fn bounding_knn_theta(
    tables: &SummaryTables,
    r_partition: usize,
    upper: f64,
    k: usize,
    order: impl IntoIterator<Item = usize>,
) -> f64 {
    assert!(k > 0, "k must be positive");
    let pivot_dists = tables.pivot_distances.row(r_partition);
    let mut heap: BinaryHeap<OrderedF64> = BinaryHeap::with_capacity(k + 1);
    for j in order {
        let pivot_dist = pivot_dists[j];
        if heap.len() == k && upper + pivot_dist >= top(&heap) {
            continue;
        }
        // knn_distances is ascending, so once one candidate fails to improve
        // the heap no later candidate of this partition can (line 8 of
        // Algorithm 1).
        for &s_pivot_dist in &tables.s_summaries[j].knn_distances {
            let ub = upper_bound(upper, pivot_dist, s_pivot_dist);
            if heap.len() < k {
                heap.push(OrderedF64(ub));
            } else if ub < top(&heap) {
                heap.pop();
                heap.push(OrderedF64(ub));
            } else {
                break;
            }
        }
    }
    if heap.len() < k {
        f64::INFINITY
    } else {
        top(&heap)
    }
}

/// The largest value of a non-empty heap.
fn top(heap: &BinaryHeap<OrderedF64>) -> f64 {
    heap.peek().map_or(f64::INFINITY, |top| top.0)
}

/// Per-partition bounds computed before the second MapReduce job (Algorithm
/// 2, `compLBOfReplica`).
#[derive(Debug, Clone)]
pub struct PartitionBounds {
    /// `θ_i` for every partition of `R` (Equation 6).
    pub theta: Vec<f64>,
    /// `LB(P_j^S, P_i^R)` indexed as `lb[i][j]` (Corollary 2).
    pub lb: Vec<Vec<f64>>,
}

impl PartitionBounds {
    /// Runs Algorithm 1 for every `R` partition, walking the `S` cells in
    /// partition order (an empty `R` partition gets `θ = ∞`), and Algorithm
    /// 2 for every `(R partition, S partition)` pair.
    pub fn compute(tables: &SummaryTables, k: usize) -> Self {
        let n = tables.partition_count();
        let theta: Vec<f64> = (tables.r_summaries.iter().enumerate())
            .map(|(i, r)| match r.count {
                0 => f64::INFINITY,
                _ => bounding_knn_theta(tables, i, r.upper, k, 0..n),
            })
            .collect();
        let lb = (0..n)
            .map(|i| {
                let u_r = tables.r_summaries[i].upper;
                (0..n)
                    .map(|j| {
                        if theta[i].is_infinite() {
                            // A vacuous θ means nothing can be pruned for this
                            // partition: every S object must be shipped.
                            f64::NEG_INFINITY
                        } else {
                            tables.pivot_distance(i, j) - u_r - theta[i]
                        }
                    })
                    .collect()
            })
            .collect();
        Self { theta, lb }
    }

    /// Theorem 6: `LB(P_j^S, G_i) = min_{P^R ∈ G_i} LB(P_j^S, P^R)`, for every
    /// group of the given grouping.  Indexed as `result[group][s_partition]`.
    pub fn group_lower_bounds(&self, grouping: &PartitionGrouping) -> Vec<Vec<f64>> {
        let n_partitions = self.lb.len();
        grouping
            .groups
            .iter()
            .map(|members| {
                (0..n_partitions)
                    .map(|j| {
                        members
                            .iter()
                            .map(|&i| self.lb[i][j])
                            .fold(f64::INFINITY, f64::min)
                    })
                    .collect()
            })
            .collect()
    }

    /// Theorem 7: the exact number of replicas of `S` objects shipped to
    /// reducers under the given grouping, computed from the partitioned `S`
    /// (each object's pivot distance is compared against the group bound).
    pub fn count_replicas(
        &self,
        grouping: &PartitionGrouping,
        partitioned_s: &PartitionedDataset,
    ) -> u64 {
        let group_lb = self.group_lower_bounds(grouping);
        let mut replicas = 0u64;
        for bounds in &group_lb {
            for (j, bucket) in partitioned_s.partitions.iter().enumerate() {
                let lb = bounds[j];
                replicas += bucket.iter().filter(|(_, d)| *d >= lb).count() as u64;
            }
        }
        replicas
    }

    /// Equation 12: the approximate replica count for one group used by the
    /// greedy grouping strategy — whole `S` partitions are counted as soon as
    /// any of their objects could be assigned (`LB(P_j^S, G) ≤ U(P_j^S)`).
    pub fn approximate_group_replicas(&self, members: &[usize], tables: &SummaryTables) -> u64 {
        let n = tables.partition_count();
        let mut total = 0u64;
        for j in 0..n {
            let lb = members
                .iter()
                .map(|&i| self.lb[i][j])
                .fold(f64::INFINITY, f64::min);
            if lb <= tables.s_summaries[j].upper {
                total += tables.s_summaries[j].count as u64;
            }
        }
        total
    }
}

/// `f64` wrapper with a total order, for use in heaps (distances are finite).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);
impl Eq for OrderedF64 {}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::PartitionGrouping;
    use crate::partition::VoronoiPartitioner;
    use datagen::uniform;
    use geom::{DistanceMetric, Point, PointSet};
    use proptest::collection;
    use proptest::prelude::*;

    fn build_tables(
        r: &PointSet,
        s: &PointSet,
        n_pivots: usize,
        k: usize,
        seed: u64,
    ) -> (SummaryTables, PartitionedDataset, PartitionedDataset) {
        let pivots: Vec<Point> = uniform(n_pivots, r.dims(), 100.0, seed).into_points();
        let partitioner = VoronoiPartitioner::new(pivots.clone(), DistanceMetric::Euclidean);
        let pr = partitioner.partition(r);
        let ps = partitioner.partition(s);
        let tables = SummaryTables::build(pivots, DistanceMetric::Euclidean, &pr, &ps, k);
        (tables, pr, ps)
    }

    #[test]
    fn hyperplane_distance_matches_geometry() {
        // Pivots at (0,0) and (10,0): hyperplane is x = 5.
        // For q = (2, 0) in the first cell, distance to the plane is 3.
        let d_own = 2.0;
        let d_other = 8.0;
        let d = hyperplane_distance(d_own, d_other, 10.0);
        assert!((d - 3.0).abs() < 1e-12);
        // Degenerate pivots: bound collapses to 0 (never over-prunes).
        assert_eq!(hyperplane_distance(1.0, 2.0, 0.0), 0.0);
    }

    #[test]
    fn theorem2_window_behaviour() {
        let (lo, hi) = theorem2_window(1.0, 9.0, 5.0, 2.0);
        assert_eq!((lo, hi), (3.0, 7.0));
        // Window clamped by L and U.
        let (lo, hi) = theorem2_window(4.0, 6.0, 5.0, 10.0);
        assert_eq!((lo, hi), (4.0, 6.0));
        // Empty window when θ is too small and the query is far away.
        let (lo, hi) = theorem2_window(0.0, 1.0, 10.0, 2.0);
        assert!(lo > hi);
    }

    #[test]
    fn upper_and_lower_bounds_bracket_true_distances() {
        // Exhaustively validate Theorems 3 and 4 on a small random instance.
        let r = uniform(60, 2, 100.0, 1);
        let s = uniform(80, 2, 100.0, 2);
        let (tables, pr, ps) = build_tables(&r, &s, 5, 3, 3);
        let metric = DistanceMetric::Euclidean;
        for (i, r_bucket) in pr.partitions.iter().enumerate() {
            let u_r = tables.r_summaries[i].upper;
            for (j, s_bucket) in ps.partitions.iter().enumerate() {
                let pivot_dist = tables.pivot_distance(i, j);
                for (s_obj, s_pivot_dist) in s_bucket {
                    let ub = upper_bound(u_r, pivot_dist, *s_pivot_dist);
                    let lb = lower_bound(u_r, pivot_dist, *s_pivot_dist);
                    for (r_obj, _) in r_bucket {
                        let d = metric.distance(r_obj, s_obj);
                        assert!(d <= ub + 1e-9, "ub violated: {d} > {ub}");
                        assert!(d >= lb - 1e-9, "lb violated: {d} < {lb}");
                    }
                }
            }
        }
    }

    #[test]
    fn theta_upper_bounds_every_true_knn_distance() {
        let r = uniform(80, 3, 50.0, 7);
        let s = uniform(120, 3, 50.0, 8);
        let k = 4;
        let (tables, pr, ps) = build_tables(&r, &s, 6, k, 9);
        let metric = DistanceMetric::Euclidean;
        let bounds = PartitionBounds::compute(&tables, k);
        let all_s: Vec<(Point, f64)> = ps.partitions.iter().flatten().cloned().collect();
        for (i, r_bucket) in pr.partitions.iter().enumerate() {
            for (r_obj, _) in r_bucket {
                // true kth NN distance of r_obj
                let mut dists: Vec<f64> = all_s
                    .iter()
                    .map(|(s, _)| metric.distance(r_obj, s))
                    .collect();
                dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let kth = dists[k - 1];
                assert!(
                    kth <= bounds.theta[i] + 1e-9,
                    "θ_{i} = {} is below the true kth distance {kth}",
                    bounds.theta[i]
                );
            }
        }
    }

    #[test]
    fn theta_is_infinite_when_s_is_too_small() {
        let r = uniform(30, 2, 10.0, 1);
        let s = uniform(2, 2, 10.0, 2);
        let (tables, _, _) = build_tables(&r, &s, 3, 5, 3);
        let n = tables.partition_count();
        for (i, summary) in tables.r_summaries.iter().enumerate() {
            assert!(bounding_knn_theta(&tables, i, summary.upper, 5, 0..n).is_infinite());
        }
        assert!(PartitionBounds::compute(&tables, 5)
            .theta
            .iter()
            .all(|theta| theta.is_infinite()));
    }

    /// Algorithm 1 as it walked before whole cells were skipped: every cell
    /// in `order` offers its upper bounds until one fails to improve the
    /// heap.  The reference the skipping walk is held to.
    fn full_walk_theta(
        tables: &SummaryTables,
        r_partition: usize,
        upper: f64,
        k: usize,
        order: impl IntoIterator<Item = usize>,
    ) -> f64 {
        let mut heap: BinaryHeap<OrderedF64> = BinaryHeap::new();
        for j in order {
            let pivot_dist = tables.pivot_distance(r_partition, j);
            for s_pivot_dist in &tables.s_summaries[j].knn_distances {
                let ub = upper_bound(upper, pivot_dist, *s_pivot_dist);
                if heap.len() < k {
                    heap.push(OrderedF64(ub));
                } else if ub < heap.peek().unwrap().0 {
                    heap.pop();
                    heap.push(OrderedF64(ub));
                } else {
                    break;
                }
            }
        }
        if heap.len() < k {
            f64::INFINITY
        } else {
            heap.peek().unwrap().0
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The skipping walk returns the full walk's θ bit for bit, for
        /// every `R` partition, walked in partition order, by ascending
        /// pivot distance (the probe's order) and in a shuffled order.
        /// Pivots sit on a coarse grid, so pivot distances repeat and some
        /// are zero; `T_S` columns draw from a few values, so upper bounds
        /// tie; cells may be empty, `k` may exceed `|S|` and `U` may be 0.
        #[test]
        fn skipping_cells_keeps_theta_bit_for_bit(
            t in 1usize..10,
            grid in collection::vec(0u32..16, 10),
            columns in collection::vec(collection::vec(0usize..6, 0..7), 10),
            k in 1usize..16,
            zero_upper in proptest::bool::ANY,
            upper in 0.0f64..5.0,
            shuffle in 0u64..u64::MAX,
        ) {
            let upper = if zero_upper { 0.0 } else { upper };
            let pivots: Vec<Point> = grid[..t]
                .iter()
                .enumerate()
                .map(|(i, &g)| Point::new(i as u64, vec![f64::from(g % 4), f64::from(g / 4) * 1.5]))
                .collect();
            let partitioner = VoronoiPartitioner::new(pivots, DistanceMetric::Euclidean);
            let values = [0.0, 0.5, 1.0, 1.25, 2.5, 3.75];
            let columns: Vec<Vec<f64>> = columns[..t]
                .iter()
                .map(|draws| {
                    let mut column: Vec<f64> = draws.iter().map(|&v| values[v]).collect();
                    column.sort_by(f64::total_cmp);
                    column
                })
                .collect();
            let s = columns.iter().map(Vec::as_slice).enumerate();
            let tables = SummaryTables::from_sorted_columns(&partitioner, std::iter::empty(), s, k);
            for i in 0..t {
                let row = tables.pivot_distances.row(i);
                let mut ascending: Vec<usize> = (0..t).collect();
                ascending.sort_by(|&a, &b| row[a].total_cmp(&row[b]));
                let mut shuffled: Vec<usize> = (0..t).collect();
                shuffled.sort_by_key(|&j| (j as u64 + 1).wrapping_mul(shuffle | 1).rotate_left(17));
                let want = full_walk_theta(&tables, i, upper, k, 0..t).to_bits();
                for order in [(0..t).collect(), ascending, shuffled] {
                    let full = full_walk_theta(&tables, i, upper, k, order.iter().copied());
                    let skipped = bounding_knn_theta(&tables, i, upper, k, order.iter().copied());
                    prop_assert_eq!(full.to_bits(), want, "order {:?}", order);
                    prop_assert_eq!(skipped.to_bits(), want, "order {:?}", order);
                }
            }
        }
    }

    #[test]
    fn replica_filter_never_prunes_a_true_neighbor() {
        // The heart of the correctness argument: for every r ∈ P_i^R and every
        // s among its true kNN, s must pass the partition-level filter
        // |s, p_j| ≥ LB(P_j^S, P_i^R).
        let r = uniform(60, 2, 80.0, 21);
        let s = uniform(90, 2, 80.0, 22);
        let k = 3;
        let (tables, pr, ps) = build_tables(&r, &s, 6, k, 23);
        let metric = DistanceMetric::Euclidean;
        let bounds = PartitionBounds::compute(&tables, k);
        let all_s: Vec<(Point, f64, usize)> = ps
            .partitions
            .iter()
            .enumerate()
            .flat_map(|(j, b)| b.iter().map(move |(p, d)| (p.clone(), *d, j)))
            .collect();
        for (i, r_bucket) in pr.partitions.iter().enumerate() {
            for (r_obj, _) in r_bucket {
                let mut by_dist: Vec<(f64, usize)> = all_s
                    .iter()
                    .enumerate()
                    .map(|(idx, (s_obj, _, _))| (metric.distance(r_obj, s_obj), idx))
                    .collect();
                by_dist.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                for (_, idx) in by_dist.iter().take(k) {
                    let (_, s_pivot_dist, j) = &all_s[*idx];
                    assert!(
                        *s_pivot_dist >= bounds.lb[i][*j] - 1e-9,
                        "true neighbour pruned from partition {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn group_bounds_are_minima_of_member_bounds() {
        let r = uniform(50, 2, 60.0, 31);
        let s = uniform(70, 2, 60.0, 32);
        let (tables, _, _) = build_tables(&r, &s, 6, 3, 33);
        let bounds = PartitionBounds::compute(&tables, 3);
        let grouping = PartitionGrouping {
            groups: vec![vec![0, 1, 2], vec![3, 4, 5]],
        };
        let gb = bounds.group_lower_bounds(&grouping);
        assert_eq!(gb.len(), 2);
        for (j, &got) in gb[0].iter().enumerate().take(6) {
            let expect = bounds.lb[0][j].min(bounds.lb[1][j]).min(bounds.lb[2][j]);
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn replica_count_matches_manual_count_and_grows_with_group_merging() {
        let r = uniform(80, 2, 60.0, 41);
        let s = uniform(100, 2, 60.0, 42);
        let (tables, _, ps) = build_tables(&r, &s, 8, 3, 43);
        let bounds = PartitionBounds::compute(&tables, 3);
        let fine = PartitionGrouping {
            groups: (0..8).map(|i| vec![i]).collect(),
        };
        let coarse = PartitionGrouping {
            groups: vec![(0..8).collect()],
        };
        let fine_replicas = bounds.count_replicas(&fine, &ps);
        let coarse_replicas = bounds.count_replicas(&coarse, &ps);
        // A single group must ship at most |S| objects (no duplicate groups);
        // eight singleton groups ship at least that many in total.
        assert!(coarse_replicas <= ps.len() as u64);
        assert!(fine_replicas >= coarse_replicas);
        // Manual recount for the fine grouping.
        let manual: u64 = (0..8)
            .map(|i| {
                ps.partitions
                    .iter()
                    .enumerate()
                    .map(|(j, bucket)| {
                        bucket.iter().filter(|(_, d)| *d >= bounds.lb[i][j]).count() as u64
                    })
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(fine_replicas, manual);
    }

    #[test]
    fn approximate_replicas_upper_bound_exact_replicas_per_group() {
        let r = uniform(60, 2, 60.0, 51);
        let s = uniform(80, 2, 60.0, 52);
        let (tables, _, ps) = build_tables(&r, &s, 6, 3, 53);
        let bounds = PartitionBounds::compute(&tables, 3);
        let members = vec![0usize, 1, 2];
        let approx = bounds.approximate_group_replicas(&members, &tables);
        let exact = {
            let grouping = PartitionGrouping {
                groups: vec![members.clone()],
            };
            bounds.count_replicas(&grouping, &ps)
        };
        assert!(
            approx >= exact,
            "Eq. 12 approximation must over-count ({approx} < {exact})"
        );
    }

    #[test]
    fn hyperplane_bound_is_sound_for_every_metric() {
        // For every metric, every r in its own cell and every s in another
        // cell must be at least `hyperplane_bound` away from r.
        for metric in [
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Chebyshev,
        ] {
            let r = uniform(60, 3, 100.0, 61);
            let s = uniform(80, 3, 100.0, 62);
            let pivots: Vec<Point> = uniform(6, 3, 100.0, 63).into_points();
            let partitioner = VoronoiPartitioner::new(pivots.clone(), metric);
            let pr = partitioner.partition(&r);
            let ps = partitioner.partition(&s);
            for (i, r_bucket) in pr.partitions.iter().enumerate() {
                for (r_obj, r_pivot_dist) in r_bucket {
                    for (j, s_bucket) in ps.partitions.iter().enumerate() {
                        if i == j {
                            continue;
                        }
                        let d_r_pj = metric.distance(r_obj, &pivots[j]);
                        let pivot_dist = metric.distance(&pivots[i], &pivots[j]);
                        let bound = hyperplane_bound(*r_pivot_dist, d_r_pj, pivot_dist, metric);
                        for (s_obj, _) in s_bucket {
                            let d = metric.distance(r_obj, s_obj);
                            assert!(
                                d >= bound - 1e-9,
                                "{metric:?}: |r,s| = {d} below bound {bound}"
                            );
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Theorems 3 and 4 hold for arbitrary random configurations.
        #[test]
        fn bounds_hold_for_random_data(
            n_r in 5usize..40,
            n_s in 5usize..40,
            n_pivots in 1usize..8,
            seed in 0u64..1000,
        ) {
            let r = uniform(n_r, 2, 50.0, seed);
            let s = uniform(n_s, 2, 50.0, seed ^ 0xff);
            let (tables, pr, ps) = build_tables(&r, &s, n_pivots, 3, seed ^ 0xf0f0);
            let metric = DistanceMetric::Euclidean;
            for (i, r_bucket) in pr.partitions.iter().enumerate() {
                let u_r = tables.r_summaries[i].upper;
                for (j, s_bucket) in ps.partitions.iter().enumerate() {
                    let pivot_dist = tables.pivot_distance(i, j);
                    for (s_obj, s_pivot_dist) in s_bucket {
                        let ub = upper_bound(u_r, pivot_dist, *s_pivot_dist);
                        let lb = lower_bound(u_r, pivot_dist, *s_pivot_dist);
                        prop_assert!(lb <= ub + 1e-9);
                        for (r_obj, _) in r_bucket {
                            let d = metric.distance(r_obj, s_obj);
                            prop_assert!(d <= ub + 1e-9);
                            prop_assert!(d >= lb - 1e-9);
                        }
                    }
                }
            }
        }
    }
}
