//! Summary tables `T_R` and `T_S` (Section 4.2, Figure 3/4 of the paper).
//!
//! The first MapReduce job, besides partitioning the data, collects compact
//! per-partition statistics that the second job's mappers and reducers use to
//! derive distance bounds:
//!
//! * for every partition of `R`: the number of objects and the minimum /
//!   maximum distance from an object to the pivot (`L(P_i^R)`, `U(P_i^R)`);
//! * for every partition of `S`: the same fields plus the `k` smallest
//!   object-to-pivot distances (`p_i.d_1 … p_i.d_k`), kept in ascending order
//!   so Algorithm 1 can early-terminate.

use crate::partition::{PartitionedDataset, PivotDistances, VoronoiPartitioner};
use geom::{CoordMatrix, DistanceMetric, Point};
use std::sync::Arc;

/// Summary of one partition of `R`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RPartitionSummary {
    /// Partition (pivot) index.
    pub partition: usize,
    /// Number of objects of `R` in the partition.
    pub count: usize,
    /// Minimum object-to-pivot distance, `L(P_i^R)`; 0 for empty partitions.
    pub lower: f64,
    /// Maximum object-to-pivot distance, `U(P_i^R)`; 0 for empty partitions.
    pub upper: f64,
}

/// Summary of one partition of `S`.
#[derive(Debug, Clone, PartialEq)]
pub struct SPartitionSummary {
    /// Partition (pivot) index.
    pub partition: usize,
    /// Number of objects of `S` in the partition.
    pub count: usize,
    /// Minimum object-to-pivot distance, `L(P_i^S)`.
    pub lower: f64,
    /// Maximum object-to-pivot distance, `U(P_i^S)`.
    pub upper: f64,
    /// The `k` smallest object-to-pivot distances of the partition in
    /// ascending order (`KNN(p_i, P_i^S)` in the paper).  May hold fewer than
    /// `k` entries if the partition is smaller than `k`.
    pub knn_distances: Vec<f64>,
}

/// The pair of summary tables plus the pivot set they refer to.
///
/// The pivot matrix and the `t × t` distance table sit behind [`Arc`]s:
/// they are the [`VoronoiPartitioner`]'s own, shared, not copied.  The
/// prepared serving path keeps one frozen set of tables whose `T_R` is
/// empty; a probe derives `U(P_i^R)` for the cells its rows touch instead.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryTables {
    /// Pivots defining the Voronoi cells, flat: row `i` is pivot `i`, the
    /// pivot of partition `i`.
    pub pivots: Arc<CoordMatrix>,
    /// Metric used throughout.
    pub metric: DistanceMetric,
    /// One entry per partition of `R` (indexed by partition id).
    pub r_summaries: Vec<RPartitionSummary>,
    /// One entry per partition of `S` (indexed by partition id).
    pub s_summaries: Vec<SPartitionSummary>,
    /// Pairwise pivot distances, `|p_i, p_j|`.
    pub pivot_distances: Arc<PivotDistances>,
}

impl SummaryTables {
    /// Builds the summary tables from partitioned copies of `R` and `S`.
    ///
    /// `k` controls how many per-partition nearest-to-pivot distances of `S`
    /// are kept (the paper keeps exactly `k`, the join parameter).
    ///
    /// # Panics
    /// Panics if the two partitionings disagree with the number of pivots.
    pub fn build(
        pivots: Vec<Point>,
        metric: DistanceMetric,
        partitioned_r: &PartitionedDataset,
        partitioned_s: &PartitionedDataset,
        k: usize,
    ) -> Self {
        assert_eq!(
            partitioned_r.partition_count(),
            pivots.len(),
            "R partitioning does not match pivot count"
        );
        assert_eq!(
            partitioned_s.partition_count(),
            pivots.len(),
            "S partitioning does not match pivot count"
        );
        let sorted_columns = |partitioned: &PartitionedDataset| -> Vec<Vec<f64>> {
            let columns = partitioned.partitions.iter().map(|bucket| {
                let mut column: Vec<f64> = bucket.iter().map(|(_, dist)| *dist).collect();
                column.sort_unstable_by(f64::total_cmp);
                column
            });
            columns.collect()
        };
        let (r, s) = (sorted_columns(partitioned_r), sorted_columns(partitioned_s));
        Self::from_sorted_columns(
            &VoronoiPartitioner::new(pivots, metric),
            r.iter().map(Vec::as_slice).enumerate(),
            s.iter().map(Vec::as_slice).enumerate(),
            k,
        )
    }

    /// Index merging (Figure 6): the tables over `partitioner`'s pivots, read
    /// off each non-empty cell's ascending pivot distances — which is all of
    /// the first job's output that the tables depend on.  The pivot set and
    /// the pivot distances are shared from the partitioner, not recomputed.
    pub(crate) fn from_sorted_columns<'a>(
        partitioner: &VoronoiPartitioner,
        r: impl IntoIterator<Item = (usize, &'a [f64])>,
        s: impl IntoIterator<Item = (usize, &'a [f64])>,
        k: usize,
    ) -> Self {
        let t = partitioner.partition_count();
        let mut r_summaries: Vec<RPartitionSummary> = (0..t)
            .map(|cell| RPartitionSummary::of_sorted(cell, &[]))
            .collect();
        for (cell, column) in r {
            r_summaries[cell] = RPartitionSummary::of_sorted(cell, column);
        }
        let mut s_summaries: Vec<SPartitionSummary> = (0..t)
            .map(|cell| SPartitionSummary::of_sorted(cell, &[], k))
            .collect();
        for (cell, column) in s {
            s_summaries[cell] = SPartitionSummary::of_sorted(cell, column, k);
        }
        Self {
            pivots: Arc::clone(partitioner.pivot_matrix()),
            metric: partitioner.metric(),
            r_summaries,
            s_summaries,
            pivot_distances: Arc::clone(partitioner.pivot_distances()),
        }
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.pivots.len()
    }

    /// `|p_i, p_j|` looked up from the precomputed matrix.
    #[inline]
    pub fn pivot_distance(&self, i: usize, j: usize) -> f64 {
        self.pivot_distances.get(i, j)
    }
}

impl RPartitionSummary {
    /// The `T_R` row of partition `partition` read off its objects' pivot
    /// distances in ascending order: the `(L, U)` bounds are the column's
    /// ends — what a fold over the same distances in any order gives.
    pub(crate) fn of_sorted(partition: usize, pivot_dists: &[f64]) -> Self {
        Self {
            partition,
            count: pivot_dists.len(),
            lower: pivot_dists.first().copied().unwrap_or(0.0),
            upper: pivot_dists.last().copied().unwrap_or(0.0),
        }
    }
}

impl SPartitionSummary {
    /// The `T_S` row of partition `partition` read off its objects' pivot
    /// distances in ascending order — the column a
    /// [`crate::algorithms::voronoi::FlatPartition`] keeps: the `(L, U)`
    /// bounds are its ends and `KNN(p_i, P_i^S)` its first `k` entries.  An
    /// empty column reports `(0, 0)` like an absent row in the paper's
    /// tables.
    pub(crate) fn of_sorted(partition: usize, pivot_dists: &[f64], k: usize) -> Self {
        Self {
            partition,
            count: pivot_dists.len(),
            lower: pivot_dists.first().copied().unwrap_or(0.0),
            upper: pivot_dists.last().copied().unwrap_or(0.0),
            knn_distances: pivot_dists[..k.min(pivot_dists.len())].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::VoronoiPartitioner;
    use datagen::uniform;
    use geom::PointSet;

    fn setup(k: usize) -> (SummaryTables, PointSet, PointSet, VoronoiPartitioner) {
        let r = uniform(300, 2, 100.0, 1);
        let s = uniform(400, 2, 100.0, 2);
        let pivots: Vec<Point> = uniform(8, 2, 100.0, 3).into_points();
        let partitioner = VoronoiPartitioner::new(pivots.clone(), DistanceMetric::Euclidean);
        let pr = partitioner.partition(&r);
        let ps = partitioner.partition(&s);
        let tables = SummaryTables::build(pivots, DistanceMetric::Euclidean, &pr, &ps, k);
        (tables, r, s, partitioner)
    }

    #[test]
    fn counts_sum_to_dataset_sizes() {
        let (tables, r, s, _) = setup(10);
        assert_eq!(
            tables.r_summaries.iter().map(|x| x.count).sum::<usize>(),
            r.len()
        );
        assert_eq!(
            tables.s_summaries.iter().map(|x| x.count).sum::<usize>(),
            s.len()
        );
        assert_eq!(tables.partition_count(), 8);
    }

    #[test]
    fn bounds_are_consistent_with_assignments() {
        let (tables, _, s, partitioner) = setup(10);
        let ps = partitioner.partition(&s);
        for summary in tables.s_summaries.iter() {
            let bucket = &ps.partitions[summary.partition];
            if bucket.is_empty() {
                assert_eq!((summary.lower, summary.upper), (0.0, 0.0));
                continue;
            }
            for (_, d) in bucket {
                assert!(*d >= summary.lower - 1e-9);
                assert!(*d <= summary.upper + 1e-9);
            }
            assert!(summary.lower <= summary.upper);
        }
    }

    #[test]
    fn knn_distances_are_sorted_ascending_and_truncated_to_k() {
        let (tables, _, _, _) = setup(5);
        for summary in tables.s_summaries.iter() {
            assert!(summary.knn_distances.len() <= 5);
            assert!(summary.knn_distances.windows(2).all(|w| w[0] <= w[1]));
            // and they are the smallest distances: all ≤ upper bound
            if let Some(last) = summary.knn_distances.last() {
                assert!(*last <= summary.upper + 1e-9);
            }
            if let Some(first) = summary.knn_distances.first() {
                assert!((*first - summary.lower).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn pivot_distance_matrix_is_symmetric_with_zero_diagonal() {
        let (tables, _, _, _) = setup(3);
        let n = tables.partition_count();
        for i in 0..n {
            assert_eq!(tables.pivot_distance(i, i), 0.0);
            for j in 0..n {
                assert_eq!(tables.pivot_distance(i, j), tables.pivot_distance(j, i));
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match pivot count")]
    fn mismatched_partitioning_panics() {
        let r = uniform(50, 2, 10.0, 1);
        let pivots: Vec<Point> = uniform(4, 2, 10.0, 2).into_points();
        let other_pivots: Vec<Point> = uniform(5, 2, 10.0, 3).into_points();
        let pa = VoronoiPartitioner::new(pivots.clone(), DistanceMetric::Euclidean).partition(&r);
        let pb = VoronoiPartitioner::new(other_pivots, DistanceMetric::Euclidean).partition(&r);
        let _ = SummaryTables::build(pivots, DistanceMetric::Euclidean, &pa, &pb, 3);
    }
}
