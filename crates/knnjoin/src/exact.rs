//! Exact single-machine kNN join (the correctness oracle) and the flat
//! exhaustive scan behind every prune-free path.
//!
//! The "naive implementation" the paper's introduction describes: for every
//! `r ∈ R`, scan all of `S` and keep the `k` closest objects — `O(|R|·|S|)`
//! distance computations.  [`NestedLoopJoin::join`] is used by tests and
//! benchmarks as ground truth and as the centralized baseline that motivates
//! distributing the join, and shares no kernel with what it checks;
//! `FlatBlock` is the same scan over tile kernels, for the broadcast join of
//! §3 and [`Algorithm::NestedLoopJoin`].
//!
//! [`Algorithm::NestedLoopJoin`]: crate::Algorithm::NestedLoopJoin

use crate::algorithms::common::{for_each_tile, ScanKernels, TileScratch};
use crate::metrics::{phases, JoinMetrics};
use crate::plan::JoinPlan;
use crate::result::{JoinError, JoinResult, JoinRow};
use geom::{CoordMatrix, DistanceMetric, Neighbor, NeighborList, PointId, PointSet};
use std::time::Instant;

/// The exact nested-loop kNN join.
#[derive(Debug, Clone, Copy, Default)]
pub struct NestedLoopJoin;

impl NestedLoopJoin {
    /// Computes `R ⋉ S` exactly.
    ///
    /// # Errors
    /// Returns [`JoinError`] if `k` is zero, an input is empty or the
    /// dimensionalities differ.
    pub fn join(
        &self,
        r: &PointSet,
        s: &PointSet,
        k: usize,
        metric: DistanceMetric,
    ) -> Result<JoinResult, JoinError> {
        validate_inputs(r, s, k)?;
        let start = Instant::now();
        // S is scanned |R| times: flatten it once and hoist the kernel.
        let s_coords = CoordMatrix::from_point_set(s);
        let s_ids: Vec<u64> = s.iter().map(|p| p.id).collect();
        let kernel = metric.kernel();
        let mut rows = Vec::with_capacity(r.len());
        let mut computations = 0u64;
        for r_obj in r {
            let mut list = NeighborList::new(k);
            for (i, row) in s_coords.rows().enumerate() {
                list.offer(s_ids[i], kernel(&r_obj.coords, row));
                computations += 1;
            }
            rows.push(JoinRow {
                r_id: r_obj.id,
                neighbors: list.into_sorted(),
            });
        }
        let mut metrics = JoinMetrics {
            distance_computations: computations,
            r_size: r.len(),
            s_size: s.len(),
            ..Default::default()
        };
        metrics.record_phase(phases::KNN_JOIN, start.elapsed());
        let mut result = JoinResult { rows, metrics };
        result.normalize();
        Ok(result)
    }
}

/// A block of `S` flattened into columnar storage for exhaustive scanning:
/// what a broadcast reducer builds from its shuffled records, and what the
/// nested-loop join builds from `S` directly.
#[derive(Debug)]
pub(crate) struct FlatBlock {
    ids: Vec<PointId>,
    coords: CoordMatrix,
}

impl FlatBlock {
    /// Flattens `(id, coordinates)` rows, in order.
    pub(crate) fn new<'p>(rows: impl IntoIterator<Item = (PointId, &'p [f64])>) -> Self {
        let mut rows = rows.into_iter().peekable();
        let dims = rows.peek().map_or(0, |(_, row)| row.len());
        let len = rows.size_hint().0;
        let mut ids = Vec::with_capacity(len);
        let mut coords = CoordMatrix::with_capacity(dims, len);
        for (id, row) in rows {
            ids.push(id);
            coords.push_row(row);
        }
        Self { ids, coords }
    }

    /// The cold [`crate::Algorithm::NestedLoopJoin`]: `S` flattened once and
    /// every `R` object scanned on the calling thread.
    pub(crate) fn join(
        plan: &JoinPlan,
        r: &PointSet,
        s: &PointSet,
        metrics: &mut JoinMetrics,
    ) -> Vec<JoinRow> {
        let kernels = ScanKernels::new(plan.metric, plan.kernel_mode);
        let block = Self::new(s.iter().map(|p| (p.id, &p.coords[..])));
        let start = Instant::now();
        let mut scratch = TileScratch::new();
        let rows = r
            .iter()
            .map(|p| {
                let (neighbors, evaluated) = block.scan(&p.coords, plan.k, &kernels, &mut scratch);
                metrics.distance_computations += evaluated;
                JoinRow {
                    r_id: p.id,
                    neighbors,
                }
            })
            .collect();
        metrics.record_phase(phases::KNN_JOIN, start.elapsed());
        rows
    }

    /// The `k` nearest block rows of one probe object, and the number of
    /// rows evaluated: all of them.  The block is streamed in
    /// [`geom::kernels::PROBE_TILE`]-row tiles through `kernels.tile` and
    /// offered as ranks ([`NeighborList::offer_ranks`]).
    pub(crate) fn scan(
        &self,
        query: &[f64],
        k: usize,
        kernels: &ScanKernels,
        scratch: &mut TileScratch,
    ) -> (Vec<Neighbor>, u64) {
        let dim = self.coords.dims();
        let mut neighbors = NeighborList::new(k);
        let (tile, metric) = (kernels.tile, kernels.metric);
        let rows = self.coords.as_slice();
        for_each_tile(self.ids.len(), |t0, t1| {
            let ranks = &mut scratch.ranks[..t1 - t0];
            tile(query, &rows[t0 * dim..t1 * dim], dim, ranks);
            neighbors.offer_ranks(&self.ids[t0..t1], ranks, &[], metric);
        });
        (neighbors.into_sorted(), self.ids.len() as u64)
    }
}

/// Refuses the first row with a non-finite or out-of-range coordinate, with
/// the typed error every entry point shares: `NaN` breaks the total order the
/// summary tables sort by, `±∞` turns distance arithmetic into `NaN`, and
/// beyond `sqrt(f64::MAX / (16·dims))` a squared distance can overflow to
/// `+∞`, which makes the Voronoi bounds prune true neighbours.  Within the
/// limit every squared distance stays below `f64::MAX / 4`.
pub(crate) fn check_finite<'a>(
    dataset: &'static str,
    rows: impl IntoIterator<Item = &'a [f64]>,
) -> Result<(), JoinError> {
    let out_of_range = |row: &[f64]| {
        let limit = (f64::MAX / (16.0 * row.len() as f64)).sqrt();
        row.iter().any(|c| !c.is_finite() || c.abs() > limit)
    };
    match rows.into_iter().position(out_of_range) {
        Some(index) => Err(JoinError::NonFiniteInput { dataset, index }),
        None => Ok(()),
    }
}

/// Shared input validation for every join algorithm in this crate.
pub(crate) fn validate_inputs(r: &PointSet, s: &PointSet, k: usize) -> Result<(), JoinError> {
    if k == 0 {
        return Err(JoinError::InvalidK);
    }
    if r.is_empty() {
        return Err(JoinError::EmptyInput("R"));
    }
    if s.is_empty() {
        return Err(JoinError::EmptyInput("S"));
    }
    // Intra-set raggedness is checked before the cross-set comparison: the
    // kernels only `debug_assert` slice lengths, so a ragged set that happens
    // to share its first point's dims with the other set would otherwise
    // reach them.
    for (name, set) in [("R", r), ("S", s)] {
        if let Some((index, dims)) = set.first_dim_mismatch() {
            return Err(JoinError::RaggedInput {
                dataset: name,
                index,
                dims,
                expected: set.dims(),
            });
        }
        check_finite(name, set.iter().map(|p| p.coords.as_slice()))?;
    }
    if r.dims() != s.dims() {
        return Err(JoinError::DimensionalityMismatch {
            r_dims: r.dims(),
            s_dims: s.dims(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::uniform;
    use geom::Point;

    #[test]
    fn small_hand_checked_example() {
        let r = PointSet::from_points(vec![Point::new(0, vec![0.0, 0.0])]);
        let s = PointSet::from_points(vec![
            Point::new(10, vec![1.0, 0.0]),
            Point::new(11, vec![0.0, 2.0]),
            Point::new(12, vec![3.0, 0.0]),
        ]);
        let res = NestedLoopJoin
            .join(&r, &s, 2, DistanceMetric::Euclidean)
            .unwrap();
        assert_eq!(res.rows.len(), 1);
        let ids: Vec<u64> = res.rows[0].neighbors.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![10, 11]);
        assert_eq!(res.metrics.distance_computations, 3);
        assert!((res.metrics.computation_selectivity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cardinality_is_k_times_r() {
        let r = uniform(40, 3, 10.0, 1);
        let s = uniform(60, 3, 10.0, 2);
        let res = NestedLoopJoin
            .join(&r, &s, 5, DistanceMetric::Euclidean)
            .unwrap();
        assert_eq!(res.rows.len(), 40);
        let total: usize = res.rows.iter().map(|row| row.neighbors.len()).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn k_larger_than_s_degrades_to_cross_join() {
        let r = uniform(5, 2, 10.0, 3);
        let s = uniform(3, 2, 10.0, 4);
        let res = NestedLoopJoin
            .join(&r, &s, 10, DistanceMetric::Euclidean)
            .unwrap();
        assert!(res.rows.iter().all(|row| row.neighbors.len() == 3));
    }

    #[test]
    fn self_join_finds_self_first() {
        let data = uniform(30, 2, 10.0, 5);
        let res = NestedLoopJoin
            .join(&data, &data, 3, DistanceMetric::Euclidean)
            .unwrap();
        for row in &res.rows {
            assert_eq!(row.neighbors[0].id, row.r_id);
            assert_eq!(row.neighbors[0].distance, 0.0);
        }
    }

    #[test]
    fn input_validation() {
        let a = uniform(5, 2, 1.0, 0);
        let b = uniform(5, 3, 1.0, 0);
        let empty = PointSet::new();
        assert_eq!(
            NestedLoopJoin
                .join(&a, &a, 0, DistanceMetric::Euclidean)
                .unwrap_err(),
            JoinError::InvalidK
        );
        assert_eq!(
            NestedLoopJoin
                .join(&empty, &a, 1, DistanceMetric::Euclidean)
                .unwrap_err(),
            JoinError::EmptyInput("R")
        );
        assert_eq!(
            NestedLoopJoin
                .join(&a, &empty, 1, DistanceMetric::Euclidean)
                .unwrap_err(),
            JoinError::EmptyInput("S")
        );
        assert!(matches!(
            NestedLoopJoin
                .join(&a, &b, 1, DistanceMetric::Euclidean)
                .unwrap_err(),
            JoinError::DimensionalityMismatch { .. }
        ));
    }

    #[test]
    fn ragged_inputs_are_rejected_not_a_release_mode_panic() {
        let good = uniform(5, 2, 1.0, 0);
        let ragged = PointSet::from_coords(vec![vec![0.0, 1.0], vec![2.0], vec![3.0, 4.0]]);
        assert_eq!(
            NestedLoopJoin
                .join(&ragged, &good, 1, DistanceMetric::Euclidean)
                .unwrap_err(),
            JoinError::RaggedInput {
                dataset: "R",
                index: 1,
                dims: 1,
                expected: 2
            }
        );
        assert_eq!(
            NestedLoopJoin
                .join(&good, &ragged, 1, DistanceMetric::Euclidean)
                .unwrap_err(),
            JoinError::RaggedInput {
                dataset: "S",
                index: 1,
                dims: 1,
                expected: 2
            }
        );
    }

    /// `FlatBlock::scan` is the oracle's scan over tile kernels: over any
    /// block it answers what `NestedLoopJoin::join` answers — bit for bit in
    /// `Exact`, within 1e-9 in `Fast` — and bills every row of the block.
    #[test]
    fn flat_block_scan_equals_the_oracle() {
        use geom::KernelMode;
        let s = uniform(600, 4, 30.0, 41);
        let r = uniform(50, 4, 30.0, 42);
        let k = 5;
        let block = FlatBlock::new(s.iter().map(|p| (p.id, &p.coords[..])));
        for metric in [
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Chebyshev,
        ] {
            let oracle = NestedLoopJoin.join(&r, &s, k, metric).unwrap();
            for (mode, tolerance) in [(KernelMode::Exact, 0.0), (KernelMode::Fast, 1e-9)] {
                let kernels = ScanKernels::new(metric, mode);
                let mut scratch = TileScratch::new();
                let label = format!("{metric:?}/{mode:?}");
                let rows = r
                    .iter()
                    .map(|q| {
                        let (neighbors, evaluated) =
                            block.scan(&q.coords, k, &kernels, &mut scratch);
                        assert_eq!(evaluated, 600, "{label}");
                        JoinRow {
                            r_id: q.id,
                            neighbors,
                        }
                    })
                    .collect();
                let got = JoinResult {
                    rows,
                    metrics: JoinMetrics::default(),
                };
                assert!(
                    got.matches(&oracle, tolerance),
                    "{label}: {:?}",
                    got.mismatch_against(&oracle, tolerance)
                );
            }
        }
    }

    #[test]
    fn works_with_all_metrics() {
        let r = uniform(20, 4, 10.0, 7);
        let s = uniform(20, 4, 10.0, 8);
        for metric in [
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Chebyshev,
        ] {
            let res = NestedLoopJoin.join(&r, &s, 3, metric).unwrap();
            assert_eq!(res.rows.len(), 20);
            // neighbours sorted ascending
            for row in &res.rows {
                assert!(row
                    .neighbors
                    .windows(2)
                    .all(|w| w[0].distance <= w[1].distance));
            }
        }
    }
}
