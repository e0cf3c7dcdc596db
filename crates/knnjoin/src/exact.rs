//! Exact single-machine kNN join (the correctness oracle) and the flat
//! exhaustive scan behind every prune-free path.
//!
//! The "naive implementation" the paper's introduction describes: for every
//! `r ∈ R`, scan all of `S` and keep the `k` closest objects — `O(|R|·|S|)`
//! distance computations.  [`NestedLoopJoin::join`] is used by tests and
//! benchmarks as ground truth and as the centralized baseline that motivates
//! distributing the join, and shares no kernel with what it checks;
//! `FlatBlock` is the same scan over the column kernels, for the broadcast
//! join of §3, [`Algorithm::NestedLoopJoin`], H-zkNNJ's windows and the
//! delta overlay's adds.
//!
//! [`Algorithm::NestedLoopJoin`]: crate::Algorithm::NestedLoopJoin

use crate::algorithms::common::{ScanKernels, TileScratch};
use crate::metrics::{phases, JoinMetrics};
use crate::plan::JoinPlan;
use crate::result::{JoinError, JoinResult, JoinRow};
use geom::kernels::PROBE_TILE;
use geom::{CoordMatrix, DistanceMetric, Neighbor, NeighborList, PointId, PointSet};
use std::ops::Range;
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

/// A block of `S` rows laid out for exhaustive scanning: the ids, and the
/// coordinates column-major — coordinate `d` of row `i` at
/// `columns[d * len + i]` — so [`Self::offer`] ranks a run of rows with the
/// column kernel, the one every scan uses.  A broadcast reducer builds one
/// from its shuffled records, the nested-loop join from `S`, an H-zkNNJ
/// reducer from its z-sorted slab, and the delta overlay holds its adds in
/// one.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FlatBlock {
    ids: Vec<PointId>,
    columns: Vec<f64>,
}

impl FlatBlock {
    /// The block of no rows.
    pub(crate) const EMPTY: Self = Self {
        ids: Vec::new(),
        columns: Vec::new(),
    };

    /// Lays `(id, coordinates)` rows out in order, one column at a time.
    pub(crate) fn new<'p>(rows: impl IntoIterator<Item = (PointId, &'p [f64])>) -> Self {
        let rows: Vec<(PointId, &[f64])> = rows.into_iter().collect();
        let dims = rows.first().map_or(0, |(_, row)| row.len());
        let mut columns = Vec::with_capacity(dims * rows.len());
        for d in 0..dims {
            columns.extend(rows.iter().map(|(_, row)| row[d]));
        }
        let ids = rows.iter().map(|(id, _)| *id).collect();
        Self { ids, columns }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The row ids, in row order.
    pub(crate) fn ids(&self) -> &[PointId] {
        &self.ids
    }

    /// Coordinates per row (0 while the block is empty).
    fn dims(&self) -> usize {
        self.columns.len().checked_div(self.len()).unwrap_or(0)
    }

    /// Coordinate `d` of every row, in row order.
    pub(crate) fn column(&self, d: usize) -> &[f64] {
        let n = self.len();
        &self.columns[d * n..(d + 1) * n]
    }

    /// Row `i`'s coordinates, gathered from the columns.
    pub(crate) fn row(&self, i: usize) -> Vec<f64> {
        (0..self.dims()).map(|d| self.column(d)[i]).collect()
    }

    /// The block with the rows `cut` replaced by `row` (by nothing when it
    /// is `None`), laid out in one pass: each array is written once, and
    /// `self` is left as it is.
    pub(crate) fn spliced(&self, cut: Range<usize>, row: Option<(PointId, &[f64])>) -> Self {
        let dims = row.map_or(self.dims(), |(_, coords)| coords.len());
        let n = self.len() - cut.len() + usize::from(row.is_some());
        let mut ids = Vec::with_capacity(n);
        splice_into(&mut ids, &self.ids, cut.clone(), row.map(|(id, _)| id));
        let mut columns = Vec::with_capacity(dims * n);
        for d in 0..dims {
            let value = row.map(|(_, coords)| coords[d]);
            splice_into(&mut columns, self.column(d), cut.clone(), value);
        }
        Self { ids, columns }
    }

    /// The cold [`crate::Algorithm::NestedLoopJoin`]: `S` laid out once and
    /// every `R` object scanned on the calling thread.
    pub(crate) fn join(
        plan: &JoinPlan,
        r: &PointSet,
        s: &PointSet,
        metrics: &mut JoinMetrics,
    ) -> Vec<JoinRow> {
        let kernels = ScanKernels::new(plan.metric);
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
    /// rows evaluated: all of them ([`Self::offer`] over the whole block).
    pub(crate) fn scan(
        &self,
        query: &[f64],
        k: usize,
        kernels: &ScanKernels,
        scratch: &mut TileScratch,
    ) -> (Vec<Neighbor>, u64) {
        let mut neighbors = NeighborList::new(k);
        let evaluated = self.offer(query, 0..self.len(), kernels, scratch, &mut neighbors);
        (neighbors.into_sorted(), evaluated)
    }

    /// Ranks `rows` against `query`, [`PROBE_TILE`] rows per call of
    /// `kernels.columns`, and offers each tile to `list` as ranks
    /// ([`NeighborList::offer_ranks`]).  Returns the rows evaluated: all of
    /// `rows`.
    pub(crate) fn offer(
        &self,
        query: &[f64],
        rows: Range<usize>,
        kernels: &ScanKernels,
        scratch: &mut TileScratch,
        list: &mut NeighborList,
    ) -> u64 {
        for first in rows.clone().step_by(PROBE_TILE) {
            let last = (first + PROBE_TILE).min(rows.end);
            let ranks = &mut scratch.ranks[..last - first];
            (kernels.columns)(query, &self.columns, self.len(), first, ranks);
            list.offer_ranks(&self.ids[first..last], ranks, &[], kernels.metric);
        }
        rows.len() as u64
    }
}

/// Appends `old` with its elements `cut` replaced by `new` to `out`.
pub(crate) fn splice_into<T: Copy>(out: &mut Vec<T>, old: &[T], cut: Range<usize>, new: Option<T>) {
    out.extend_from_slice(&old[..cut.start]);
    out.extend(new);
    out.extend_from_slice(&old[cut.end..]);
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

    /// `FlatBlock::scan` is the oracle's scan over the column kernel: over
    /// any block — 600 rows, so tiles end inside it — it answers what
    /// `NestedLoopJoin::join` answers bit for bit, and bills every row of
    /// the block.
    #[test]
    fn flat_block_scan_equals_the_oracle() {
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
            let kernels = ScanKernels::new(metric);
            let mut scratch = TileScratch::new();
            let rows = r
                .iter()
                .map(|q| {
                    let (neighbors, evaluated) = block.scan(&q.coords, k, &kernels, &mut scratch);
                    assert_eq!(evaluated, 600, "{metric:?}");
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
                got.matches(&oracle, 0.0),
                "{metric:?}: {:?}",
                got.mismatch_against(&oracle, 0.0)
            );
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
