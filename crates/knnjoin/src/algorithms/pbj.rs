//! PBJ — partitioning-based join without grouping (Section 6 of the paper).
//!
//! PBJ keeps the Voronoi partitioning and all of PGBJ's distance bounds, but
//! drops the grouping step: after the same front half as PGBJ
//! ([`partition_job`]: pivots, the partitioning job, `T_R` / `T_S`), it
//! splits `R` and `S` into `B = ⌊√N⌋` random blocks like H-BRJ, joins every
//! `(R_i, S_j)` pair on one reducer, and merges the partial results with a
//! further MapReduce job.  Inside a reducer, the summary
//! tables are used to derive a (necessarily looser, because the local `S`
//! block is a random sample of `S`) kNN distance bound and to prune candidate
//! partitions and objects — exactly the behaviour the paper uses to isolate
//! how much of PGBJ's win comes from the grouping versus the bounds.

use crate::algorithms::blocks::{block_count, replicate, run_block_framework};
use crate::algorithms::common::{CellRun, ScanKernels};
use crate::algorithms::voronoi::{partition_job, CellMap, ShuffledCell, VoronoiScan};
use crate::bounds::upper_bound;
use crate::context::ExecutionContext;
use crate::delta::NO_DELTA;
use crate::metrics::{Count, JoinMetrics, Tally};
use crate::plan::JoinPlan;
use crate::result::{JoinError, JoinRow};
use crate::summary::SummaryTables;
use geom::{PointSet, RecordKind};
use mapreduce::{MapContext, Mapper, ReduceContext, Reducer};
use std::sync::Arc;

/// Runs cold PBJ for a validated `plan` over validated inputs.
pub(crate) fn join(
    plan: &JoinPlan,
    r: &PointSet,
    s: &PointSet,
    ctx: &ExecutionContext,
    metrics: &mut JoinMetrics,
) -> Result<Vec<JoinRow>, JoinError> {
    let (tables, cells) = partition_job(plan, r, s, ctx, metrics)?;
    // ---- Block join + merge (no grouping phase) -----------------------------
    let tally = Tally::default();
    let rows = run_block_framework(
        cells,
        plan,
        ctx.workers(),
        &BlockCellMapper {
            blocks: block_count(plan.reducers),
            tally: &tally,
        },
        &PbjCellReducer {
            tables,
            k: plan.k,
            kernels: ScanKernels::new(plan.metric),
            tally: &tally,
        },
        metrics,
    );
    metrics.absorb_tally(tally);
    rows
}

/// Mapper of PBJ's block join job: the block framework's random split, a
/// Voronoi cell at a time.  Each sorted cell is split once into its `B`
/// `id mod B` sub-cells, and each sub-cell is shipped, shared, along its row
/// or column of the reducer grid like an object of that block.
struct BlockCellMapper<'a> {
    /// `B`, the number of blocks per dataset.
    blocks: usize,
    tally: &'a Tally,
}

impl Mapper for BlockCellMapper<'_> {
    type KIn = u32;
    type VIn = ShuffledCell;
    type KOut = u32;
    type VOut = ShuffledCell;

    fn map(&self, _cell: &u32, value: &ShuffledCell, ctx: &mut MapContext<u32, ShuffledCell>) {
        let b = self.blocks as u32;
        for (block, rows) in (0..b).zip(value.rows.split_by_id(self.blocks)) {
            if !rows.is_empty() {
                let objects = rows.len();
                let sub_cell = ShuffledCell { rows, ..*value };
                replicate(ctx, self.tally, value.kind, (block, b), &sub_cell, objects);
            }
        }
    }
}

/// Reducer for one `(R_i, S_j)` cell: bounded, pruned nested-loop join using
/// the Voronoi summary tables, but over a random block of `S`.
struct PbjCellReducer<'a> {
    tables: Arc<SummaryTables>,
    k: usize,
    kernels: ScanKernels,
    tally: &'a Tally,
}

impl PbjCellReducer<'_> {
    /// Derives a kNN-distance bound for the objects of one `R` partition from
    /// the `S` objects this reducer actually received (the "looser bound" the
    /// paper attributes to PBJ): the `k`-th smallest `ub(s, P_i^R)` over the
    /// local block.  A cell's rows ascend by pivot distance and `ub` is
    /// monotone in it, so only a cell's first `k` rows can be among the `k`
    /// smallest.  `ubs` is the reduce call's scratch, cleared here.
    fn local_theta(&self, r_partition: usize, s_parts: &CellMap, ubs: &mut Vec<f64>) -> f64 {
        let u_r = self.tables.r_summaries[r_partition].upper;
        ubs.clear();
        for (j, cell) in s_parts.iter() {
            let pivot_dist = self.tables.pivot_distance(r_partition, j);
            let nearest = &cell.pivot_dists()[..self.k.min(cell.len())];
            ubs.extend(nearest.iter().map(|d| upper_bound(u_r, pivot_dist, *d)));
        }
        if ubs.len() < self.k {
            return f64::INFINITY;
        }
        *ubs.select_nth_unstable_by(self.k - 1, f64::total_cmp).1
    }
}

impl Reducer for PbjCellReducer<'_> {
    type KIn = u32;
    type VIn = ShuffledCell;
    type KOut = u32;
    type VOut = CellRun;

    fn reduce(&self, cell: &u32, values: &[ShuffledCell], ctx: &mut ReduceContext<u32, CellRun>) {
        let rows = |kind| -> usize {
            values
                .iter()
                .filter(|value| value.kind == kind)
                .map(|value| value.rows.len())
                .sum()
        };
        let r_rows = rows(RecordKind::R);
        if r_rows == 0 {
            return;
        }
        let mut run = CellRun::with_capacity(r_rows, self.k.min(rows(RecordKind::S)));
        let mut ubs = Vec::new();
        let computations = VoronoiScan::new(&self.tables, self.k, self.kernels, &NO_DELTA)
            .join_cells(
                values,
                |i, s_parts| self.local_theta(i, s_parts, &mut ubs),
                |r_id, list| run.push(r_id, list.as_slice()),
            );
        self.tally.add(Count::Distances, computations);
        ctx.emit(*cell, run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testing::{assert_matches_oracle, run};
    use crate::algorithms::voronoi::{CellSlice, FlatPartition};
    use crate::metrics::phases;
    use crate::partition::VoronoiPartitioner;
    use crate::pivots::{select_pivots, PivotSelectionStrategy};
    use crate::Algorithm::{Hbrj, Pbj, Pgbj};
    use datagen::{gaussian_clusters, uniform, ClusterConfig};
    use geom::DistanceMetric;
    use proptest::prelude::*;

    const EUCLIDEAN: DistanceMetric = DistanceMetric::Euclidean;

    fn clustered(n: usize, seed: u64) -> PointSet {
        gaussian_clusters(
            &ClusterConfig {
                n_points: n,
                dims: 2,
                n_clusters: 5,
                std_dev: 5.0,
                extent: 150.0,
                skew: 0.5,
            },
            seed,
        )
    }

    #[test]
    fn matches_exact_on_clustered_data() {
        let r = clustered(300, 1);
        let s = clustered(350, 2);
        assert_matches_oracle(Pbj, &r, &s, 10, EUCLIDEAN, |b| {
            b.pivot_count(24).reducers(9)
        });
    }

    #[test]
    fn matches_exact_on_high_dimensional_uniform_data() {
        let r = uniform(200, 5, 80.0, 3);
        let s = uniform(220, 5, 80.0, 4);
        assert_matches_oracle(Pbj, &r, &s, 6, EUCLIDEAN, |b| b.pivot_count(12).reducers(4));
    }

    #[test]
    fn matches_exact_for_self_join() {
        let data = clustered(250, 5);
        assert_matches_oracle(Pbj, &data, &data, 8, EUCLIDEAN, |b| {
            b.pivot_count(16).reducers(6)
        });
    }

    #[test]
    fn matches_exact_when_k_exceeds_s() {
        let r = uniform(40, 2, 30.0, 6);
        let s = uniform(7, 2, 30.0, 7);
        assert_matches_oracle(Pbj, &r, &s, 12, EUCLIDEAN, |b| b.pivot_count(3).reducers(4));
    }

    #[test]
    fn phases_and_metrics_are_populated() {
        let r = clustered(200, 8);
        let s = clustered(200, 9);
        let res = run(Pbj, &r, &s, 5, EUCLIDEAN, |b| b.pivot_count(16).reducers(9));
        let m = &res.metrics;
        // √9 = 3 blocks: every object is replicated 3 times.
        assert_eq!(m.r_records_shuffled, 600);
        assert_eq!(m.s_records_shuffled, 600);
        assert!(m.distance_computations > 0);
        assert!(m.shuffle_bytes > 0);
        for phase in [
            phases::PIVOT_SELECTION,
            phases::DATA_PARTITIONING,
            phases::INDEX_MERGING,
            phases::KNN_JOIN,
            phases::RESULT_MERGING,
        ] {
            assert!(
                m.phase_times.iter().any(|(n, _)| n == phase),
                "missing {phase}"
            );
        }
        // PBJ must not have a grouping phase.
        assert_eq!(
            m.phase(phases::PARTITION_GROUPING),
            std::time::Duration::ZERO
        );
        // Same front half as PGBJ under one plan, so the same assignment bill.
        let pgbj = run(Pgbj, &r, &s, 5, EUCLIDEAN, |b| {
            b.pivot_count(16).reducers(9)
        });
        assert!(m.pivot_assignment_computations >= 400);
        assert_eq!(
            m.pivot_assignment_computations,
            pgbj.metrics.pivot_assignment_computations
        );
        // Past job 1's batches, every shuffled record is one object or one
        // partial list: PBJ ships what the block framework alone ships (join
        // job + merge job, H-BRJ under the same plan) plus those batches.
        let hbrj = run(Hbrj, &r, &s, 5, EUCLIDEAN, |b| {
            b.pivot_count(16).reducers(9)
        });
        assert_eq!(
            m.shuffle_records,
            hbrj.metrics.shuffle_records + m.combine_output_records
        );
    }

    #[test]
    fn pruning_beats_exhaustive_scanning_within_cells() {
        let r = clustered(400, 10);
        let s = clustered(400, 11);
        let res = run(Pbj, &r, &s, 10, EUCLIDEAN, |b| {
            b.pivot_count(32).reducers(4)
        });
        // Exhaustive block join would compute |R|·|S| = 160000 pairs (every
        // pair meets in exactly one cell); the bounds must cut that down.
        assert!(
            res.metrics.distance_computations < 160_000,
            "no pruning: {} computations",
            res.metrics.distance_computations
        );
    }

    /// `local_theta` reads only each cell's first `k` rows; the value is the
    /// `k`-th smallest `ub` over *every* row of the block (what a full sort
    /// gives), bit for bit, for `k` below, at and above the smallest cell's
    /// size, and `∞` once the block holds fewer than `k` objects, with one
    /// scratch buffer reused across every call.
    #[test]
    fn local_theta_is_the_kth_smallest_upper_bound_of_the_whole_block() {
        let r = clustered(120, 12);
        let s = clustered(90, 13);
        let pivots = select_pivots(&r, 7, PivotSelectionStrategy::default(), 1000, EUCLIDEAN, 3);
        let partitioner = VoronoiPartitioner::new(pivots.clone(), EUCLIDEAN);
        let (partitioned_r, partitioned_s) = (partitioner.partition(&r), partitioner.partition(&s));
        let cells = partitioned_s
            .partitions
            .iter()
            .enumerate()
            .filter(|(_, bucket)| !bucket.is_empty())
            .map(|(j, bucket)| {
                let rows = bucket
                    .iter()
                    .map(|(p, dist)| (*dist, p.id, p.coords.as_slice()));
                (j, CellSlice::whole(FlatPartition::sorted(rows.collect())))
            });
        let s_parts = CellMap::of(pivots.len(), cells);
        let smallest = s_parts.iter().map(|(_, cell)| cell.len()).min().unwrap();
        assert!(
            smallest > 1 && s_parts.iter().count() > 2,
            "fixture lost its shape"
        );
        let mut scratch = Vec::new();
        for k in [
            1,
            smallest - 1,
            smallest,
            smallest + 1,
            40,
            s.len(),
            s.len() + 1,
        ] {
            let tables = Arc::new(SummaryTables::build(
                pivots.clone(),
                EUCLIDEAN,
                &partitioned_r,
                &partitioned_s,
                k,
            ));
            let reducer = PbjCellReducer {
                tables: Arc::clone(&tables),
                k,
                kernels: ScanKernels::new(EUCLIDEAN),
                tally: &Tally::default(),
            };
            for i in 0..pivots.len() {
                let mut ubs: Vec<f64> = Vec::new();
                for (j, cell) in s_parts.iter() {
                    for d in cell.pivot_dists() {
                        let pivot_dist = tables.pivot_distance(i, j);
                        ubs.push(upper_bound(tables.r_summaries[i].upper, pivot_dist, *d));
                    }
                }
                ubs.sort_by(f64::total_cmp);
                let want = ubs.get(k - 1).copied().unwrap_or(f64::INFINITY);
                assert_eq!(
                    reducer.local_theta(i, &s_parts, &mut scratch).to_bits(),
                    want.to_bits(),
                    "k {k}, R partition {i}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn pbj_equals_exact_join(
            n_r in 10usize..100,
            n_s in 10usize..100,
            k in 1usize..10,
            pivot_count in 1usize..12,
            reducers in 1usize..10,
            seed in 0u64..100,
            which_metric in 0usize..3,
        ) {
            let r = uniform(n_r, 2, 80.0, seed);
            let s = uniform(n_s, 2, 80.0, seed ^ 0x99);
            let metric = [
                DistanceMetric::Euclidean,
                DistanceMetric::Manhattan,
                DistanceMetric::Chebyshev,
            ][which_metric];
            assert_matches_oracle(Pbj, &r, &s, k, metric, |b| {
                b.pivot_count(pivot_count.min(n_r).min(n_s))
                    .reducers(reducers)
                    .map_tasks(3)
            });
        }
    }
}
