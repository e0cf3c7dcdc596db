//! PGBJ — the Partitioning and Grouping Based kNN Join (Sections 4 and 5).
//!
//! The algorithm runs as a preprocessing step plus two MapReduce jobs:
//!
//! 1. **Front half** ([`partition_job`], shared with PBJ): select pivots from
//!    `R`; job 1 assigns every object of `R ∪ S` to the Voronoi cell of its
//!    closest pivot and emits each cell once, sorted and flat; the driver
//!    reads the summary tables `T_R` / `T_S` off the cells ("index merging"
//!    in Figure 6).
//! 2. **Grouping** (driver): Voronoi cells of `R` are merged into one group
//!    per reducer with the geometric or greedy strategy, and the replica
//!    lower bounds `LB(P_j^S, G_i)` are precomputed (Algorithm 2).
//! 3. **Job 2 — the join**: mappers route every `R` cell to its group and of
//!    every `S` cell, to each group, the suffix its bound cannot exclude
//!    (Theorem 6); each reducer runs the bounded nested-loop join of
//!    Algorithm 3 over its group.
//!
//! This file holds what PGBJ adds to the front half: grouping and
//! replication.

use crate::algorithms::common::{rows_from_output, ScanKernels};
use crate::algorithms::voronoi::{partition_job, ShuffledCell, VoronoiScan};
use crate::bounds::PartitionBounds;
use crate::context::ExecutionContext;
use crate::delta::NO_DELTA;
use crate::grouping::build_grouping;
use crate::metrics::{phases, Count, JoinMetrics, Tally};
use crate::plan::JoinPlan;
use crate::result::{JoinError, JoinRow};
use crate::summary::SummaryTables;
use geom::{Neighbor, NeighborList, PointSet, RecordKind};
use mapreduce::{IdentityPartitioner, JobBuilder, MapContext, Mapper, ReduceContext, Reducer};
use std::sync::Arc;
use std::time::Instant;

/// Runs cold PGBJ for a validated `plan` over validated inputs.
pub(crate) fn join(
    plan: &JoinPlan,
    r: &PointSet,
    s: &PointSet,
    ctx: &ExecutionContext,
    metrics: &mut JoinMetrics,
) -> Result<Vec<JoinRow>, JoinError> {
    let (tables, cells) = partition_job(plan, r, s, ctx, metrics)?;

    // ---- Grouping and replica bounds (Algorithm 2) -------------------------
    let start = Instant::now();
    let bounds = PartitionBounds::compute(&tables, plan.k);
    let grouping = build_grouping(plan.grouping_strategy, &tables, &bounds, plan.reducers);
    let group_lb = bounds.group_lower_bounds(&grouping);
    let group_of = grouping.group_of(tables.partition_count());
    metrics.record_phase(phases::PARTITION_GROUPING, start.elapsed());

    // ---- Job 2: the kNN join (Algorithm 3) ----------------------------------
    let start = Instant::now();
    let tally = Tally::default();
    let job = JobBuilder::new("pgbj-join")
        .reducers(grouping.group_count())
        .map_tasks(plan.map_tasks)
        .workers(ctx.workers())
        .run_with_partitioner(
            cells,
            &RouteMapper {
                group_of,
                group_lb,
                tally: &tally,
            },
            &PgbjJoinReducer {
                tables,
                theta: bounds.theta,
                k: plan.k,
                kernels: ScanKernels::new(plan.metric),
                tally: &tally,
            },
            &IdentityPartitioner,
        )
        .map_err(|e| JoinError::substrate("pgbj-join", e))?;
    metrics.record_phase(phases::KNN_JOIN, start.elapsed());
    metrics.absorb_job(&job.metrics);
    metrics.absorb_tally(tally);
    Ok(rows_from_output(job.output))
}

/// Mapper of job 2 (Algorithm 3, lines 3–11), a cell at a time: an `R` cell
/// goes whole to the reducer of its group; of an `S` cell every group gets
/// the rows its lower bound admits — `|s, p_j| ≥ LB(P_j^S, G)`, a suffix of
/// the sorted cell ([`crate::algorithms::voronoi::CellSlice::at_least`]).
struct RouteMapper<'a> {
    group_of: Vec<usize>,
    group_lb: Vec<Vec<f64>>,
    tally: &'a Tally,
}

impl Mapper for RouteMapper<'_> {
    type KIn = u32;
    type VIn = ShuffledCell;
    type KOut = u32;
    type VOut = ShuffledCell;

    fn map(&self, _cell: &u32, value: &ShuffledCell, ctx: &mut MapContext<u32, ShuffledCell>) {
        let partition = value.partition as usize;
        match value.kind {
            RecordKind::R => {
                let objects = value.rows.len() as u64;
                self.tally.add(Count::Shuffled(RecordKind::R), objects);
                ctx.emit(self.group_of[partition] as u32, value.clone());
            }
            RecordKind::S => {
                let mut replicas = 0;
                for (group, bounds) in self.group_lb.iter().enumerate() {
                    let rows = value.rows.at_least(bounds[partition]);
                    if !rows.is_empty() {
                        replicas += rows.len() as u64;
                        ctx.emit(group as u32, ShuffledCell { rows, ..*value });
                    }
                }
                self.tally.add(Count::Shuffled(RecordKind::S), replicas);
            }
        }
    }
}

/// Reducer of job 2 (Algorithm 3, lines 12–25): the bounded, pruned
/// nested-loop kNN join for one group, over the `S` suffixes Theorem 6
/// routed here, with the global Algorithm 1 bound as `θ_i`.
struct PgbjJoinReducer<'a> {
    tables: Arc<SummaryTables>,
    theta: Vec<f64>,
    k: usize,
    kernels: ScanKernels,
    tally: &'a Tally,
}

impl Reducer for PgbjJoinReducer<'_> {
    type KIn = u32;
    type VIn = ShuffledCell;
    type KOut = u64;
    type VOut = Vec<Neighbor>;

    fn reduce(
        &self,
        _group: &u32,
        values: &[ShuffledCell],
        ctx: &mut ReduceContext<u64, Vec<Neighbor>>,
    ) {
        let computations = VoronoiScan::new(&self.tables, self.k, self.kernels, &NO_DELTA)
            .join_cells(
                values,
                |i, _| self.theta[i],
                |r_id, list| {
                    let answer = std::mem::replace(list, NeighborList::new(self.k));
                    ctx.emit(r_id, answer.into_sorted());
                },
            );
        self.tally.add(Count::Distances, computations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testing::{assert_matches_oracle, run};
    use crate::grouping::GroupingStrategy;
    use crate::pivots::PivotSelectionStrategy;
    use crate::Algorithm::Pgbj;
    use datagen::{gaussian_clusters, uniform, ClusterConfig};
    use geom::DistanceMetric;
    use proptest::prelude::*;

    const EUCLIDEAN: DistanceMetric = DistanceMetric::Euclidean;

    fn clustered(n: usize, dims: usize, seed: u64) -> PointSet {
        gaussian_clusters(
            &ClusterConfig {
                n_points: n,
                dims,
                n_clusters: 6,
                std_dev: 4.0,
                extent: 200.0,
                skew: 0.6,
            },
            seed,
        )
    }

    #[test]
    fn matches_exact_on_clustered_data() {
        let r = clustered(400, 2, 1);
        let s = clustered(500, 2, 2);
        assert_matches_oracle(Pgbj, &r, &s, 10, EUCLIDEAN, |b| {
            b.pivot_count(24).reducers(4)
        });
    }

    #[test]
    fn matches_exact_on_uniform_high_dim() {
        let r = uniform(250, 6, 100.0, 3);
        let s = uniform(300, 6, 100.0, 4);
        assert_matches_oracle(Pgbj, &r, &s, 5, EUCLIDEAN, |b| {
            b.pivot_count(16).reducers(3)
        });
    }

    #[test]
    fn matches_exact_for_self_join() {
        let data = clustered(350, 3, 5);
        assert_matches_oracle(Pgbj, &data, &data, 8, EUCLIDEAN, |b| {
            b.pivot_count(20).reducers(5)
        });
    }

    #[test]
    fn matches_exact_with_greedy_grouping_and_other_strategies() {
        let r = clustered(250, 2, 7);
        let s = clustered(250, 2, 8);
        for strategy in [
            PivotSelectionStrategy::Farthest,
            PivotSelectionStrategy::KMeans { iterations: 4 },
        ] {
            assert_matches_oracle(Pgbj, &r, &s, 6, EUCLIDEAN, |b| {
                b.pivot_count(12)
                    .reducers(3)
                    .pivot_strategy(strategy)
                    .grouping_strategy(GroupingStrategy::Greedy)
            });
        }
    }

    #[test]
    fn matches_exact_when_k_exceeds_s() {
        let r = uniform(40, 2, 50.0, 9);
        let s = uniform(6, 2, 50.0, 10);
        assert_matches_oracle(Pgbj, &r, &s, 10, EUCLIDEAN, |b| {
            b.pivot_count(4).reducers(2)
        });
    }

    #[test]
    fn matches_exact_with_manhattan_metric() {
        let r = clustered(200, 2, 11);
        let s = clustered(220, 2, 12);
        assert_matches_oracle(Pgbj, &r, &s, 7, DistanceMetric::Manhattan, |b| {
            b.pivot_count(16).reducers(4)
        });
    }

    #[test]
    fn single_reducer_and_single_pivot_edge_cases() {
        let r = uniform(80, 2, 30.0, 13);
        let s = uniform(90, 2, 30.0, 14);
        for (pivots, reducers) in [(1, 1), (40, 1), (1, 8)] {
            assert_matches_oracle(Pgbj, &r, &s, 4, EUCLIDEAN, |b| {
                b.pivot_count(pivots).reducers(reducers)
            });
        }
    }

    #[test]
    fn metrics_are_populated() {
        let r = clustered(300, 2, 15);
        let s = clustered(300, 2, 16);
        let res = run(Pgbj, &r, &s, 10, EUCLIDEAN, |b| {
            b.pivot_count(20).reducers(4)
        });
        let m = &res.metrics;
        assert_eq!(m.r_size, 300);
        assert_eq!(m.s_size, 300);
        assert_eq!(m.r_records_shuffled, 300);
        assert!(
            m.s_records_shuffled >= 300,
            "every S object reaches at least one group"
        );
        assert!(m.distance_computations > 0);
        // Job 1 accounts its pruned pivot-assignment work: at least one
        // computation per object, at most the nominal |R ∪ S| · |P| budget.
        assert!(m.pivot_assignment_computations >= 600);
        assert!(m.pivot_assignment_computations <= 600 * 20);
        assert!(m.shuffle_bytes > 0);
        assert!(m.computation_selectivity() > 0.0 && m.computation_selectivity() <= 1.1);
        assert!(m.average_replication() >= 1.0);
        // All five PGBJ phases must be present.
        for phase in [
            phases::PIVOT_SELECTION,
            phases::DATA_PARTITIONING,
            phases::INDEX_MERGING,
            phases::PARTITION_GROUPING,
            phases::KNN_JOIN,
        ] {
            assert!(
                m.phase_times.iter().any(|(n, _)| n == phase),
                "missing phase {phase}"
            );
        }
    }

    #[test]
    fn job1_combiner_strictly_reduces_shuffle_volume() {
        let r = clustered(300, 2, 19);
        let s = clustered(300, 2, 20);
        let res = run(Pgbj, &r, &s, 5, EUCLIDEAN, |b| {
            b.pivot_count(20).reducers(4)
        });
        // Every job-1 record entered the combiner; fewer batches left it.
        let m = &res.metrics;
        assert_eq!(m.combine_input_records, 600);
        assert!(
            m.combine_output_records < 600,
            "{} batches",
            m.combine_output_records
        );
    }

    #[test]
    fn metrics_cover_both_jobs() {
        // The partitioning job shuffles every object of R ∪ S once; its
        // volume must be part of the reported shuffling cost (it used to be
        // silently dropped).
        let r = clustered(200, 2, 21);
        let s = clustered(250, 2, 22);
        let res = run(Pgbj, &r, &s, 5, EUCLIDEAN, |b| {
            b.pivot_count(16).reducers(4)
        });
        let m = &res.metrics;
        // Job 1 ships the batches its combiner let through, one record each,
        // after every object entered it; job 2 ships the routed records.
        assert_eq!(m.combine_input_records, (r.len() + s.len()) as u64);
        let job2_records = m.r_records_shuffled + m.s_records_shuffled;
        assert_eq!(m.shuffle_records, m.combine_output_records + job2_records);
    }

    #[test]
    fn pruning_reduces_selectivity_versus_exhaustive() {
        let r = clustered(400, 2, 17);
        let s = clustered(400, 2, 18);
        let res = run(Pgbj, &r, &s, 10, EUCLIDEAN, |b| {
            b.pivot_count(32).reducers(8)
        });
        // The whole point of PGBJ: far fewer than |R|·|S| distance
        // computations on clustered data.
        assert!(
            res.metrics.computation_selectivity() < 0.7,
            "selectivity {} shows no pruning",
            res.metrics.computation_selectivity()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// The central correctness property: PGBJ equals the exact join for
        /// arbitrary data, k, pivot counts and reducer counts.
        #[test]
        fn pgbj_equals_exact_join(
            n_r in 10usize..120,
            n_s in 10usize..120,
            k in 1usize..12,
            pivot_count in 1usize..16,
            reducers in 1usize..6,
            dims in 1usize..4,
            seed in 0u64..200,
            which_metric in 0usize..3,
        ) {
            let r = uniform(n_r, dims, 100.0, seed);
            let s = uniform(n_s, dims, 100.0, seed ^ 0x5555);
            let metric = [
                DistanceMetric::Euclidean,
                DistanceMetric::Manhattan,
                DistanceMetric::Chebyshev,
            ][which_metric];
            assert_matches_oracle(Pgbj, &r, &s, k, metric, |b| {
                b.pivot_count(pivot_count.min(n_r).min(n_s))
                    .reducers(reducers)
                    .map_tasks(3)
            });
        }
    }
}
