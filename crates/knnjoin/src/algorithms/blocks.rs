//! The √N × √N block framework shared by H-BRJ and PBJ (Section 3), and the
//! merge job every two-job algorithm ends with.
//!
//! Both baselines split `R` and `S` into `B = ⌊√N⌋` subsets each and give one
//! reducer every pair `(R_i, S_j)`, so each `R` object meets every `S` object
//! across the `B²` reducers.  Because a reducer only sees `1/B` of `S`, the
//! per-cell kNN lists are partial and a second MapReduce job merges them into
//! the global `k` best — exactly the extra job the paper charges to these
//! baselines in its shuffling-cost analysis.  H-zkNNJ's per-copy lists go
//! through the same merge job, under its own merge rule.

use crate::algorithms::common::{
    merge_neighbor_lists, rows_from_output, NeighborListValue, ShuffleRecord,
};
use crate::metrics::{phases, Count, JoinMetrics, Tally};
use crate::plan::JoinPlan;
use crate::result::{JoinError, JoinRow};
use geom::{Neighbor, RecordKind};
use mapreduce::{
    ByteSize, Combiner, IdentityPartitioner, JobBuilder, MapContext, Mapper, ReduceContext, Reducer,
};
use std::time::Instant;

/// Number of blocks per dataset for a given reducer budget: `⌊√N⌋`, at least 1.
pub(crate) fn block_count(reducers: usize) -> usize {
    ((reducers as f64).sqrt().floor() as usize).max(1)
}

/// Emits `value` — `objects` objects of block `block` of dataset `kind` — to
/// the `b` reducer cells where its block meets the other dataset's blocks:
/// `R_i` joins `S_0 … S_{B−1}` along row `i` of the `B × B` grid, `S_j` joins
/// `R_0 … R_{B−1}` down column `j`.  One replica is tallied per object per
/// cell.
pub(crate) fn replicate<V: Clone + ByteSize>(
    ctx: &mut MapContext<u32, V>,
    tally: &Tally,
    kind: RecordKind,
    (block, b): (u32, u32),
    value: &V,
    objects: usize,
) {
    let (row, column) = match kind {
        RecordKind::R => (b, 1),
        RecordKind::S => (1, b),
    };
    for other in 0..b {
        ctx.emit(block * row + other * column, value.clone());
    }
    tally.add(Count::Shuffled(kind), objects as u64 * b as u64);
}

/// Mapper of H-BRJ's block join job: replicate each `R` record across the
/// row of reducer cells for its block and each `S` record across the column.
pub(crate) struct BlockRouteMapper<'a> {
    /// `B`, the number of blocks per dataset.
    pub blocks: usize,
    /// Where the replicas are tallied.
    pub tally: &'a Tally,
}

impl<'a> Mapper for BlockRouteMapper<'a> {
    type KIn = u64;
    type VIn = ShuffleRecord<'a>;
    type KOut = u32;
    type VOut = ShuffleRecord<'a>;

    fn map(&self, key: &u64, value: &Self::VIn, ctx: &mut MapContext<u32, Self::VOut>) {
        let b = self.blocks as u32;
        let block = (key % b as u64) as u32;
        replicate(ctx, self.tally, value.kind, (block, b), value, 1);
    }
}

/// How the merge job folds one `R` object's partial candidate lists into its
/// final `k`: [`merge_neighbor_lists`] for the block algorithms,
/// `zknn::merge_distinct_candidates` for H-zkNNJ.  The two offer candidates
/// in different orders, so they keep different survivors of a distance tie.
pub(crate) type MergeRule = fn(&[NeighborListValue], usize) -> Vec<Neighbor>;

/// Map-side combiner of the merge job: collapse the partial candidate lists a
/// map task holds for one `R` object into a single `k`-bounded list before
/// they cross the shuffle.  Both merge rules are associative, so the
/// [`MergeReducer`] produces the same final list either way.
struct MergeCombiner {
    k: usize,
    merge: MergeRule,
}

impl Combiner for MergeCombiner {
    type K = u64;
    type V = NeighborListValue;

    fn combine(&self, _key: &u64, values: &[NeighborListValue]) -> Vec<NeighborListValue> {
        vec![NeighborListValue::new((self.merge)(values, self.k))]
    }
}

/// Reducer of the merge job: keep the `k` globally best candidates per `R`
/// object.
struct MergeReducer {
    k: usize,
    merge: MergeRule,
}

impl Reducer for MergeReducer {
    type KIn = u64;
    type VIn = NeighborListValue;
    type KOut = u64;
    type VOut = Vec<Neighbor>;

    fn reduce(
        &self,
        key: &u64,
        values: &[NeighborListValue],
        ctx: &mut ReduceContext<u64, Vec<Neighbor>>,
    ) {
        ctx.emit(*key, (self.merge)(values, self.k));
    }
}

/// Runs the two MapReduce jobs of the block framework with the supplied
/// block-routing mapper (objects for H-BRJ, Voronoi cells for PBJ) and
/// per-cell join reducer, recording phase timings and shuffle volume for
/// *both* jobs; what the mapper and reducer tally is the caller's to fold.
/// `workers` is the physical pool size from the caller's execution context.
pub(crate) fn run_block_framework<Map, Red>(
    input: Vec<(Map::KIn, Map::VIn)>,
    plan: &JoinPlan,
    workers: usize,
    route_mapper: &Map,
    join_reducer: &Red,
    metrics: &mut JoinMetrics,
) -> Result<Vec<JoinRow>, JoinError>
where
    Map: Mapper<KOut = u32>,
    Red: Reducer<KIn = u32, VIn = Map::VOut, KOut = u64, VOut = NeighborListValue>,
{
    let blocks = block_count(plan.reducers);

    // ---- Join job: one reducer per (R block, S block) cell -----------------
    let start = Instant::now();
    let join_job = JobBuilder::new("block-join")
        .reducers(blocks * blocks)
        .map_tasks(plan.map_tasks)
        .workers(workers)
        .run_with_partitioner(input, route_mapper, join_reducer, &IdentityPartitioner)
        .map_err(|e| JoinError::substrate("block-join", e))?;
    metrics.record_phase(phases::KNN_JOIN, start.elapsed());
    metrics.absorb_job(&join_job.metrics);

    run_merge_job(
        join_job.output,
        plan,
        workers,
        merge_neighbor_lists,
        metrics,
    )
}

/// The merge job of every two-job algorithm: fold each `R` object's partial
/// candidate lists into its final `k` with `merge`.  When the plan's
/// `combiner` is set, the [`MergeCombiner`] runs map-side, so only
/// `k`-bounded lists cross the shuffle.  The input is already keyed by `R`
/// id, so the job runs without a mapper and moves the lists, never cloning
/// one.
pub(crate) fn run_merge_job(
    input: Vec<(u64, NeighborListValue)>,
    plan: &JoinPlan,
    workers: usize,
    merge: MergeRule,
    metrics: &mut JoinMetrics,
) -> Result<Vec<JoinRow>, JoinError> {
    let start = Instant::now();
    let k = plan.k;
    let merge_job = JobBuilder::new("merge")
        .reducers(plan.reducers)
        .map_tasks(plan.map_tasks)
        .workers(workers)
        .run_keyed(
            input,
            plan.combiner.then_some(&MergeCombiner { k, merge }),
            &MergeReducer { k, merge },
        )
        .map_err(|e| JoinError::substrate("merge", e))?;
    metrics.record_phase(phases::RESULT_MERGING, start.elapsed());
    metrics.absorb_job(&merge_job.metrics);
    Ok(rows_from_output(merge_job.output))
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Point;

    #[test]
    fn block_count_is_floor_sqrt() {
        assert_eq!(block_count(1), 1);
        assert_eq!(block_count(3), 1);
        assert_eq!(block_count(4), 2);
        assert_eq!(block_count(9), 3);
        assert_eq!(block_count(10), 3);
        assert_eq!(block_count(36), 6);
        assert_eq!(block_count(0), 1);
    }

    #[test]
    fn route_mapper_replicates_r_across_row_and_s_across_column() {
        let tally = Tally::default();
        let mapper = BlockRouteMapper {
            blocks: 3,
            tally: &tally,
        };
        let (r_point, s_point) = (Point::new(4, vec![0.0]), Point::new(5, vec![0.0]));
        let r_rec = ShuffleRecord {
            kind: RecordKind::R,
            point: &r_point,
        };
        let s_rec = ShuffleRecord {
            kind: RecordKind::S,
            point: &s_point,
        };

        let mut ctx = MapContext::default();
        mapper.map(&4, &r_rec, &mut ctx);
        let r_cells: Vec<u32> = ctx.emitted().iter().map(|(c, _)| *c).collect();
        // id 4 % 3 = block 1 → cells 3, 4, 5 (row 1)
        assert_eq!(r_cells, vec![3, 4, 5]);
        // Every replica borrows the one input point, not a copy of it.
        assert!(ctx
            .emitted()
            .iter()
            .all(|(_, replica)| std::ptr::eq(replica.point, &r_point)));

        let mut ctx = MapContext::default();
        mapper.map(&5, &s_rec, &mut ctx);
        let s_cells: Vec<u32> = ctx.emitted().iter().map(|(c, _)| *c).collect();
        // id 5 % 3 = block 2 → cells 2, 5, 8 (column 2)
        assert_eq!(s_cells, vec![2, 5, 8]);

        // One replica tallied per emitted record, per kind.
        let mut metrics = JoinMetrics::default();
        metrics.absorb_tally(tally);
        assert_eq!(metrics.r_records_shuffled, 3);
        assert_eq!(metrics.s_records_shuffled, 3);
    }

    #[test]
    fn every_r_block_meets_every_s_block() {
        // For every pair (r, s), exactly one reducer cell receives both.
        let tally = Tally::default();
        let mapper = BlockRouteMapper {
            blocks: 3,
            tally: &tally,
        };
        let cells_of = |id: u64, kind: RecordKind| {
            let point = Point::new(id, vec![0.0]);
            let rec = ShuffleRecord {
                kind,
                point: &point,
            };
            let mut ctx = MapContext::default();
            mapper.map(&id, &rec, &mut ctx);
            ctx.emitted()
                .iter()
                .map(|(c, _)| *c)
                .collect::<std::collections::HashSet<u32>>()
        };
        for r_id in 0..7u64 {
            for s_id in 0..7u64 {
                let shared: Vec<u32> = cells_of(r_id, RecordKind::R)
                    .intersection(&cells_of(s_id, RecordKind::S))
                    .copied()
                    .collect();
                assert_eq!(shared.len(), 1, "r {r_id} s {s_id} share {shared:?}");
            }
        }
    }

    #[test]
    fn merge_reducer_keeps_global_best() {
        let reducer = MergeReducer {
            k: 2,
            merge: merge_neighbor_lists,
        };
        let mut ctx = ReduceContext::default();
        reducer.reduce(
            &7,
            &[
                NeighborListValue::new(vec![Neighbor::new(1, 3.0), Neighbor::new(2, 4.0)]),
                NeighborListValue::new(vec![Neighbor::new(3, 1.0)]),
            ],
            &mut ctx,
        );
        assert_eq!(ctx.emitted().len(), 1);
        let (key, merged) = &ctx.emitted()[0];
        assert_eq!(*key, 7);
        let ids: Vec<u64> = merged.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 1]);
    }
}
