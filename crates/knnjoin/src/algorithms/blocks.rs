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
    merge_neighbor_lists, rows_from_output, CellRun, PartialList, ShuffleRecord,
};
use crate::metrics::{phases, Count, JoinMetrics, Tally};
use crate::plan::JoinPlan;
use crate::result::{JoinError, JoinRow};
use geom::{Neighbor, RecordKind};
use mapreduce::{
    ByteSize, IdentityPartitioner, JobBuilder, MapContext, Mapper, ReduceContext, Reducer,
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
pub(crate) type MergeRule = fn(&[PartialList<'_>], usize) -> Vec<Neighbor>;

/// Reducer of the merge job: keep the `k` globally best candidates per `R`
/// object.  The merged list is the only allocation it makes: the join row.
struct MergeReducer<'a> {
    k: usize,
    /// The [`MergeRule`], at the lifetime of the lists it merges.
    merge: fn(&[PartialList<'a>], usize) -> Vec<Neighbor>,
}

impl<'a> Reducer for MergeReducer<'a> {
    type KIn = u64;
    type VIn = PartialList<'a>;
    type KOut = u64;
    type VOut = Vec<Neighbor>;

    fn reduce(
        &self,
        key: &u64,
        values: &[PartialList<'a>],
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
    Red: Reducer<KIn = u32, VIn = Map::VOut, KOut = u32, VOut = CellRun>,
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
        &join_job.output,
        plan,
        workers,
        merge_neighbor_lists,
        metrics,
    )
}

/// The merge job of every two-job algorithm: fold each `R` object's partial
/// candidate lists into its final `k` with `merge`.  The input is the first
/// job's per-cell [`CellRun`]s, in that job's output order; every list in
/// them becomes one `(r id, PartialList)` record, in run order, so no list
/// is copied and each is charged one record of `4 + 16·len` bytes.  The
/// records are already keyed by `R` id, so the job runs without a mapper.
/// It runs without a combiner too: an `r`'s lists come from different cells
/// and, at the default `map_tasks`, land in different map splits, so a
/// map-side merge would only pass each one through.
pub(crate) fn run_merge_job(
    runs: &[(u32, CellRun)],
    plan: &JoinPlan,
    workers: usize,
    merge: MergeRule,
    metrics: &mut JoinMetrics,
) -> Result<Vec<JoinRow>, JoinError> {
    let start = Instant::now();
    let input: Vec<(u64, PartialList<'_>)> = runs
        .iter()
        .flat_map(|(_, run)| run.lists())
        .map(|(r_id, list)| (r_id, PartialList(list)))
        .collect();
    let merge_job = JobBuilder::new("merge")
        .reducers(plan.reducers)
        .map_tasks(plan.map_tasks)
        .workers(workers)
        .run_keyed(input, &MergeReducer { k: plan.k, merge })
        .map_err(|e| JoinError::substrate("merge", e))?;
    metrics.record_phase(phases::RESULT_MERGING, start.elapsed());
    metrics.absorb_job(&merge_job.metrics);
    Ok(rows_from_output(merge_job.output))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::zknn::merge_distinct_candidates;
    use geom::{NeighborList, Point, PointId};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

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
                PartialList(&[Neighbor::new(1, 3.0), Neighbor::new(2, 4.0)]),
                PartialList(&[Neighbor::new(3, 1.0)]),
            ],
            &mut ctx,
        );
        assert_eq!(ctx.emitted().len(), 1);
        let (key, merged) = &ctx.emitted()[0];
        assert_eq!(*key, 7);
        let ids: Vec<u64> = merged.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 1]);
    }

    /// A list as a reducer cell produces it: up to `k` of `2k + 2` random
    /// candidates (ids below 40, distinct) offered into a `NeighborList`,
    /// on a grid of six distances so that ties are everywhere.
    fn cell_list(rng: &mut TestRng, k: usize) -> Vec<Neighbor> {
        let mut list = NeighborList::new(k);
        let mut seen = BTreeSet::new();
        for _ in 0..rng.below(2 * k as u128 + 3) {
            let id = rng.below(40) as PointId;
            if seen.insert(id) {
                list.offer(id, rng.below(6) as f64 * 0.5);
            }
        }
        list.into_sorted()
    }

    fn bits(list: &[Neighbor]) -> Vec<(PointId, u64)> {
        list.iter().map(|n| (n.id, n.distance.to_bits())).collect()
    }

    /// The merge job as the engine defines it, over owned lists: splits are
    /// contiguous and the shuffle sort is stable, so every `r`'s lists reach
    /// its reducer in input order, and are merged into its row.  Returns the
    /// rows by `r` and the shuffle records and bytes.
    fn merge_oracle(
        lists: &[(PointId, Vec<Neighbor>)],
        k: usize,
        merge: MergeRule,
    ) -> (Vec<(PointId, Vec<Neighbor>)>, [u64; 2]) {
        let mut shuffled: BTreeMap<PointId, Vec<PartialList<'_>>> = BTreeMap::new();
        let mut counters = [0u64; 2];
        for (r_id, list) in lists {
            counters[0] += 1;
            counters[1] += (8 + 4 + 16 * list.len()) as u64;
            shuffled.entry(*r_id).or_default().push(PartialList(list));
        }
        let rows = shuffled
            .into_iter()
            .map(|(r_id, group)| (r_id, merge(&group, k)))
            .collect();
        (rows, counters)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// The merge job over borrowed per-cell runs answers and charges
        /// what the owned-list oracle does, under both merge rules: random
        /// tie-heavy lists (some shorter than `k`) cut into random runs, with
        /// or without the `R` ids sorted so that one `r`'s lists share a map
        /// task; nothing is combined.
        #[test]
        fn the_merge_job_equals_the_owned_list_oracle(
            k in 1usize..13,
            reducers in 1usize..10,
            map_tasks in 1usize..21,
            distinct in bool::ANY,
            grouped in bool::ANY,
            two_workers in bool::ANY,
            seed in 0u64..1 << 48,
        ) {
            let mut rng = TestRng::new(seed);
            let r_ids = 1 + rng.below(12);
            let mut lists: Vec<(PointId, Vec<Neighbor>)> = (0..rng.below(60))
                .map(|_| (rng.below(r_ids) as PointId, cell_list(&mut rng, k)))
                .collect();
            if grouped {
                lists.sort_by_key(|(r_id, _)| *r_id);
            }
            let mut runs: Vec<(u32, CellRun)> = Vec::new();
            for (r_id, list) in &lists {
                if runs.is_empty() || rng.below(4) == 0 {
                    runs.push((runs.len() as u32, CellRun::default()));
                }
                if let Some((_, run)) = runs.last_mut() {
                    run.push(*r_id, list);
                }
            }
            let merge: MergeRule = if distinct {
                merge_distinct_candidates
            } else {
                merge_neighbor_lists
            };
            let plan = JoinPlan {
                k,
                reducers,
                map_tasks,
                ..JoinPlan::default()
            };
            let mut metrics = JoinMetrics::default();
            let workers = if two_workers { 2 } else { 1 };
            let rows = run_merge_job(&runs, &plan, workers, merge, &mut metrics).unwrap();
            let mut got: Vec<(PointId, Vec<(PointId, u64)>)> =
                rows.iter().map(|row| (row.r_id, bits(&row.neighbors))).collect();
            got.sort_by_key(|(r_id, _)| *r_id);

            let (want_rows, want_counters) = merge_oracle(&lists, k, merge);
            let want: Vec<(PointId, Vec<(PointId, u64)>)> =
                want_rows.iter().map(|(r_id, list)| (*r_id, bits(list))).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!([metrics.shuffle_records, metrics.shuffle_bytes], want_counters);
            prop_assert_eq!(
                [metrics.combine_input_records, metrics.combine_output_records],
                [0, 0]
            );
        }
    }
}
