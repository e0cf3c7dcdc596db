//! H-BRJ — the block-based R-tree baseline (Zhang et al., EDBT 2012),
//! described in Section 3 and used as the main competitor in Section 6.
//!
//! `R` and `S` are split into `B = ⌊√N⌋` random blocks each; every reducer
//! receives one `(R_i, S_j)` pair, probes an R-tree over `S_j` and answers a
//! kNN query for every `r ∈ R_i`; a second MapReduce job merges the `B`
//! partial lists of every `r` into the final `k` nearest neighbours.
//!
//! The `B` cells of one column all receive the *same* `S_j` block (the route
//! mapper replicates each `S` record across its column), so the tree over
//! `S_j` is built once — by whichever cell of the column reduces first — and
//! shared, instead of being bulk-loaded `B` times from identical input.  The
//! engine delivers one column's `S` values in the same order to every cell
//! (map-task order, then emission order), so the shared tree is bit-identical
//! to the per-cell trees it replaces and the join output and distance
//! counters are unchanged; only the number of bulk loads drops from `B²` to
//! `B` (the `index_builds` metric).
//!
//! No object is copied on the way: the records borrow `R` and `S`, the tree
//! is bulk-loaded from those borrows, and a cell probes it for every local
//! `r` through one reused [`KnnScratch`] — heap, rank buffer and answer
//! list — copies each borrowed answer into one [`CellRun`] and tallies its
//! evaluations once.

use crate::algorithms::blocks::{block_count, run_block_framework, BlockRouteMapper};
use crate::algorithms::common::{raw_inputs, CellRun, ShuffleRecord};
use crate::context::ExecutionContext;
use crate::metrics::{Count, JoinMetrics, Tally};
use crate::plan::JoinPlan;
use crate::result::{JoinError, JoinRow};
use geom::{DistanceMetric, PointSet, RecordKind};
use mapreduce::{ReduceContext, Reducer};
use spatial::{KnnScratch, RTree};
use std::sync::OnceLock;

/// Runs cold H-BRJ for a validated `plan` over validated inputs.  There is
/// no preprocessing: the map job replicates raw records.
pub(crate) fn join(
    plan: &JoinPlan,
    r: &PointSet,
    s: &PointSet,
    ctx: &ExecutionContext,
    metrics: &mut JoinMetrics,
) -> Result<Vec<JoinRow>, JoinError> {
    let blocks = block_count(plan.reducers);
    let tally = Tally::default();
    let rows = run_block_framework(
        raw_inputs(r, s),
        plan,
        ctx.workers(),
        &BlockRouteMapper {
            blocks,
            tally: &tally,
        },
        &HbrjCellReducer {
            k: plan.k,
            metric: plan.metric,
            blocks,
            s_trees: (0..blocks).map(|_| OnceLock::new()).collect(),
            tally: &tally,
        },
        metrics,
    );
    metrics.absorb_tally(tally);
    rows
}

/// Reducer for one `(R_i, S_j)` cell: a shared R-tree over `S_j` (built by
/// the column's first cell, reused by the rest), best-first kNN per
/// `r ∈ R_i`.
struct HbrjCellReducer<'a> {
    k: usize,
    metric: DistanceMetric,
    /// `B`, the number of blocks per dataset; cell `c` joins `S` block
    /// `c % B`.
    blocks: usize,
    /// One lazily built tree per `S` block, shared across the column's cells.
    s_trees: Vec<OnceLock<RTree>>,
    tally: &'a Tally,
}

impl<'a> Reducer for HbrjCellReducer<'a> {
    type KIn = u32;
    type VIn = ShuffleRecord<'a>;
    type KOut = u32;
    type VOut = CellRun;

    fn reduce(
        &self,
        cell: &u32,
        values: &[ShuffleRecord<'a>],
        ctx: &mut ReduceContext<u32, CellRun>,
    ) {
        let r_count = ShuffleRecord::of_kind(values, RecordKind::R).count();
        if r_count == 0 {
            return;
        }
        // Even with an empty S block every r must produce a (possibly empty)
        // candidate list so the merge job emits a row for it.  Only the
        // column's first cell looks at its S records, and loads the tree
        // straight from the borrowed objects.
        let tree = self.s_trees[*cell as usize % self.blocks].get_or_init(|| {
            self.tally.add(Count::IndexBuilds, 1);
            RTree::bulk_load(ShuffleRecord::of_kind(values, RecordKind::S), self.metric)
        });
        let mut run = CellRun::with_capacity(r_count, self.k.min(tree.len()));
        let mut scratch = KnnScratch::default();
        let mut computations = 0;
        for r in ShuffleRecord::of_kind(values, RecordKind::R) {
            let (neighbors, evaluated) = tree.knn_with(&r.coords, self.k, &mut scratch);
            computations += evaluated;
            run.push(r.id, neighbors);
        }
        self.tally.add(Count::Distances, computations);
        ctx.emit(*cell, run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testing::{assert_matches_oracle, run};
    use crate::exact::NestedLoopJoin;
    use crate::Algorithm::Hbrj;
    use datagen::{gaussian_clusters, uniform, ClusterConfig};
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
        assert_matches_oracle(Hbrj, &r, &s, 10, EUCLIDEAN, |b| b.reducers(9));
    }

    #[test]
    fn matches_exact_with_non_square_reducer_count() {
        let r = uniform(150, 3, 50.0, 3);
        let s = uniform(200, 3, 50.0, 4);
        assert_matches_oracle(Hbrj, &r, &s, 5, EUCLIDEAN, |b| b.reducers(7));
    }

    #[test]
    fn matches_exact_for_self_join_and_small_k() {
        let data = clustered(250, 5);
        assert_matches_oracle(Hbrj, &data, &data, 1, EUCLIDEAN, |b| b.reducers(4));
    }

    #[test]
    fn matches_exact_when_k_exceeds_s() {
        let r = uniform(30, 2, 20.0, 6);
        let s = uniform(5, 2, 20.0, 7);
        assert_matches_oracle(Hbrj, &r, &s, 9, EUCLIDEAN, |b| b.reducers(4));
    }

    #[test]
    fn replication_is_sqrt_n_per_object() {
        let r = clustered(200, 8);
        let s = clustered(200, 9);
        let res = run(Hbrj, &r, &s, 5, EUCLIDEAN, |b| b.reducers(9));
        // B = 3: every R and S object is sent to exactly 3 reducer cells.
        assert_eq!(res.metrics.r_records_shuffled, 600);
        assert_eq!(res.metrics.s_records_shuffled, 600);
        assert!((res.metrics.average_replication() - 3.0).abs() < 1e-9);
        assert!(res.metrics.shuffle_bytes > 0);
        assert!(res.metrics.distance_computations > 0);
    }

    #[test]
    fn s_block_trees_are_built_once_per_block_not_once_per_cell() {
        let r = clustered(240, 12);
        let s = clustered(260, 13);
        let k = 6;
        let reducers = 16; // B = 4 blocks, 16 cells
        let res = run(Hbrj, &r, &s, k, EUCLIDEAN, |b| b.reducers(reducers));

        // √n tree builds: one per distinct S block, not one per (R_i, S_j)
        // cell.
        let blocks = block_count(reducers) as u64;
        assert_eq!(res.metrics.index_builds, blocks);

        // The shared trees change nothing observable: the output still
        // matches the exact oracle, and the distance counters equal what
        // independently built per-block trees produce (each r probes every
        // S block exactly once).
        let expected = NestedLoopJoin.join(&r, &s, k, EUCLIDEAN).unwrap();
        assert!(
            res.matches(&expected, 1e-9),
            "{:?}",
            res.mismatch_against(&expected, 1e-9)
        );
        let mut reference_computations = 0u64;
        for j in 0..blocks {
            let s_block = s.iter().filter(|p| p.id % blocks == j);
            let tree = RTree::bulk_load_with_fanout(s_block, EUCLIDEAN, RTree::DEFAULT_FANOUT);
            for r_obj in &r {
                reference_computations += tree.knn_counted(r_obj, k).1;
            }
        }
        assert_eq!(res.metrics.distance_computations, reference_computations);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn hbrj_equals_exact_join(
            n_r in 10usize..100,
            n_s in 10usize..100,
            k in 1usize..10,
            reducers in 1usize..10,
            seed in 0u64..100,
        ) {
            let r = uniform(n_r, 2, 80.0, seed);
            let s = uniform(n_s, 2, 80.0, seed ^ 0x77);
            assert_matches_oracle(Hbrj, &r, &s, k, EUCLIDEAN, |b| {
                b.reducers(reducers).map_tasks(3)
            });
        }
    }
}
