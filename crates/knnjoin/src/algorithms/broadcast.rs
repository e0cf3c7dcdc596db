//! The "basic strategy" of Section 3: partition `R` into `N` disjoint subsets
//! and broadcast the *entire* `S` to every reducer.
//!
//! The paper introduces this strategy only to dismiss it — its shuffling cost
//! is `|R| + N·|S|` and every reducer joins its `R` subset against all of `S`
//! — but it is the natural naive MapReduce formulation and serves both as a
//! correctness oracle with a different code path and as the upper anchor for
//! the shuffle-cost comparisons.  A single job suffices (no merge phase),
//! since every reducer sees all of `S`.

use crate::algorithms::common::{
    raw_inputs, rows_from_output, ScanKernels, ShuffleRecord, TileScratch,
};
use crate::context::ExecutionContext;
use crate::exact::FlatBlock;
use crate::metrics::{phases, Count, JoinMetrics, Tally};
use crate::plan::JoinPlan;
use crate::result::{JoinError, JoinRow};
use geom::{Neighbor, PointSet, RecordKind};
use mapreduce::{IdentityPartitioner, JobBuilder, MapContext, Mapper, ReduceContext, Reducer};
use std::time::Instant;

/// Runs the cold broadcast join for a validated `plan` over validated inputs.
pub(crate) fn join(
    plan: &JoinPlan,
    r: &PointSet,
    s: &PointSet,
    ctx: &ExecutionContext,
    metrics: &mut JoinMetrics,
) -> Result<Vec<JoinRow>, JoinError> {
    let input = raw_inputs(r, s);

    let start = Instant::now();
    let tally = Tally::default();
    let job = JobBuilder::new("broadcast-join")
        .reducers(plan.reducers)
        .map_tasks(plan.map_tasks)
        .workers(ctx.workers())
        .run_with_partitioner(
            input,
            &BroadcastMapper {
                reducers: plan.reducers,
                tally: &tally,
            },
            &BroadcastReducer {
                k: plan.k,
                kernels: ScanKernels::new(plan.metric),
                tally: &tally,
            },
            &IdentityPartitioner,
        )
        .map_err(|e| JoinError::substrate("broadcast-join", e))?;
    metrics.record_phase(phases::KNN_JOIN, start.elapsed());
    metrics.absorb_job(&job.metrics);
    metrics.absorb_tally(tally);
    Ok(rows_from_output(job.output))
}

/// Mapper: `R` objects go to one reducer (hash of their id); `S` objects are
/// broadcast to every reducer.
struct BroadcastMapper<'a> {
    reducers: usize,
    tally: &'a Tally,
}

impl<'a> Mapper for BroadcastMapper<'a> {
    type KIn = u64;
    type VIn = ShuffleRecord<'a>;
    type KOut = u32;
    type VOut = ShuffleRecord<'a>;

    fn map(&self, key: &u64, value: &Self::VIn, ctx: &mut MapContext<u32, Self::VOut>) {
        match value.kind {
            RecordKind::R => {
                self.tally.add(Count::Shuffled(RecordKind::R), 1);
                ctx.emit((key % self.reducers as u64) as u32, *value);
            }
            RecordKind::S => {
                for reducer in 0..self.reducers as u32 {
                    ctx.emit(reducer, *value);
                }
                let replicas = self.reducers as u64;
                self.tally.add(Count::Shuffled(RecordKind::S), replicas);
            }
        }
    }
}

/// Reducer: exhaustive [`FlatBlock::scan`] of the full `S` for every local
/// `r`.
struct BroadcastReducer<'a> {
    k: usize,
    kernels: ScanKernels,
    tally: &'a Tally,
}

impl<'a> Reducer for BroadcastReducer<'a> {
    type KIn = u32;
    type VIn = ShuffleRecord<'a>;
    type KOut = u64;
    type VOut = Vec<Neighbor>;

    fn reduce(
        &self,
        _key: &u32,
        values: &[ShuffleRecord<'a>],
        ctx: &mut ReduceContext<u64, Vec<Neighbor>>,
    ) {
        // Flatten S once: the block is scanned |R_block| times, so the
        // columnar layout and hoisted kernel pay for themselves immediately.
        let block = FlatBlock::new(
            ShuffleRecord::of_kind(values, RecordKind::S).map(|p| (p.id, &p.coords[..])),
        );
        let mut scratch = TileScratch::new();
        let mut computations = 0;
        for r in ShuffleRecord::of_kind(values, RecordKind::R) {
            let (neighbors, evaluated) = block.scan(&r.coords, self.k, &self.kernels, &mut scratch);
            computations += evaluated;
            ctx.emit(r.id, neighbors);
        }
        self.tally.add(Count::Distances, computations);
    }
}

#[cfg(test)]
mod tests {
    use crate::algorithms::testing::{assert_matches_oracle, run};
    use crate::Algorithm::{BroadcastJoin, Pgbj};
    use datagen::uniform;
    use geom::DistanceMetric;
    use proptest::prelude::*;

    const EUCLIDEAN: DistanceMetric = DistanceMetric::Euclidean;

    #[test]
    fn matches_exact_join() {
        let r = uniform(150, 3, 50.0, 1);
        let s = uniform(200, 3, 50.0, 2);
        assert_matches_oracle(BroadcastJoin, &r, &s, 7, EUCLIDEAN, |b| b.reducers(5));
    }

    #[test]
    fn shuffle_cost_is_r_plus_n_times_s() {
        // The defining property of the basic strategy (Section 3).
        let r = uniform(100, 2, 50.0, 3);
        let s = uniform(80, 2, 50.0, 4);
        let reducers = 6;
        let result = run(BroadcastJoin, &r, &s, 3, EUCLIDEAN, |b| {
            b.reducers(reducers)
        });
        assert_eq!(result.metrics.r_records_shuffled, 100);
        assert_eq!(result.metrics.s_records_shuffled, 80 * reducers as u64);
        // Every (r, s) pair is computed exactly once: selectivity is 1.
        assert_eq!(result.metrics.distance_computations, 100 * 80);
        assert!((result.metrics.computation_selectivity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn broadcast_ships_more_than_pgbj_on_clustered_data() {
        let data = datagen::gaussian_clusters(
            &datagen::ClusterConfig {
                n_points: 400,
                dims: 2,
                n_clusters: 5,
                std_dev: 3.0,
                extent: 200.0,
                skew: 0.3,
            },
            9,
        );
        let broadcast = run(BroadcastJoin, &data, &data, 10, EUCLIDEAN, |b| {
            b.reducers(8)
        });
        let pgbj = run(Pgbj, &data, &data, 10, EUCLIDEAN, |b| {
            b.pivot_count(24).reducers(8)
        });
        assert!(broadcast.metrics.shuffle_bytes > pgbj.metrics.shuffle_bytes);
        assert!(broadcast.metrics.distance_computations > pgbj.metrics.distance_computations);
        assert!(broadcast.matches(&pgbj, 1e-9));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn broadcast_equals_exact_join(
            n_r in 5usize..60,
            n_s in 5usize..60,
            k in 1usize..8,
            reducers in 1usize..8,
            seed in 0u64..50,
        ) {
            let r = uniform(n_r, 2, 40.0, seed);
            let s = uniform(n_s, 2, 40.0, seed ^ 0x31);
            assert_matches_oracle(BroadcastJoin, &r, &s, k, EUCLIDEAN, |b| {
                b.reducers(reducers).map_tasks(2)
            });
        }
    }
}
