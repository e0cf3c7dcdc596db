//! Per-layer measurements of the traced run that no phase produces by
//! itself: each layer's public entry points called directly, one thread, on
//! the workload's own inputs, every call a span.

use crate::data::K;
use crate::trace::{Recorder, ROOT};
use crate::workload::{prepared_join, Stage, BATCH_ROWS};
use geom::kernels::{squared_euclidean, squared_euclidean_batch};
use geom::{CoordMatrix, DistanceMetric, PointSet};
use knnjoin::{JoinBuilder, JoinError, JoinMetrics};
use mapreduce::{JobBuilder, MapContext, Mapper, ReduceContext, Reducer};
use spatial::RTree;
use std::hint::black_box;

const OP: &str = "layers";

/// Counts that are not span durations.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub geom_evals: f64,
    pub identity_records: f64,
    pub identity_bytes: f64,
    pub rtree_queries: f64,
    pub rtree_evals: f64,
    /// Summed metrics and row count of the direct batch probes.
    pub batch_query: JoinMetrics,
    pub batch_rows: f64,
}

struct Identity;

impl Mapper for Identity {
    type KIn = u64;
    type VIn = Vec<u64>;
    type KOut = u64;
    type VOut = Vec<u64>;
    fn map(&self, key: &u64, value: &Vec<u64>, ctx: &mut MapContext<u64, Vec<u64>>) {
        ctx.emit(*key, value.clone());
    }
}

struct CountValues;

impl Reducer for CountValues {
    type KIn = u64;
    type VIn = Vec<u64>;
    type KOut = u64;
    type VOut = u64;
    fn reduce(&self, key: &u64, values: &[Vec<u64>], ctx: &mut ReduceContext<u64, u64>) {
        ctx.emit(*key, values.len() as u64);
    }
}

/// `pgbj` is the metrics of this run's first PGBJ join: the identity job
/// moves as many records and bytes as that join shuffled.
pub fn measure(
    rec: &Recorder,
    stage: &Stage,
    pgbj: &JoinMetrics,
) -> Result<LayerCounts, JoinError> {
    let span = rec.open(ROOT, "phase.layers", OP);
    let at = span.id();
    let mut counts = LayerCounts::default();
    let inputs = &stage.inputs;
    let queries = inputs.queries.points();

    // geom: the two L2 kernels over the workload's own S matrix.
    let matrix = CoordMatrix::from_point_set(&inputs.s);
    let probes = &queries[..64.min(queries.len())];
    let mut out = vec![0.0; matrix.len()];
    counts.geom_evals = (probes.len() * matrix.len()) as f64;
    rec.time(at, "geom.squared_euclidean", OP, || {
        for q in probes {
            for row in matrix.rows() {
                black_box(squared_euclidean(black_box(&q.coords), row));
            }
        }
    });
    rec.time(at, "geom.squared_euclidean_batch", OP, || {
        for q in probes {
            squared_euclidean_batch(&q.coords, matrix.as_slice(), matrix.dims(), &mut out);
            black_box(&mut out);
        }
    });

    // mapreduce: the fixed cost of a job, then its throughput.
    let plan = JoinBuilder::new(&inputs.r, &inputs.s).k(K).plan()?;
    let job = JobBuilder::new("identity")
        .reducers(plan.reducers)
        .map_tasks(plan.map_tasks)
        .workers(stage.ctx.workers());
    for _ in 0..200 {
        let input = vec![(0u64, vec![0u64])];
        rec.time(at, "mapreduce.empty_job", OP, || {
            job.run(input, &Identity, &CountValues)
        })
        .map_err(|e| JoinError::substrate("identity", e))?;
    }
    let records = pgbj.shuffle_records.max(1);
    let words = ((pgbj.shuffle_bytes / records).saturating_sub(12) / 8).max(1) as usize;
    for _ in 0..3 {
        let input: Vec<(u64, Vec<u64>)> = (0..records).map(|i| (i, vec![i; words])).collect();
        let done = rec
            .time(at, "mapreduce.identity_job", OP, || {
                job.run(input, &Identity, &CountValues)
            })
            .map_err(|e| JoinError::substrate("identity", e))?;
        counts.identity_records = done.metrics.shuffle_records as f64;
        counts.identity_bytes = done.metrics.shuffle_bytes as f64;
    }

    // spatial: one R-tree over all of S.
    let mut tree = None;
    for _ in 0..3 {
        let points = inputs.s.points().to_vec();
        tree = Some(rec.time(at, "spatial.rtree_build", OP, || {
            RTree::bulk_load(points, DistanceMetric::Euclidean)
        }));
    }
    let tree = tree.expect("built three times");
    let tree_probes = &queries[..500.min(queries.len())];
    counts.rtree_queries = tree_probes.len() as f64;
    for q in tree_probes {
        let (_, evals) = rec.time(at, "spatial.rtree_knn", OP, || tree.knn_counted(q, K));
        counts.rtree_evals += evals as f64;
    }

    // prepared: build cost, then probes with no server in front.
    let mut prepared = None;
    for _ in 0..5 {
        prepared = Some(rec.time(at, "prepared.prepare", OP, || {
            prepared_join(inputs, stage.scale).prepare(&stage.ctx)
        })?);
    }
    let prepared = prepared.expect("prepared five times");
    for q in tree_probes {
        rec.time(at, "prepared.query_one", OP, || prepared.query_one(q))?;
    }
    for i in 0..20 {
        let first = (i * BATCH_ROWS) % (queries.len() - BATCH_ROWS + 1);
        let batch = PointSet::from_points(queries[first..first + BATCH_ROWS].to_vec());
        let result = rec.time(at, "prepared.query_batch", OP, || prepared.query(&batch))?;
        counts.batch_query.absorb(&result.metrics);
        counts.batch_rows += result.rows.len() as f64;
    }

    // delta: writes one at a time, reads over a nearly full overlay, forced
    // compactions.  The overlay stays under the plan's threshold until
    // `compact` is called, so no write here compacts by itself.
    let room = prepared.plan().delta_threshold.saturating_sub(64);
    let mut fresh = inputs.fresh.iter();
    for point in fresh.by_ref().take(room * 5 / 9).cloned() {
        rec.time(at, "delta.insert", OP, || prepared.insert(point))?;
    }
    for point in inputs.s.iter().take((room * 4 / 9).min(inputs.s.len() / 4)) {
        rec.time(at, "delta.delete", OP, || prepared.delete(point.id));
    }
    for q in &tree_probes[..300.min(tree_probes.len())] {
        rec.time(at, "delta.query_one_full", OP, || prepared.query_one(q))?;
    }
    for _ in 0..3 {
        rec.time(at, "delta.compact", OP, || prepared.compact());
        for point in fresh.by_ref().take(32) {
            prepared.insert(point.clone())?;
        }
    }

    rec.close(span, &[]);
    Ok(counts)
}
