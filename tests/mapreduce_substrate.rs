//! Integration test composing the MapReduce substrate with the join: a
//! user-written job runs over a join's output.

use mapreduce::{JobBuilder, MapContext, Mapper, ReduceContext, Reducer};
use pgbj::prelude::*;

/// A small custom MapReduce job over join output: histogram of kth-NN
/// distances (the building block of distance-based outlier detection),
/// demonstrating that the runtime composes with arbitrary user jobs.
struct BucketMapper {
    bucket_width: f64,
}

impl Mapper for BucketMapper {
    type KIn = u64;
    type VIn = f64;
    type KOut = u32;
    type VOut = u64;
    fn map(&self, _id: &u64, kth_distance: &f64, ctx: &mut MapContext<u32, u64>) {
        let bucket = (kth_distance / self.bucket_width).floor() as u32;
        ctx.emit(bucket, 1);
    }
}

struct CountReducer;

impl Reducer for CountReducer {
    type KIn = u32;
    type VIn = u64;
    type KOut = u32;
    type VOut = u64;
    fn reduce(&self, bucket: &u32, counts: &[u64], ctx: &mut ReduceContext<u32, u64>) {
        ctx.emit(*bucket, counts.iter().sum());
    }
}

#[test]
fn join_output_feeds_a_follow_up_mapreduce_job() {
    let data = datagen::gaussian_clusters(
        &datagen::ClusterConfig {
            n_points: 400,
            dims: 2,
            n_clusters: 4,
            std_dev: 3.0,
            extent: 200.0,
            skew: 0.0,
        },
        3,
    );
    let ctx = ExecutionContext::default();
    let join = Join::new(&data, &data)
        .k(6)
        .algorithm(Algorithm::Pgbj)
        .pivot_count(16)
        .reducers(4)
        .run(&ctx)
        .unwrap();

    // kth-NN distance per object becomes the input of the histogram job.
    let input: Vec<(u64, f64)> = join
        .rows
        .iter()
        .map(|row| (row.r_id, row.neighbors.last().unwrap().distance))
        .collect();
    let histogram = JobBuilder::new("kth-distance-histogram")
        .reducers(3)
        .run(input, &BucketMapper { bucket_width: 2.0 }, &CountReducer)
        .unwrap();

    let total: u64 = histogram.output.iter().map(|(_, c)| *c).sum();
    assert_eq!(total, data.len() as u64);
    assert!(histogram.metrics.shuffle_records == data.len() as u64);
    assert!(!histogram.output.is_empty());
}
