//! # pgbj — kNN joins on MapReduce (VLDB 2012 reproduction)
//!
//! This is the umbrella crate of a from-scratch Rust reproduction of
//! *"Efficient Processing of k Nearest Neighbor Joins using MapReduce"*
//! (Lu, Shen, Chen, Ooi; PVLDB 5(10), 2012).  It re-exports the workspace
//! crates so applications can depend on a single crate:
//!
//! * [`geom`] — points, metrics, neighbour lists, record encoding;
//! * [`datagen`] — seeded synthetic datasets (Forest-like, OSM-like) and the
//!   paper's ×t expansion procedure;
//! * [`mapreduce`] — the in-process MapReduce runtime with shuffle byte
//!   accounting;
//! * [`spatial`] — the STR-bulk-loaded R-tree used by the H-BRJ baseline;
//! * [`knnjoin`] — the core algorithms (PGBJ, PBJ, H-BRJ, the approximate
//!   H-zkNNJ, broadcast, exact nested loop) behind the unified [`Join`]
//!   builder and [`ExecutionContext`](knnjoin::ExecutionContext).
//!
//! See the `examples/` directory for runnable end-to-end scenarios and the
//! `bench` crate for the experiment harness that regenerates every table and
//! figure of the paper.
//!
//! ## Quick start
//!
//! ```
//! use pgbj::prelude::*;
//!
//! // Two small clustered datasets.
//! let r = gaussian_clusters(&ClusterConfig { n_points: 200, ..Default::default() }, 1);
//! let s = gaussian_clusters(&ClusterConfig { n_points: 200, ..Default::default() }, 2);
//!
//! // One execution context per application: the worker pool.
//! let ctx = ExecutionContext::default();
//!
//! // Find the 5 nearest neighbours in S of every object of R with PGBJ.
//! let result = Join::new(&r, &s)
//!     .k(5)
//!     .metric(DistanceMetric::Euclidean)
//!     .algorithm(Algorithm::Pgbj)
//!     .reducers(4)
//!     .run(&ctx)
//!     .unwrap();
//!
//! assert_eq!(result.len(), 200);
//! println!("shuffled {} MiB", result.metrics.shuffle_mib());
//!
//! // Serving many batches against one corpus?  Build the S-side state once
//! // and query the prepared handle instead (see `knnjoin::PreparedJoin`):
//! let prepared = Join::new(&r, &s).k(5).algorithm(Algorithm::Pgbj).prepare(&ctx).unwrap();
//! let served = prepared.query(&r).unwrap();
//! assert_eq!(served.len(), 200);
//! assert_eq!(served.metrics.pivot_selections, 0);
//! ```

#![forbid(unsafe_code)]

pub use datagen;
pub use geom;
pub use knnjoin;
pub use mapreduce;
pub use spatial;

/// The unified join entry point (alias of [`knnjoin::JoinBuilder`]):
/// `Join::new(&r, &s).k(10).algorithm(Algorithm::Pgbj).run(&ctx)`.
pub use knnjoin::JoinBuilder as Join;

/// Convenient glob import for applications and examples.
pub mod prelude {
    pub use crate::Join;
    pub use datagen::{
        expand_dataset, forest_like, gaussian_clusters, osm_like, uniform, ClusterConfig,
        ForestConfig, OsmConfig,
    };
    pub use geom::{DistanceMetric, KernelMode, Neighbor, Point, PointSet};
    pub use knnjoin::{
        Algorithm, DeltaOverlay, DeltaStats, ExecutionContext, GroupingStrategy, JoinBuilder,
        JoinError, JoinErrorKind, JoinPlan, JoinResult, JoinRow, LatencyHistogram, NestedLoopJoin,
        PivotSelectionStrategy, PreparedJoin, QualityReport, Server, ServerConfig, ServerStats,
        ServingStats, Ticket,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_join() {
        let data = uniform(50, 2, 10.0, 1);
        let ctx = ExecutionContext::default();
        let result = Join::new(&data, &data)
            .k(3)
            .algorithm(Algorithm::NestedLoopJoin)
            .run(&ctx)
            .unwrap();
        assert_eq!(result.rows.len(), 50);
    }

    #[test]
    fn every_algorithm_is_selectable_through_the_prelude() {
        let data = uniform(40, 2, 10.0, 2);
        let ctx = ExecutionContext::default();
        let oracle = NestedLoopJoin
            .join(&data, &data, 2, DistanceMetric::Euclidean)
            .unwrap();
        for algorithm in Algorithm::ALL {
            let result = Join::new(&data, &data)
                .k(2)
                .algorithm(algorithm)
                .reducers(3)
                .seed(7)
                .run(&ctx)
                .unwrap();
            if algorithm.is_exact() {
                assert!(
                    result.matches(&oracle, 1e-9),
                    "{algorithm} deviates from the oracle"
                );
            } else {
                // H-zkNNJ is approximate: same shape, high quality.
                assert_eq!(result.rows.len(), oracle.rows.len());
                let quality = result.quality_against(&oracle);
                assert!(
                    quality.recall >= 0.9,
                    "{algorithm} recall {}",
                    quality.recall
                );
                assert!(quality.distance_ratio >= 1.0 - 1e-9);
            }
        }
    }
}
