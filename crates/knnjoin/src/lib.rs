//! Voronoi-partitioning based k-nearest-neighbour joins over MapReduce.
//!
//! This crate is the core library of the reproduction of *"Efficient
//! Processing of k Nearest Neighbor Joins using MapReduce"* (Lu, Shen, Chen,
//! Ooi; PVLDB 5(10), 2012).  Given two datasets `R` and `S` and an integer
//! `k`, the kNN join `R ⋉ S` pairs every object `r ∈ R` with its `k` nearest
//! neighbours from `S`.
//!
//! # The front door: [`JoinBuilder`] and [`ExecutionContext`]
//!
//! All algorithms are selected and executed through one fluent API:
//!
//! ```
//! use datagen::{gaussian_clusters, ClusterConfig};
//! use knnjoin::{Algorithm, DistanceMetric, ExecutionContext, JoinBuilder};
//!
//! let r = gaussian_clusters(&ClusterConfig { n_points: 300, ..Default::default() }, 1);
//! let s = gaussian_clusters(&ClusterConfig { n_points: 300, ..Default::default() }, 2);
//!
//! // The context owns the worker pool; create it once and share it across
//! // joins.
//! let ctx = ExecutionContext::default();
//!
//! let result = JoinBuilder::new(&r, &s)
//!     .k(5)
//!     .metric(DistanceMetric::Euclidean)
//!     .algorithm(Algorithm::Pgbj)
//!     .reducers(4)
//!     .run(&ctx)
//!     .unwrap();
//! assert_eq!(result.rows.len(), 300);
//! assert!(result.rows.iter().all(|row| row.neighbors.len() == 5));
//! ```
//!
//! Unset tuning knobs are auto-resolved while planning (for example
//! `pivot_count ≈ √|R|`, per the paper's parameter study); invalid requests
//! come back as typed [`JoinError`] variants before anything executes.  Use
//! [`JoinBuilder::plan`] to inspect the resolved [`JoinPlan`] without running
//! it.
//!
//! # Serving: the build/probe split
//!
//! [`JoinBuilder::run`] is the one-shot batch path.  For serving many `R`
//! batches against one corpus, [`JoinBuilder::prepare`] builds PGBJ's
//! expensive S-side state once and returns a [`PreparedJoin`] whose
//! [`query`](PreparedJoin::query) / [`query_one`](PreparedJoin::query_one)
//! answer arbitrary batches without re-planning or rebuilding — across
//! repeated queries the `index_builds` and `pivot_selections` counters stay
//! flat while outputs match the one-shot path.
//!
//! The prepared corpus is *mutable*: [`PreparedJoin::insert`] and
//! [`PreparedJoin::delete`] land in an LSM-style delta memtable
//! ([`DeltaOverlay`]) that every probe path merges with the frozen
//! structures, and a threshold-triggered compaction
//! ([`JoinPlan::delta_threshold`], [`PreparedJoin::compact`]) folds the
//! overlay back into the frozen state — queries always observe one
//! consistent epoch, and results stay distance-identical to a cold build
//! over the materialized corpus.
//!
//! # The algorithms behind it
//!
//! [`Algorithm`] selects among six implementations at runtime — five exact,
//! one approximate — all running on the in-process MapReduce runtime from the
//! [`mapreduce`] crate:
//!
//! * [`Algorithm::Pgbj`] — the paper's contribution: Voronoi-diagram
//!   partitioning around pivots, per-partition distance bounds, and partition
//!   *grouping* so each reducer joins one group of `R` against the minimal
//!   subset of `S` that can contain its neighbours (§4–5).
//! * [`Algorithm::Pbj`] — the same pruning bounds inside the block-based
//!   (√N × √N) framework, without grouping (§6).
//! * [`Algorithm::Hbrj`] — the baseline of Zhang et al. (EDBT 2012): random
//!   √N × √N blocks, an R-tree per `S` block, and a merge job (§3).
//! * [`Algorithm::Zknn`] — the *approximate* z-value join H-zkNNJ (Zhang, Li,
//!   Jestes; the third competitor of §6): each `R` object's candidates are
//!   its 2k z-order neighbours in every randomly shifted copy of the data,
//!   so recall trades against shuffle and distance work.  Measure the trade
//!   with [`JoinResult::quality_against`] / [`QualityReport`].
//! * [`Algorithm::BroadcastJoin`] — the naive "split R, broadcast S"
//!   strategy (§3).
//! * [`Algorithm::NestedLoopJoin`] — the single-machine exact oracle.
//!
//! [`JoinPlan`] is the only configuration: every algorithm's cold driver and
//! prepared state read their knobs from it.  [`metrics::JoinMetrics`]
//! captures the quantities the paper's evaluation reports (per-phase running
//! time, computation selectivity, replication of `S`, shuffling cost).

#![forbid(unsafe_code)]
// The determinism perimeter (clippy.toml's disallowed types and methods)
// is denied module by module; elsewhere clocks and hash maps are fine.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod algorithms;
pub mod bounds;
pub mod builder;
pub mod context;
pub mod delta;
pub mod exact;
pub mod grouping;
pub mod metrics;
pub mod partition;
pub mod pivots;
pub mod plan;
pub mod prepared;
pub mod result;
pub mod serving;
pub mod summary;

pub use builder::JoinBuilder;
pub use context::{ExecutionContext, ExecutionContextBuilder, ServingStats};
pub use delta::{DeltaOverlay, DeltaStats};
pub use exact::NestedLoopJoin;
pub use geom::DistanceMetric;
pub use grouping::{GroupingStrategy, PartitionGrouping};
pub use metrics::JoinMetrics;
pub use partition::{PartitionedDataset, PivotDistances, VoronoiPartitioner};
pub use pivots::{select_pivots, PivotSelectionStrategy};
pub use plan::{Algorithm, JoinPlan};
pub use prepared::PreparedJoin;
pub use result::{JoinError, JoinErrorKind, JoinResult, JoinRow, QualityReport};
pub use serving::{LatencyHistogram, Server, ServerConfig, ServerStats, Ticket};
pub use summary::{RPartitionSummary, SPartitionSummary, SummaryTables};
