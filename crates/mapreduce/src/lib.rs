//! An in-process, multi-threaded MapReduce runtime.
//!
//! The paper runs its kNN-join algorithms on Hadoop over a 72-node cluster.
//! This crate provides the substrate that replaces Hadoop in the reproduction:
//! a small but faithful MapReduce engine that
//!
//! * executes user-supplied [`Mapper`] and [`Reducer`] implementations over a
//!   configurable number of map tasks and reduce tasks,
//! * performs a real, *shuffle-lean* shuffle — every map task hash-routes its
//!   output into per-reduce-partition buffers via the job's [`Partitioner`],
//!   sorts each buffer by key and runs the optional map-side [`Combiner`]
//!   before anything crosses the shuffle; reduce tasks merge their sorted
//!   runs into key groups in parallel — and
//!   **accounts every byte** that crosses it (the paper's "shuffling cost"
//!   metric, Figures 8c–12c), and
//! * reports each job's shuffle and combine volume and per-phase wall-clock
//!   timings as [`JobMetrics`].
//!
//! The engine preserves the *dataflow semantics* and *cost structure* of
//! MapReduce (what gets shuffled, how work is spread over reducers) while
//! running on a thread pool, which is what the paper's evaluation metrics
//! depend on.  ARCHITECTURE.md walks one job's execution path ("The MapReduce
//! substrate"), and its paper-section → module map names this crate as the
//! Hadoop stand-in.
//!
//! # Example
//!
//! ```
//! use mapreduce::{JobBuilder, MapContext, Mapper, ReduceContext, Reducer};
//!
//! /// Classic word count.
//! struct Tokenize;
//! impl Mapper for Tokenize {
//!     type KIn = u64;
//!     type VIn = String;
//!     type KOut = String;
//!     type VOut = u64;
//!     fn map(&self, _k: &u64, line: &String, ctx: &mut MapContext<String, u64>) {
//!         for w in line.split_whitespace() {
//!             ctx.emit(w.to_string(), 1);
//!         }
//!     }
//! }
//!
//! struct Sum;
//! impl Reducer for Sum {
//!     type KIn = String;
//!     type VIn = u64;
//!     type KOut = String;
//!     type VOut = u64;
//!     fn reduce(&self, k: &String, vs: &[u64], ctx: &mut ReduceContext<String, u64>) {
//!         ctx.emit(k.clone(), vs.iter().sum());
//!     }
//! }
//!
//! let input = vec![(0u64, "a b a".to_string()), (1u64, "b c".to_string())];
//! let out = JobBuilder::new("wordcount")
//!     .reducers(2)
//!     .run(input, &Tokenize, &Sum)
//!     .unwrap();
//! let mut pairs = out.output;
//! pairs.sort();
//! assert_eq!(pairs, vec![("a".into(), 2), ("b".into(), 2), ("c".into(), 1)]);
//! ```

#![forbid(unsafe_code)]
// The determinism perimeter (clippy.toml's disallowed types and methods)
// is denied module by module; elsewhere clocks and hash maps are fine.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod bytesize;
pub mod engine;
pub mod job;
pub mod metrics;
pub mod sync;

pub use bytesize::ByteSize;
pub use engine::{default_workers, parallel_map, JobBuilder, JobError, JobOutput};
pub use job::{
    Combiner, HashPartitioner, IdentityPartitioner, MapContext, Mapper, Partitioner, ReduceContext,
    Reducer,
};
pub use metrics::{JobMetrics, PhaseTimings};
pub use sync::{RankedMutex, RankedRwLock};
