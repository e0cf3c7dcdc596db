//! Geometric primitives shared by every crate in the PGBJ kNN-join reproduction.
//!
//! The paper ("Efficient Processing of k Nearest Neighbor Joins using MapReduce",
//! VLDB 2012) operates on objects in an `n`-dimensional metric space under the
//! Euclidean distance (it notes that L1 and L∞ work equally well).  This crate
//! provides:
//!
//! * [`Point`] — an identified, owned vector of `f64` coordinates,
//! * [`PointSet`] — a dataset of points with convenience accessors,
//! * [`CoordMatrix`] — flat row-major coordinate storage for the pivot
//!   sets and other row-at-a-time loops,
//! * [`kernels`] — monomorphized per-metric distance kernels, including the
//!   sqrt-free [`kernels::squared_euclidean`] and the bit-exact
//!   column-major tile kernels every scan ranks its rows with,
//! * [`DistanceMetric`] — L2 / L1 / L∞ distance functions,
//! * [`Record`] / [`Record::encode`] — the compact binary encoding whose
//!   length is the unit shuffle volume is accounted in (the reference for
//!   the unit; no join path calls the codec), and
//! * [`Neighbor`] / [`NeighborList`] — bounded max-heaps that maintain the `k`
//!   nearest neighbours seen so far, and [`Mask`] / [`IdFilter`], the ids
//!   a scan must not offer behind a one-hash bit filter, and
//! * [`zorder`] — quantized, bit-interleaved z-values and deterministic
//!   random-shift vectors, the machinery of the H-zkNNJ approximate join.
//!
//! Every layer of the PGBJ pipeline speaks these types: `datagen` produces
//! [`PointSet`]s, the `mapreduce` shuffle charges every object its
//! [`Record`] encoded length (the paper's shuffling-cost unit), and the join
//! reducers build their answers in [`NeighborList`]s.
//!
//! ```
//! use geom::{DistanceMetric, NeighborList, Point};
//!
//! let q = Point::new(0, vec![0.0, 0.0]);
//! let mut best = NeighborList::new(2);
//! for (id, coords) in [(1, [3.0, 4.0]), (2, [1.0, 0.0]), (3, [0.0, 2.0])] {
//!     best.offer(id, DistanceMetric::Euclidean.distance(&q, &Point::new(id, coords.to_vec())));
//! }
//! let ids: Vec<u64> = best.into_sorted().iter().map(|n| n.id).collect();
//! assert_eq!(ids, vec![2, 3]); // the two closest of the three
//! ```

// `unsafe` compiles in the SIMD kernel module and nowhere else in the
// workspace: every other crate root forbids it outright.
#![deny(unsafe_code)]
// The determinism perimeter (clippy.toml's disallowed types and methods)
// is denied module by module; elsewhere clocks and hash maps are fine.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod coords;
#[allow(unsafe_code)]
#[deny(clippy::undocumented_unsafe_blocks)]
pub mod kernels;
pub mod metric;
pub mod neighbor;
pub mod point;
pub mod record;
pub mod zorder;

pub use coords::CoordMatrix;
pub use kernels::KernelMode;
pub use metric::DistanceMetric;
pub use neighbor::{IdFilter, Mask, Neighbor, NeighborList};
pub use point::{Point, PointId, PointSet};
pub use record::{Record, RecordKind};
pub use zorder::{ZQuantizer, ZValue};
