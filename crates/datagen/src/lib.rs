//! Seeded synthetic dataset generators for the PGBJ kNN-join reproduction.
//!
//! The paper evaluates on two real datasets — the UCI *Forest CoverType*
//! dataset (580K objects, 10 integer attributes used) and an *OpenStreetMap*
//! extract (10M 2-d records) — plus "Expanded Forest" datasets produced by a
//! frequency-preserving expansion procedure ("Forest ×t").  Those files are
//! not redistributable here, so this crate provides deterministic, seeded
//! generators that reproduce the *shape* that matters to the algorithms:
//! multi-dimensional, skewed, clustered data with integer-valued attributes
//! (Forest-like) and low-dimensional heavy-tailed geographic data (OSM-like).
//! The ×t expansion procedure itself is implemented exactly as described in
//! Section 6 of the paper (see [`expand::expand_dataset`]).
//!
//! In the PGBJ pipeline this crate sits at the very front: it produces the
//! [`geom::PointSet`]s that the driver stages as `R` and `S` before pivot
//! selection and the two MapReduce jobs run.
//!
//! All generators take an explicit seed, so experiments are reproducible:
//!
//! ```
//! use datagen::{forest_like, uniform, ForestConfig};
//!
//! let forest = forest_like(&ForestConfig { n_points: 500, dims: 10, n_clusters: 7 }, 42);
//! assert_eq!(forest.len(), 500);
//! assert_eq!(forest.dims(), 10);
//! // Same seed, same dataset — bit for bit.
//! assert_eq!(forest, forest_like(&ForestConfig { n_points: 500, dims: 10, n_clusters: 7 }, 42));
//! assert_ne!(uniform(100, 2, 50.0, 1), uniform(100, 2, 50.0, 2));
//! ```

#![forbid(unsafe_code)]
// The determinism perimeter (clippy.toml's disallowed types and methods)
// is denied module by module; elsewhere clocks and hash maps are fine.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod expand;
pub mod forest;
pub mod osm;
pub mod synthetic;

pub use expand::expand_dataset;
pub use forest::{forest_like, ForestConfig};
pub use osm::{osm_like, OsmConfig};
pub use synthetic::{gaussian_clusters, uniform, ClusterConfig};
