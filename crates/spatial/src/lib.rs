//! Spatial indexing used by the H-BRJ baseline.
//!
//! The paper's main baseline, H-BRJ (Zhang et al., EDBT 2012), has every
//! reducer build an R-tree over its block of `S` and probe it with a
//! best-first k-nearest-neighbour search for every `r` in its block of `R`.
//! This crate provides that substrate:
//!
//! * [`RTree`] — an R-tree bulk-loaded with the Sort-Tile-Recursive (STR)
//!   algorithm, supporting best-first kNN queries, and
//! * [`BruteForceIndex`] — a linear-scan reference implementation used by the
//!   tests to validate the tree and by experiments that need an exact,
//!   index-free baseline.
//!
//! In the PGBJ pipeline this crate is the *competitor's* machinery: PGBJ
//! itself prunes with Voronoi distance bounds and never builds an index,
//! which is precisely the contrast the paper's evaluation draws.  See the
//! [`RTree`] docs for a doctest mirroring an H-BRJ reducer.

#![forbid(unsafe_code)]

pub mod bruteforce;
pub mod rtree;

pub use bruteforce::BruteForceIndex;
pub use rtree::{KnnScratch, RTree};
