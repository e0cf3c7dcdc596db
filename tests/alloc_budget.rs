//! Allocation pins: the exact number of heap allocations each cold join and
//! each prepared operation makes, counted by a global allocator.
//!
//! The counter gates (`BENCH_*.json`) count distances and records, not
//! allocations, so a change that brings back a per-object `Vec` would pass
//! them unseen.  These pins see it.  Every join runs at `workers(1)`, where
//! the engine runs each task on the calling thread, and the count is kept
//! per thread, so tests running in parallel do not count each other's
//! allocations.  At one worker the counts are exact: each operation runs
//! twice and both runs must match the pin.
//!
//! An allocation is one call of `alloc`, `alloc_zeroed` or `realloc`.  The
//! cold joins run the `perf_baseline --quick` shape (a 300-object, 10-d
//! `forest_like` self-join, `k = 10`, 12 pivots, 4 reducers, 2 shifted
//! copies with window 4); the prepared operations run a PGBJ index over the
//! same corpus.  A change that moves a pin updates it and says why in
//! CHANGES.md.
//!
//! The pins hold for the build that ships: with `debug-invariants` the
//! runtime auditors allocate as they check (a compaction re-reads every
//! row), so this file compiles to nothing there.

#![cfg(not(feature = "debug-invariants"))]
#![deny(clippy::undocumented_unsafe_blocks)]

use pgbj::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made on this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting every allocation on the allocating thread.
struct Counting;

fn count() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counter is a `const`-initialised
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `realloc`'s contract: `ptr` came from
        // this allocator, which is `System`'s, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract: `ptr` came from
        // this allocator, which is `System`'s, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations `op` makes on this thread, and what it returns.
fn counted<T>(op: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = op();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const K: usize = 10;

/// The `perf_baseline --quick` corpus.
fn corpus() -> PointSet {
    forest_like(
        &ForestConfig {
            n_points: 300,
            dims: 10,
            n_clusters: 7,
        },
        2012,
    )
}

fn one_worker() -> ExecutionContext {
    ExecutionContext::builder().workers(1).build()
}

fn builder<'a>(r: &'a PointSet, s: &'a PointSet, algorithm: Algorithm) -> Join<'a> {
    Join::new(r, s)
        .k(K)
        .metric(DistanceMetric::Euclidean)
        .algorithm(algorithm)
        .pivot_count(12)
        .reducers(4)
        .shift_copies(2)
        .z_window(4)
}

/// Asserts that `op` makes `pin` allocations, twice in a row.
fn assert_pinned<T>(what: &str, pin: u64, mut op: impl FnMut() -> T) {
    for round in 0..2 {
        let (allocations, out) = counted(&mut op);
        drop(out);
        assert_eq!(allocations, pin, "{what}, round {round}");
    }
}

#[test]
fn every_cold_join_makes_its_pinned_allocations() {
    let data = corpus();
    let ctx = one_worker();
    for (algorithm, pin) in [
        (Algorithm::Pgbj, 1373),
        (Algorithm::Pbj, 2004),
        (Algorithm::Hbrj, 877),
        (Algorithm::Zknn, 1444),
        (Algorithm::BroadcastJoin, 660),
        (Algorithm::NestedLoopJoin, 307),
    ] {
        assert_pinned(algorithm.name(), pin, || {
            builder(&data, &data, algorithm).run(&ctx).unwrap()
        });
    }
}

#[test]
fn every_prepared_operation_makes_its_pinned_allocations() {
    let data = corpus();
    let batch = PointSet::from_points(data.iter().take(16).cloned().collect());
    let prepared = builder(&data, &data, Algorithm::Pgbj)
        .prepare(&one_worker())
        .unwrap();
    let probe = &data.points()[0];
    // Warm: an index's first query makes one-time allocations of its own.
    prepared.query_one(probe).unwrap();
    assert_pinned("query_one", 13, || prepared.query_one(probe).unwrap());
    assert_pinned("16-row query", 36, || prepared.query(&batch).unwrap());

    // Each round mutates a fresh index, so both rounds start alike.
    let deleted = data.points()[1].id;
    let (mut inserts, mut deletes, mut compactions) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2 {
        let prepared = builder(&data, &data, Algorithm::Pgbj)
            .prepare(&one_worker())
            .unwrap();
        let added = Point::new(10_000, vec![0.5; 10]);
        inserts.push(counted(|| prepared.insert(added).unwrap()).0);
        let (allocations, live) = counted(|| prepared.delete(deleted));
        assert!(live);
        deletes.push(allocations);
        let (allocations, ran) = counted(|| prepared.compact());
        assert!(ran);
        compactions.push(allocations);
    }
    assert_eq!(inserts, [4, 4], "insert");
    assert_eq!(deletes, [5, 5], "delete");
    assert_eq!(compactions, [39, 39], "compact");
}
