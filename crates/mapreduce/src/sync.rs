//! Ranked lock wrappers: the workspace's lock-order discipline, made
//! executable.
//!
//! Every long-lived lock in the workspace is declared here with a *rank*; a
//! thread must only acquire locks in strictly increasing rank order.  The
//! declared order (lowest = outermost) is:
//!
//! | rank | lock | lives in | guards |
//! |------|------|----------|--------|
//! | 10 | `prepared.mutate` | `knnjoin::prepared` | nothing: serializes insert, delete and compaction |
//! | 20 | `prepared.epoch` (`RwLock`) | `knnjoin::prepared` | the published epoch |
//! | 40 | `prepared.cumulative` | `knnjoin::prepared` | absorbed metrics, query count and time |
//! | 60 | `serving.histogram` | `knnjoin::serving` | one permit's latencies, completed and failed counts |
//!
//! (The serving front-end's request queue uses a `std` mutex because it
//! needs a `Condvar`; it is rank-isolated by construction — no other lock is
//! ever held while acquiring it, and it is always released before any probe
//! runs — and is therefore outside this table.  It also holds the admission
//! and coalescing counts; its result cells are leaves.)
//!
//! A lock is held only for the closure passed to [`RankedMutex::with`],
//! [`RankedRwLock::read_with`] or [`RankedRwLock::write_with`]: no guard
//! outlives the call, so none can be kept across a probe by accident, and
//! one that is taken inside the closure is caught by
//! [`assert_none_held`], which the prepared probe, every cold run and
//! `prepare` call on entry.
//!
//! By default [`RankedMutex`] and [`RankedRwLock`] are zero-cost newtypes
//! over the `parking_lot` shims.  With the `debug-invariants` cargo feature
//! they record a per-thread acquisition stack and `assert!` on every
//! acquisition that the new lock's rank strictly exceeds every rank already
//! held by the thread — an out-of-order acquisition (a potential deadlock,
//! or a violation of the documented discipline) fails the test run at the
//! exact site instead of deadlocking once in a blue moon.

use parking_lot::{Mutex, RwLock};

/// Declared ranks, lowest = acquired first.  Gaps leave room for future
/// locks without renumbering.
pub mod ranks {
    /// `knnjoin::prepared` mutation serialization lock.
    pub const PREPARED_MUTATE: u8 = 10;
    /// `knnjoin::prepared` epoch pointer (`RwLock`).
    pub const PREPARED_EPOCH: u8 = 20;
    /// `knnjoin::prepared` cumulative per-handle metrics.
    pub const PREPARED_CUMULATIVE: u8 = 40;
    /// `knnjoin::serving` per-permit latency histogram shard.
    pub const SERVING_HISTOGRAM: u8 = 60;
}

#[cfg(feature = "debug-invariants")]
mod audit {
    use std::cell::RefCell;

    thread_local! {
        /// The ranks (with display names) this thread currently holds, in
        /// acquisition order.
        static HELD: RefCell<Vec<(u8, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    /// Registers an acquisition, asserting the rank discipline: `rank` must
    /// strictly exceed every rank already held (equal ranks count as a
    /// violation too — two shards of one family must never nest).
    pub(super) fn acquire(rank: u8, name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(worst, worst_name)) = held.iter().max_by_key(|(r, _)| *r) {
                assert!(
                    rank > worst,
                    "lock-order violation: acquiring {name} (rank {rank}) while \
                     holding {worst_name} (rank {worst}); see mapreduce::sync for \
                     the declared order"
                );
            }
            held.push((rank, name));
        });
    }

    /// Unregisters the most recent acquisition of `rank`/`name` (releases
    /// may interleave, so the stack is searched from the top).
    pub(super) fn release(rank: u8, name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&(r, n)| r == rank && n == name) {
                held.remove(pos);
            }
        });
    }

    /// The number of audited locks the current thread holds.
    pub(super) fn held_count() -> usize {
        HELD.with(|held| held.borrow().len())
    }

    /// See [`super::assert_none_held`].
    pub(super) fn assert_none_held(site: &str) {
        assert!(
            held_count() == 0,
            "{site} entered while holding {}; no ranked lock may be held \
             across a probe or a run",
            HELD.with(|held| {
                let names: Vec<&str> = held.borrow().iter().map(|&(_, name)| name).collect();
                names.join(", ")
            })
        );
    }
}

/// Asserts under `debug-invariants` that the calling thread holds no ranked
/// lock, naming `site` and every lock it holds; compiles to nothing without
/// the feature.  Called on entry to the routines that scan: a lock held
/// there would be held for a whole probe or join.
#[inline]
pub fn assert_none_held(site: &str) {
    #[cfg(feature = "debug-invariants")]
    audit::assert_none_held(site);
    #[cfg(not(feature = "debug-invariants"))]
    let _ = site;
}

/// Tracks one registered acquisition; unregisters on drop.  A zero-sized
/// no-op unless `debug-invariants` is enabled.
#[derive(Debug)]
struct Registration {
    #[cfg(feature = "debug-invariants")]
    rank: u8,
    #[cfg(feature = "debug-invariants")]
    name: &'static str,
}

impl Registration {
    #[inline]
    fn acquire(rank: u8, name: &'static str) -> Self {
        #[cfg(feature = "debug-invariants")]
        {
            audit::acquire(rank, name);
            Self { rank, name }
        }
        #[cfg(not(feature = "debug-invariants"))]
        {
            let _ = (rank, name);
            Self {}
        }
    }
}

impl Drop for Registration {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "debug-invariants")]
        audit::release(self.rank, self.name);
    }
}

/// A [`parking_lot::Mutex`] carrying a declared rank from [`ranks`]; with
/// `debug-invariants` every acquisition is checked against the thread's
/// acquisition stack.
#[derive(Debug)]
pub struct RankedMutex<T> {
    rank: u8,
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// Creates the lock with its declared rank and display name.
    pub fn new(rank: u8, name: &'static str, value: T) -> Self {
        Self {
            rank,
            name,
            inner: Mutex::new(value),
        }
    }

    /// Runs `f` on the locked value and releases the lock when `f` returns
    /// or unwinds, auditing the acquisition order under `debug-invariants`.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let _registration = Registration::acquire(self.rank, self.name);
        f(&mut self.inner.lock())
    }
}

/// A [`parking_lot::RwLock`] carrying a declared rank from [`ranks`]; both
/// read and write acquisitions are audited under `debug-invariants`.
#[derive(Debug)]
pub struct RankedRwLock<T> {
    rank: u8,
    name: &'static str,
    inner: RwLock<T>,
}

impl<T> RankedRwLock<T> {
    /// Creates the lock with its declared rank and display name.
    pub fn new(rank: u8, name: &'static str, value: T) -> Self {
        Self {
            rank,
            name,
            inner: RwLock::new(value),
        }
    }

    /// Runs `f` with shared read access, as [`RankedMutex::with`].
    #[inline]
    pub fn read_with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let _registration = Registration::acquire(self.rank, self.name);
        f(&self.inner.read())
    }

    /// Runs `f` with exclusive write access, as [`RankedMutex::with`].
    #[inline]
    pub fn write_with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let _registration = Registration::acquire(self.rank, self.name);
        f(&mut self.inner.write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_acquisition_is_clean() {
        let low = RankedMutex::new(ranks::PREPARED_CUMULATIVE, "prepared.cumulative", 1u32);
        let high = RankedMutex::new(ranks::SERVING_HISTOGRAM, "serving.histogram", 2u32);
        let sum = low.with(|a| {
            high.with(|b| {
                #[cfg(feature = "debug-invariants")]
                assert_eq!(audit::held_count(), 2);
                *a + *b
            })
        });
        assert_eq!(sum, 3);
        #[cfg(feature = "debug-invariants")]
        assert_eq!(audit::held_count(), 0);
    }

    #[test]
    fn rwlock_read_then_higher_mutex_is_clean() {
        let epoch = RankedRwLock::new(ranks::PREPARED_EPOCH, "prepared.epoch", 7u32);
        let cumulative = RankedMutex::new(ranks::PREPARED_CUMULATIVE, "prepared.cumulative", 0u32);
        epoch.write_with(|r| *r += 1);
        assert_eq!(epoch.read_with(|r| cumulative.with(|c| *r + *c)), 8);
    }

    /// The provocation test: acquiring a lower-ranked lock while holding a
    /// higher-ranked one must fire the auditor, and the unwind releases
    /// what was held.
    #[cfg(feature = "debug-invariants")]
    #[test]
    fn out_of_order_acquisition_fires_the_auditor() {
        let outcome = std::panic::catch_unwind(|| {
            let high = RankedMutex::new(ranks::SERVING_HISTOGRAM, "serving.histogram", ());
            let low = RankedMutex::new(ranks::PREPARED_CUMULATIVE, "prepared.cumulative", ());
            high.with(|_| low.with(|_| ()));
        });
        let err = outcome.expect_err("auditor must fire on inversion");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".to_string());
        assert!(msg.contains("lock-order violation"), "got: {msg}");
        assert_eq!(audit::held_count(), 0);
    }

    /// Same-rank nesting (two shards of one family) is a violation too.
    #[cfg(feature = "debug-invariants")]
    #[test]
    fn same_rank_nesting_fires_the_auditor() {
        let outcome = std::panic::catch_unwind(|| {
            let a = RankedMutex::new(ranks::SERVING_HISTOGRAM, "serving.histogram", ());
            let b = RankedMutex::new(ranks::SERVING_HISTOGRAM, "serving.histogram", ());
            a.with(|_| b.with(|_| ()));
        });
        assert!(outcome.is_err(), "same-rank nesting must fire");
        assert_eq!(audit::held_count(), 0);
    }
}
