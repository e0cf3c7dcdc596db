//! Ranked lock wrappers: the workspace's lock-order discipline, made
//! executable.
//!
//! Every long-lived lock in the workspace is declared here with a *rank*; a
//! thread must only acquire locks in strictly increasing rank order.  The
//! declared order (lowest = outermost) is:
//!
//! | rank | lock | lives in |
//! |------|------|----------|
//! | 10 | `prepared.mutate` | `knnjoin::prepared` |
//! | 20 | `prepared.epoch` (`RwLock`) | `knnjoin::prepared` |
//! | 40 | `prepared.cumulative` | `knnjoin::prepared` |
//! | 60 | `serving.histogram` | `knnjoin::serving` |
//!
//! (The serving front-end's request queue uses a `std` mutex because it
//! needs a `Condvar`; it is rank-isolated by construction — no other lock is
//! ever held while acquiring it, and it is always released before any probe
//! runs — and is therefore outside this table.)
//!
//! By default [`RankedMutex`] and [`RankedRwLock`] are zero-cost newtypes
//! over the `parking_lot` shims.  With the `debug-invariants` cargo feature
//! they record a per-thread acquisition stack and `debug_assert!` on every
//! acquisition that the new lock's rank strictly exceeds every rank already
//! held by the thread — an out-of-order acquisition (a potential deadlock,
//! or a violation of the documented discipline) fails the test run at the
//! exact site instead of deadlocking once in a blue moon.  The static twin
//! of this check is `cargo run -p analysis -- check` (lint `lock-order`),
//! which verifies the same table intra-function without running anything.

use parking_lot::{Mutex, RwLock};
use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

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
                debug_assert!(
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

    /// The number of audited locks the current thread holds (test helper).
    pub(super) fn held_count() -> usize {
        HELD.with(|held| held.borrow().len())
    }
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

/// Guard of a [`RankedMutex`]; releases the audit registration on drop.
#[derive(Debug)]
pub struct RankedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    _registration: Registration,
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

    /// Acquires the lock, auditing the acquisition order under
    /// `debug-invariants`.
    #[inline]
    pub fn lock(&self) -> RankedMutexGuard<'_, T> {
        let registration = Registration::acquire(self.rank, self.name);
        RankedMutexGuard {
            guard: self.inner.lock(),
            _registration: registration,
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T> std::ops::Deref for RankedMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for RankedMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
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

/// Read guard of a [`RankedRwLock`].
#[derive(Debug)]
pub struct RankedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    _registration: Registration,
}

/// Write guard of a [`RankedRwLock`].
#[derive(Debug)]
pub struct RankedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    _registration: Registration,
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

    /// Acquires shared read access, auditing the acquisition order under
    /// `debug-invariants`.
    #[inline]
    pub fn read(&self) -> RankedReadGuard<'_, T> {
        let registration = Registration::acquire(self.rank, self.name);
        RankedReadGuard {
            guard: self.inner.read(),
            _registration: registration,
        }
    }

    /// Acquires exclusive write access, auditing the acquisition order under
    /// `debug-invariants`.
    #[inline]
    pub fn write(&self) -> RankedWriteGuard<'_, T> {
        let registration = Registration::acquire(self.rank, self.name);
        RankedWriteGuard {
            guard: self.inner.write(),
            _registration: registration,
        }
    }
}

impl<T> std::ops::Deref for RankedReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::Deref for RankedWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for RankedWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: Default> Default for RankedMutex<T> {
    /// A rank-255 lock named `unranked` — usable, but any lock acquired
    /// while holding it trips the auditor.  Prefer [`RankedMutex::new`] with
    /// a declared rank.
    fn default() -> Self {
        Self::new(u8::MAX, "unranked", T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_acquisition_is_clean() {
        let low = RankedMutex::new(ranks::PREPARED_CUMULATIVE, "prepared.cumulative", 1u32);
        let high = RankedMutex::new(ranks::SERVING_HISTOGRAM, "serving.histogram", 2u32);
        let a = low.lock();
        let b = high.lock();
        assert_eq!(*a + *b, 3);
        #[cfg(feature = "debug-invariants")]
        assert_eq!(audit::held_count(), 2);
        drop(b);
        drop(a);
        #[cfg(feature = "debug-invariants")]
        assert_eq!(audit::held_count(), 0);
    }

    #[test]
    fn rwlock_read_then_higher_mutex_is_clean() {
        let epoch = RankedRwLock::new(ranks::PREPARED_EPOCH, "prepared.epoch", 7u32);
        let cumulative = RankedMutex::new(ranks::PREPARED_CUMULATIVE, "prepared.cumulative", 0u32);
        let r = epoch.read();
        let c = cumulative.lock();
        assert_eq!(*r + *c, 7);
    }

    /// The provocation test: acquiring a lower-ranked lock while holding a
    /// higher-ranked one must fire the auditor (debug builds with the
    /// feature enabled).
    #[cfg(feature = "debug-invariants")]
    #[test]
    fn out_of_order_acquisition_fires_the_auditor() {
        let outcome = std::panic::catch_unwind(|| {
            let high = RankedMutex::new(ranks::SERVING_HISTOGRAM, "serving.histogram", ());
            let low = RankedMutex::new(ranks::PREPARED_CUMULATIVE, "prepared.cumulative", ());
            let _held = high.lock();
            let _violation = low.lock();
        });
        if cfg!(debug_assertions) {
            let err = outcome.expect_err("auditor must fire on inversion");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".to_string());
            assert!(msg.contains("lock-order violation"), "got: {msg}");
            // The poisoned stack entries from the aborted acquisition must
            // not leak into later tests on this thread.
            audit::release(ranks::SERVING_HISTOGRAM, "serving.histogram");
            audit::release(ranks::PREPARED_CUMULATIVE, "prepared.cumulative");
            assert_eq!(audit::held_count(), 0);
        }
    }

    /// Same-rank nesting (two shards of one family) is a violation too.
    #[cfg(feature = "debug-invariants")]
    #[test]
    fn same_rank_nesting_fires_the_auditor() {
        let outcome = std::panic::catch_unwind(|| {
            let a = RankedMutex::new(ranks::SERVING_HISTOGRAM, "serving.histogram", ());
            let b = RankedMutex::new(ranks::SERVING_HISTOGRAM, "serving.histogram", ());
            let _held = a.lock();
            let _violation = b.lock();
        });
        if cfg!(debug_assertions) {
            assert!(outcome.is_err(), "same-rank nesting must fire");
            audit::release(ranks::SERVING_HISTOGRAM, "serving.histogram");
            audit::release(ranks::SERVING_HISTOGRAM, "serving.histogram");
        }
    }
}
