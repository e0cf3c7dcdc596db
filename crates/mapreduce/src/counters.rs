//! Hadoop-style named counters.
//!
//! Map and reduce tasks increment named counters (e.g. "distance
//! computations", "replicated S objects"); the driver reads them after the job
//! completes.  The kNN-join crate uses counters to report the paper's
//! *computation selectivity* and *replication* metrics.

use crate::sync::{ranks, RankedMutex};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Names of the counters the engine itself maintains, alongside whatever
/// user counters the tasks increment.  The `mr.` prefix keeps them from
/// colliding with user counter names.
///
/// These mirror Hadoop's built-in job counters: `REDUCE_SHUFFLE_BYTES`,
/// `COMBINE_INPUT_RECORDS` and `COMBINE_OUTPUT_RECORDS` are the numbers the
/// paper's shuffling-cost analysis reads off the job tracker.
pub mod builtin {
    /// Intermediate pairs that actually crossed the shuffle (post-combine).
    pub const SHUFFLE_RECORDS: &str = "mr.shuffle_records";
    /// Bytes that actually crossed the shuffle (post-combine), per
    /// [`crate::ByteSize`] accounting.
    pub const SHUFFLE_BYTES: &str = "mr.shuffle_bytes";
    /// Pairs fed into the map-side combiner (zero when no combiner is set).
    pub const COMBINE_INPUT_RECORDS: &str = "mr.combine_input_records";
    /// Pairs the combiner emitted towards the shuffle.
    pub const COMBINE_OUTPUT_RECORDS: &str = "mr.combine_output_records";
}

/// A set of named, thread-safe, monotonically increasing counters.
///
/// Cloning a `Counters` handle is cheap and all clones share the same state,
/// mirroring how Hadoop aggregates task counters into job counters.
#[derive(Debug, Clone)]
pub struct Counters {
    inner: Arc<RankedMutex<BTreeMap<String, u64>>>,
}

impl Default for Counters {
    fn default() -> Self {
        Self {
            inner: Arc::new(RankedMutex::new(
                ranks::ENGINE_COUNTERS,
                "engine.counters",
                BTreeMap::new(),
            )),
        }
    }
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name`, creating it at zero if absent.
    /// The name is allocated on that first insert only: tasks call this in
    /// their inner loops with the job-wide lock held.
    pub fn add(&self, name: &str, delta: u64) {
        let mut map = self.inner.lock();
        match map.get_mut(name) {
            Some(value) => *value += delta,
            None => {
                map.insert(name.to_string(), delta);
            }
        }
    }

    /// Increments the counter `name` by one.
    pub fn increment(&self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of the counter `name` (zero if it was never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.inner.lock().get(name).copied().unwrap_or(0)
    }

    /// Snapshot of all counters, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.inner.lock().clone()
    }

    /// Merges another counter set into this one.
    pub fn merge(&self, other: &Counters) {
        let other_snapshot = other.snapshot();
        let mut map = self.inner.lock();
        for (k, v) in other_snapshot {
            *map.entry(k).or_insert(0) += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn add_and_get() {
        let c = Counters::new();
        assert_eq!(c.get("x"), 0);
        c.add("x", 5);
        c.increment("x");
        assert_eq!(c.get("x"), 6);
    }

    #[test]
    fn clones_share_state() {
        let c = Counters::new();
        let c2 = c.clone();
        c2.add("shared", 3);
        assert_eq!(c.get("shared"), 3);
    }

    #[test]
    fn merge_adds_counts() {
        let a = Counters::new();
        let b = Counters::new();
        a.add("x", 1);
        b.add("x", 2);
        b.add("y", 7);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 7);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let c = Counters::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        c.increment("n");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get("n"), 8000);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let c = Counters::new();
        c.add("zeta", 1);
        c.add("alpha", 2);
        let keys: Vec<_> = c.snapshot().into_keys().collect();
        assert_eq!(keys, vec!["alpha".to_string(), "zeta".to_string()]);
    }
}
