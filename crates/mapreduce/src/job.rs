//! User-facing job abstractions: mappers, reducers, partitioners and the
//! contexts through which they emit intermediate and final pairs.

use crate::bytesize::ByteSize;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The map side of a job.
///
/// A mapper receives one input pair at a time and emits zero or more
/// intermediate pairs through the [`MapContext`].  Implementations must be
/// `Send + Sync` because map tasks run concurrently and share the mapper
/// instance, exactly like a Hadoop `Mapper` class shared across task JVMs.
pub trait Mapper: Send + Sync {
    /// Input key type.
    type KIn: Send;
    /// Input value type.
    type VIn: Send;
    /// Intermediate key type.
    type KOut: Send + Clone + Ord + Hash + ByteSize;
    /// Intermediate value type.
    type VOut: Send + Clone + ByteSize;

    /// Processes one input pair.
    fn map(&self, key: &Self::KIn, value: &Self::VIn, ctx: &mut MapContext<Self::KOut, Self::VOut>);
}

/// The reduce side of a job.
///
/// A reducer receives every intermediate key assigned to its partition
/// together with all values emitted for that key (grouped and sorted by key by
/// the shuffle), and emits final output pairs.
pub trait Reducer: Send + Sync {
    /// Intermediate key type (must match the mapper's `KOut`).
    type KIn: Send + Clone + Ord + Hash;
    /// Intermediate value type (must match the mapper's `VOut`).
    type VIn: Send + Clone;
    /// Output key type.
    type KOut: Send + Clone;
    /// Output value type.
    type VOut: Send + Clone;

    /// Processes one intermediate key and all of its values.
    fn reduce(
        &self,
        key: &Self::KIn,
        values: &[Self::VIn],
        ctx: &mut ReduceContext<Self::KOut, Self::VOut>,
    );
}

/// A map-side combiner (Hadoop's `Combiner`): merges the values a single map
/// task emitted for one key *before* they cross the shuffle, trading a little
/// map-side CPU for shuffle volume.
///
/// Combining must be semantically optional — the reducer has to produce the
/// same result whether or not the combiner ran — which is the same contract
/// Hadoop imposes.
///
/// # Example
///
/// A sum is associative, so partial sums can cross the shuffle instead of
/// raw values:
///
/// ```
/// use mapreduce::{Combiner, JobBuilder, MapContext, Mapper, ReduceContext, Reducer};
///
/// struct IdMap;
/// impl Mapper for IdMap {
///     type KIn = u64;
///     type VIn = u64;
///     type KOut = u64;
///     type VOut = u64;
///     fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<u64, u64>) {
///         ctx.emit(*k, *v);
///     }
/// }
///
/// struct Sum;
/// impl Reducer for Sum {
///     type KIn = u64;
///     type VIn = u64;
///     type KOut = u64;
///     type VOut = u64;
///     fn reduce(&self, k: &u64, vs: &[u64], ctx: &mut ReduceContext<u64, u64>) {
///         ctx.emit(*k, vs.iter().sum());
///     }
/// }
///
/// /// Pre-sums each map task's values for a key before they are shuffled.
/// struct PartialSum;
/// impl Combiner for PartialSum {
///     type K = u64;
///     type V = u64;
///     fn combine(&self, _k: &u64, values: &[u64]) -> Vec<u64> {
///         vec![values.iter().sum()]
///     }
/// }
///
/// let input: Vec<(u64, u64)> = (0..100).map(|i| (i % 4, 1)).collect();
/// let job = JobBuilder::new("sum").reducers(2).map_tasks(4);
/// let plain = job.run(input.clone(), &IdMap, &Sum).unwrap();
/// let combined = job.run_with_combiner(input, &IdMap, &PartialSum, &Sum).unwrap();
///
/// // Same answer, far fewer records across the shuffle:
/// assert_eq!(combined.output, plain.output);
/// assert_eq!(plain.metrics.shuffle_records, 100);
/// assert_eq!(combined.metrics.shuffle_records, 16); // 4 tasks × 4 keys
/// assert!(combined.metrics.shuffle_bytes < plain.metrics.shuffle_bytes);
/// ```
pub trait Combiner: Send + Sync {
    /// Intermediate key type (matches the mapper's `KOut`).
    type K: Send + Clone + Ord + Hash + ByteSize;
    /// Intermediate value type (matches the mapper's `VOut`).
    type V: Send + Clone + ByteSize;

    /// Combines the values one map task emitted for `key` into a (usually
    /// smaller) list of values.
    fn combine(&self, key: &Self::K, values: &[Self::V]) -> Vec<Self::V>;
}

/// Routes an intermediate key to one of the `num_reducers` reduce tasks.
pub trait Partitioner<K>: Send + Sync {
    /// Returns the reducer index in `0..num_reducers` for `key`.
    fn partition(&self, key: &K, num_reducers: usize) -> usize;
}

/// Default partitioner: hash of the key modulo the number of reducers, the
/// same policy as Hadoop's `HashPartitioner`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl<K: Hash> Partitioner<K> for HashPartitioner {
    fn partition(&self, key: &K, num_reducers: usize) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % num_reducers as u64) as usize
    }
}

/// A partitioner for keys that *are* the target reducer index (e.g. the group
/// id in the paper's second job).  Keys are taken modulo the reducer count so
/// out-of-range ids still land somewhere deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPartitioner;

impl Partitioner<u32> for IdentityPartitioner {
    fn partition(&self, key: &u32, num_reducers: usize) -> usize {
        (*key as usize) % num_reducers
    }
}

/// Context handed to a map task; collects emitted intermediate pairs.  The
/// engine builds its own; `default()` gives a standalone one for
/// unit-testing a mapper.
#[derive(Debug)]
pub struct MapContext<K, V> {
    pub(crate) emitted: Vec<(K, V)>,
}

impl<K, V> Default for MapContext<K, V> {
    fn default() -> Self {
        Self {
            emitted: Vec::new(),
        }
    }
}

impl<K: ByteSize, V: ByteSize> MapContext<K, V> {
    /// Emits an intermediate key/value pair.
    pub fn emit(&mut self, key: K, value: V) {
        self.emitted.push((key, value));
    }

    /// The pairs emitted so far (exposed for unit-testing mappers).
    pub fn emitted(&self) -> &[(K, V)] {
        &self.emitted
    }
}

/// Context handed to a reduce task; collects final output pairs.  The engine
/// builds its own; `default()` gives a standalone one for unit-testing a
/// reducer.
#[derive(Debug)]
pub struct ReduceContext<K, V> {
    pub(crate) emitted: Vec<(K, V)>,
}

impl<K, V> Default for ReduceContext<K, V> {
    fn default() -> Self {
        Self {
            emitted: Vec::new(),
        }
    }
}

impl<K, V> ReduceContext<K, V> {
    /// Emits a final output pair.
    pub fn emit(&mut self, key: K, value: V) {
        self.emitted.push((key, value));
    }

    /// The pairs emitted so far (exposed for unit-testing reducers).
    pub fn emitted(&self) -> &[(K, V)] {
        &self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_is_deterministic_and_in_range() {
        let p = HashPartitioner;
        for key in 0u64..1000 {
            let a = p.partition(&key, 7);
            let b = p.partition(&key, 7);
            assert_eq!(a, b);
            assert!(a < 7);
        }
    }

    #[test]
    fn hash_partitioner_spreads_keys() {
        let p = HashPartitioner;
        let mut buckets = vec![0usize; 8];
        for key in 0u64..8000 {
            buckets[p.partition(&key, 8)] += 1;
        }
        // Every bucket should receive a reasonable share (no empty buckets).
        assert!(
            buckets.iter().all(|&c| c > 500),
            "skewed buckets: {buckets:?}"
        );
    }

    #[test]
    fn identity_partitioner_uses_key_modulo() {
        let p = IdentityPartitioner;
        assert_eq!(p.partition(&5u32, 4), 1);
        assert_eq!(p.partition(&12u32, 5), 2);
    }

    #[test]
    fn map_context_collects_output() {
        let mut ctx: MapContext<u32, u64> = MapContext::default();
        ctx.emit(1, 2);
        ctx.emit(3, 4);
        assert_eq!(ctx.emitted.len(), 2);
    }

    #[test]
    fn reduce_context_collects_output() {
        let mut ctx: ReduceContext<String, u32> = ReduceContext::default();
        ctx.emit("a".into(), 1);
        assert_eq!(ctx.emitted(), &[("a".to_string(), 1)]);
    }
}
