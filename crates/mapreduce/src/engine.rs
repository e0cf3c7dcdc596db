//! The job execution engine.
//!
//! [`JobBuilder`] executes a full MapReduce job in-process:
//!
//! 1. the input pairs are divided into map splits,
//! 2. map tasks run in parallel on a bounded worker pool (sized by the
//!    caller's execution context, defaulting to the machine's parallelism);
//!    each task hash-routes every pair it emits into a **per-task,
//!    per-reduce-partition buffer** using the job's [`Partitioner`], stably
//!    sorts each buffer by key (Hadoop's spill sort), runs the optional
//!    [`Combiner`] over each buffer's key runs — so a combined buffer comes
//!    out sorted too — and accounts the byte size of everything that
//!    survives towards the shuffle (mirroring Hadoop's partitioned, sorted
//!    spill files and map-side combine),
//! 3. the shuffle hands each reduce partition the sorted runs every map task
//!    produced for it — a transpose of already-routed buffers, with no
//!    global materialisation and no global sort,
//! 4. reduce tasks run in parallel, one per partition; each task concatenates
//!    its runs in map-task order and stably sorts them, which merges the
//!    presorted runs (Hadoop's merge phase), then runs the [`Reducer`] once
//!    per key on that key's values — moved into one reused buffer and
//!    dropped as soon as the call returns, so no map and no per-key `Vec` is
//!    built — and
//! 5. per-phase timings and shuffle and combine volume are reported as
//!    [`JobMetrics`].
//!
//! Output order is deterministic regardless of the worker-pool size: reduce
//! partitions appear in partition order, keys ascend within a partition, and
//! the values of one key arrive in map-task order (then emission order) —
//! both sorts are stable.

use crate::bytesize::ByteSize;
use crate::job::{
    Combiner, HashPartitioner, MapContext, Mapper, Partitioner, ReduceContext, Reducer,
};
use crate::metrics::{JobMetrics, PhaseTimings};
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worker-thread count used when the caller supplies none: one thread per
/// available core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item on up to `workers` scoped threads, preserving
/// the input order of the results (task index is passed through to `f`).
/// This is the engine's one worker pool: map and reduce tasks run on it, and
/// so do the row ranges of a prepared probe, which has no shuffle to run.
///
/// Task indices are handed out by one atomic counter, so a worker that drew
/// short tasks draws more of them; each worker returns its `(index, result)`
/// pairs through its join handle.  No worker ever waits for another: task
/// `i`'s input sits in its own take-once cell until the one worker that drew
/// `i` empties it, before `f` runs.  (The cell is a `Mutex<Option<T>>`
/// because safe Rust moves a value out through a shared reference no other
/// way; it is locked once, never contended and never held across `f`, so it
/// has no place in the lock order of [`crate::sync`].)
///
/// # Panics
/// Re-raises the panic of a task, with its payload.
pub fn parallel_map<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let run_tasks = || {
        let mut done = Vec::new();
        loop {
            // ORDERING: Relaxed — the counter only makes the drawn indices
            // distinct; inputs reach a worker through the scope's spawn and
            // results leave it through the join, which synchronize.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(cell) = cells.get(i) else {
                return done;
            };
            let item = cell
                .lock()
                .expect("no task runs under a cell's lock")
                .take();
            done.push((i, f(i, item.expect("a task index is drawn once"))));
        }
    };
    let mut results: Vec<Option<U>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(run_tasks)).collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => done.into_iter().for_each(|(i, u)| results[i] = Some(u)),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    results
        .into_iter()
        .map(|result| result.expect("every task produced a result"))
        .collect()
}

/// Errors reported by the engine before any task runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job was configured with zero reduce tasks.
    NoReducers,
    /// The job was configured with zero map tasks.
    NoMapTasks,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::NoReducers => write!(f, "job must have at least one reduce task"),
            JobError::NoMapTasks => write!(f, "job must have at least one map task"),
        }
    }
}

impl std::error::Error for JobError {}

/// One reduce partition's share of one map task's output: the routed (and
/// possibly combined) pairs, sorted by key, plus the shuffle volume they are
/// charged.
type PartitionBuffer<K, V> = (Vec<(K, V)>, ShuffleVolume);

/// What a run of pairs costs to shuffle: every pair counts
/// [`ByteSize::records`] records, each charged its key, plus the value's
/// bytes.
#[derive(Debug, Clone, Copy, Default)]
struct ShuffleVolume {
    records: u64,
    bytes: u64,
}

impl ShuffleVolume {
    fn charge<K: ByteSize, V: ByteSize>(&mut self, key: &K, value: &V) {
        let records = value.records();
        self.records += records as u64;
        self.bytes += (records * key.byte_size() + value.byte_size()) as u64;
    }
}

/// Everything one reduce partition receives: one sorted run per map task, in
/// map-task order.
type PartitionInput<K, V> = Vec<Vec<(K, V)>>;

/// The result of a completed job: the reduce output plus execution metrics.
#[derive(Debug, Clone)]
pub struct JobOutput<K, V> {
    /// Final key/value pairs emitted by all reduce tasks, in reduce-task order
    /// (task 0's output first), with each task's keys in sorted order.
    pub output: Vec<(K, V)>,
    /// Execution metrics (timings, shuffle and combine volume).
    pub metrics: JobMetrics,
}

/// Fluent configuration for a MapReduce job.
///
/// Mirrors Hadoop's `JobConf`: a name, a number of reduce tasks ("computing
/// nodes" in the paper's experiments) and a number of map tasks (by default
/// one per reduce task, but usually set to the number of input splits).
///
/// # Example
///
/// Count occurrences per key, with the task topology decoupled from the
/// physical worker pool:
///
/// ```
/// use mapreduce::{JobBuilder, MapContext, Mapper, ReduceContext, Reducer};
///
/// struct One;
/// impl Mapper for One {
///     type KIn = u64;
///     type VIn = u64;
///     type KOut = u64;
///     type VOut = u64;
///     fn map(&self, k: &u64, _v: &u64, ctx: &mut MapContext<u64, u64>) {
///         ctx.emit(k % 3, 1);
///     }
/// }
///
/// struct Count;
/// impl Reducer for Count {
///     type KIn = u64;
///     type VIn = u64;
///     type KOut = u64;
///     type VOut = u64;
///     fn reduce(&self, k: &u64, vs: &[u64], ctx: &mut ReduceContext<u64, u64>) {
///         ctx.emit(*k, vs.len() as u64);
///     }
/// }
///
/// let input: Vec<(u64, u64)> = (0..90).map(|i| (i, 0)).collect();
/// let out = JobBuilder::new("count")
///     .reducers(3)   // logical reduce partitions
///     .map_tasks(6)  // logical input splits
///     .workers(2)    // physical threads executing all tasks
///     .run(input, &One, &Count)
///     .unwrap();
/// assert_eq!(out.output.len(), 3);
/// assert!(out.output.iter().all(|&(_, count)| count == 30));
/// assert_eq!(out.metrics.shuffle_records, 90);
/// ```
#[derive(Debug, Clone)]
pub struct JobBuilder {
    name: String,
    num_reducers: usize,
    num_map_tasks: Option<usize>,
    workers: Option<usize>,
}

impl JobBuilder {
    /// Creates a builder for a job with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            num_reducers: 1,
            num_map_tasks: None,
            workers: None,
        }
    }

    /// Sets the number of reduce tasks.
    pub fn reducers(mut self, n: usize) -> Self {
        self.num_reducers = n;
        self
    }

    /// Sets the number of map tasks (defaults to `max(num_reducers, 1)` if the
    /// input is large enough, otherwise one task per input pair).
    pub fn map_tasks(mut self, n: usize) -> Self {
        self.num_map_tasks = Some(n);
        self
    }

    /// Sets how many worker threads execute tasks (tasks are logical units;
    /// this is the physical pool size).  Defaults to [`default_workers`].
    /// Callers running inside an execution context thread its pool size
    /// through here.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Runs the job with the default [`HashPartitioner`].
    ///
    /// # Errors
    /// Returns [`JobError`] if the configuration is invalid.
    pub fn run<M, R>(
        &self,
        input: Vec<(M::KIn, M::VIn)>,
        mapper: &M,
        reducer: &R,
    ) -> Result<JobOutput<R::KOut, R::VOut>, JobError>
    where
        M: Mapper,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    {
        self.run_with_partitioner(input, mapper, reducer, &HashPartitioner)
    }

    /// Runs the job with an explicit partitioner.
    ///
    /// # Errors
    /// Returns [`JobError`] if the configuration is invalid.
    pub fn run_with_partitioner<M, R, P>(
        &self,
        input: Vec<(M::KIn, M::VIn)>,
        mapper: &M,
        reducer: &R,
        partitioner: &P,
    ) -> Result<JobOutput<R::KOut, R::VOut>, JobError>
    where
        M: Mapper,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
        P: Partitioner<M::KOut>,
    {
        self.execute(
            input,
            |split| map_split(mapper, split),
            None,
            reducer,
            partitioner,
        )
    }

    /// Runs the job with the default [`HashPartitioner`] and a map-side
    /// [`Combiner`] over each map task's sorted key runs.
    ///
    /// # Errors
    /// Returns [`JobError`] if the configuration is invalid.
    pub fn run_with_combiner<M, C, R>(
        &self,
        input: Vec<(M::KIn, M::VIn)>,
        mapper: &M,
        combiner: &C,
        reducer: &R,
    ) -> Result<JobOutput<R::KOut, R::VOut>, JobError>
    where
        M: Mapper,
        C: Combiner<K = M::KOut, V = M::VOut>,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    {
        self.execute(
            input,
            |split| map_split(mapper, split),
            Some(combiner),
            reducer,
            &HashPartitioner,
        )
    }

    /// Runs a job whose input is already keyed, with the default
    /// [`HashPartitioner`].  The map step is Hadoop's identity mapper: each
    /// split's pairs move straight into routing, and none is cloned.
    ///
    /// # Errors
    /// Returns [`JobError`] if the configuration is invalid.
    pub fn run_keyed<R>(
        &self,
        input: Vec<(R::KIn, R::VIn)>,
        reducer: &R,
    ) -> Result<JobOutput<R::KOut, R::VOut>, JobError>
    where
        R: Reducer,
        R::KIn: ByteSize,
        R::VIn: ByteSize,
    {
        self.execute(input, |split| split, None, reducer, &HashPartitioner)
    }

    /// Executes the job: the one body behind every `run*` method, which
    /// differ only in the map step that turns a split into emitted pairs.
    ///
    /// When a combiner is supplied, each map task runs it over each sorted
    /// buffer before anything is handed to the shuffle; the reported
    /// `shuffle_records` / `shuffle_bytes` reflect the combined (smaller)
    /// volume, just like Hadoop's "reduce shuffle bytes" counter.
    ///
    /// # Errors
    /// Returns [`JobError`] if the job has no reducers or an explicit
    /// `num_map_tasks` of zero.
    fn execute<KIn, VIn, K, V, R, P>(
        &self,
        input: Vec<(KIn, VIn)>,
        map: impl Fn(Vec<(KIn, VIn)>) -> Vec<(K, V)> + Sync,
        combiner: Option<&dyn Combiner<K = K, V = V>>,
        reducer: &R,
        partitioner: &P,
    ) -> Result<JobOutput<R::KOut, R::VOut>, JobError>
    where
        KIn: Send,
        VIn: Send,
        K: Send + Clone + Ord + Hash + ByteSize,
        V: Send + Clone + ByteSize,
        R: Reducer<KIn = K, VIn = V>,
        P: Partitioner<K>,
    {
        let num_reducers = self.num_reducers;
        if num_reducers == 0 {
            return Err(JobError::NoReducers);
        }
        let requested_map_tasks = self.num_map_tasks.unwrap_or(num_reducers);
        if requested_map_tasks == 0 {
            return Err(JobError::NoMapTasks);
        }
        let workers = self.workers.unwrap_or_else(default_workers).max(1);
        let input_records = input.len() as u64;

        // ---- Map phase ---------------------------------------------------
        // Each map task routes its own output into one buffer per reduce
        // partition, sorts and combines each buffer in place, so all
        // per-record shuffle work (routing, sorting, combining, byte
        // accounting) happens inside the parallel region — the analogue of
        // Hadoop's partitioned, sorted, combined spill files.
        let map_start = Instant::now();
        let splits = make_splits(input, requested_map_tasks);
        let map_tasks = splits.len().max(1);
        let map_results = parallel_map(splits, workers, |_, split| {
            let emitted = map(split);
            let count = emitted.len() as u64;
            (spill(emitted, combiner, partitioner, num_reducers), count)
        });
        let map_time = map_start.elapsed();

        // ---- Shuffle phase -----------------------------------------------
        // The pairs are already routed; the shuffle is a transpose that hands
        // partition `p` the run every map task produced for it, moving whole
        // buffers rather than records.
        let shuffle_start = Instant::now();
        let mut shuffle_records = 0u64;
        let mut shuffle_bytes = 0u64;
        // With a combiner every emitted pair goes into it, and what crosses
        // the shuffle is what came out.
        let (mut combine_input_records, mut combine_output_records) = (0u64, 0u64);
        let mut partition_inputs: Vec<PartitionInput<K, V>> = (0..num_reducers)
            .map(|_| Vec::with_capacity(map_tasks))
            .collect();
        for (task_buffers, emitted) in map_results {
            for (p, (buffer, volume)) in task_buffers.into_iter().enumerate() {
                shuffle_records += volume.records;
                shuffle_bytes += volume.bytes;
                if combiner.is_some() {
                    combine_output_records += buffer.len() as u64;
                }
                partition_inputs[p].push(buffer);
            }
            if combiner.is_some() {
                combine_input_records += emitted;
            }
        }
        let shuffle_time = shuffle_start.elapsed();

        // ---- Reduce phase ------------------------------------------------
        // Each reduce task merges the sorted runs it received into key groups
        // (the sort/group guarantee) and runs the reducer — the merge happens
        // per partition inside the parallel region, not globally up front.
        let reduce_start = Instant::now();
        let reduce_outputs: Vec<Vec<(R::KOut, R::VOut)>> =
            parallel_map(partition_inputs, workers, |_, runs| {
                let mut merged = Vec::with_capacity(runs.iter().map(Vec::len).sum());
                for mut run in runs {
                    merged.append(&mut run);
                }
                let mut ctx = ReduceContext::default();
                for_each_group(merged, |k, vs| reducer.reduce(k, vs, &mut ctx));
                ctx.emitted
            });
        let reduce_time = reduce_start.elapsed();

        let output: Vec<_> = reduce_outputs.into_iter().flatten().collect();
        let metrics = JobMetrics {
            job_name: self.name.clone(),
            map_tasks,
            reduce_tasks: num_reducers,
            input_records,
            shuffle_records,
            shuffle_bytes,
            combine_input_records,
            combine_output_records,
            output_records: output.len() as u64,
            timings: PhaseTimings {
                map: map_time,
                shuffle: shuffle_time,
                reduce: reduce_time,
            },
        };
        Ok(JobOutput { output, metrics })
    }
}

/// The map step of the `run*` methods that take a [`Mapper`]: every pair of
/// the split through `mapper`, in order.
fn map_split<M: Mapper>(mapper: &M, split: Vec<(M::KIn, M::VIn)>) -> Vec<(M::KOut, M::VOut)> {
    let mut ctx = MapContext::default();
    for (k, v) in &split {
        mapper.map(k, v, &mut ctx);
    }
    ctx.emitted
}

/// Writes one map task's spill: routes its output into one buffer per reduce
/// partition, stably sorts each buffer by key, applies the optional combiner
/// to each buffer's key runs, and accounts the shuffle bytes of whatever
/// survives.  Runs inside the map task, so all of it is parallel across map
/// tasks.
fn spill<K, V, P>(
    emitted: Vec<(K, V)>,
    combiner: Option<&dyn Combiner<K = K, V = V>>,
    partitioner: &P,
    num_reducers: usize,
) -> Vec<PartitionBuffer<K, V>>
where
    K: Send + Clone + Ord + Hash + ByteSize,
    V: Send + Clone + ByteSize,
    P: Partitioner<K>,
{
    let mut buffers: Vec<Vec<(K, V)>> = (0..num_reducers).map(|_| Vec::new()).collect();
    for (k, v) in emitted {
        let p = partitioner.partition(&k, num_reducers);
        debug_assert!(p < num_reducers, "partitioner returned out-of-range index");
        buffers[p.min(num_reducers - 1)].push((k, v));
    }
    buffers
        .into_iter()
        .map(|mut buffer| {
            if let Some(c) = combiner {
                let mut combined = Vec::new();
                for_each_group(buffer, |k, vs| {
                    combined.extend(c.combine(k, vs).into_iter().map(|v| (k.clone(), v)));
                });
                buffer = combined;
            } else {
                buffer.sort_by(|a, b| a.0.cmp(&b.0));
            }
            let mut volume = ShuffleVolume::default();
            buffer.iter().for_each(|(k, v)| volume.charge(k, v));
            (buffer, volume)
        })
        .collect()
}

/// Stably sorts `pairs` by key, then calls `f` once per key, in ascending key
/// order, with that key's values in their input order.  On pairs made of
/// presorted runs the sort is a merge.  No map is built: each key's values
/// are moved into one reused buffer, and dropped as soon as `f` returns, so
/// what `f` allocates can reuse what the previous key freed.
fn for_each_group<K: Ord, V>(mut pairs: Vec<(K, V)>, mut f: impl FnMut(&K, &[V])) {
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut pairs = pairs.into_iter().peekable();
    let mut values = Vec::new();
    while let Some((key, value)) = pairs.next() {
        values.push(value);
        while let Some((_, value)) = pairs.next_if(|(k, _)| *k == key) {
            values.push(value);
        }
        f(&key, &values);
        values.clear();
    }
}

/// Splits the input into at most `n` contiguous, near-equal chunks.
fn make_splits<T>(input: Vec<T>, n: usize) -> Vec<Vec<T>> {
    if input.is_empty() {
        return vec![Vec::new()];
    }
    let n = n.min(input.len()).max(1);
    let chunk = input.len().div_ceil(n);
    let mut splits = Vec::with_capacity(n);
    let mut it = input.into_iter();
    loop {
        let split: Vec<T> = it.by_ref().take(chunk).collect();
        if split.is_empty() {
            break;
        }
        splits.push(split);
    }
    splits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::IdentityPartitioner;
    use std::collections::BTreeMap;

    /// Identity mapper over (u64, u64) pairs.
    struct IdMap;
    impl Mapper for IdMap {
        type KIn = u64;
        type VIn = u64;
        type KOut = u64;
        type VOut = u64;
        fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<u64, u64>) {
            ctx.emit(*k, *v);
        }
    }

    /// Sums values per key.
    struct SumRed;
    impl Reducer for SumRed {
        type KIn = u64;
        type VIn = u64;
        type KOut = u64;
        type VOut = u64;
        fn reduce(&self, k: &u64, vs: &[u64], ctx: &mut ReduceContext<u64, u64>) {
            ctx.emit(*k, vs.iter().sum());
        }
    }

    fn pairs(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (i % 10, i)).collect()
    }

    #[test]
    fn sums_match_sequential_computation() {
        let input = pairs(1000);
        let mut expect = BTreeMap::new();
        for (k, v) in &input {
            *expect.entry(*k).or_insert(0u64) += v;
        }
        let out = JobBuilder::new("sum")
            .reducers(4)
            .run(input, &IdMap, &SumRed)
            .unwrap();
        let got: BTreeMap<u64, u64> = out.output.into_iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn metrics_account_records_and_bytes() {
        let input = pairs(100);
        let out = JobBuilder::new("metrics")
            .reducers(3)
            .map_tasks(5)
            .run(input, &IdMap, &SumRed)
            .unwrap();
        let m = &out.metrics;
        assert_eq!(m.job_name, "metrics");
        assert_eq!(m.input_records, 100);
        assert_eq!(m.shuffle_records, 100);
        assert_eq!(m.shuffle_bytes, 100 * 16); // (u64, u64) = 16 bytes each
        assert_eq!(m.output_records, 10);
        assert_eq!(m.map_tasks, 5);
        assert_eq!(m.reduce_tasks, 3);
    }

    #[test]
    fn a_value_standing_for_a_run_is_charged_as_its_records() {
        /// `n` 8-byte records moved as one value.
        #[derive(Clone)]
        struct Run(usize);
        impl ByteSize for Run {
            fn byte_size(&self) -> usize {
                8 * self.0
            }
            fn records(&self) -> usize {
                self.0
            }
        }
        struct RunMap;
        impl Mapper for RunMap {
            type KIn = u64;
            type VIn = u64;
            type KOut = u64;
            type VOut = Run;
            fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<u64, Run>) {
                ctx.emit(*k, Run(*v as usize));
            }
        }
        struct RunRed;
        impl Reducer for RunRed {
            type KIn = u64;
            type VIn = Run;
            type KOut = u64;
            type VOut = u64;
            fn reduce(&self, k: &u64, vs: &[Run], ctx: &mut ReduceContext<u64, u64>) {
                ctx.emit(*k, vs.iter().map(|run| run.0 as u64).sum());
            }
        }
        // Runs of 0..10 records under three keys: 45 records in all, each
        // charged its 8-byte key and its own 8 bytes — what 45 single
        // emissions of (u64, u64) cost in `metrics_account_records_and_bytes`.
        let input: Vec<(u64, u64)> = (0..10).map(|n| (n % 3, n)).collect();
        let out = JobBuilder::new("runs")
            .reducers(2)
            .map_tasks(4)
            .run(input, &RunMap, &RunRed)
            .unwrap();
        assert_eq!(out.metrics.shuffle_records, 45);
        assert_eq!(out.metrics.shuffle_bytes, 45 * 16);
        assert_eq!(out.output.iter().map(|(_, n)| n).sum::<u64>(), 45);
    }

    #[test]
    fn results_are_independent_of_task_counts() {
        let input = pairs(500);
        let single = JobBuilder::new("a")
            .reducers(1)
            .map_tasks(1)
            .run(input.clone(), &IdMap, &SumRed)
            .unwrap();
        let many = JobBuilder::new("b")
            .reducers(13)
            .map_tasks(7)
            .run(input, &IdMap, &SumRed)
            .unwrap();
        let mut a = single.output;
        let mut b = many.output;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_reducers_is_an_error() {
        let err = JobBuilder::new("bad")
            .reducers(0)
            .run(pairs(10), &IdMap, &SumRed)
            .unwrap_err();
        assert_eq!(err, JobError::NoReducers);
        assert!(err.to_string().contains("reduce"));
    }

    #[test]
    fn zero_map_tasks_is_an_error() {
        let err = JobBuilder::new("bad")
            .reducers(1)
            .map_tasks(0)
            .run(pairs(10), &IdMap, &SumRed)
            .unwrap_err();
        assert_eq!(err, JobError::NoMapTasks);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let out = JobBuilder::new("empty")
            .reducers(2)
            .run(Vec::new(), &IdMap, &SumRed)
            .unwrap();
        assert!(out.output.is_empty());
        assert_eq!(out.metrics.input_records, 0);
        assert_eq!(out.metrics.shuffle_bytes, 0);
    }

    #[test]
    fn identity_partitioner_routes_by_key() {
        // With the identity partitioner and as many reducers as keys, each
        // reducer sees exactly one key; the output order groups per reducer.
        struct CellMap;
        impl Mapper for CellMap {
            type KIn = u64;
            type VIn = u64;
            type KOut = u32;
            type VOut = u64;
            fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<u32, u64>) {
                ctx.emit(*k as u32, *v);
            }
        }
        struct CellCount;
        impl Reducer for CellCount {
            type KIn = u32;
            type VIn = u64;
            type KOut = u32;
            type VOut = u64;
            fn reduce(&self, k: &u32, vs: &[u64], ctx: &mut ReduceContext<u32, u64>) {
                ctx.emit(*k, vs.iter().sum());
            }
        }
        let input: Vec<(u64, u64)> = (0..30).map(|i| (i % 3, 1)).collect();
        let out = JobBuilder::new("ident")
            .reducers(3)
            .run_with_partitioner(input, &CellMap, &CellCount, &IdentityPartitioner)
            .unwrap();
        assert_eq!(out.output, vec![(0, 10), (1, 10), (2, 10)]);
    }

    #[test]
    fn reduce_sees_keys_in_sorted_order() {
        struct OrderRed;
        impl Reducer for OrderRed {
            type KIn = u64;
            type VIn = u64;
            type KOut = u64;
            type VOut = u64;
            fn reduce(&self, k: &u64, _vs: &[u64], ctx: &mut ReduceContext<u64, u64>) {
                ctx.emit(*k, 0);
            }
        }
        // Single reducer: output must be exactly the sorted distinct keys.
        let input: Vec<(u64, u64)> = vec![(5, 0), (1, 0), (3, 0), (1, 0), (9, 0)];
        let out = JobBuilder::new("order")
            .reducers(1)
            .run(input, &IdMap, &OrderRed)
            .unwrap();
        let keys: Vec<u64> = out.output.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
    }

    #[test]
    fn combiner_reduces_shuffle_volume_without_changing_results() {
        /// Sums partial counts on the map side.
        struct SumCombiner;
        impl Combiner for SumCombiner {
            type K = u64;
            type V = u64;
            fn combine(&self, _k: &u64, values: &[u64]) -> Vec<u64> {
                vec![values.iter().sum()]
            }
        }
        let input = pairs(1000); // keys 0..10, 100 values each
        let plain = JobBuilder::new("plain")
            .reducers(4)
            .map_tasks(4)
            .run(input.clone(), &IdMap, &SumRed)
            .unwrap();
        let combined = JobBuilder::new("combined")
            .reducers(4)
            .map_tasks(4)
            .run_with_combiner(input, &IdMap, &SumCombiner, &SumRed)
            .unwrap();

        let mut a = plain.output.clone();
        let mut b = combined.output.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "combiner must not change the reduce output");
        // 4 map tasks × 10 keys = 40 combined records instead of 1000.
        assert_eq!(combined.metrics.shuffle_records, 40);
        assert_eq!(plain.metrics.shuffle_records, 1000);
        assert!(combined.metrics.shuffle_bytes < plain.metrics.shuffle_bytes);
    }

    #[test]
    fn identity_combiner_is_a_no_op() {
        /// Passes every value through untouched.
        struct PassThrough;
        impl Combiner for PassThrough {
            type K = u64;
            type V = u64;
            fn combine(&self, _k: &u64, values: &[u64]) -> Vec<u64> {
                values.to_vec()
            }
        }
        let input = pairs(200);
        let plain = JobBuilder::new("plain")
            .reducers(3)
            .map_tasks(3)
            .run(input.clone(), &IdMap, &SumRed)
            .unwrap();
        let ident = JobBuilder::new("ident")
            .reducers(3)
            .map_tasks(3)
            .run_with_combiner(input, &IdMap, &PassThrough, &SumRed)
            .unwrap();
        let mut a = plain.output;
        let mut b = ident.output;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(plain.metrics.shuffle_records, ident.metrics.shuffle_records);
        assert_eq!(plain.metrics.shuffle_bytes, ident.metrics.shuffle_bytes);
    }

    #[test]
    fn explicit_worker_counts_do_not_change_results() {
        let input = pairs(300);
        let mut expect: Vec<(u64, u64)> = JobBuilder::new("w1")
            .reducers(4)
            .workers(1)
            .run(input.clone(), &IdMap, &SumRed)
            .unwrap()
            .output;
        expect.sort();
        for workers in [2usize, 3, 8] {
            let mut got = JobBuilder::new("wn")
                .reducers(4)
                .workers(workers)
                .run(input.clone(), &IdMap, &SumRed)
                .unwrap()
                .output;
            got.sort();
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_map_preserves_order_and_runs_every_item() {
        for workers in [1usize, 2, 5, 64] {
            let out = parallel_map((0..57u64).collect(), workers, |i, x| {
                assert_eq!(i as u64, x);
                x * 2
            });
            assert_eq!(out, (0..57u64).map(|x| x * 2).collect::<Vec<_>>());
        }
        let empty: Vec<u64> = parallel_map(Vec::new(), 4, |_, x: u64| x);
        assert!(empty.is_empty());
    }

    /// Inputs are moved, not cloned (`Box` is not `Clone`), uneven tasks
    /// still land in input order, and a task's panic reaches the caller with
    /// its own payload, as an inline run's would.
    #[test]
    fn parallel_map_moves_inputs_and_re_raises_a_task_panic() {
        let boxed: Vec<Box<usize>> = (0..40).map(Box::new).collect();
        let out = parallel_map(boxed, 3, |i, x| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            *x + 1
        });
        assert_eq!(out, (1..=40).collect::<Vec<_>>());
        let panic = std::panic::catch_unwind(|| {
            parallel_map((0..9u64).collect(), 3, |_, x| assert_ne!(x, 5, "task five"))
        });
        let payload = panic.expect_err("the task panicked");
        assert!(payload
            .downcast_ref::<String>()
            .is_some_and(|msg| msg.contains("task five")));
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn output_is_bit_identical_across_worker_pool_sizes() {
        // Stronger than "same multiset": the exact output *order* must be
        // deterministic (partition order, sorted keys within a partition),
        // whatever the physical pool size.
        let input = pairs(400);
        let reference = JobBuilder::new("det")
            .reducers(5)
            .map_tasks(7)
            .workers(1)
            .run(input.clone(), &IdMap, &SumRed)
            .unwrap()
            .output;
        for workers in [2usize, 4, 16] {
            let got = JobBuilder::new("det")
                .reducers(5)
                .map_tasks(7)
                .workers(workers)
                .run(input.clone(), &IdMap, &SumRed)
                .unwrap()
                .output;
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn metrics_track_shuffle_and_combine_volume() {
        /// Sums partial counts on the map side.
        struct SumCombiner;
        impl Combiner for SumCombiner {
            type K = u64;
            type V = u64;
            fn combine(&self, _k: &u64, values: &[u64]) -> Vec<u64> {
                vec![values.iter().sum()]
            }
        }
        let input = pairs(600); // keys 0..10
        let plain = JobBuilder::new("plain")
            .reducers(4)
            .map_tasks(3)
            .run(input.clone(), &IdMap, &SumRed)
            .unwrap();
        let combined = JobBuilder::new("combined")
            .reducers(4)
            .map_tasks(3)
            .run_with_combiner(input, &IdMap, &SumCombiner, &SumRed)
            .unwrap();

        // Without a combiner the combine volume stays zero.
        let p = &plain.metrics;
        assert_eq!((p.combine_input_records, p.combine_output_records), (0, 0));
        assert_eq!(p.shuffle_records, 600);
        assert_eq!(p.shuffle_bytes, 600 * 16);

        // With a combiner: everything the mappers emitted entered the
        // combiner, one pair per (task, key) left it, and the shuffle
        // carried exactly what left it.
        let m = &combined.metrics;
        assert_eq!(m.combine_input_records, 600);
        assert_eq!(m.combine_output_records, 3 * 10); // tasks × keys
        assert_eq!(m.shuffle_records, m.combine_output_records);
        assert_eq!(m.shuffle_bytes, 30 * 16);
    }

    mod combiner_properties {
        use super::*;
        use proptest::prelude::*;

        /// Sums partial counts on the map side (an associative, commutative
        /// reduction, the combiner contract).
        struct SumCombiner;
        impl Combiner for SumCombiner {
            type K = u64;
            type V = u64;
            fn combine(&self, _k: &u64, values: &[u64]) -> Vec<u64> {
                vec![values.iter().sum()]
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            /// The combiner contract: for an associative reduction, running
            /// the combiner map-side must not change the reduce output, for
            /// any input and any task topology — while never increasing the
            /// shuffle volume.
            #[test]
            fn combining_is_transparent_to_the_reducer(
                raw in proptest::collection::vec(0u64..1000, 0..300),
                map_tasks in 1usize..12,
                reducers in 1usize..8,
                workers in 1usize..6,
            ) {
                let values: Vec<(u64, u64)> = raw.into_iter().map(|v| (v % 20, v)).collect();
                let plain = JobBuilder::new("plain")
                    .reducers(reducers)
                    .map_tasks(map_tasks)
                    .workers(workers)
                    .run(values.clone(), &IdMap, &SumRed)
                    .unwrap();
                let combined = JobBuilder::new("combined")
                    .reducers(reducers)
                    .map_tasks(map_tasks)
                    .workers(workers)
                    .run_with_combiner(values, &IdMap, &SumCombiner, &SumRed)
                    .unwrap();
                // Same partitioner and per-partition sorted keys: the output
                // must be identical record for record, not just as a set.
                prop_assert_eq!(&combined.output, &plain.output);
                prop_assert!(combined.metrics.shuffle_records <= plain.metrics.shuffle_records);
                prop_assert!(combined.metrics.shuffle_bytes <= plain.metrics.shuffle_bytes);
                prop_assert_eq!(
                    combined.metrics.combine_input_records,
                    plain.metrics.shuffle_records
                );
                prop_assert_eq!(
                    combined.metrics.combine_output_records,
                    combined.metrics.shuffle_records
                );
            }
        }
    }

    /// Sort-merge grouping against a `BTreeMap` oracle, which groups each
    /// key's values in (map task, emission) order by construction.
    mod grouping_oracle {
        use super::*;
        use proptest::prelude::*;

        /// Records every call, and answers with the values' sum and count:
        /// two values per (map task, key), whose order the reducer must keep.
        #[derive(Default)]
        struct Recording(Mutex<Vec<(u64, Vec<u64>)>>);
        impl Combiner for Recording {
            type K = u64;
            type V = u64;
            fn combine(&self, k: &u64, values: &[u64]) -> Vec<u64> {
                self.0.lock().unwrap().push((*k, values.to_vec()));
                vec![values.iter().sum(), values.len() as u64]
            }
        }

        impl Recording {
            /// The calls, in a canonical order (map tasks call concurrently).
            fn calls(self) -> Vec<(u64, Vec<u64>)> {
                let mut calls = self.0.into_inner().unwrap();
                calls.sort();
                calls
            }
        }

        /// Emits each key with its values as the reducer received them.
        struct Collect;
        impl Reducer for Collect {
            type KIn = u64;
            type VIn = u64;
            type KOut = u64;
            type VOut = Vec<u64>;
            fn reduce(&self, k: &u64, vs: &[u64], ctx: &mut ReduceContext<u64, Vec<u64>>) {
                ctx.emit(*k, vs.to_vec());
            }
        }

        /// Every counter of a [`JobMetrics`]: all of it but the timings.
        type Counters = (String, usize, usize, u64, u64, u64, u64, u64, u64);

        fn counters(m: &JobMetrics) -> Counters {
            (
                m.job_name.clone(),
                m.map_tasks,
                m.reduce_tasks,
                m.input_records,
                m.shuffle_records,
                m.shuffle_bytes,
                m.combine_input_records,
                m.combine_output_records,
                m.output_records,
            )
        }

        /// The output, the sorted combiner calls and the counters of an
        /// identity-mapped job with the [`Recording`] combiner (or none),
        /// grouped per map task and per reduce partition by `BTreeMap`s.
        type Expected = (Vec<(u64, Vec<u64>)>, Vec<(u64, Vec<u64>)>, Counters);

        fn oracle(
            input: &[(u64, u64)],
            map_tasks: usize,
            reducers: usize,
            combine: bool,
        ) -> Expected {
            let splits = make_splits(input.to_vec(), map_tasks);
            let mut calls = Vec::new();
            let mut shuffled = 0u64;
            let mut partitions: Vec<BTreeMap<u64, Vec<u64>>> = vec![BTreeMap::new(); reducers];
            for split in &splits {
                let mut buffers: Vec<BTreeMap<u64, Vec<u64>>> = vec![BTreeMap::new(); reducers];
                for &(k, v) in split {
                    let p = HashPartitioner.partition(&k, reducers);
                    buffers[p].entry(k).or_default().push(v);
                }
                for (p, buffer) in buffers.into_iter().enumerate() {
                    for (k, vs) in buffer {
                        let vs = if combine {
                            calls.push((k, vs.clone()));
                            vec![vs.iter().sum(), vs.len() as u64]
                        } else {
                            vs
                        };
                        shuffled += vs.len() as u64;
                        partitions[p].entry(k).or_default().extend(vs);
                    }
                }
            }
            calls.sort();
            let output: Vec<_> = partitions.into_iter().flatten().collect();
            let combined = |n: u64| if combine { n } else { 0 };
            let counters = (
                "job".to_string(),
                splits.len(),
                reducers,
                input.len() as u64,
                shuffled,
                shuffled * 16,
                combined(input.len() as u64),
                combined(shuffled),
                output.len() as u64,
            );
            (output, calls, counters)
        }

        /// `raw` keyed into a handful of keys (duplicate-heavy), a few
        /// hundred, or all of `u64` (nearly every key unique), by `spread`;
        /// each value is its pair's input position, so value order shows.
        fn keyed(raw: &[u64], spread: usize) -> Vec<(u64, u64)> {
            let space = [3, 200, u64::MAX][spread];
            raw.iter()
                .enumerate()
                .map(|(i, r)| (r % space, i as u64))
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Keys, the order of each key's values, what every combiner call
            /// sees and every counter equal the `BTreeMap` grouping's.
            #[test]
            fn sort_merge_grouping_matches_a_btreemap_oracle(
                raw in collection::vec(0u64..u64::MAX, 0..400),
                spread in 0usize..3,
                map_tasks in 1usize..10,
                reducers in 1usize..7,
                workers in 1usize..5,
                combine in bool::ANY,
            ) {
                let input = keyed(&raw, spread);
                let recording = Recording::default();
                let job = JobBuilder::new("job")
                    .reducers(reducers)
                    .map_tasks(map_tasks)
                    .workers(workers);
                let out = if combine {
                    job.run_with_combiner(input.clone(), &IdMap, &recording, &Collect)
                } else {
                    job.run(input.clone(), &IdMap, &Collect)
                }
                .unwrap();
                let (output, calls, expected) = oracle(&input, map_tasks, reducers, combine);
                prop_assert_eq!(out.output, output);
                prop_assert_eq!(recording.calls(), calls);
                prop_assert_eq!(counters(&out.metrics), expected);
            }

            /// `run_keyed` is the identity mapper without the clones: the
            /// same output and counters.
            #[test]
            fn run_keyed_equals_an_identity_mapper(
                raw in collection::vec(0u64..u64::MAX, 0..400),
                spread in 0usize..3,
                map_tasks in 1usize..10,
                reducers in 1usize..7,
                workers in 1usize..5,
            ) {
                let input = keyed(&raw, spread);
                let job = JobBuilder::new("job")
                    .reducers(reducers)
                    .map_tasks(map_tasks)
                    .workers(workers);
                let keyed = job.run_keyed(input.clone(), &Collect).unwrap();
                let mapped = job.run(input, &IdMap, &Collect).unwrap();
                prop_assert_eq!(keyed.output, mapped.output);
                prop_assert_eq!(counters(&keyed.metrics), counters(&mapped.metrics));
            }
        }
    }

    #[test]
    fn make_splits_covers_all_elements() {
        let splits = make_splits((0..10).collect::<Vec<_>>(), 3);
        assert_eq!(splits.len(), 3);
        let flat: Vec<i32> = splits.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
        // More tasks than elements degrade gracefully.
        let splits = make_splits(vec![1, 2], 10);
        assert_eq!(splits.len(), 2);
        let splits: Vec<Vec<i32>> = make_splits(Vec::new(), 4);
        assert_eq!(splits.len(), 1);
        assert!(splits[0].is_empty());
    }
}
