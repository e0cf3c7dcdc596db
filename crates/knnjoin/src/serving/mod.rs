//! A concurrent in-process serving front-end over a [`PreparedJoin`].
//!
//! A prepared probe holds `S` resident, so answering a point costs what its
//! scan costs (assign → θ for the touched cell → scan; see
//! [`crate::prepared`]) — there is no per-probe job to set up and nothing for
//! a batch to amortise.  What a serving system still needs is *many clients
//! at once*; the [`Server`] adds the three mechanisms that takes:
//!
//! * **Work-conserving dispatch, coalescing under load** — an idle worker
//!   takes whatever single-point queries are queued (up to
//!   [`ServerConfig::max_batch`]) the moment it sees them; nobody waits on a
//!   timer.  Batches therefore form only while every worker is busy, which
//!   is exactly when they pay: one queue hand-off, one epoch snapshot and
//!   one metrics record cover the whole batch.  Each row is handed back to
//!   its own caller under its own point id.  Coalesced answers are
//!   bit-identical (in the repo's distance-exact sense, see
//!   [`crate::JoinResult::mismatch_against`]) to uncoalesced
//!   [`PreparedJoin::query_one`] calls because every probe algorithm ranks
//!   each `R` point independently by its coordinates alone.
//! * **Admission control** — requests are validated (dimensionality, finite
//!   coordinates) before they are queued, so one client's bad point fails
//!   synchronously with its own index and can never fail a batch it would
//!   have shared with others; the queue is depth-capped, and a submit over
//!   the cap returns [`JoinError::Overloaded`] *immediately* instead of
//!   queueing unboundedly, so overload surfaces as typed back-pressure
//!   rather than latency collapse.
//! * **Bounded workers + mergeable latency histograms** — a fixed pool of
//!   worker threads drains the queue; each records per-request latency into
//!   its own [`LatencyHistogram`], merged on demand by [`Server::stats`]
//!   into p50/p95/p99 and QPS.
//!
//! The corpus stays fully mutable underneath: writers call
//! [`PreparedJoin::insert`] / [`PreparedJoin::delete`] /
//! [`PreparedJoin::compact`] on the shared handle while the server probes it,
//! and every answer is snapshot-consistent with one published epoch.
//!
//! ```
//! use datagen::uniform;
//! use knnjoin::serving::{Server, ServerConfig};
//! use knnjoin::{Algorithm, ExecutionContext, JoinBuilder};
//!
//! let corpus = uniform(400, 2, 100.0, 1);
//! let queries = uniform(8, 2, 100.0, 2);
//! let ctx = ExecutionContext::default();
//! let prepared = JoinBuilder::new(&queries, &corpus)
//!     .k(3)
//!     .algorithm(Algorithm::Pgbj)
//!     .prepare(&ctx)
//!     .unwrap();
//!
//! let server = Server::start(prepared, ServerConfig::default());
//! for point in queries.iter() {
//!     let row = server.query_one(point.clone()).unwrap();
//!     assert_eq!(row.r_id, point.id);
//!     assert_eq!(row.neighbors.len(), 3);
//! }
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 8);
//! ```

mod histogram;

pub use histogram::LatencyHistogram;

use crate::prepared::PreparedJoin;
use crate::result::{JoinError, JoinResult, JoinRow};
use geom::{Point, PointSet};
use mapreduce::sync::{ranks, RankedMutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a `std` mutex, tolerating poison: a client thread that panicked
/// mid-submit must not cascade panics into every other client and worker of
/// the server.  The protected state (queues of requests, result cells) stays
/// structurally valid across any panic point, so continuing with the inner
/// value is sound — the same policy the vendored `parking_lot` shim applies
/// workspace-wide.
fn lock_tolerant<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison tolerance as [`lock_tolerant`].
fn wait_tolerant<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs of a [`Server`].
///
/// The defaults suit the repo's test corpora.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the queue (clamped to ≥ 1).
    pub workers: usize,
    /// Most queued single-point queries one worker takes at once (clamped
    /// to ≥ 1; `1` disables coalescing).  A worker never waits for a batch
    /// to fill: it takes what is queued, so batches only form under load.
    pub max_batch: usize,
    /// Admission cap: maximum queued (not yet executing) requests; a submit
    /// beyond this returns [`JoinError::Overloaded`].
    pub queue_depth: usize,
    /// Start with the workers paused (requests queue but do not execute
    /// until [`Server::resume`]).  For deterministic overload and
    /// flush-trigger tests; defaults to `false`.
    pub start_paused: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_batch: 16,
            queue_depth: 1024,
            start_paused: false,
        }
    }
}

impl ServerConfig {
    /// Sets the worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the coalescer's batch-size cap.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the admission queue-depth cap.
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Starts the server paused (see [`ServerConfig::start_paused`]).
    pub fn start_paused(mut self, paused: bool) -> Self {
        self.start_paused = paused;
        self
    }
}

/// A one-shot rendezvous cell: the worker delivers exactly one result, the
/// ticket holder blocks on it.
#[derive(Debug)]
struct Slot<T> {
    cell: Mutex<Option<Result<T, JoinError>>>,
    ready: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Self {
            cell: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn deliver(&self, value: Result<T, JoinError>) {
        *lock_tolerant(&self.cell) = Some(value);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<T, JoinError> {
        let mut cell = lock_tolerant(&self.cell);
        loop {
            match cell.take() {
                Some(value) => return value,
                None => cell = wait_tolerant(&self.ready, cell),
            }
        }
    }
}

/// A claim on an admitted request's eventual answer; redeem it with
/// [`Ticket::wait`].  Produced by [`Server::submit_one`] / [`Server::submit`]
/// so a client can pipeline several requests before blocking.
#[derive(Debug)]
pub struct Ticket<T> {
    slot: Arc<Slot<T>>,
}

impl<T> Ticket<T> {
    /// Blocks until the server answers this request.
    pub fn wait(self) -> Result<T, JoinError> {
        self.slot.wait()
    }
}

#[derive(Debug)]
struct SingleRequest {
    point: Point,
    submitted: Instant,
    slot: Arc<Slot<JoinRow>>,
}

#[derive(Debug)]
struct BatchRequest {
    points: PointSet,
    submitted: Instant,
    slot: Arc<Slot<JoinResult>>,
}

/// Queued-but-not-yet-executing work, under the server's one `std` mutex.
/// (`parking_lot`'s vendored shim has no `Condvar`, and the queue needs one;
/// the sharded `parking_lot` locks live where no waiting is needed — the
/// per-worker histograms.)
#[derive(Debug, Default)]
struct Queue {
    singles: VecDeque<SingleRequest>,
    batches: VecDeque<BatchRequest>,
    /// No new admissions; workers exit once both queues are empty.
    draining: bool,
    /// Workers idle (admissions continue); cleared by [`Server::resume`].
    paused: bool,
}

impl Queue {
    fn depth(&self) -> usize {
        self.singles.len() + self.batches.len()
    }
}

#[derive(Debug)]
struct Shared {
    queue: Mutex<Queue>,
    work: Condvar,
    max_batch: usize,
    queue_cap: usize,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    coalesced_batches: AtomicU64,
    coalesced_points: AtomicU64,
    batch_requests: AtomicU64,
    /// One histogram per worker: the hot path locks only its own shard, the
    /// aggregate is a merge (associative, so grouping doesn't matter).
    histograms: Vec<RankedMutex<LatencyHistogram>>,
}

/// One unit of work a worker pulled off the queue.
enum Work {
    /// Coalesced single-point queries, in submission order.
    Coalesced(Vec<SingleRequest>),
    /// A client-provided batch, passed through unsplit.
    Batch(BatchRequest),
    /// Drain complete: the worker exits.
    Exit,
}

/// A concurrent serving front-end: many client threads submit single-point
/// and small-batch kNN queries against one shared [`PreparedJoin`]; a bounded
/// worker pool answers them with coalescing, admission control and per-request
/// latency tracking.  See the [module docs](self) for the dataflow.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    prepared: PreparedJoin,
    started: Instant,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Starts the worker pool over `prepared`.  The corpus handle stays
    /// shareable: clone it before (or take it from [`Server::prepared`]) to
    /// mutate the corpus while the server runs.
    pub fn start(prepared: PreparedJoin, config: ServerConfig) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                paused: config.start_paused,
                ..Queue::default()
            }),
            work: Condvar::new(),
            max_batch: config.max_batch.max(1),
            queue_cap: config.queue_depth.max(1),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            coalesced_batches: AtomicU64::new(0),
            coalesced_points: AtomicU64::new(0),
            batch_requests: AtomicU64::new(0),
            histograms: (0..workers)
                .map(|_| {
                    RankedMutex::new(
                        ranks::SERVING_HISTOGRAM,
                        "serving.histogram",
                        LatencyHistogram::new(),
                    )
                })
                .collect(),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let prepared = prepared.clone();
                std::thread::Builder::new()
                    .name(format!("knnjoin-serve-{index}"))
                    .spawn(move || worker_loop(&shared, &prepared, index))
                    // lint: allow(panic-freedom) -- OS thread exhaustion at
                    // startup has no graceful fallback from this constructor.
                    .expect("spawn serving worker")
            })
            .collect();
        Self {
            shared,
            prepared,
            started: Instant::now(),
            workers: Mutex::new(handles),
        }
    }

    /// The prepared join being served.  Mutating it (insert/delete/compact)
    /// is safe while the server runs: every probe observes one published
    /// epoch.
    pub fn prepared(&self) -> &PreparedJoin {
        &self.prepared
    }

    /// Requests currently queued (admitted, not yet executing).
    pub fn queue_depth(&self) -> usize {
        lock_tolerant(&self.shared.queue).depth()
    }

    /// Admits one single-point query, returning a [`Ticket`] immediately.
    /// The point keeps its id: the answered row's `r_id` is `point.id` even
    /// when the query is coalesced into a batch with other clients' points.
    ///
    /// # Errors
    /// [`JoinError::DimensionalityMismatch`] when the point doesn't match the
    /// corpus, [`JoinError::NonFiniteInput`] (index 0 — the caller's own
    /// point) when a coordinate is `NaN`, infinite or out of range,
    /// [`JoinError::Overloaded`] when the queue is at capacity,
    /// [`JoinError::ServerShutdown`] after [`Server::shutdown`] began.
    pub fn submit_one(&self, point: Point) -> Result<Ticket<JoinRow>, JoinError> {
        self.prepared.validate_rows(&[point.coords.as_slice()])?;
        let slot = Arc::new(Slot::new());
        {
            let mut queue = lock_tolerant(&self.shared.queue);
            self.admit(&queue)?;
            queue.singles.push_back(SingleRequest {
                point,
                submitted: Instant::now(),
                slot: Arc::clone(&slot),
            });
            self.shared.work.notify_one();
        }
        // ORDERING: Relaxed — monotonic statistics counter only.
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(Ticket { slot })
    }

    /// Admits one batch query (executed unsplit, never merged with other
    /// clients' points), returning a [`Ticket`] immediately.
    ///
    /// # Errors
    /// The [`PreparedJoin::query`] validation errors (empty, ragged, wrong
    /// dimensionality, non-finite) surface here synchronously;
    /// [`JoinError::Overloaded`] / [`JoinError::ServerShutdown`] as for
    /// [`Server::submit_one`].
    pub fn submit(&self, points: PointSet) -> Result<Ticket<JoinResult>, JoinError> {
        let rows: Vec<&[f64]> = points.iter().map(|p| p.coords.as_slice()).collect();
        self.prepared.validate_rows(&rows)?;
        let slot = Arc::new(Slot::new());
        {
            let mut queue = lock_tolerant(&self.shared.queue);
            self.admit(&queue)?;
            queue.batches.push_back(BatchRequest {
                points,
                submitted: Instant::now(),
                slot: Arc::clone(&slot),
            });
            self.shared.work.notify_one();
        }
        // ORDERING: Relaxed — monotonic statistics counters only.
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.batch_requests.fetch_add(1, Ordering::Relaxed);
        Ok(Ticket { slot })
    }

    /// Answers one single-point query, blocking until the result is ready.
    pub fn query_one(&self, point: Point) -> Result<JoinRow, JoinError> {
        self.submit_one(point)?.wait()
    }

    /// Answers one batch query, blocking until the result is ready.
    pub fn query(&self, points: PointSet) -> Result<JoinResult, JoinError> {
        self.submit(points)?.wait()
    }

    /// Admission control: reject when draining or at the queue-depth cap.
    fn admit(&self, queue: &Queue) -> Result<(), JoinError> {
        if queue.draining {
            return Err(JoinError::ServerShutdown);
        }
        let depth = queue.depth();
        if depth >= self.shared.queue_cap {
            // ORDERING: Relaxed — monotonic statistics counter only.
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(JoinError::Overloaded {
                depth,
                capacity: self.shared.queue_cap,
            });
        }
        Ok(())
    }

    /// Unpauses the workers (no-op when not paused).
    pub fn resume(&self) {
        let mut queue = lock_tolerant(&self.shared.queue);
        queue.paused = false;
        self.shared.work.notify_all();
    }

    /// A point-in-time view of the serving counters and the merged latency
    /// histogram.
    pub fn stats(&self) -> ServerStats {
        let shared = &*self.shared;
        let mut latency = LatencyHistogram::new();
        for shard in &shared.histograms {
            latency.merge(&shard.lock());
        }
        ServerStats {
            // ORDERING: Relaxed — the stats snapshot is advisory: each
            // counter is independently monotonic and nothing downstream
            // synchronizes on their relative order.
            submitted: shared.submitted.load(Ordering::Relaxed),
            completed: shared.completed.load(Ordering::Relaxed),
            rejected: shared.rejected.load(Ordering::Relaxed),
            failed: shared.failed.load(Ordering::Relaxed),
            coalesced_batches: shared.coalesced_batches.load(Ordering::Relaxed),
            coalesced_points: shared.coalesced_points.load(Ordering::Relaxed),
            batch_requests: shared.batch_requests.load(Ordering::Relaxed),
            latency,
            uptime: self.started.elapsed(),
        }
    }

    /// Stops admitting requests, drains everything already queued (every
    /// outstanding [`Ticket`] is answered — drained work still executes, it
    /// is never dropped), joins the workers, and returns the final stats.
    /// Idempotent; also invoked by `Drop`.  Never panics: a probe that
    /// panicked has already failed its own tickets with
    /// [`JoinError::Internal`] (counted in `failed`), and a worker lost to a
    /// panic anywhere else is not re-raised here.
    pub fn shutdown(&self) -> ServerStats {
        {
            let mut queue = lock_tolerant(&self.shared.queue);
            queue.draining = true;
            // Drain even if the server was paused: shutdown must not strand
            // admitted requests.
            queue.paused = false;
            self.shared.work.notify_all();
        }
        let handles = std::mem::take(&mut *lock_tolerant(&self.workers));
        for handle in handles {
            // A worker's panic payload has nowhere useful to go: the panic
            // hook has reported it, and shutdown (also run by `Drop`) must
            // return the stats it has.
            let _ = handle.join();
        }
        self.stats()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pulls one unit of work, work-conservingly: a client batch passes through
/// as-is, otherwise whatever singles are queued (up to `max_batch`) leave
/// together at once.  A worker only blocks when there is nothing to do, so a
/// lone single on an idle server is probed alone and batches form exactly
/// while all workers are busy.
fn next_work(shared: &Shared) -> Work {
    let mut queue = lock_tolerant(&shared.queue);
    loop {
        if queue.paused {
            queue = wait_tolerant(&shared.work, queue);
            continue;
        }
        let work = if let Some(batch) = queue.batches.pop_front() {
            Work::Batch(batch)
        } else if !queue.singles.is_empty() {
            let take = queue.singles.len().min(shared.max_batch);
            Work::Coalesced(queue.singles.drain(..take).collect())
        } else if queue.draining {
            return Work::Exit;
        } else {
            queue = wait_tolerant(&shared.work, queue);
            continue;
        };
        // More work may remain; wake a peer before running this unit.
        if queue.depth() > 0 {
            shared.work.notify_one();
        }
        return work;
    }
}

fn worker_loop(shared: &Shared, prepared: &PreparedJoin, index: usize) {
    loop {
        match next_work(shared) {
            Work::Coalesced(requests) => run_coalesced(shared, prepared, index, requests),
            Work::Batch(request) => run_batch(shared, prepared, index, request),
            Work::Exit => return,
        }
    }
}

/// Runs one unit's probe, turning a panic inside it into the typed error the
/// unit's tickets are failed with.  A probe holds no lock while it scans and
/// publishes nothing until it returns (see [`PreparedJoin::probe`]), so the
/// worker and the corpus are intact after the unwind and the worker goes on
/// to its next unit.
fn probe_caught<T>(probe: impl FnOnce() -> Result<T, JoinError>) -> Result<T, JoinError> {
    catch_unwind(AssertUnwindSafe(probe)).unwrap_or(Err(JoinError::Internal("a probe panicked")))
}

/// Probes a coalesced batch of single-point queries as one set of borrowed
/// rows, in submission order.  The probe answers positionally and every
/// algorithm ranks a row by its coordinates alone, so ids never enter it:
/// two clients querying the same id can share a batch, and each client's row
/// comes back under its own point id.
fn run_coalesced(
    shared: &Shared,
    prepared: &PreparedJoin,
    index: usize,
    requests: Vec<SingleRequest>,
) {
    // ORDERING: Relaxed — monotonic statistics counters only.
    shared.coalesced_batches.fetch_add(1, Ordering::Relaxed);
    shared
        .coalesced_points
        .fetch_add(requests.len() as u64, Ordering::Relaxed);
    let rows: Vec<&[f64]> = requests
        .iter()
        .map(|request| request.point.coords.as_slice())
        .collect();
    match probe_caught(|| prepared.probe(&rows)) {
        Ok((neighbors, _)) => {
            debug_assert_eq!(neighbors.len(), requests.len());
            for (request, neighbors) in requests.into_iter().zip(neighbors) {
                finish(shared, index, request.submitted, Ok(()));
                request.slot.deliver(Ok(JoinRow {
                    r_id: request.point.id,
                    neighbors,
                }));
            }
        }
        Err(error) => {
            for request in requests {
                finish(shared, index, request.submitted, Err(()));
                request.slot.deliver(Err(error.clone()));
            }
        }
    }
}

fn run_batch(shared: &Shared, prepared: &PreparedJoin, index: usize, request: BatchRequest) {
    let outcome = probe_caught(|| prepared.query(&request.points));
    finish(
        shared,
        index,
        request.submitted,
        outcome.as_ref().map(|_| ()).map_err(|_| ()),
    );
    request.slot.deliver(outcome);
}

/// Books one answered request: latency into this worker's histogram shard,
/// completed/failed counters.
fn finish(shared: &Shared, index: usize, submitted: Instant, outcome: Result<(), ()>) {
    if let Some(shard) = shared.histograms.get(index) {
        shard.lock().record(submitted.elapsed());
    }
    // ORDERING: Relaxed — monotonic statistics counters only.
    match outcome {
        Ok(()) => shared.completed.fetch_add(1, Ordering::Relaxed),
        Err(()) => shared.failed.fetch_add(1, Ordering::Relaxed),
    };
}

/// A snapshot of a [`Server`]'s counters and merged latency histogram.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Requests admitted (singles + batches; excludes rejected).
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests refused by admission control ([`JoinError::Overloaded`]).
    pub rejected: u64,
    /// Admitted requests answered with an error.
    pub failed: u64,
    /// Probe batches formed by the coalescer.
    pub coalesced_batches: u64,
    /// Single-point queries that went through the coalescer.
    pub coalesced_points: u64,
    /// Client-provided batch requests (served unsplit).
    pub batch_requests: u64,
    /// Per-request latencies of all answered requests (merged across
    /// workers); p50/p95/p99 via [`LatencyHistogram::p50`] etc.
    pub latency: LatencyHistogram,
    /// Time since [`Server::start`].
    pub uptime: Duration,
}

impl ServerStats {
    /// Successfully answered requests per second of uptime.
    pub fn qps(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean points per coalesced probe batch (1.0 when nothing coalesced).
    pub fn mean_coalesced_batch(&self) -> f64 {
        if self.coalesced_batches == 0 {
            1.0
        } else {
            self.coalesced_points as f64 / self.coalesced_batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::common::failpoint::POISON;
    use crate::context::ExecutionContext;
    use crate::plan::Algorithm;
    use crate::JoinBuilder;
    use datagen::uniform;

    fn serve_fixture(n: usize, k: usize) -> (PreparedJoin, PointSet) {
        let corpus = uniform(n, 3, 100.0, 11);
        let queries = uniform(32, 3, 100.0, 12);
        let ctx = ExecutionContext::default();
        let prepared = JoinBuilder::new(&queries, &corpus)
            .k(k)
            .algorithm(Algorithm::Pgbj)
            .pivot_count(8)
            .reducers(2)
            .seed(7)
            .prepare(&ctx)
            .unwrap();
        (prepared, queries)
    }

    #[test]
    fn server_answers_singles_with_original_ids() {
        let (prepared, queries) = serve_fixture(300, 4);
        let server = Server::start(prepared.clone(), ServerConfig::default().workers(2));
        for point in queries.iter() {
            let row = server.query_one(point.clone()).unwrap();
            assert_eq!(row.r_id, point.id);
            let direct = prepared.query_one(point).unwrap();
            assert_eq!(row.neighbors.len(), direct.neighbors.len());
            for (a, b) in row.neighbors.iter().zip(&direct.neighbors) {
                assert_eq!(a.distance, b.distance);
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, queries.len() as u64);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.latency.count(), queries.len() as u64);
    }

    #[test]
    fn server_passes_batches_through() {
        let (prepared, queries) = serve_fixture(300, 4);
        let server = Server::start(prepared.clone(), ServerConfig::default());
        let via_server = server.query(queries.clone()).unwrap();
        let direct = prepared.query(&queries).unwrap();
        assert!(via_server.matches(&direct, 0.0));
        let stats = server.shutdown();
        assert_eq!(stats.batch_requests, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn paused_server_queues_then_overloads_deterministically() {
        let (prepared, queries) = serve_fixture(200, 2);
        let cap = 4;
        let server = Server::start(
            prepared,
            ServerConfig::default()
                .workers(1)
                .queue_depth(cap)
                .start_paused(true),
        );
        let mut tickets = Vec::new();
        let mut rejected = 0usize;
        for point in queries.iter() {
            match server.submit_one(point.clone()) {
                Ok(ticket) => tickets.push((point.id, ticket)),
                Err(JoinError::Overloaded { depth, capacity }) => {
                    assert_eq!(depth, cap);
                    assert_eq!(capacity, cap);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert_eq!(tickets.len(), cap);
        assert_eq!(rejected, queries.len() - cap);
        assert_eq!(server.queue_depth(), cap);
        server.resume();
        for (id, ticket) in tickets {
            assert_eq!(ticket.wait().unwrap().r_id, id);
        }
        let stats = server.shutdown();
        assert_eq!(stats.rejected, rejected as u64);
        assert_eq!(stats.completed, cap as u64);
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let (prepared, queries) = serve_fixture(200, 2);
        let server = Server::start(prepared, ServerConfig::default().workers(1));
        server.shutdown();
        let err = server.query_one(queries.iter().next().unwrap().clone());
        assert_eq!(err.unwrap_err(), JoinError::ServerShutdown);
        let err = server.query(queries.clone());
        assert_eq!(err.unwrap_err(), JoinError::ServerShutdown);
    }

    #[test]
    fn invalid_requests_are_rejected_at_submit() {
        let (prepared, _) = serve_fixture(200, 2);
        let server = Server::start(prepared, ServerConfig::default().workers(1));
        let wrong_dims = Point::new(1, vec![1.0, 2.0]);
        assert!(matches!(
            server.submit_one(wrong_dims),
            Err(JoinError::DimensionalityMismatch {
                r_dims: 2,
                s_dims: 3
            })
        ));
        assert!(matches!(
            server.submit(PointSet::from_points(vec![])),
            Err(JoinError::EmptyInput("R"))
        ));
        let ragged = PointSet::from_points(vec![
            Point::new(1, vec![1.0, 2.0, 3.0]),
            Point::new(2, vec![1.0]),
        ]);
        assert!(matches!(
            server.submit(ragged),
            Err(JoinError::RaggedInput { index: 1, .. })
        ));
        let stats = server.shutdown();
        // Submit-time validation failures are neither admitted nor counted
        // as overload rejections.
        assert_eq!(stats.submitted, 0);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn drain_answers_every_admitted_request() {
        let (prepared, queries) = serve_fixture(200, 2);
        // Paused server: nothing is taken off the queue on its own;
        // shutdown's drain must still answer every ticket.
        let server = Server::start(
            prepared,
            ServerConfig::default().workers(2).start_paused(true),
        );
        let tickets: Vec<_> = queries
            .iter()
            .map(|p| (p.id, server.submit_one(p.clone()).unwrap()))
            .collect();
        let stats = server.shutdown();
        assert_eq!(stats.completed, queries.len() as u64);
        for (id, ticket) in tickets {
            assert_eq!(ticket.wait().unwrap().r_id, id);
        }
    }

    #[test]
    fn stats_expose_throughput_and_coalescing_shape() {
        let (prepared, queries) = serve_fixture(300, 3);
        let server = Server::start(
            prepared,
            ServerConfig::default()
                .workers(1)
                .max_batch(8)
                .start_paused(true),
        );
        let tickets: Vec<_> = queries
            .iter()
            .map(|p| server.submit_one(p.clone()).unwrap())
            .collect();
        server.resume();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.coalesced_points, queries.len() as u64);
        // 32 singles queued behind one paused worker, batch cap 8 ⇒ exactly
        // 4 full probe batches on resume.
        assert_eq!(stats.coalesced_batches, 4);
        assert_eq!(stats.mean_coalesced_batch(), 8.0);
        assert!(stats.qps() > 0.0);
        assert!(stats.latency.p50() <= stats.latency.p99());
    }

    /// Fault injection at `probe_rows`: a probe that panics fails exactly
    /// the tickets of its own unit with a typed `Internal`, the one worker
    /// survives to serve the units queued behind it and a fresh query, and
    /// shutdown returns the stats — no ticket is left waiting.
    #[test]
    fn a_panicking_probe_fails_only_its_own_unit_and_the_worker_lives() {
        let (prepared, queries) = serve_fixture(300, 3);
        let server = Server::start(
            prepared,
            ServerConfig::default()
                .workers(1)
                .max_batch(4)
                .start_paused(true),
        );
        let poisoned = |id| Point::new(id, vec![POISON, 1.0, 2.0]);
        // Two coalesced units of four singles; the poisoned single sits in
        // the middle of the first.
        let singles: Vec<_> = queries
            .iter()
            .take(8)
            .enumerate()
            .map(|(at, p)| {
                let point = if at == 1 { poisoned(p.id) } else { p.clone() };
                (at, p.id, server.submit_one(point).unwrap())
            })
            .collect();
        let mut with_poison = queries.points()[8..12].to_vec();
        with_poison.push(poisoned(77));
        let bad_batch = server.submit(PointSet::from_points(with_poison)).unwrap();
        let clean = PointSet::from_points(queries.points()[8..12].to_vec());
        let good_batch = server.submit(clean).unwrap();
        server.resume();

        assert_eq!(
            bad_batch.wait().unwrap_err(),
            JoinError::Internal("a probe panicked")
        );
        assert_eq!(good_batch.wait().unwrap().rows.len(), 4);
        for (at, id, ticket) in singles {
            match ticket.wait() {
                Ok(row) => assert!(at >= 4 && row.r_id == id, "single {at} was answered"),
                Err(error) => {
                    assert!(at < 4, "single {at} shared no unit with the poison");
                    assert_eq!(error.kind(), crate::JoinErrorKind::Internal);
                }
            }
        }
        // The same worker answers what comes next.
        let next = queries.points()[12].clone();
        assert_eq!(server.query_one(next.clone()).unwrap().r_id, next.id);
        let stats = server.shutdown();
        assert_eq!(stats.failed, 4 + 1);
        assert_eq!(stats.completed, 4 + 1 + 1);
        assert_eq!(stats.submitted, 8 + 2 + 1);
        assert_eq!(server.queue_depth(), 0);
    }
}
