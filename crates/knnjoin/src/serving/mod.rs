//! A concurrent in-process serving front-end over a [`PreparedJoin`].
//!
//! A prepared probe holds `S` resident, so answering a point costs what its
//! scan costs (assign → θ for the touched cell → scan; see
//! [`crate::prepared`]) — there is no per-probe job to set up and nothing for
//! a batch to amortise.  What a serving system still needs is *many clients
//! at once*; the [`Server`] adds the three mechanisms that takes:
//!
//! * **The waiting client probes, coalescing under load** — the server runs
//!   no thread of its own.  [`Ticket::wait`] does the work: a waiter whose
//!   answer is not in yet takes one of [`ServerConfig::workers`] probe
//!   permits and leads a round on its own thread — a single's waiter takes
//!   up to 16 queued singles from the front of the singles lane, a batch's
//!   waiter the front client batch — delivers every answer it took, and
//!   hands the permit back.  Nobody waits on a timer, so a lone single on an
//!   idle server is probed alone; batches form exactly while every permit is
//!   out, which is when they pay: one epoch snapshot and one metrics record
//!   cover the whole batch.  Each row is handed back to its own caller under
//!   its own point id.  Coalesced answers are bit-identical (in the repo's
//!   distance-exact sense, see [`crate::JoinResult::mismatch_against`]) to
//!   uncoalesced [`PreparedJoin::query_one`] calls because every probe
//!   algorithm ranks each `R` point independently by its coordinates alone.
//! * **Admission control** — requests are validated (dimensionality, finite
//!   coordinates) before they are queued, so one client's bad point fails
//!   synchronously with its own index and can never fail a batch it would
//!   have shared with others; the queue is depth-capped, and a submit over
//!   the cap returns [`JoinError::Overloaded`] *immediately* instead of
//!   queueing unboundedly, so overload surfaces as typed back-pressure
//!   rather than latency collapse.  A [`Ticket`] dropped unwaited withdraws
//!   its request, so fire-and-forget clients cannot hold the queue full.
//! * **Bounded permits + mergeable latency histograms** — each permit
//!   records per-request latency into its own [`LatencyHistogram`], merged
//!   on demand by [`Server::stats`] into p50/p95/p99 and QPS.
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

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

// The histogram is outside the panic-freedom perimeter above: its one
// indexing site reads a bucket index clamped below `BUCKETS`
// (`bucket_index_is_monotone_and_in_range`).
#[allow(clippy::indexing_slicing)]
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
use std::time::{Duration, Instant};

/// Most queued singles one round takes.  A round never waits for a batch to
/// fill: it takes what is queued, so batches only form under load.
const MAX_BATCH: usize = 16;

/// Locks a `std` mutex, tolerating poison: a client that panicked mid-submit
/// or mid-round must not cascade panics into every other client.  The queue
/// and the result cells stay structurally valid across any panic point — the
/// policy the vendored `parking_lot` shim applies workspace-wide.
fn lock_tolerant<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs of a [`Server`].
///
/// The defaults suit the repo's test corpora.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Probe permits: how many waiting clients may lead a round at once
    /// (clamped to ≥ 1).  The server spawns no thread; rounds run on the
    /// threads that wait for their answers.
    pub workers: usize,
    /// Admission cap: maximum queued (not yet taken by a round) requests; a
    /// submit beyond this returns [`JoinError::Overloaded`].
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 1024,
        }
    }
}

impl ServerConfig {
    /// Sets the probe-permit count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the admission queue-depth cap.
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }
}

/// A one-shot result cell: a round delivers exactly one result, the ticket
/// holder takes it under the queue lock (see [`Shared::lead_until`]); the
/// cell's lock is a leaf.
type Slot<T> = Mutex<Option<Result<T, JoinError>>>;

/// The queue lane a request waits in, and the lane its waiter leads from.
#[derive(Debug, Clone, Copy)]
enum Lane {
    Singles,
    Batches,
}

/// A claim on an admitted request's eventual answer; redeem it with
/// [`Ticket::wait`].  Produced by [`Server::submit_one`] / [`Server::submit`]
/// so a client can pipeline several requests before blocking: the first
/// `wait` leads a round that takes the others too.  Dropping a ticket
/// unwaited withdraws its request if no round has taken it yet.
#[must_use = "a dropped ticket withdraws its request"]
#[derive(Debug)]
pub struct Ticket<T> {
    slot: Arc<Slot<T>>,
    lane: Lane,
    shared: Arc<Shared>,
}

impl<T> Ticket<T> {
    /// Blocks until this request is answered, leading rounds from its own
    /// lane while a permit is free and the lane has queued work.
    pub fn wait(self) -> Result<T, JoinError> {
        self.shared
            .lead_until(&[self.lane], |_| lock_tolerant(&self.slot).take())
    }
}

impl<T> Drop for Ticket<T> {
    /// Withdraws the request if it is still queued.  A withdrawn request
    /// counts as neither completed nor failed.
    fn drop(&mut self) {
        // Only a queued request or a running round shares the cell; nobody
        // clones it afterwards, so a count of one is final.
        if Arc::strong_count(&self.slot) > 1 {
            let me = Arc::as_ptr(&self.slot).cast::<()>();
            let mut queue = lock_tolerant(&self.shared.queue);
            queue.singles.retain(|r| Arc::as_ptr(&r.slot).cast() != me);
            queue.batches.retain(|r| Arc::as_ptr(&r.slot).cast() != me);
        }
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

/// Queued-but-not-yet-taken work and the free probe permits, under the
/// server's one `std` mutex.  (`parking_lot`'s vendored shim has no
/// `Condvar`, and the queue needs one; the sharded `parking_lot` locks live
/// where no waiting is needed — the per-permit histograms.)
#[derive(Debug, Default)]
struct Queue {
    singles: VecDeque<SingleRequest>,
    batches: VecDeque<BatchRequest>,
    /// Free permits, each the index of its histogram shard.
    permits: Vec<usize>,
    /// No new admissions; [`Server::shutdown`] is draining the queue.
    draining: bool,
}

impl Queue {
    fn depth(&self) -> usize {
        self.singles.len() + self.batches.len()
    }

    /// Takes a free permit and the front unit of `lane`: up to
    /// [`MAX_BATCH`] singles, FIFO, or one client batch, passed through
    /// unsplit.  `None` when either is missing.
    fn lead(&mut self, lane: Lane) -> Option<(usize, Work)> {
        if self.permits.is_empty() {
            return None;
        }
        let work = match lane {
            Lane::Singles if !self.singles.is_empty() => {
                let take = self.singles.len().min(MAX_BATCH);
                Work::Coalesced(self.singles.drain(..take).collect())
            }
            Lane::Singles => return None,
            Lane::Batches => Work::Batch(self.batches.pop_front()?),
        };
        self.permits.pop().map(|permit| (permit, work))
    }
}

#[derive(Debug)]
struct Shared {
    prepared: PreparedJoin,
    queue: Mutex<Queue>,
    /// Signalled once per round, when its permit comes back.
    returned: Condvar,
    queue_cap: usize,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    coalesced_batches: AtomicU64,
    coalesced_points: AtomicU64,
    batch_requests: AtomicU64,
    /// One histogram per permit: the hot path locks only its own shard, the
    /// aggregate is a merge (associative, so grouping doesn't matter).
    histograms: Vec<RankedMutex<LatencyHistogram>>,
}

/// One unit of work a round took off the queue.
enum Work {
    /// Coalesced single-point queries, in submission order.
    Coalesced(Vec<SingleRequest>),
    /// A client-provided batch, passed through unsplit.
    Batch(BatchRequest),
}

/// A permit (its histogram-shard index) on loan to the thread leading a
/// round.  Dropping it — when the round ends or while a panic unwinds —
/// hands it back and wakes every waiter, so no panic strands the followers.
struct Permit<'a>(&'a Shared, usize);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        lock_tolerant(&self.0.queue).permits.push(self.1);
        self.0.returned.notify_all();
    }
}

impl Shared {
    /// Leads rounds from `lanes` on the calling thread until `done` yields,
    /// sleeping whenever no permit is free or the lanes are empty.  `done`
    /// runs under the queue lock, so a cell filled before a permit's return
    /// is seen before the sleep that return would end.
    fn lead_until<R>(&self, lanes: &[Lane], mut done: impl FnMut(&Queue) -> Option<R>) -> R {
        let mut queue = lock_tolerant(&self.queue);
        loop {
            if let Some(value) = done(&queue) {
                return value;
            }
            let Some((index, work)) = lanes.iter().find_map(|&lane| queue.lead(lane)) else {
                queue = self
                    .returned
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            drop(queue);
            let permit = Permit(self, index);
            match work {
                Work::Coalesced(requests) => self.run_coalesced(index, requests),
                Work::Batch(request) => self.run_batch(index, request),
            }
            drop(permit);
            queue = lock_tolerant(&self.queue);
        }
    }

    /// Probes a coalesced batch of single-point queries as one set of
    /// borrowed rows, in submission order.  The probe answers positionally
    /// and every algorithm ranks a row by its coordinates alone, so ids
    /// never enter it: two clients querying the same id can share a batch,
    /// and each client's row comes back under its own point id.
    fn run_coalesced(&self, index: usize, requests: Vec<SingleRequest>) {
        // ORDERING: Relaxed — monotonic statistics counters only.
        self.coalesced_batches.fetch_add(1, Ordering::Relaxed);
        self.coalesced_points
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        let rows: Vec<&[f64]> = requests
            .iter()
            .map(|request| request.point.coords.as_slice())
            .collect();
        match probe_caught(|| self.prepared.probe(&rows)) {
            Ok((neighbors, _)) => {
                debug_assert_eq!(neighbors.len(), requests.len());
                for (request, neighbors) in requests.into_iter().zip(neighbors) {
                    self.finish(index, request.submitted, true);
                    *lock_tolerant(&request.slot) = Some(Ok(JoinRow {
                        r_id: request.point.id,
                        neighbors,
                    }));
                }
            }
            Err(error) => {
                for request in requests {
                    self.finish(index, request.submitted, false);
                    *lock_tolerant(&request.slot) = Some(Err(error.clone()));
                }
            }
        }
    }

    fn run_batch(&self, index: usize, request: BatchRequest) {
        let outcome = probe_caught(|| self.prepared.query(&request.points));
        self.finish(index, request.submitted, outcome.is_ok());
        *lock_tolerant(&request.slot) = Some(outcome);
    }

    /// Books one answered request: latency into this permit's histogram
    /// shard, completed/failed counters.
    fn finish(&self, index: usize, submitted: Instant, ok: bool) {
        if let Some(shard) = self.histograms.get(index) {
            shard.lock().record(submitted.elapsed());
        }
        let counter = if ok { &self.completed } else { &self.failed };
        // ORDERING: Relaxed — monotonic statistics counters only.
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs one unit's probe, turning a panic inside it into the typed error the
/// unit's tickets are failed with.  A probe holds no lock while it scans and
/// publishes nothing until it returns (see [`PreparedJoin::probe`]), so the
/// leading thread and the corpus are intact after the unwind.
fn probe_caught<T>(probe: impl FnOnce() -> Result<T, JoinError>) -> Result<T, JoinError> {
    catch_unwind(AssertUnwindSafe(probe)).unwrap_or(Err(JoinError::Internal("a probe panicked")))
}

/// A concurrent serving front-end: many client threads submit single-point
/// and small-batch kNN queries against one shared [`PreparedJoin`]; the
/// waiting clients answer them under a bounded number of probe permits, with
/// coalescing, admission control and per-request latency tracking.  See the
/// [module docs](self) for the dataflow.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    started: Instant,
}

impl Server {
    /// Starts serving `prepared`; no thread is spawned.  The corpus handle
    /// stays shareable: clone it before (or take it from
    /// [`Server::prepared`]) to mutate the corpus while the server runs.
    pub fn start(prepared: PreparedJoin, config: ServerConfig) -> Self {
        let permits = config.workers.max(1);
        let shared = Arc::new(Shared {
            prepared,
            queue: Mutex::new(Queue {
                permits: (0..permits).collect(),
                ..Queue::default()
            }),
            returned: Condvar::new(),
            queue_cap: config.queue_depth.max(1),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            coalesced_batches: AtomicU64::new(0),
            coalesced_points: AtomicU64::new(0),
            batch_requests: AtomicU64::new(0),
            histograms: (0..permits)
                .map(|_| {
                    RankedMutex::new(
                        ranks::SERVING_HISTOGRAM,
                        "serving.histogram",
                        LatencyHistogram::new(),
                    )
                })
                .collect(),
        });
        Self {
            shared,
            started: Instant::now(),
        }
    }

    /// The prepared join being served.  Mutating it (insert/delete/compact)
    /// is safe while the server runs: every probe observes one published
    /// epoch.
    pub fn prepared(&self) -> &PreparedJoin {
        &self.shared.prepared
    }

    /// Requests currently queued (admitted, not yet taken by a round).
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
        self.prepared().validate_rows(&[point.coords.as_slice()])?;
        let slot = Arc::new(Mutex::new(None));
        self.admit(Lane::Singles)?.singles.push_back(SingleRequest {
            point,
            submitted: Instant::now(),
            slot: Arc::clone(&slot),
        });
        Ok(self.ticket(slot, Lane::Singles))
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
        self.prepared().validate_rows(&rows)?;
        let slot = Arc::new(Mutex::new(None));
        self.admit(Lane::Batches)?.batches.push_back(BatchRequest {
            points,
            submitted: Instant::now(),
            slot: Arc::clone(&slot),
        });
        Ok(self.ticket(slot, Lane::Batches))
    }

    fn ticket<T>(&self, slot: Arc<Slot<T>>, lane: Lane) -> Ticket<T> {
        Ticket {
            slot,
            lane,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Answers one single-point query, blocking until the result is ready.
    pub fn query_one(&self, point: Point) -> Result<JoinRow, JoinError> {
        self.submit_one(point)?.wait()
    }

    /// Answers one batch query, blocking until the result is ready.
    pub fn query(&self, points: PointSet) -> Result<JoinResult, JoinError> {
        self.submit(points)?.wait()
    }

    /// Admission control: reject when draining or at the queue-depth cap,
    /// else hand back the locked queue.  Counts under the queue lock, so the
    /// stats a finished [`Server::shutdown`] returns include every admission.
    fn admit(&self, lane: Lane) -> Result<MutexGuard<'_, Queue>, JoinError> {
        let queue = lock_tolerant(&self.shared.queue);
        if queue.draining {
            return Err(JoinError::ServerShutdown);
        }
        let (depth, capacity) = (queue.depth(), self.shared.queue_cap);
        // ORDERING: Relaxed — monotonic statistics counters only.
        if depth >= capacity {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(JoinError::Overloaded { depth, capacity });
        }
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        if let Lane::Batches = lane {
            self.shared.batch_requests.fetch_add(1, Ordering::Relaxed);
        }
        Ok(queue)
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

    /// Stops admitting requests, then leads rounds from both lanes on the
    /// calling thread until the queue is empty and every permit is back:
    /// every outstanding [`Ticket`] is answered (queued work still executes,
    /// it is never dropped) and the returned stats are final.  Idempotent;
    /// also invoked by `Drop`.  Never panics: a probe that panicked has
    /// already failed its own tickets with [`JoinError::Internal`] (counted
    /// in `failed`).
    pub fn shutdown(&self) -> ServerStats {
        let shared = &*self.shared;
        lock_tolerant(&shared.queue).draining = true;
        shared.lead_until(&[Lane::Singles, Lane::Batches], |queue| {
            (queue.depth() == 0 && queue.permits.len() == shared.histograms.len()).then_some(())
        });
        self.stats()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
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
    /// permits); p50/p95/p99 via [`LatencyHistogram::p50`] etc.
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
    fn a_full_queue_overloads_deterministically() {
        let (prepared, queries) = serve_fixture(200, 2);
        let cap = 4;
        // Nothing runs until a ticket is waited, so the queue fills to `cap`.
        let server = Server::start(
            prepared,
            ServerConfig::default().workers(1).queue_depth(cap),
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
        // Nothing is taken off the queue until a ticket is waited; shutdown's
        // drain must answer every ticket before any wait.
        let server = Server::start(prepared, ServerConfig::default().workers(2));
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
        let server = Server::start(prepared, ServerConfig::default().workers(1));
        let tickets: Vec<_> = queries
            .iter()
            .map(|p| server.submit_one(p.clone()).unwrap())
            .collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.coalesced_points, queries.len() as u64);
        // 32 singles queued before the first wait, at most 16 per round ⇒
        // exactly 2 full probe batches.
        assert_eq!(stats.coalesced_batches, 2);
        assert_eq!(stats.mean_coalesced_batch(), MAX_BATCH as f64);
        assert!(stats.qps() > 0.0);
        assert!(stats.latency.p50() <= stats.latency.p99());
    }

    /// Fault injection at `probe_rows`: a probe that panics fails exactly
    /// the tickets of its own unit with a typed `Internal`, the one permit
    /// comes back to serve the units queued behind it and a fresh query, and
    /// shutdown returns the stats — no ticket is left waiting.
    #[test]
    fn a_panicking_probe_fails_only_its_own_unit_and_the_worker_lives() {
        let (prepared, queries) = serve_fixture(300, 3);
        let server = Server::start(prepared, ServerConfig::default().workers(1));
        let poisoned = |id| Point::new(id, vec![POISON, 1.0, 2.0]);
        // Two coalesced units, of 16 and 4 singles; the poisoned single sits
        // in the first.
        let singles: Vec<_> = queries
            .iter()
            .take(20)
            .enumerate()
            .map(|(at, p)| {
                let point = if at == 1 { poisoned(p.id) } else { p.clone() };
                (at, p.id, server.submit_one(point).unwrap())
            })
            .collect();
        let mut with_poison = queries.points()[20..24].to_vec();
        with_poison.push(poisoned(77));
        let bad_batch = server.submit(PointSet::from_points(with_poison)).unwrap();
        let clean = PointSet::from_points(queries.points()[20..24].to_vec());
        let good_batch = server.submit(clean).unwrap();

        assert_eq!(
            bad_batch.wait().unwrap_err(),
            JoinError::Internal("a probe panicked")
        );
        assert_eq!(good_batch.wait().unwrap().rows.len(), 4);
        for (at, id, ticket) in singles {
            match ticket.wait() {
                Ok(row) => assert!(
                    at >= MAX_BATCH && row.r_id == id,
                    "single {at} was answered"
                ),
                Err(error) => {
                    assert!(at < MAX_BATCH, "single {at} shared no unit with the poison");
                    assert_eq!(error.kind(), crate::JoinErrorKind::Internal);
                }
            }
        }
        // The same permit answers what comes next.
        let next = queries.points()[24].clone();
        assert_eq!(server.query_one(next.clone()).unwrap().r_id, next.id);
        let stats = server.shutdown();
        assert_eq!(stats.failed, 16 + 1);
        assert_eq!(stats.completed, 4 + 1 + 1);
        assert_eq!(stats.submitted, 20 + 2 + 1);
        assert_eq!(server.queue_depth(), 0);
    }

    /// A panic outside `probe_caught` unwinds through the leading client's
    /// `wait`; the permit's drop guard still hands it back, so with one
    /// permit the next query is answered and shutdown returns.
    #[test]
    fn a_round_that_unwinds_returns_its_permit() {
        let (prepared, queries) = serve_fixture(200, 2);
        let server = Server::start(prepared, ServerConfig::default().workers(1));
        let index = lock_tolerant(&server.shared.queue).permits.pop().unwrap();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _permit = Permit(&server.shared, index);
            panic!("a round fails outside its probe");
        }));
        assert!(unwound.is_err());
        assert_eq!(lock_tolerant(&server.shared.queue).permits, vec![index]);
        let next = queries.points()[0].clone();
        assert_eq!(server.query_one(next.clone()).unwrap().r_id, next.id);
        assert_eq!(server.shutdown().completed, 1);
    }

    /// An unwaited ticket's request runs only when another waiter drains it,
    /// so dropping the ticket withdraws it: fire-and-forget clients cannot
    /// hold the queue at its cap.
    #[test]
    fn a_dropped_ticket_withdraws_its_request() {
        let (prepared, queries) = serve_fixture(200, 2);
        let cap = 4;
        let server = Server::start(
            prepared,
            ServerConfig::default().workers(1).queue_depth(cap),
        );
        for point in queries.iter().take(cap) {
            drop(server.submit_one(point.clone()).unwrap());
        }
        drop(server.submit(PointSet::from_points(queries.points()[..2].to_vec())));
        assert_eq!(server.queue_depth(), 0);
        let next = queries.points()[cap].clone();
        assert_eq!(server.query_one(next.clone()).unwrap().r_id, next.id);
        let stats = server.shutdown();
        assert_eq!(stats.submitted, cap as u64 + 2);
        assert_eq!((stats.completed, stats.failed, stats.rejected), (1, 0, 0));
    }
}
