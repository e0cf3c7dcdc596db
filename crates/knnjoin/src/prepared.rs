//! The prepared (build/probe) serving surface: [`PreparedJoin`] and
//! [`JoinSession`].
//!
//! Every algorithm in this crate shares a two-phase shape: an expensive
//! S-side *build* (pivot selection + Voronoi partitioning for PGBJ/PBJ,
//! per-block R-trees for H-BRJ, shifted sorted z-copies for H-zkNNJ, flat
//! staging for broadcast/nested-loop) followed by a *probe* over `R`.  The
//! one-shot [`crate::JoinBuilder::run`] fuses the two, so every call rebuilds
//! the S-side state from scratch — fine for the paper's batch experiments,
//! wasteful for a serving system answering many `R` batches against one
//! corpus.
//!
//! [`crate::JoinBuilder::prepare`] splits the phases: it captures all
//! S-side state behind a cheaply-cloneable [`PreparedJoin`] handle, and
//! [`PreparedJoin::query`] answers arbitrary `R` batches against it without
//! re-planning or rebuilding.  Across repeated queries the
//! [`crate::JoinMetrics::index_builds`] and
//! [`crate::JoinMetrics::pivot_selections`] counters stay at zero, and the
//! outputs are bit-identical (in the repo's distance-exact sense, see
//! [`crate::JoinResult::mismatch_against`]) to what the cold path produces —
//! the exact algorithms by the theorems' exactness, H-zkNNJ because the
//! resident sorted copies reproduce the cold candidate windows verbatim.
//!
//! # The probe path
//!
//! The paper's MapReduce jobs exist to ship `S` replicas to the reducers that
//! need them; with `S` resident nothing has to cross a shuffle, so a probe
//! runs no job.  `query`, `query_one`, `query_into` and the
//! [`crate::Server`]'s coalesced batches all enter one routine over
//! *borrowed* coordinate rows, which validates them, snapshots one epoch and
//! answers positionally:
//!
//! 1. **assign** (PGBJ/PBJ) — each row to its Voronoi cell, pruned;
//! 2. **θ for touched cells** (PGBJ/PBJ) — the batch's `T_R` and Algorithm
//!    1's `θ_i`, only for cells the batch landed in (Algorithm 2's `LB`
//!    matrix and Algorithm 4's grouping route shuffled records, of which
//!    there are none);
//! 3. **row ranges** — below
//!    [`crate::algorithms::common::PARALLEL_PROBE_CUT`] rows the batch is
//!    scanned inline on the calling thread, from there up as one contiguous
//!    range per context worker on the engine's scoped threads;
//! 4. **scan** — the family's one per-row scan (Algorithm 3's bounded scan,
//!    the R-tree search, the z-window, the flat block), with the delta
//!    overlay merged in when one is pending.
//!
//! A served query therefore costs what its scan costs, and reports
//! `shuffle_bytes = shuffle_records = r_records_shuffled = 0`; every other
//! counter is what the job-based probe reported, row for row.
//!
//! ```
//! use datagen::uniform;
//! use knnjoin::{Algorithm, ExecutionContext, JoinBuilder};
//!
//! let corpus = uniform(300, 2, 100.0, 1);
//! let batch = uniform(50, 2, 100.0, 2);
//! let ctx = ExecutionContext::default();
//!
//! // Build once...
//! let prepared = JoinBuilder::new(&batch, &corpus)
//!     .k(5)
//!     .algorithm(Algorithm::Pgbj)
//!     .prepare(&ctx)
//!     .unwrap();
//! // ...serve many batches.
//! let result = prepared.query(&batch).unwrap();
//! assert_eq!(result.len(), 50);
//! assert_eq!(result.metrics.index_builds, 0);
//! assert_eq!(result.metrics.pivot_selections, 0);
//! ```

use crate::algorithms::common::{label_rows, ScanKernels};
use crate::algorithms::hbrj::HbrjPrepared;
use crate::algorithms::voronoi::VoronoiPrepared;
use crate::algorithms::zknn::ZknnPrepared;
use crate::context::{ExecutionContext, ServingStats};
use crate::delta::{DeltaOverlay, DeltaStats};
use crate::exact::{check_finite, FlatBlock};
use crate::metrics::{phases, JoinMetrics};
use crate::plan::{Algorithm, JoinPlan};
use crate::result::{JoinError, JoinResult, JoinRow, ResultSink};
use geom::{DistanceMetric, Neighbor, Point, PointId, PointSet};
use mapreduce::sync::{ranks, RankedMutex, RankedRwLock};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The S-side state, one variant per scan family (see each type for what
/// exactly is captured): PGBJ and PBJ share the Voronoi state, the broadcast
/// and nested-loop joins the flat block.
#[derive(Debug)]
enum PreparedState {
    Voronoi(VoronoiPrepared),
    Hbrj(HbrjPrepared),
    Zknn(ZknnPrepared),
    Flat(FlatBlock),
}

impl PreparedState {
    /// Rebuilds the frozen structures with the overlay folded in.  The
    /// partition-based algorithms rebuild only the affected Voronoi cells /
    /// R-tree blocks / z-runs and share the rest; pivots, the quantizer and
    /// every other calibrated artifact are reused unchanged, so compaction
    /// never re-plans.
    fn compact(
        &self,
        materialized: &PointSet,
        delta: &DeltaOverlay,
        plan: &JoinPlan,
        metrics: &mut JoinMetrics,
    ) -> Self {
        match self {
            PreparedState::Voronoi(p) => PreparedState::Voronoi(p.compact(delta, plan, metrics)),
            PreparedState::Hbrj(p) => {
                PreparedState::Hbrj(p.compact(materialized, delta, plan, metrics))
            }
            PreparedState::Zknn(p) => PreparedState::Zknn(p.compact(delta, metrics)),
            PreparedState::Flat(_) => {
                PreparedState::Flat(FlatBlock::compact(materialized, metrics))
            }
        }
    }
}

/// One immutable version of the corpus: the frozen structures plus the
/// resident delta overlay.  Queries clone the `Arc` once and run entirely
/// against that snapshot, so a concurrent mutation or compaction (which
/// *publishes a new* `Epoch` rather than touching this one) can never tear a
/// probe batch.
#[derive(Debug)]
struct Epoch {
    /// Monotonic version, bumped by every effective mutation and compaction.
    number: u64,
    state: Arc<PreparedState>,
    /// The corpus the frozen structures were built over (pre-delta).
    frozen: Arc<PointSet>,
    /// Ids present in `frozen`, for upsert/delete classification.
    frozen_ids: Arc<BTreeSet<PointId>>,
    delta: Arc<DeltaOverlay>,
}

impl Epoch {
    /// Number of live objects: `|frozen| − |tombstones| + |adds|`.
    fn live_len(&self) -> usize {
        self.frozen.len() - self.delta.tombstones_len() + self.delta.adds_len()
    }
}

#[derive(Debug)]
struct Inner {
    plan: JoinPlan,
    ctx: ExecutionContext,
    s_dims: usize,
    /// The current corpus version; replaced wholesale on mutation.  A
    /// read-write lock because the serving hot path only ever *reads* it (one
    /// `Arc` clone per query): concurrent probes never contend with each
    /// other, only (briefly) with an epoch publication.
    epoch: RankedRwLock<Arc<Epoch>>,
    /// Lock-free mirror of the published epoch's `number`, so
    /// [`PreparedJoin::epoch`] (called by the session cache *while holding a
    /// shard lock*) never has to acquire the epoch lock — which would invert
    /// the declared `prepared.epoch < session.shard` order.
    epoch_number: AtomicU64,
    /// Serializes mutations (insert/delete/compact) so overlay updates and
    /// epoch publication are atomic with respect to each other.  Queries
    /// never take this lock.
    mutate: RankedMutex<()>,
    build_metrics: JoinMetrics,
    build_time: Duration,
    queries: AtomicU64,
    query_nanos: AtomicU64,
    cumulative: RankedMutex<JoinMetrics>,
    compactions: AtomicU64,
    compacted_points: AtomicU64,
}

impl Inner {
    fn snapshot(&self) -> Arc<Epoch> {
        Arc::clone(&self.epoch.read())
    }

    fn publish(&self, epoch: Epoch) {
        let number = epoch.number;
        let mut current = self.epoch.write();
        *current = Arc::new(epoch);
        // ORDERING: Release pairs with the Acquire load in
        // `PreparedJoin::epoch`, so a reader that observes the new number
        // also observes every write that produced the epoch; the store
        // happens under the write guard so the mirror can never run ahead of
        // the lock-protected pointer.
        self.epoch_number.store(number, Ordering::Release);
    }
}

/// The corpus an epoch represents, as a cold build would receive it: the
/// frozen points in their original order minus tombstones, then the overlay's
/// adds in ascending id order.
fn materialize(frozen: &PointSet, delta: &DeltaOverlay) -> PointSet {
    let live = frozen.len() - delta.tombstones_len() + delta.adds_len();
    let mut points = Vec::with_capacity(live);
    for p in frozen.iter() {
        if !delta.is_tombstoned(p.id) {
            points.push(p.clone());
        }
    }
    for (id, coords) in delta.adds() {
        points.push(Point::new(id, coords.to_vec()));
    }
    PointSet::from_points(points)
}

/// A join whose S-side state has been built once and can serve arbitrary `R`
/// batches.
///
/// Created by [`crate::JoinBuilder::prepare`].  Cloning is cheap (the state
/// sits behind an [`Arc`]) and clones share the serving statistics, like
/// several request handlers serving one resident index.
#[derive(Debug, Clone)]
pub struct PreparedJoin {
    inner: Arc<Inner>,
}

impl PreparedJoin {
    /// Builds the S-side state for the given validated plan.
    /// `calibration_r` is the builder's `R`: it seeds pivot selection and
    /// the z-domain exactly as the cold path would, so `query` over the same
    /// batch reproduces [`crate::JoinBuilder::run`] bit for bit; the built
    /// state remains valid for every other batch because no bound depends on
    /// where the pivots (or the quantization domain) came from.
    pub(crate) fn build(
        calibration_r: &PointSet,
        s: &PointSet,
        plan: JoinPlan,
        ctx: &ExecutionContext,
    ) -> Result<Self, JoinError> {
        let mut build_metrics = JoinMetrics {
            s_size: s.len(),
            ..Default::default()
        };
        let start = Instant::now();
        let state = match plan.algorithm {
            Algorithm::Pgbj | Algorithm::Pbj => PreparedState::Voronoi(VoronoiPrepared::build(
                calibration_r,
                s,
                &plan,
                &mut build_metrics,
            )),
            Algorithm::Hbrj => {
                PreparedState::Hbrj(HbrjPrepared::build(s, &plan, &mut build_metrics))
            }
            Algorithm::Zknn => PreparedState::Zknn(ZknnPrepared::build(
                calibration_r,
                s,
                &plan,
                &mut build_metrics,
            )),
            Algorithm::BroadcastJoin | Algorithm::NestedLoopJoin => {
                PreparedState::Flat(FlatBlock::build(s, &mut build_metrics))
            }
        };
        let build_time = start.elapsed();
        let epoch = Epoch {
            number: 0,
            state: Arc::new(state),
            frozen_ids: Arc::new(s.iter().map(|p| p.id).collect()),
            frozen: Arc::new(s.clone()),
            delta: Arc::new(DeltaOverlay::default()),
        };
        Ok(Self {
            inner: Arc::new(Inner {
                s_dims: s.dims(),
                ctx: ctx.clone(),
                plan,
                epoch: RankedRwLock::new(ranks::PREPARED_EPOCH, "prepared.epoch", Arc::new(epoch)),
                epoch_number: AtomicU64::new(0),
                mutate: RankedMutex::new(ranks::PREPARED_MUTATE, "prepared.mutate", ()),
                build_metrics,
                build_time,
                queries: AtomicU64::new(0),
                query_nanos: AtomicU64::new(0),
                cumulative: RankedMutex::new(
                    ranks::PREPARED_CUMULATIVE,
                    "prepared.cumulative",
                    JoinMetrics::default(),
                ),
                compactions: AtomicU64::new(0),
                compacted_points: AtomicU64::new(0),
            }),
        })
    }

    /// The validated plan this join serves.
    pub fn plan(&self) -> &JoinPlan {
        &self.inner.plan
    }

    /// The algorithm behind the handle.
    pub fn algorithm(&self) -> Algorithm {
        self.inner.plan.algorithm
    }

    /// Neighbours returned per probe object.
    pub fn k(&self) -> usize {
        self.inner.plan.k
    }

    /// The distance metric.
    pub fn metric(&self) -> DistanceMetric {
        self.inner.plan.metric
    }

    /// Dimensionality of the prepared corpus (every probe point must match).
    pub fn dims(&self) -> usize {
        self.inner.s_dims
    }

    /// Number of *live* resident `S` objects:
    /// `|frozen| − |tombstones| + |adds|`.
    pub fn s_len(&self) -> usize {
        self.inner.snapshot().live_len()
    }

    /// The current corpus version.  Starts at 0 and is bumped by every
    /// effective [`PreparedJoin::insert`], [`PreparedJoin::delete`] and
    /// compaction, so a cached handle whose epoch moved is detectably stale
    /// (see [`SessionKey::epoch`]).
    ///
    /// Reads a lock-free mirror of the published epoch's number, so callers
    /// holding other locks (the session cache's shard mutex in particular)
    /// can poll staleness without acquiring the epoch lock.
    pub fn epoch(&self) -> u64 {
        // ORDERING: Acquire pairs with the Release store in `Inner::publish`.
        self.inner.epoch_number.load(Ordering::Acquire)
    }

    /// The delta layer's current shape: pending overlay sizes plus lifetime
    /// compaction totals.
    pub fn delta_stats(&self) -> DeltaStats {
        let epoch = self.inner.snapshot();
        DeltaStats {
            epoch: epoch.number,
            pending_adds: epoch.delta.adds_len(),
            pending_tombstones: epoch.delta.tombstones_len(),
            // ORDERING: Relaxed — monotonic lifetime totals read for
            // observability; no other memory depends on their value.
            compactions: self.inner.compactions.load(Ordering::Relaxed),
            compacted_points: self.inner.compacted_points.load(Ordering::Relaxed),
        }
    }

    /// The live corpus as a cold [`crate::JoinBuilder::run`] would receive
    /// it: frozen points in their original order minus tombstones, then the
    /// pending adds in ascending id order.  This is the oracle input for the
    /// mutated-equals-cold guarantee.
    pub fn materialized_corpus(&self) -> PointSet {
        let epoch = self.inner.snapshot();
        materialize(&epoch.frozen, &epoch.delta)
    }

    /// Inserts (or upserts) one `S` object into the resident corpus via the
    /// delta memtable.  If `point.id` is already live its coordinates are
    /// replaced; existing handles keep serving their snapshot and the next
    /// query observes the new point.  Triggers a compaction when the overlay
    /// outgrows [`crate::JoinPlan::delta_threshold`].
    ///
    /// # Errors
    /// Returns [`JoinError::DimensionalityMismatch`] when the point's
    /// dimensionality differs from the corpus and
    /// [`JoinError::NonFiniteInput`] when a coordinate is `NaN` or infinite.
    pub fn insert(&self, point: Point) -> Result<(), JoinError> {
        if point.coords.len() != self.inner.s_dims {
            return Err(JoinError::DimensionalityMismatch {
                r_dims: point.coords.len(),
                s_dims: self.inner.s_dims,
            });
        }
        check_finite("S", [point.coords.as_slice()])?;
        let _guard = self.inner.mutate.lock();
        let epoch = self.inner.snapshot();
        let mut delta = (*epoch.delta).clone();
        if epoch.frozen_ids.contains(&point.id) {
            // Upsert over a frozen object: mask the frozen copy, serve the
            // new coordinates from the memtable.
            delta.tombstone(point.id);
        }
        delta.insert_add(point.id, point.coords);
        self.commit(&epoch, delta);
        Ok(())
    }

    /// Deletes one `S` object by id, returning whether it was live.  The
    /// frozen structures are untouched: the id joins the tombstone set and
    /// every probe path masks it before ranking.
    pub fn delete(&self, id: PointId) -> bool {
        let _guard = self.inner.mutate.lock();
        let epoch = self.inner.snapshot();
        let mut delta = (*epoch.delta).clone();
        let in_adds = delta.remove_add(id);
        let newly_tombstoned = epoch.frozen_ids.contains(&id) && delta.tombstone(id);
        if !in_adds && !newly_tombstoned {
            // Nothing changed: don't publish a new epoch for a no-op.
            return false;
        }
        self.commit(&epoch, delta);
        true
    }

    /// Forces a compaction of the pending overlay into a new frozen epoch,
    /// returning whether one ran (`false` when the overlay is empty or the
    /// corpus has no live objects to rebuild over).
    pub fn compact(&self) -> bool {
        let _guard = self.inner.mutate.lock();
        let epoch = self.inner.snapshot();
        if epoch.delta.is_empty() || epoch.live_len() == 0 {
            return false;
        }
        let compacted = self.run_compaction(&epoch, (*epoch.delta).clone());
        self.inner.publish(compacted);
        true
    }

    /// Publishes `delta` as the next epoch, compacting first when the
    /// overlay crossed the plan's threshold.  Caller holds the mutate lock.
    fn commit(&self, epoch: &Epoch, delta: DeltaOverlay) {
        #[cfg(any(test, feature = "debug-invariants"))]
        delta.audit(&epoch.frozen_ids);
        let live = epoch.frozen.len() - delta.tombstones_len() + delta.adds_len();
        if delta.len() > self.inner.plan.delta_threshold && live > 0 {
            let compacted = self.run_compaction(epoch, delta);
            self.inner.publish(compacted);
        } else {
            self.inner.publish(Epoch {
                number: epoch.number + 1,
                state: Arc::clone(&epoch.state),
                frozen: Arc::clone(&epoch.frozen),
                frozen_ids: Arc::clone(&epoch.frozen_ids),
                delta: Arc::new(delta),
            });
        }
    }

    /// Folds `delta` into `epoch`'s frozen structures: partition-local
    /// rebuilds against the materialized corpus, reported through
    /// [`JoinMetrics`] (a `compaction` phase with `compactions = 1`) into
    /// the cumulative metrics and the context's serving log.  Caller holds
    /// the mutate lock.
    fn run_compaction(&self, epoch: &Epoch, delta: DeltaOverlay) -> Epoch {
        #[cfg(any(test, feature = "debug-invariants"))]
        delta.audit(&epoch.frozen_ids);
        let inner = &*self.inner;
        let start = Instant::now();
        let materialized = materialize(&epoch.frozen, &delta);
        let mut metrics = JoinMetrics {
            s_size: materialized.len(),
            compactions: 1,
            ..Default::default()
        };
        let state = epoch
            .state
            .compact(&materialized, &delta, &inner.plan, &mut metrics);
        metrics.record_phase(phases::COMPACTION, start.elapsed());
        // ORDERING: Relaxed — monotonic statistics counters; readers only
        // need eventual totals, never synchronization with the epoch data
        // (which flows through the epoch lock / its Release mirror).
        inner.compactions.fetch_add(1, Ordering::Relaxed);
        inner
            .compacted_points
            .fetch_add(metrics.compacted_points, Ordering::Relaxed);
        inner.cumulative.lock().absorb(&metrics);
        inner.ctx.record_join(inner.plan.algorithm.name(), &metrics);
        Epoch {
            number: epoch.number + 1,
            state: Arc::new(state),
            frozen_ids: Arc::new(materialized.iter().map(|p| p.id).collect()),
            frozen: Arc::new(materialized),
            delta: Arc::new(DeltaOverlay::default()),
        }
    }

    /// The metrics of the build phase (pivot selection, partitioning, index
    /// builds); per-query metrics never include these costs again.
    pub fn build_metrics(&self) -> &JoinMetrics {
        &self.inner.build_metrics
    }

    /// Serving statistics: queries answered, build time, cumulative query
    /// time (amortization helpers included).
    pub fn stats(&self) -> ServingStats {
        ServingStats {
            // ORDERING: Relaxed — the two counters are bumped independently
            // per query; a snapshot between the two bumps is acceptable for
            // serving statistics and no other state is guarded by them.
            queries: self.inner.queries.load(Ordering::Relaxed),
            build_time: self.inner.build_time,
            total_query_time: Duration::from_nanos(self.inner.query_nanos.load(Ordering::Relaxed)),
        }
    }

    /// The session-wide accumulation of every query's [`JoinMetrics`]
    /// (shared across clones of the handle).
    pub fn cumulative_metrics(&self) -> JoinMetrics {
        self.inner.cumulative.lock().clone()
    }

    /// The one rule set for probe input, shared with the server's admission
    /// control: non-empty, rectangular, of the corpus's dimensionality, and
    /// finite.
    pub(crate) fn validate_rows(&self, rows: &[&[f64]]) -> Result<(), JoinError> {
        let s_dims = self.inner.s_dims;
        let Some(first) = rows.first() else {
            return Err(JoinError::EmptyInput("R"));
        };
        if let Some((index, row)) = rows
            .iter()
            .enumerate()
            .find(|(_, row)| row.len() != first.len())
        {
            return Err(JoinError::RaggedInput {
                dataset: "R",
                index,
                dims: row.len(),
                expected: first.len(),
            });
        }
        if first.len() != s_dims {
            return Err(JoinError::DimensionalityMismatch {
                r_dims: first.len(),
                s_dims,
            });
        }
        check_finite("R", rows.iter().copied())
    }

    /// Validates borrowed probe rows against the prepared corpus, then runs
    /// the algorithm's direct probe against one epoch snapshot, returning one
    /// neighbour list per row, positionally.  The `Arc<Epoch>` is cloned once
    /// up front, so `query`, `query_one`, `query_into` and the server's
    /// coalesced batches all observe a single consistent corpus version even
    /// while concurrent mutations publish new epochs mid-probe.
    pub(crate) fn probe(
        &self,
        rows: &[&[f64]],
    ) -> Result<(Vec<Vec<Neighbor>>, JoinMetrics), JoinError> {
        self.validate_rows(rows)?;
        let inner = &*self.inner;
        let epoch = inner.snapshot();
        // An empty overlay probes the frozen structures through exactly the
        // pre-delta code path (`None`, not `Some(empty)`), keeping counters
        // and candidate traversal bit-identical to an immutable corpus.
        let delta = (!epoch.delta.is_empty()).then_some(&*epoch.delta);
        let mut metrics = JoinMetrics {
            r_size: rows.len(),
            s_size: epoch.live_len(),
            ..Default::default()
        };
        let start = Instant::now();
        let (plan, workers) = (&inner.plan, inner.ctx.workers());
        let mut neighbors = match &*epoch.state {
            PreparedState::Voronoi(p) => p.probe(rows, plan, workers, delta, &mut metrics),
            PreparedState::Hbrj(p) => p.probe(rows, plan, workers, delta, &mut metrics),
            PreparedState::Zknn(p) => p.probe(rows, plan, workers, delta, &mut metrics),
            // Broadcast scans the block on the context's workers; the
            // nested-loop join (cold or prepared) stays on the calling thread.
            PreparedState::Flat(block) => {
                let workers = if plan.algorithm == Algorithm::BroadcastJoin {
                    workers
                } else {
                    1
                };
                let kernels = ScanKernels::new(plan.metric, plan.kernel_mode);
                block.probe(rows, plan.k, kernels, workers, delta, &mut metrics)
            }
        };
        let elapsed = start.elapsed();
        for list in &mut neighbors {
            list.sort();
        }
        // ORDERING: Relaxed — independent monotonic serving counters; the
        // query result itself was produced from the epoch snapshot above and
        // never synchronizes through these.
        inner.queries.fetch_add(1, Ordering::Relaxed);
        inner
            .query_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        inner.cumulative.lock().absorb(&metrics);
        inner.ctx.record_join(inner.plan.algorithm.name(), &metrics);
        Ok((neighbors, metrics))
    }

    /// [`Self::probe`] over a point set, as rows labelled with their points'
    /// ids in `r_id` order.
    fn probe_set(&self, r: &PointSet) -> Result<(Vec<JoinRow>, JoinMetrics), JoinError> {
        let coords: Vec<&[f64]> = r.iter().map(|p| p.coords.as_slice()).collect();
        let (neighbors, metrics) = self.probe(&coords)?;
        let mut rows = label_rows(r, neighbors);
        rows.sort_by_key(|row| row.r_id);
        Ok((rows, metrics))
    }

    /// Answers one probe batch: the `k` nearest resident `S` objects of every
    /// object of `r`.
    ///
    /// # Errors
    /// Returns [`JoinError`] when the batch is empty, ragged, non-finite or
    /// of the wrong dimensionality.
    pub fn query(&self, r: &PointSet) -> Result<JoinResult, JoinError> {
        let (rows, metrics) = self.probe_set(r)?;
        Ok(JoinResult { rows, metrics })
    }

    /// Answers a single-point query: the `k` nearest resident `S` objects of
    /// `point`, probed straight from the borrowed coordinates.
    ///
    /// # Errors
    /// Returns [`JoinError`] on a dimensionality mismatch or a non-finite
    /// coordinate.
    pub fn query_one(&self, point: &Point) -> Result<JoinRow, JoinError> {
        let (mut neighbors, _) = self.probe(&[point.coords.as_slice()])?;
        let neighbors = neighbors
            .pop()
            .ok_or(JoinError::Internal("probe returned no row for its object"))?;
        Ok(JoinRow {
            r_id: point.id,
            neighbors,
        })
    }

    /// Hands one probe batch's rows (in `r_id` order) to `sink` one at a
    /// time instead of returning a [`JoinResult`], and returns only the
    /// query's metrics.  The whole batch is probed and sorted before the
    /// first [`ResultSink::accept`], so all `|R| · k` neighbours are alive
    /// at that point: what a sink saves is the `JoinResult` wrapper and any
    /// copy a caller would make while forwarding its rows, not the rows.
    /// To bound memory, split `R` into smaller batches.
    ///
    /// # Errors
    /// Same conditions as [`PreparedJoin::query`].
    pub fn query_into(
        &self,
        r: &PointSet,
        sink: &mut dyn ResultSink,
    ) -> Result<JoinMetrics, JoinError> {
        let (rows, metrics) = self.probe_set(r)?;
        for row in rows {
            sink.accept(row);
        }
        Ok(metrics)
    }
}

/// The key a [`JoinSession`] caches prepared joins under: a caller-chosen
/// corpus label plus the query-compatibility knobs (algorithm, metric, `k`)
/// and the corpus epoch the entry was cached at.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey {
    /// Caller-chosen corpus label (which `S` the state was built over).
    pub corpus: String,
    /// Algorithm of the cached state.
    pub algorithm: Algorithm,
    /// Metric of the cached state.
    pub metric: DistanceMetric,
    /// `k` of the cached state.
    pub k: usize,
    /// [`PreparedJoin::epoch`] at the moment the entry was cached.  A handle
    /// mutated after caching no longer matches its stored key, so the
    /// session treats it as stale and rebuilds instead of serving a corpus
    /// the caller's label no longer describes.
    pub epoch: u64,
}

impl SessionKey {
    /// Whether `other` asks for the same corpus label and query shape,
    /// ignoring the cached epoch (unknowable at request time).
    fn matches_request(&self, other: &SessionKey) -> bool {
        self.corpus == other.corpus
            && self.algorithm == other.algorithm
            && self.metric == other.metric
            && self.k == other.k
    }
}

/// Lock shards in a [`JoinSession`].  Requests for different corpora /
/// shapes hash to different shards and never contend; a small power of two
/// keeps the (rare, miss-path-only) cross-shard eviction scan cheap.
const SESSION_SHARDS: usize = 8;

/// One cached prepared join plus its logical-clock LRU stamp.
#[derive(Debug)]
struct SessionEntry {
    key: SessionKey,
    handle: Arc<PreparedJoin>,
    /// Tick of the last hit or insert, from the session's global clock.
    last_used: u64,
}

/// An LRU cache of [`PreparedJoin`]s keyed by corpus and query shape, for
/// serving layers that juggle several corpora / algorithms / `k` values.
///
/// [`JoinSession::get_or_prepare`] returns the cached handle when a
/// compatible one exists — same corpus label, same [`SessionKey`] shape
/// *and* an identical resolved [`JoinPlan`] (every tuning knob) — and
/// builds + caches it otherwise, evicting the least-recently-used entry
/// beyond `capacity`.
///
/// The cache is *sharded* by request-key hash: the serving hot path (a hit)
/// locks only the one shard its key lives in, so concurrent lookups for
/// different corpora / shapes never serialize on a single mutex.  Recency is
/// a global logical clock (an atomic tick stamped on every hit/insert), and
/// `capacity` stays a *global* bound: when an insert overflows it, the
/// globally least-recently-used entry is found by a cross-shard minimum-tick
/// scan — a miss-path-only cost, taken after a prepare that is orders of
/// magnitude more expensive.
#[derive(Debug)]
pub struct JoinSession {
    ctx: ExecutionContext,
    capacity: usize,
    shards: [RankedMutex<Vec<SessionEntry>>; SESSION_SHARDS],
    /// Global logical clock ordering hits/inserts across shards.
    clock: AtomicU64,
    /// Total cached entries across shards (so `len` takes no lock).
    len: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// The shard a request key lives in (ignores the epoch, which is unknowable
/// at request time and must not move an entry between shards).
fn session_shard(key: &SessionKey) -> usize {
    let mut hasher = DefaultHasher::new();
    key.corpus.hash(&mut hasher);
    key.algorithm.hash(&mut hasher);
    key.metric.hash(&mut hasher);
    key.k.hash(&mut hasher);
    (hasher.finish() % SESSION_SHARDS as u64) as usize
}

impl JoinSession {
    /// Creates a session serving from `ctx`, caching at most `capacity`
    /// prepared joins (clamped to at least 1).
    pub fn new(ctx: ExecutionContext, capacity: usize) -> Self {
        Self {
            ctx,
            capacity: capacity.max(1),
            shards: std::array::from_fn(|_| {
                RankedMutex::new(ranks::SESSION_SHARD, "session.shard", Vec::new())
            }),
            clock: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The execution context the session prepares and serves from.
    pub fn context(&self) -> &ExecutionContext {
        &self.ctx
    }

    fn tick(&self) -> u64 {
        // ORDERING: Relaxed — the clock only needs uniqueness and rough
        // recency, both of which fetch_add provides at any ordering; entries
        // stamped with a tick are themselves protected by their shard lock.
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns the cached [`PreparedJoin`] compatible with `builder` over
    /// the corpus labelled `corpus`, preparing and caching it on a miss.
    ///
    /// Compatibility is the *entire* resolved plan, not just the lookup
    /// key: a cached entry under the same `(corpus, algorithm, metric, k)`
    /// whose other knobs differ (pivot count, seed, `z_window`,
    /// reducers, …) is treated as stale and replaced, never silently
    /// served — otherwise a lower-accuracy configuration could answer a
    /// request for a higher-accuracy one.
    ///
    /// # Errors
    /// Returns the builder's planning error or any build-time
    /// [`JoinError`].
    pub fn get_or_prepare(
        &self,
        corpus: &str,
        builder: crate::JoinBuilder<'_>,
    ) -> Result<Arc<PreparedJoin>, JoinError> {
        let plan = builder.plan()?;
        let key = SessionKey {
            corpus: corpus.to_string(),
            algorithm: plan.algorithm,
            metric: plan.metric,
            k: plan.k,
            epoch: 0,
        };
        // lint: allow(panic-freedom) -- `session_shard` reduces the hash
        // modulo `SESSION_SHARDS`, the array's fixed length.
        let shard = &self.shards[session_shard(&key)];
        // A hit must match the request shape, carry an identical resolved
        // plan, *and* still sit at the epoch it was cached at — a handle
        // mutated through `insert`/`delete`/`compact` since caching serves a
        // different corpus than its label promised, so it is stale.
        let take_exact_hit = |entries: &mut Vec<SessionEntry>| {
            let entry = entries.iter_mut().find(|e| {
                e.key.matches_request(&key)
                    && *e.handle.plan() == plan
                    && e.handle.epoch() == e.key.epoch
            })?;
            entry.last_used = self.tick();
            Some(Arc::clone(&entry.handle))
        };
        {
            let mut entries = shard.lock();
            if let Some(handle) = take_exact_hit(&mut entries) {
                // ORDERING: Relaxed — monotonic statistics counter only.
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(handle);
            }
        }
        // Build outside the lock (preparation can be slow); a concurrent
        // preparer of the same plan may win the re-check below, in which
        // case its handle is reused and this build is dropped.
        let prepared = Arc::new(builder.prepare(&self.ctx)?);
        {
            let mut entries = shard.lock();
            if let Some(handle) = take_exact_hit(&mut entries) {
                // ORDERING: Relaxed — monotonic statistics counter only.
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(handle);
            }
            // A same-request entry with a different plan or a moved epoch is
            // stale: evict it rather than leave two entries answering one
            // key (it necessarily lives in this shard — epoch is excluded
            // from the shard hash).
            if let Some(pos) = entries.iter().position(|e| e.key.matches_request(&key)) {
                entries.remove(pos);
                // ORDERING: Relaxed for the statistics counters; the `len`
                // mirror uses AcqRel so the capacity check below observes
                // every prior insert/remove.
                self.len.fetch_sub(1, Ordering::AcqRel);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            // ORDERING: Relaxed — monotonic statistics counter only.
            self.misses.fetch_add(1, Ordering::Relaxed);
            entries.push(SessionEntry {
                key: SessionKey {
                    epoch: prepared.epoch(),
                    ..key
                },
                handle: Arc::clone(&prepared),
                last_used: self.tick(),
            });
            self.len.fetch_add(1, Ordering::AcqRel);
        }
        // Global capacity bound: evict the globally least-recently-used
        // entry (minimum tick across shards) while over.  Bounded retries:
        // a concurrent hit may refresh the candidate between scan and
        // removal, in which case the scan reruns.
        let mut attempts = 0;
        while self.len.load(Ordering::Acquire) > self.capacity && attempts < 16 {
            attempts += 1;
            self.evict_lru();
        }
        Ok(prepared)
    }

    /// Removes the entry with the globally minimal `last_used` tick, if any.
    /// Shards are locked one at a time (scan), then the owning shard is
    /// re-locked for the removal; a concurrent touch in between makes this a
    /// no-op and the caller rescans.
    fn evict_lru(&self) {
        let mut candidate: Option<(usize, u64)> = None;
        for (index, shard) in self.shards.iter().enumerate() {
            for entry in shard.lock().iter() {
                if candidate.is_none_or(|(_, tick)| entry.last_used < tick) {
                    candidate = Some((index, entry.last_used));
                }
            }
        }
        let Some((index, tick)) = candidate else {
            return;
        };
        // lint: allow(panic-freedom) -- `index` came from enumerating this
        // same fixed-size shard array above.
        let mut entries = self.shards[index].lock();
        if let Some(pos) = entries.iter().position(|e| e.last_used == tick) {
            entries.remove(pos);
            self.len.fetch_sub(1, Ordering::AcqRel);
            // ORDERING: Relaxed — monotonic statistics counter only.
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        // ORDERING: Relaxed — monotonic statistics read only.
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (i.e. builds) so far.
    pub fn misses(&self) -> u64 {
        // ORDERING: Relaxed — monotonic statistics read only.
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        // ORDERING: Relaxed — monotonic statistics read only.
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of cached prepared joins.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
