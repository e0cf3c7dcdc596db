//! The prepared (build/probe) serving surface: [`PreparedJoin`].
//!
//! PGBJ and PBJ share a two-phase shape: an expensive S-side *build* (pivot
//! selection + Voronoi partitioning) followed by a *probe* over `R`.  The
//! one-shot [`crate::JoinBuilder::run`] fuses the two, so every call rebuilds
//! the S-side state from scratch — fine for the paper's batch experiments,
//! wasteful for a serving system answering many `R` batches against one
//! corpus.
//!
//! [`crate::JoinBuilder::prepare`] splits the phases: it captures the
//! Voronoi state behind a cheaply-cloneable [`PreparedJoin`] handle, and
//! [`PreparedJoin::query`] answers arbitrary `R` batches against it without
//! re-planning or rebuilding.  Across repeated queries the
//! [`crate::JoinMetrics::index_builds`] and
//! [`crate::JoinMetrics::pivot_selections`] counters stay at zero, and the
//! outputs are bit-identical (in the repo's distance-exact sense, see
//! [`crate::JoinResult::mismatch_against`]) to what the cold path produces,
//! by the theorems' exactness.  The paper's competitors (H-BRJ, H-zkNNJ, the
//! broadcast and nested-loop joins) run cold only: `prepare` refuses them.
//!
//! # The probe path
//!
//! The paper's MapReduce jobs exist to ship `S` replicas to the reducers that
//! need them; with `S` resident nothing has to cross a shuffle, so a probe
//! runs no job.  `query`, `query_one` and the [`crate::Server`]'s
//! coalesced batches all enter one routine over
//! *borrowed* coordinate rows, which validates them, snapshots one epoch and
//! answers positionally:
//!
//! 1. **assign** — each row to its Voronoi cell, pruned;
//! 2. **θ for touched cells** — the batch's `T_R` and Algorithm 1's `θ_i`,
//!    only for cells the batch landed in (Algorithm 2's `LB` matrix and
//!    Algorithm 4's grouping route shuffled records, of which there are
//!    none);
//! 3. **row ranges** — below
//!    [`crate::algorithms::common::PARALLEL_PROBE_CUT`] rows the batch is
//!    scanned inline on the calling thread, from there up as one contiguous
//!    range per context worker on the engine's scoped threads;
//! 4. **scan** — Algorithm 3's bounded scan, merged with the epoch's delta
//!    overlay — empty or not, the same code.
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

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::algorithms::common::label_rows;
use crate::algorithms::voronoi::VoronoiPrepared;
use crate::context::{ExecutionContext, ServingStats};
use crate::delta::{DeltaOverlay, DeltaStats};
use crate::exact::check_finite;
use crate::metrics::{phases, JoinMetrics};
use crate::plan::{Algorithm, JoinPlan};
use crate::result::{JoinError, JoinResult, JoinRow};
use geom::{DistanceMetric, Neighbor, Point, PointId, PointSet};
use mapreduce::sync::{ranks, RankedMutex, RankedRwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One immutable version of the corpus: the frozen structures plus the
/// resident delta overlay.  Queries clone the `Arc` once and run entirely
/// against that snapshot, so a concurrent mutation or compaction (which
/// *publishes a new* `Epoch` rather than touching this one) can never tear a
/// probe batch.
#[derive(Debug, Clone)]
struct Epoch {
    /// Monotonic version, bumped by every effective mutation and compaction.
    number: u64,
    /// The Voronoi state: the only copy of the frozen corpus.
    state: Arc<VoronoiPrepared>,
    /// The ids of `state`'s rows, strictly ascending: an index for
    /// upsert/delete classification (no structure finds an id in
    /// `O(log n)`), not a copy of the rows.
    frozen_ids: Arc<[PointId]>,
    delta: Arc<DeltaOverlay>,
}

impl Epoch {
    /// Number of live objects: `|frozen ids| − |tombstones| + |adds|`.
    fn live_len(&self) -> usize {
        self.frozen_ids.len() - self.delta.tombstones_len() + self.delta.adds_len()
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
    /// Serializes mutations (insert/delete/compact) so overlay updates and
    /// epoch publication are atomic with respect to each other.  Queries
    /// never take this lock.
    mutate: RankedMutex<()>,
    build_metrics: JoinMetrics,
    build_time: Duration,
    queries: AtomicU64,
    query_nanos: AtomicU64,
    /// Every query's and every compaction's [`JoinMetrics`], absorbed.
    cumulative: RankedMutex<JoinMetrics>,
}

impl Inner {
    fn snapshot(&self) -> Arc<Epoch> {
        Arc::clone(&self.epoch.read())
    }

    fn publish(&self, epoch: Epoch) {
        *self.epoch.write() = Arc::new(epoch);
    }
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
    /// Builds the Voronoi state for the given validated PGBJ or PBJ plan.
    /// `calibration_r` is the builder's `R`: it seeds pivot selection exactly
    /// as the cold path would, so `query` over the same batch reproduces
    /// [`crate::JoinBuilder::run`] bit for bit; the built state remains valid
    /// for every other batch because no bound depends on where the pivots
    /// came from.
    ///
    /// # Errors
    /// [`JoinError::InvalidConfig`] for any other algorithm, and
    /// [`JoinError::DuplicateId`] when two `S` objects share an id.
    pub(crate) fn build(
        calibration_r: &PointSet,
        s: &PointSet,
        plan: JoinPlan,
        ctx: &ExecutionContext,
    ) -> Result<Self, JoinError> {
        if !plan.algorithm.uses_pivots() {
            return Err(JoinError::InvalidConfig(format!(
                "prepare builds the Voronoi index of PGBJ and PBJ only; {} runs cold",
                plan.algorithm.name()
            )));
        }
        let mut frozen_ids: Vec<PointId> = s.iter().map(|p| p.id).collect();
        frozen_ids.sort_unstable();
        // Sorted, so a repeat is an id equal to the one after it.
        let mut successors = frozen_ids.iter().skip(1);
        if let Some(&id) = frozen_ids.iter().find(|id| successors.next() == Some(id)) {
            return Err(JoinError::DuplicateId { dataset: "S", id });
        }
        let mut build_metrics = JoinMetrics {
            s_size: s.len(),
            ..Default::default()
        };
        let start = Instant::now();
        let state = VoronoiPrepared::build(calibration_r, s, &plan, &mut build_metrics);
        let build_time = start.elapsed();
        let epoch = Epoch {
            number: 0,
            state: Arc::new(state),
            frozen_ids: frozen_ids.into(),
            delta: Arc::new(DeltaOverlay::default()),
        };
        Ok(Self {
            inner: Arc::new(Inner {
                s_dims: s.dims(),
                ctx: ctx.clone(),
                plan,
                epoch: RankedRwLock::new(ranks::PREPARED_EPOCH, "prepared.epoch", Arc::new(epoch)),
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
    /// `|frozen ids| − |tombstones| + |adds|`.
    pub fn s_len(&self) -> usize {
        self.inner.snapshot().live_len()
    }

    /// The current corpus version.  Starts at 0 and is bumped by every
    /// effective [`PreparedJoin::insert`], [`PreparedJoin::delete`] and
    /// compaction, so a caller holding an older answer can tell the corpus
    /// moved.  Reads the published snapshot's number under the epoch read
    /// lock, like every probe.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.read().number
    }

    /// The delta layer's current shape: pending overlay sizes plus lifetime
    /// compaction totals.
    pub fn delta_stats(&self) -> DeltaStats {
        let epoch = self.inner.snapshot();
        let cumulative = self.inner.cumulative.lock();
        DeltaStats {
            epoch: epoch.number,
            pending_adds: epoch.delta.adds_len(),
            pending_tombstones: epoch.delta.tombstones_len(),
            compactions: cumulative.compactions,
            compacted_points: cumulative.compacted_points,
        }
    }

    /// The live corpus in ascending id order: the frozen rows, read from the
    /// Voronoi cells, minus tombstones, plus the pending adds.  Derived
    /// on demand — no epoch keeps a copy.  This is the oracle input for the
    /// mutated-equals-cold guarantee.
    pub fn materialized_corpus(&self) -> PointSet {
        let epoch = self.inner.snapshot();
        let delta = &*epoch.delta;
        let frozen = epoch.state.points();
        let live = frozen.filter(|(id, _)| !delta.is_tombstoned(*id));
        let mut points: Vec<Point> = live
            .chain(delta.adds())
            .map(|(id, coords)| Point::new(id, coords))
            .collect();
        points.sort_by_key(|p| p.id);
        PointSet::from_points(points)
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
    /// [`JoinError::NonFiniteInput`] when a coordinate is `NaN`, infinite or
    /// out of range.
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
        // An upsert over a frozen object masks the frozen copy and serves
        // the new coordinates from the memtable.
        let frozen = epoch.frozen_ids.binary_search(&point.id).is_ok();
        let delta = epoch.delta.after_insert(point.id, &point.coords, frozen);
        self.commit(&epoch, delta);
        Ok(())
    }

    /// Deletes one `S` object by id, returning whether it was live.  The
    /// frozen structures are untouched: the id joins the tombstone set and
    /// every probe path masks it before ranking.
    pub fn delete(&self, id: PointId) -> bool {
        let _guard = self.inner.mutate.lock();
        let epoch = self.inner.snapshot();
        let frozen = epoch.frozen_ids.binary_search(&id).is_ok();
        // Nothing changed: don't publish a new epoch for a no-op.
        let Some(delta) = epoch.delta.after_delete(id, frozen) else {
            return false;
        };
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
        let next = Epoch {
            number: epoch.number + 1,
            ..(*epoch).clone()
        };
        self.inner.publish(self.run_compaction(next));
        true
    }

    /// Publishes `delta` as the next epoch, compacted when the overlay
    /// crossed the plan's threshold.  Caller holds the mutate lock.
    fn commit(&self, epoch: &Epoch, delta: DeltaOverlay) {
        #[cfg(any(test, feature = "debug-invariants"))]
        delta.audit(&epoch.frozen_ids);
        let next = Epoch {
            number: epoch.number + 1,
            delta: Arc::new(delta),
            ..epoch.clone()
        };
        if next.delta.len() > self.inner.plan.delta_threshold && next.live_len() > 0 {
            self.inner.publish(self.run_compaction(next));
        } else {
            self.inner.publish(next);
        }
    }

    /// Returns `epoch`, numbered by the caller, with its overlay folded into
    /// the frozen structures — partition-local rebuilds from the structures'
    /// own rows, nothing materialised — reported through [`JoinMetrics`] (a
    /// `compaction` phase with `compactions = 1`) into the cumulative
    /// metrics.  Caller holds the mutate lock.
    fn run_compaction(&self, epoch: Epoch) -> Epoch {
        let inner = &*self.inner;
        let start = Instant::now();
        let mut metrics = JoinMetrics {
            s_size: epoch.live_len(),
            compactions: 1,
            ..Default::default()
        };
        let state = epoch.state.compact(&epoch.delta, &inner.plan, &mut metrics);
        let frozen_ids: Arc<[PointId]> = epoch.delta.live_ids(&epoch.frozen_ids).into();
        metrics.record_phase(phases::COMPACTION, start.elapsed());
        inner.cumulative.lock().absorb(&metrics);
        #[cfg(any(test, feature = "debug-invariants"))]
        assert!(
            frozen_ids.is_sorted_by(|a, b| a < b) && frozen_ids.len() == state.points().count(),
            "compaction invariant violated: the id run does not ascend strictly \
             or does not index the compacted rows one to one"
        );
        Epoch {
            state: Arc::new(state),
            frozen_ids,
            delta: Arc::new(DeltaOverlay::default()),
            ..epoch
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
    /// finite within [`check_finite`]'s range.
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
    /// up front, so `query`, `query_one` and the server's coalesced batches
    /// all observe a single consistent corpus version even while concurrent
    /// mutations publish new epochs mid-probe.
    pub(crate) fn probe(
        &self,
        rows: &[&[f64]],
    ) -> Result<(Vec<Vec<Neighbor>>, JoinMetrics), JoinError> {
        self.validate_rows(rows)?;
        let inner = &*self.inner;
        let epoch = inner.snapshot();
        let delta = &*epoch.delta;
        let mut metrics = JoinMetrics {
            r_size: rows.len(),
            s_size: epoch.live_len(),
            ..Default::default()
        };
        let start = Instant::now();
        let mut neighbors =
            epoch
                .state
                .probe(rows, &inner.plan, inner.ctx.workers(), delta, &mut metrics);
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
        Ok((neighbors, metrics))
    }

    /// Answers one probe batch: the `k` nearest resident `S` objects of every
    /// object of `r`, as rows in `r_id` order.
    ///
    /// # Errors
    /// Returns [`JoinError`] when the batch is empty, ragged, non-finite or
    /// of the wrong dimensionality.
    pub fn query(&self, r: &PointSet) -> Result<JoinResult, JoinError> {
        let coords: Vec<&[f64]> = r.iter().map(|p| p.coords.as_slice()).collect();
        let (neighbors, metrics) = self.probe(&coords)?;
        let mut rows = label_rows(r, neighbors);
        rows.sort_by_key(|row| row.r_id);
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
}
