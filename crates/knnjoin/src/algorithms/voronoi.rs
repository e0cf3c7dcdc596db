//! The Voronoi scan family shared by PGBJ and PBJ: the flat per-partition
//! `S` layout, the one bounded candidate scan of Algorithm 3
//! ([`VoronoiScan`]), and the prepared state that runs it against a resident
//! `S` (`VoronoiPrepared`).
//!
//! §6 of the paper defines PBJ as PGBJ's bounds without the grouping, so both
//! algorithms — cold or prepared, with or without a delta overlay, in any
//! kernel mode — call the same scan; they differ only in where the `S`
//! partitions, the scan order and `θ_i` come from.

use crate::algorithms::common::{
    for_each_tile, probe_rows, DeltaView, ScanCounts, ScanKernels, ShuffleRecord, TileScratch,
};
use crate::bounds::{bounding_knn_theta, hyperplane_bound, theorem2_window};
use crate::delta::DeltaOverlay;
use crate::metrics::{phases, JoinMetrics};
use crate::partition::{PartitionedDataset, VoronoiPartitioner};
use crate::pivots::select_pivots;
use crate::plan::JoinPlan;
use crate::summary::{
    build_s_summaries, pivot_distance_matrix, s_summary_row, RPartitionSummary, SPartitionSummary,
    SummaryTables,
};
use geom::kernels::BatchKernel;
use geom::{
    CoordMatrix, DistanceMetric, KernelMode, Neighbor, NeighborList, Point, PointId, PointSet,
    RecordKind,
};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// One partition's objects in flat structure-of-data layout: coordinate rows
/// in a contiguous [`CoordMatrix`] with ids and pivot distances in parallel
/// vectors.  This is what the Algorithm 3 reducers scan: the candidate loop
/// walks three dense arrays instead of chasing a `Point` heap allocation per
/// candidate.
#[derive(Debug, Clone, Default)]
pub struct FlatPartition {
    /// Object ids, parallel to the coordinate rows.
    pub ids: Vec<PointId>,
    /// Object-to-pivot distances, parallel to the coordinate rows.
    pub pivot_dists: Vec<f64>,
    /// Coordinates, one row per object.
    pub coords: CoordMatrix,
}

impl FlatPartition {
    /// Creates an empty partition for the given dimensionality.
    pub fn new(dims: usize) -> Self {
        Self {
            ids: Vec::new(),
            pivot_dists: Vec::new(),
            coords: CoordMatrix::new(dims),
        }
    }

    /// Appends one object.
    pub fn push(&mut self, point: &Point, pivot_dist: f64) {
        self.ids.push(point.id);
        self.pivot_dists.push(pivot_dist);
        self.coords.push_row(&point.coords);
    }

    /// Number of objects held.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the partition holds no objects.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Sorts the `S` cell ids `cells` by ascending pivot distance from one `R`
/// partition's pivot, given that pivot's row of the pivot-distance matrix
/// (Algorithm 3 line 14).
fn order_by_pivot_distance(cells: impl Iterator<Item = usize>, row: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = cells.collect();
    order.sort_by(|&a, &b| {
        row[a]
            .partial_cmp(&row[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order
}

/// The pruned candidate scan at the heart of Algorithm 3 (lines 16–25) — the
/// single implementation behind the PGBJ group reducer, the PBJ cell reducer
/// and the prepared serve reducer.
///
/// For one `R` object `r` (belonging to partition `r_partition`, at distance
/// `r_pivot_dist` from its pivot), [`VoronoiScan::scan`] visits the `S`
/// objects — grouped by their partition in flat [`FlatPartition`] layout, in
/// the order `s_order` (ascending pivot distance from `p_i`) — pruning with
/// Corollary 1, Theorem 2 and the running threshold
/// `θ = min(θ_i, current kth distance)`.
///
/// The kernels are chosen once at construction (no enum dispatch per
/// candidate) and the tile scratch is reused across objects.  All threshold
/// comparisons stay in true-distance space: θ and the Theorem 2 window are
/// derived from triangle-inequality bounds over true distances, and mixing
/// them with squared ranks could flip a comparison at the last ulp (see
/// ARCHITECTURE.md).
///
/// With a delta overlay attached (`VoronoiScan::with_delta`), the added
/// points are offered into the accumulator *first* (tightening the running θ
/// before any frozen candidate is scanned) and tombstoned frozen candidates
/// are masked.  Callers must pass `θ_i = ∞` whenever the overlay carries
/// tombstones: `θ_i` is derived from the frozen `T_S` table, whose guarantee
/// ("partition `i` alone holds `k` objects within `θ_i`") deletions can
/// break.  Added points never invalidate it; they only shrink the true kth
/// distance.
pub struct VoronoiScan<'a> {
    tables: &'a SummaryTables,
    k: usize,
    kernels: ScanKernels,
    delta: Option<&'a DeltaView<'a>>,
    scratch: TileScratch,
}

impl<'a> VoronoiScan<'a> {
    /// A scan over frozen `S` partitions summarized by `tables`.
    pub fn new(
        tables: &'a SummaryTables,
        k: usize,
        metric: DistanceMetric,
        mode: KernelMode,
    ) -> Self {
        Self {
            tables,
            k,
            kernels: ScanKernels::new(metric, mode),
            delta: None,
            scratch: TileScratch::new(),
        }
    }

    /// Attaches the S-delta memtable of a mutated [`crate::PreparedJoin`].
    pub(crate) fn with_delta(mut self, delta: Option<&'a DeltaView<'a>>) -> Self {
        self.delta = delta;
        self
    }

    /// Returns the `k` best neighbours of one `R` object and the distance
    /// computations spent (object-to-object plus object-to-pivot, per the
    /// paper's selectivity definition).
    pub fn scan<P: Borrow<FlatPartition>>(
        &mut self,
        r_coords: &[f64],
        r_pivot_dist: f64,
        r_partition: usize,
        s_parts: &BTreeMap<usize, P>,
        s_order: &[usize],
        theta_i: f64,
    ) -> (Vec<Neighbor>, ScanCounts) {
        let tables = self.tables;
        let dim = r_coords.len();
        let mut neighbors = NeighborList::new(self.k);
        let mut counts = ScanCounts::default();
        if let Some(block) = self.delta {
            let rows = block.coords.as_slice();
            for_each_tile(block.ids.len(), |t0, t1| {
                let dists = &mut self.scratch.ranks[..t1 - t0];
                self.kernels
                    .distances(r_coords, &rows[t0 * dim..t1 * dim], dim, dists);
                counts.delta += dists.len() as u64;
                for (id, &d) in block.ids[t0..t1].iter().zip(dists.iter()) {
                    neighbors.offer(*id, d);
                }
            });
        }
        for &j in s_order {
            let theta = theta_i.min(neighbors.threshold());
            let pivot_dist = tables.pivot_distance(r_partition, j);
            // Distance from r to the pivot of partition j; pivots count as
            // objects in the paper's selectivity metric.
            let d_r_pj = (self.kernels.pair)(r_coords, &tables.pivots[j].coords);
            counts.frozen += 1;
            // Corollary 1: skip the whole partition if the hyperplane between
            // p_i and p_j is already farther away than θ.
            if j != r_partition
                && theta.is_finite()
                && hyperplane_bound(r_pivot_dist, d_r_pj, pivot_dist, self.kernels.metric) > theta
            {
                continue;
            }
            // Theorem 2: only objects whose own pivot distance falls inside this
            // window can possibly be within θ of r.
            let summary = &tables.s_summaries[j];
            let (lo, hi) = theorem2_window(summary.lower, summary.upper, d_r_pj, theta);
            if lo > hi {
                continue;
            }
            let Some(bucket) = s_parts.get(&j) else {
                continue;
            };
            let bucket = bucket.borrow();
            match self.kernels.batch {
                None => self.scan_bucket_exact(
                    r_coords,
                    bucket,
                    d_r_pj,
                    (lo, hi),
                    theta_i,
                    &mut neighbors,
                    &mut counts,
                ),
                Some(batch) => self.scan_bucket_tiled(
                    batch,
                    r_coords,
                    bucket,
                    (lo, hi),
                    &mut neighbors,
                    &mut counts,
                ),
            }
        }
        (neighbors.into_sorted(), counts)
    }

    /// `Exact` candidate loop: one scalar kernel per candidate that survives
    /// the window test and the per-candidate recheck against the current
    /// (shrinking) θ.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn scan_bucket_exact(
        &self,
        r_coords: &[f64],
        bucket: &FlatPartition,
        d_r_pj: f64,
        (lo, hi): (f64, f64),
        theta_i: f64,
        neighbors: &mut NeighborList,
        counts: &mut ScanCounts,
    ) {
        let kernel = self.kernels.pair;
        for idx in 0..bucket.len() {
            let s_pivot_dist = bucket.pivot_dists[idx];
            if s_pivot_dist < lo || s_pivot_dist > hi {
                continue;
            }
            // Re-check against the current θ using the triangle inequality
            // |r, s| ≥ ||p_j, s| − |p_j, r||.
            let theta_now = theta_i.min(neighbors.threshold());
            if (s_pivot_dist - d_r_pj).abs() > theta_now {
                continue;
            }
            if self
                .delta
                .is_some_and(|delta| delta.is_tombstoned(bucket.ids[idx]))
            {
                counts.masked += 1;
                continue;
            }
            let d = kernel(r_coords, bucket.coords.row(idx));
            counts.frozen += 1;
            neighbors.offer(bucket.ids[idx], d);
        }
    }

    /// `Fast` candidate loop: identical bucket-level pruning, but candidates
    /// are evaluated through the batch rank kernel in
    /// [`geom::kernels::PROBE_TILE`]-row tiles over the contiguous coordinate
    /// slice, then converted to true distances in one sweep.
    ///
    /// Differences from the exact loop, all answer-preserving:
    /// * tile rows outside the Theorem 2 pivot-distance window may still be
    ///   evaluated (the tile is only narrowed to its first/last in-window
    ///   row) — they are billed but never offered;
    /// * the per-candidate θ-shrink recheck is dropped — it only skips
    ///   kernels, never changes which distances reach the accumulator.
    ///
    /// Both mean `Fast` counters differ from `Exact` counters (fewer
    /// branches, wider loops); results agree within accumulation-order
    /// round-off (≤ 1e-9 relative, pinned by the cross-mode integration
    /// tests).
    fn scan_bucket_tiled(
        &mut self,
        batch: BatchKernel,
        r_coords: &[f64],
        bucket: &FlatPartition,
        (lo, hi): (f64, f64),
        neighbors: &mut NeighborList,
        counts: &mut ScanCounts,
    ) {
        let dim = r_coords.len();
        let rows = bucket.coords.as_slice();
        let in_window = |idx: usize| (lo..=hi).contains(&bucket.pivot_dists[idx]);
        for_each_tile(bucket.len(), |t0, t1| {
            // Narrow the tile to its in-window span; skip it entirely when
            // no row qualifies.
            let Some(first) = (t0..t1).find(|&i| in_window(i)) else {
                return;
            };
            let last = (first..t1).rev().find(|&i| in_window(i)).unwrap_or(first);
            let dists = &mut self.scratch.ranks[..last + 1 - first];
            batch(r_coords, &rows[first * dim..(last + 1) * dim], dim, dists);
            self.kernels.metric.ranks_to_distances(dists);
            counts.frozen += dists.len() as u64;
            for (off, &d) in dists.iter().enumerate() {
                let idx = first + off;
                if !in_window(idx) {
                    continue;
                }
                if self
                    .delta
                    .is_some_and(|delta| delta.is_tombstoned(bucket.ids[idx]))
                {
                    counts.masked += 1;
                    continue;
                }
                neighbors.offer(bucket.ids[idx], d);
            }
        });
    }

    /// The body of a cold Algorithm 3 reducer (lines 12–25): split the
    /// shuffled records by kind and partition (line 13), sort the received
    /// `S` partitions by pivot distance per `R` partition (line 14), and
    /// scan for every local `r`, handing `(r id, neighbours, distance
    /// computations)` to `emit`.  `theta_of` supplies `θ_i` for an `R`
    /// partition given the `S` subset this reducer received.
    ///
    /// The split preserves arrival order: `R` records stay borrowed (each is
    /// a query, visited once), while `S` coordinates are flattened straight
    /// into the columnar layout the candidate scan reads.
    pub(crate) fn scan_shuffled(
        &mut self,
        values: &[ShuffleRecord],
        theta_of: impl Fn(usize, &BTreeMap<usize, FlatPartition>) -> f64,
        mut emit: impl FnMut(PointId, Vec<Neighbor>, u64),
    ) {
        let dims = self.tables.pivots.first().map_or(0, |p| p.dims());
        let mut r_parts: BTreeMap<usize, Vec<&ShuffleRecord>> = BTreeMap::new();
        let mut s_parts: BTreeMap<usize, FlatPartition> = BTreeMap::new();
        for record in values {
            let partition = record.partition as usize;
            match record.kind {
                RecordKind::R => r_parts.entry(partition).or_default().push(record),
                RecordKind::S => s_parts
                    .entry(partition)
                    .or_insert_with(|| FlatPartition::new(dims))
                    .push(&record.point, record.pivot_distance),
            }
        }
        for (&i, r_bucket) in &r_parts {
            let s_order =
                order_by_pivot_distance(s_parts.keys().copied(), &self.tables.pivot_distances[i]);
            let theta_i = theta_of(i, &s_parts);
            for r in r_bucket {
                let (neighbors, counts) = self.scan(
                    &r.point.coords,
                    r.pivot_distance,
                    i,
                    &s_parts,
                    &s_order,
                    theta_i,
                );
                emit(r.point.id, neighbors, counts.frozen);
            }
        }
    }
}

/// Selects the plan's pivots from `r` (the preprocessing step of PGBJ and
/// PBJ, cold or prepared), recording the phase and the selection counter.
pub(crate) fn select_plan_pivots(
    r: &PointSet,
    plan: &JoinPlan,
    metrics: &mut JoinMetrics,
) -> Vec<Point> {
    let start = Instant::now();
    let pivots = select_pivots(
        r,
        plan.pivot_count,
        plan.pivot_strategy,
        plan.pivot_sample_size,
        plan.metric,
        plan.seed,
    );
    metrics.record_phase(phases::PIVOT_SELECTION, start.elapsed());
    metrics.pivot_selections = 1;
    pivots
}

/// Turns Voronoi-partitioned `R ∪ S` into job input, each record carrying
/// its partition and pivot distance and taking over its point; `key_of`
/// picks the map key (the partition for PGBJ's routing job, the object id
/// for the block framework).
pub(crate) fn partitioned_inputs<K>(
    partitioned_r: PartitionedDataset,
    partitioned_s: PartitionedDataset,
    key_of: impl Fn(u32, &Point) -> K,
) -> Vec<(K, ShuffleRecord)> {
    let mut input = Vec::with_capacity(partitioned_r.len() + partitioned_s.len());
    for (kind, partitioned) in [
        (RecordKind::R, partitioned_r),
        (RecordKind::S, partitioned_s),
    ] {
        for (partition, bucket) in partitioned.partitions.into_iter().enumerate() {
            let partition = partition as u32;
            for (point, pivot_distance) in bucket {
                input.push((
                    key_of(partition, &point),
                    ShuffleRecord {
                        kind,
                        partition,
                        pivot_distance,
                        point: Arc::new(point),
                    },
                ));
            }
        }
    }
    input
}

// ---------------------------------------------------------------------------
// Prepared (build/probe) serving
// ---------------------------------------------------------------------------

/// The prepared PGBJ / PBJ state: the pivot machinery (pivots are selected
/// once, from the calibration `R` the join was prepared with, exactly as the
/// cold path would), the Voronoi-partitioned `S` in flat columnar layout, the
/// `T_S` summary table and the per-partition scan orders.  Everything here
/// depends only on `S`, the pivot set and the plan — probe batches of `R`
/// reuse it unchanged, which is what keeps `pivot_selections` flat across
/// queries.  The two algorithms share it whole; only the probe's routing
/// (group, then route — or hash-route) looks at `plan.algorithm`.
#[derive(Debug)]
pub(crate) struct VoronoiPrepared {
    /// Pivot assignment machinery (flat pivot matrix + pruned search);
    /// `Arc`-shared so compaction epochs reuse it untouched.
    partitioner: Arc<VoronoiPartitioner>,
    /// The pivot set, shared into every per-query [`SummaryTables`].
    pivots: Arc<Vec<Point>>,
    /// Voronoi-partitioned `S` in flat layout; only non-empty partitions.
    /// Each cell sits behind its own `Arc` so a compaction rebuilds only the
    /// cells the delta touched and shares the rest.
    s_parts: BTreeMap<usize, Arc<FlatPartition>>,
    /// `T_S`, built once with the plan's `k`; shared into every per-query
    /// [`SummaryTables`].
    s_summaries: Arc<Vec<SPartitionSummary>>,
    /// Pairwise pivot distances, shared likewise.
    pivot_distances: Arc<Vec<Vec<f64>>>,
    /// For every `R` partition `i`: the non-empty `S` partitions sorted by
    /// pivot distance from `p_i` (Algorithm 3 line 14, hoisted out of the
    /// per-query path since it depends only on the pivots).
    s_orders: Arc<Vec<Vec<usize>>>,
}

impl VoronoiPrepared {
    /// Builds the S-side state: pivot selection + `S` partitioning +
    /// summaries.  `calibration_r` seeds pivot selection (the paper draws
    /// pivots from `R`); the resulting state serves arbitrary probe batches
    /// because the correctness of every bound holds for any pivot set.
    pub(crate) fn build(
        calibration_r: &PointSet,
        s: &PointSet,
        plan: &JoinPlan,
        metrics: &mut JoinMetrics,
    ) -> Self {
        let pivots = select_plan_pivots(calibration_r, plan, metrics);
        let start = Instant::now();
        let partitioner = Arc::new(VoronoiPartitioner::new(pivots, plan.metric));
        let pivots = Arc::new(partitioner.pivots().to_vec());
        let partitioned_s = partitioner.partition(s);
        let s_summaries = Arc::new(build_s_summaries(&partitioned_s, plan.k));
        let pivot_distances = Arc::new(pivot_distance_matrix(&pivots, plan.metric));
        let dims = partitioner.pivot_matrix().dims();
        let mut s_parts: BTreeMap<usize, Arc<FlatPartition>> = BTreeMap::new();
        for (j, bucket) in partitioned_s.partitions.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut flat = FlatPartition::new(dims);
            for (point, dist) in bucket {
                flat.push(point, *dist);
            }
            s_parts.insert(j, Arc::new(flat));
        }
        let non_empty: Vec<usize> = s_parts.keys().copied().collect();
        let s_orders = Arc::new(compute_s_orders(&non_empty, &pivot_distances));
        metrics.record_phase(phases::DATA_PARTITIONING, start.elapsed());
        Self {
            partitioner,
            pivots,
            s_parts,
            s_summaries,
            pivot_distances,
            s_orders,
        }
    }

    /// Folds a delta overlay into the resident Voronoi state, rebuilding
    /// *only* the cells the delta touches: cells holding a tombstoned object
    /// and cells an added point is assigned to.  Untouched cells (and the
    /// pivot machinery, distance matrix and — when the non-empty cell set is
    /// unchanged — the scan orders) are `Arc`-shared into the new state.
    ///
    /// The rebuilt cells keep frozen arrival order followed by adds in
    /// ascending id order, and their `T_S` rows are recomputed with the same
    /// (order-insensitive) formulas as the full build, so the compacted
    /// state is distance-identical to a cold build over the materialized
    /// corpus.
    pub(crate) fn compact(
        &self,
        delta: &DeltaOverlay,
        plan: &JoinPlan,
        metrics: &mut JoinMetrics,
    ) -> Self {
        let dims = self.partitioner.pivot_matrix().dims();
        let mut affected: BTreeSet<usize> = BTreeSet::new();
        if delta.tombstones_len() > 0 {
            for (&j, part) in self.s_parts.iter() {
                if part.ids.iter().any(|id| delta.is_tombstoned(*id)) {
                    affected.insert(j);
                }
            }
        }
        let mut add_cells: BTreeMap<usize, Vec<(Point, f64)>> = BTreeMap::new();
        for (id, coords) in delta.adds() {
            let a = self.partitioner.nearest_pivot(coords);
            metrics.pivot_assignment_computations += a.computations;
            affected.insert(a.partition);
            add_cells
                .entry(a.partition)
                .or_default()
                .push((Point::new(id, coords.to_vec()), a.distance));
        }

        let mut s_parts: BTreeMap<usize, Arc<FlatPartition>> = BTreeMap::new();
        for (&j, part) in self.s_parts.iter() {
            if !affected.contains(&j) {
                s_parts.insert(j, Arc::clone(part));
            }
        }
        let mut s_summaries = (*self.s_summaries).clone();
        for &j in &affected {
            let mut flat = FlatPartition::new(dims);
            if let Some(old) = self.s_parts.get(&j) {
                for idx in 0..old.len() {
                    if delta.is_tombstoned(old.ids[idx]) {
                        continue;
                    }
                    flat.ids.push(old.ids[idx]);
                    flat.pivot_dists.push(old.pivot_dists[idx]);
                    flat.coords.push_row(old.coords.row(idx));
                }
            }
            if let Some(adds) = add_cells.get(&j) {
                for (point, dist) in adds {
                    flat.push(point, *dist);
                }
            }
            metrics.compacted_points += flat.len() as u64;
            s_summaries[j] = s_summary_row(j, flat.pivot_dists.clone(), plan.k);
            if !flat.is_empty() {
                s_parts.insert(j, Arc::new(flat));
            }
        }

        let old_non_empty: Vec<usize> = self.s_parts.keys().copied().collect();
        let new_non_empty: Vec<usize> = s_parts.keys().copied().collect();
        let s_orders = if new_non_empty == old_non_empty {
            Arc::clone(&self.s_orders)
        } else {
            Arc::new(compute_s_orders(&new_non_empty, &self.pivot_distances))
        };
        Self {
            partitioner: Arc::clone(&self.partitioner),
            pivots: Arc::clone(&self.pivots),
            s_parts,
            s_summaries: Arc::new(s_summaries),
            pivot_distances: Arc::clone(&self.pivot_distances),
            s_orders,
        }
    }

    /// Assigns a probe batch to Voronoi cells, returning one `(partition,
    /// pivot distance)` per object plus the pruned assignment computations
    /// actually spent.
    fn assign_batch(&self, rows: &[&[f64]]) -> (Vec<(usize, f64)>, u64) {
        let mut assignments = Vec::with_capacity(rows.len());
        let mut computations = 0u64;
        for row in rows {
            let a = self.partitioner.nearest_pivot(row);
            computations += a.computations;
            assignments.push((a.partition, a.distance));
        }
        (assignments, computations)
    }

    /// Assembles the full [`SummaryTables`] for one probe batch: `T_R` is
    /// computed from the batch's assignments; the pivot set, `T_S` and the
    /// pivot-distance matrix are `Arc`-shared from the prebuilt state, so
    /// assembly costs O(t) for the fresh `R` summaries and nothing else.
    fn query_tables(&self, assignments: &[(usize, f64)]) -> SummaryTables {
        let t = self.partitioner.partition_count();
        let mut counts = vec![0usize; t];
        let mut lowers = vec![f64::INFINITY; t];
        let mut uppers = vec![f64::NEG_INFINITY; t];
        for &(i, dist) in assignments {
            counts[i] += 1;
            lowers[i] = lowers[i].min(dist);
            uppers[i] = uppers[i].max(dist);
        }
        let r_summaries = (0..t)
            .map(|i| RPartitionSummary {
                partition: i,
                count: counts[i],
                lower: if counts[i] == 0 { 0.0 } else { lowers[i] },
                upper: if counts[i] == 0 { 0.0 } else { uppers[i] },
            })
            .collect();
        SummaryTables {
            pivots: Arc::clone(&self.pivots),
            metric: self.partitioner.metric(),
            r_summaries,
            s_summaries: Arc::clone(&self.s_summaries),
            pivot_distances: Arc::clone(&self.pivot_distances),
        }
    }

    /// Answers one probe batch, positionally: assign the rows to cells,
    /// derive the batch's `T_R` and `θ_i` for the cells it touches, then run
    /// Algorithm 3's bounded scan against the resident `S` (merged with the
    /// delta overlay when one is present) through [`probe_rows`].  `θ_i`
    /// comes from the global Algorithm 1 bound: the resident `S` is the full
    /// dataset, so the tight bound applies even to PBJ, whose cold cells only
    /// have their local block's looser one.  Algorithm 2's `LB` matrix and
    /// Algorithm 4's grouping decide which `S` replica is shipped to which
    /// reducer; nothing is shipped here, so neither is computed and PGBJ and
    /// PBJ probe identically.
    pub(crate) fn probe(
        &self,
        rows: &[&[f64]],
        plan: &JoinPlan,
        workers: usize,
        delta: Option<&DeltaOverlay>,
        metrics: &mut JoinMetrics,
    ) -> Vec<Vec<Neighbor>> {
        let start = Instant::now();
        let (assignments, computations) = self.assign_batch(rows);
        metrics.pivot_assignment_computations += computations;
        metrics.record_phase(phases::DATA_PARTITIONING, start.elapsed());

        let start = Instant::now();
        let tables = self.query_tables(&assignments);
        // θ_i promises that partition i alone holds k objects within θ_i of
        // any r assigned there — a promise the frozen T_S cannot keep once
        // objects are deleted, so tombstones demote θ to the running kth
        // distance alone.  Algorithm 1 returns ∞ at once for a cell the
        // batch left empty, so only touched cells pay for their bound.
        let frozen_bounds_hold = delta.is_none_or(|d| d.tombstones_len() == 0);
        let theta: Vec<f64> = (0..tables.partition_count())
            .map(|i| {
                if frozen_bounds_hold {
                    bounding_knn_theta(&tables, i, plan.k)
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        metrics.record_phase(phases::INDEX_MERGING, start.elapsed());

        let delta = delta.map(|d| DeltaView::gather(d, self.partitioner.pivot_matrix().dims()));
        probe_rows(
            rows.len(),
            workers,
            metrics,
            || {
                VoronoiScan::new(&tables, plan.k, plan.metric, plan.kernel_mode)
                    .with_delta(delta.as_ref())
            },
            |scan, row| {
                let (i, pivot_dist) = assignments[row];
                scan.scan(
                    rows[row],
                    pivot_dist,
                    i,
                    &self.s_parts,
                    &self.s_orders[i],
                    theta[i],
                )
            },
        )
    }
}

/// The per-`R`-partition scan orders over the non-empty `S` cells (ascending
/// pivot distance, Algorithm 3 line 14), shared by the full build and the
/// partial compaction.
fn compute_s_orders(non_empty: &[usize], pivot_distances: &[Vec<f64>]) -> Vec<Vec<usize>> {
    pivot_distances
        .iter()
        .map(|row| order_by_pivot_distance(non_empty.iter().copied(), row))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::PartitionBounds;
    use crate::pivots::{select_pivots, PivotSelectionStrategy};
    use datagen::uniform;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// An attached-but-empty overlay must not perturb the scan: same
        /// neighbours, same counters as no overlay at all, in every mode —
        /// what lets one scan serve the frozen and the mutated corpus.
        #[test]
        fn empty_overlay_scans_exactly_like_no_overlay(
            n_r in 5usize..60,
            n_s in 5usize..120,
            k in 1usize..8,
            pivot_count in 1usize..9,
            dims in 1usize..4,
            seed in 0u64..100,
            which_metric in 0usize..3,
        ) {
            let metric = [
                DistanceMetric::Euclidean,
                DistanceMetric::Manhattan,
                DistanceMetric::Chebyshev,
            ][which_metric];
            let r = uniform(n_r, dims, 50.0, seed);
            let s = uniform(n_s, dims, 50.0, seed ^ 0xABCD);
            let pivots = select_pivots(
                &r,
                pivot_count.min(n_r),
                PivotSelectionStrategy::default(),
                1000,
                metric,
                seed,
            );
            let partitioner = VoronoiPartitioner::new(pivots.clone(), metric);
            let (pr, ps) = (partitioner.partition(&r), partitioner.partition(&s));
            let tables = SummaryTables::build(pivots, metric, &pr, &ps, k);
            let theta = PartitionBounds::compute(&tables, k).theta;
            let mut s_parts: BTreeMap<usize, FlatPartition> = BTreeMap::new();
            for (j, bucket) in ps.partitions.iter().enumerate() {
                let flat = s_parts.entry(j).or_insert_with(|| FlatPartition::new(dims));
                for (point, dist) in bucket {
                    flat.push(point, *dist);
                }
            }
            let empty = DeltaOverlay::default();
            let no_adds = DeltaView::gather(&empty, dims);
            for mode in [KernelMode::Exact, KernelMode::Fast] {
                let mut frozen = VoronoiScan::new(&tables, k, metric, mode);
                let mut overlaid = VoronoiScan::new(&tables, k, metric, mode)
                    .with_delta(Some(&no_adds));
                for (i, bucket) in pr.partitions.iter().enumerate() {
                    let s_order =
                        order_by_pivot_distance(s_parts.keys().copied(), &tables.pivot_distances[i]);
                    for (r_obj, r_pivot_dist) in bucket {
                        let a = frozen.scan(&r_obj.coords, *r_pivot_dist, i, &s_parts, &s_order, theta[i]);
                        let b = overlaid.scan(&r_obj.coords, *r_pivot_dist, i, &s_parts, &s_order, theta[i]);
                        prop_assert_eq!(a, b, "{:?}", mode);
                    }
                }
            }
        }
    }
}
