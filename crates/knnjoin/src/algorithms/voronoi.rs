//! The Voronoi family shared by PGBJ and PBJ: the front half that turns
//! points into cells (`partition_job`), the flat per-partition `S` layout,
//! the one bounded candidate scan of Algorithm 3 ([`VoronoiScan`]), and the
//! prepared state that runs it against a resident `S` (`VoronoiPrepared`).
//!
//! §6 of the paper defines PBJ as PGBJ's bounds without the grouping, so both
//! algorithms — cold or prepared, with or without a delta overlay, in any
//! kernel mode — share everything up to the summary tables and call the same
//! scan; they differ only in where the `S` partitions, the scan order and
//! `θ_i` come from.

use crate::algorithms::common::{
    counters, for_each_tile, probe_rows, raw_inputs, DeltaView, ScanCounts, ScanKernels,
    ShuffleRecord, TileScratch,
};
use crate::bounds::{bounding_knn_theta, hyperplane_bound, theorem2_window};
use crate::context::ExecutionContext;
use crate::delta::DeltaOverlay;
use crate::metrics::{phases, JoinMetrics};
use crate::partition::VoronoiPartitioner;
use crate::pivots::select_pivots;
use crate::plan::JoinPlan;
use crate::result::JoinError;
use crate::summary::{pivot_distance_matrix, r_summaries, SPartitionSummary, SummaryTables};
use geom::{
    CoordMatrix, DistanceMetric, KernelMode, Neighbor, NeighborList, Point, PointId, PointSet,
    RecordKind,
};
use mapreduce::{ByteSize, Combiner, JobBuilder, MapContext, Mapper, ReduceContext, Reducer};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// One row of a [`FlatPartition`]: the object's distance to the cell's pivot,
/// its id, its coordinates.
type Row<'a> = (f64, PointId, &'a [f64]);

/// The order of a cell's rows: ascending pivot distance, ties by id.
fn row_order(a: &Row<'_>, b: &Row<'_>) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// One Voronoi cell's `S` objects in flat structure-of-data layout —
/// coordinate rows in a contiguous [`CoordMatrix`], ids and pivot distances
/// in parallel vectors — with the rows **ascending by pivot distance, ties
/// by id**, so the objects inside a Theorem 2 window are one contiguous run
/// found by binary search ([`VoronoiScan`] owns that walk).
///
/// The fields are private and a cell is only made from rows already in
/// order (`Self::from_sorted`), so the order cannot be broken from outside.
/// Three places make cells and establish it: `VoronoiPrepared::build` sorts
/// each bucket before flattening it, `VoronoiPrepared::compact` merges a
/// cell's surviving rows with its sorted adds, and
/// `VoronoiScan::scan_shuffled` sorts each received cell once per reducer.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatPartition {
    ids: Vec<PointId>,
    pivot_dists: Vec<f64>,
    coords: CoordMatrix,
}

impl FlatPartition {
    /// Flattens `rows`, which must already be in cell order — asserted under
    /// `cfg(test)` and the `debug-invariants` feature.
    pub(crate) fn from_sorted(dims: usize, rows: &[Row<'_>]) -> Self {
        #[cfg(any(test, feature = "debug-invariants"))]
        assert!(
            rows.windows(2).all(|w| row_order(&w[0], &w[1]).is_le()),
            "cell invariant violated: rows do not ascend by (pivot distance, id)"
        );
        let mut coords = CoordMatrix::with_capacity(dims, rows.len());
        rows.iter().for_each(|row| coords.push_row(row.2));
        Self {
            ids: rows.iter().map(|row| row.1).collect(),
            pivot_dists: rows.iter().map(|row| row.0).collect(),
            coords,
        }
    }

    /// Puts `rows` in cell order, then flattens them: each object is copied
    /// once, into its final row.
    pub(crate) fn sorted(dims: usize, mut rows: Vec<Row<'_>>) -> Self {
        rows.sort_unstable_by(row_order);
        Self::from_sorted(dims, &rows)
    }

    /// The rows, in cell order.
    fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        (0..self.len()).map(|i| (self.pivot_dists[i], self.ids[i], self.coords.row(i)))
    }

    /// The objects' pivot distances, ascending.
    pub(crate) fn pivot_dists(&self) -> &[f64] {
        &self.pivot_dists
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

/// Merges two row runs, each in cell order, into one.
fn merge_rows<'a>(
    a: impl Iterator<Item = Row<'a>>,
    b: impl Iterator<Item = Row<'a>>,
) -> impl Iterator<Item = Row<'a>> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if row_order(y, x).is_lt() => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

/// The `S` cells a scan runs against, by partition; only non-empty ones.
/// Each sits behind its own `Arc` so a compaction shares the cells it did not
/// touch.
pub type CellMap = BTreeMap<usize, Arc<FlatPartition>>;

/// Sorts the `S` cell ids `cells` by ascending pivot distance from one `R`
/// partition's pivot, given that pivot's row of the pivot-distance matrix
/// (Algorithm 3 line 14).
fn order_by_pivot_distance(cells: impl Iterator<Item = usize>, row: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = cells.collect();
    order.sort_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap_or(Ordering::Equal));
    order
}

/// Rows per kernel call of the candidate walk.  Small on purpose: θ is
/// re-read between tiles, so a tile is also how far past a shrinking edge the
/// walk may evaluate.  (The prune-free scanners have no edge to overshoot
/// and keep [`geom::kernels::PROBE_TILE`].)
const SCAN_TILE: usize = 32;

/// The pruned candidate scan at the heart of Algorithm 3 (lines 16–25) — the
/// single implementation behind the PGBJ group reducer, the PBJ cell reducer
/// and the prepared probe, with or without a delta overlay, in either kernel
/// mode.
///
/// For one `R` object `r` (in partition `r_partition`, `r_pivot_dist` from
/// its pivot), [`VoronoiScan::scan`] visits the `S` cells in the order
/// `s_order` (ascending pivot distance from `p_i`) under the running
/// threshold `θ = min(θ_i, current kth distance)`:
///
/// 1. the walk ends at the first cell `j` with `|p_i, p_j| / 2 − |r, p_i| >
///    θ`, before `|r, p_j|` is evaluated.  Every `s` of cell `j` is no
///    farther from `p_j` than from `p_i`, so `|p_i, p_j| ≤ |p_i, s| + |s,
///    p_j| ≤ 2 |p_i, s|`, and `|r, s| ≥ |p_i, s| − |r, p_i| ≥ |p_i, p_j| / 2
///    − |r, p_i|` by the triangle inequality alone: no object of that cell
///    is within θ, nor of any later one (`|p_i, p_j|` ascends along
///    `s_order`, θ only shrinks).  An addition to Algorithm 3, which pays a
///    pivot distance for every cell it then prunes with Corollary 1;
/// 2. Corollary 1 prunes a whole cell, Theorem 2 turns the rest into a
///    window `[lo, hi]` of pivot distances: two `partition_point`s over the
///    cell's ascending pivot distances make it a row range, a third finds
///    its *centre*, the first row with `|p_j, s| ≥ |p_j, r|`;
/// 3. the range is walked from the centre up to `hi`, then from the centre
///    down to `lo`, in tiles of `SCAN_TILE` rows through
///    `ScanKernels::distances`;
/// 4. before every tile θ is re-read and the tile is cut at the first row
///    with `||p_j, s| − |p_j, r|| > θ`, which ends that direction: by the
///    triangle inequality every later row is farther still.  Walked from
///    one end instead, a cell's near edge could never move — a row admitted
///    on the way in keeps θ above its own `||p_j, s| − |p_j, r||`, hence
///    above that of every row between it and the centre.
///
/// `Exact` and `Fast` differ in the kernels and nothing else: both offer the
/// same rows in the same order unless a `Fast` distance, off by its
/// accumulation-order round-off (≤ 1e-9 relative), lands on the other side
/// of θ.  `Exact`'s tile kernel returns the scalar kernel's bits, so its
/// answers equal a brute-force scan's bit for bit.  All comparisons stay in
/// true-distance space: θ and the window come from triangle-inequality
/// bounds over true distances, and squared ranks could flip one at the last
/// ulp (see ARCHITECTURE.md).
///
/// With a delta overlay attached (`VoronoiScan::with_delta`), the added
/// points are offered into the accumulator *first* (tightening the running θ
/// before any frozen candidate is scanned) and tombstoned frozen rows are
/// evaluated with their tile but masked from the accumulator.  Callers must
/// pass `θ_i = ∞` whenever the overlay carries tombstones: `θ_i` is derived
/// from the frozen `T_S` table, whose guarantee ("partition `i` alone holds
/// `k` objects within `θ_i`") deletions can break.  Added points never
/// invalidate it; they only shrink the true kth distance.
pub struct VoronoiScan<'a> {
    tables: &'a SummaryTables,
    k: usize,
    kernels: ScanKernels,
    delta: Option<&'a DeltaView>,
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
    pub(crate) fn with_delta(mut self, delta: Option<&'a DeltaView>) -> Self {
        self.delta = delta;
        self
    }

    /// Returns the `k` best neighbours of one `R` object and the distance
    /// computations spent (object-to-object plus object-to-pivot, per the
    /// paper's selectivity definition).
    pub fn scan(
        &mut self,
        r_coords: &[f64],
        r_pivot_dist: f64,
        r_partition: usize,
        s_parts: &CellMap,
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
            // Every s of cell j is at least |p_i, p_j| / 2 from p_i, hence at
            // least that minus |r, p_i| from r; later cells are farther.
            if j != r_partition && 0.5 * pivot_dist - r_pivot_dist > theta {
                break;
            }
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
            let Some(cell) = s_parts.get(&j) else {
                continue;
            };
            let pivot_dists = cell.pivot_dists.as_slice();
            let first = pivot_dists.partition_point(|&d| d < lo);
            let last = pivot_dists.partition_point(|&d| d <= hi);
            let centre = first + pivot_dists[first..last].partition_point(|&d| d < d_r_pj);
            // Up from the centre, until |p_j, s| − |p_j, r| > θ.
            let mut next = centre;
            while next < last {
                let theta_now = theta_i.min(neighbors.threshold());
                let tile = &pivot_dists[next..(next + SCAN_TILE).min(last)];
                let stop = next + tile.partition_point(|&d| d - d_r_pj <= theta_now);
                if stop == next {
                    break;
                }
                self.offer_rows(r_coords, cell, next..stop, &mut neighbors, &mut counts);
                next = stop;
            }
            // Down from the centre, until |p_j, r| − |p_j, s| > θ.
            let mut done = centre;
            while first < done {
                let theta_now = theta_i.min(neighbors.threshold());
                let tile = &pivot_dists[done.saturating_sub(SCAN_TILE).max(first)..done];
                let start = done - tile.len() + tile.partition_point(|&d| d_r_pj - d > theta_now);
                if start == done {
                    break;
                }
                self.offer_rows(r_coords, cell, start..done, &mut neighbors, &mut counts);
                done = start;
            }
        }
        (neighbors.into_sorted(), counts)
    }

    /// Evaluates the contiguous `rows` of `cell` and offers all but the
    /// tombstoned ones.
    #[inline(always)]
    fn offer_rows(
        &mut self,
        r_coords: &[f64],
        cell: &FlatPartition,
        rows: Range<usize>,
        neighbors: &mut NeighborList,
        counts: &mut ScanCounts,
    ) {
        let dim = r_coords.len();
        let dists = &mut self.scratch.ranks[..rows.len()];
        let coords = &cell.coords.as_slice()[rows.start * dim..rows.end * dim];
        self.kernels.distances(r_coords, coords, dim, dists);
        counts.frozen += dists.len() as u64;
        for (&id, &d) in cell.ids[rows].iter().zip(dists.iter()) {
            if self.delta.is_some_and(|delta| delta.is_tombstoned(id)) {
                counts.masked += 1;
            } else {
                neighbors.offer(id, d);
            }
        }
    }

    /// The body of a cold Algorithm 3 reducer (lines 12–25): split the
    /// shuffled records by kind and partition (line 13), sort the received
    /// `S` partitions by pivot distance per `R` partition (line 14), and
    /// scan for every local `r`, handing `(r id, neighbours)` to `emit`.
    /// `theta_of` supplies `θ_i` for an `R` partition given the `S` subset
    /// this reducer received.  Returns the distance computations spent.
    /// `R` records stay borrowed (each is a query, visited once); each
    /// received `S` cell is sorted once and flattened into cell order.
    pub(crate) fn scan_shuffled(
        &mut self,
        values: &[ShuffleRecord],
        theta_of: impl Fn(usize, &CellMap) -> f64,
        mut emit: impl FnMut(PointId, Vec<Neighbor>),
    ) -> u64 {
        let dims = self.tables.pivots.first().map_or(0, |p| p.dims());
        let mut r_parts: BTreeMap<usize, Vec<&ShuffleRecord>> = BTreeMap::new();
        let mut s_rows: BTreeMap<usize, Vec<Row<'_>>> = BTreeMap::new();
        for record in values {
            let partition = record.partition as usize;
            match record.kind {
                RecordKind::R => r_parts.entry(partition).or_default().push(record),
                RecordKind::S => s_rows.entry(partition).or_default().push((
                    record.pivot_distance,
                    record.point.id,
                    &record.point.coords,
                )),
            }
        }
        let s_parts: CellMap = s_rows
            .into_iter()
            .map(|(j, rows)| (j, Arc::new(FlatPartition::sorted(dims, rows))))
            .collect();
        let mut computations = 0;
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
                computations += counts.frozen;
                emit(r.point.id, neighbors);
            }
        }
        computations
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

/// The front half of cold PGBJ and cold PBJ, the same step by definition
/// (§6): pivot selection, the first MapReduce job — every object of `R ∪ S`
/// to the cell of its closest pivot — and index merging, which folds the
/// job's output into `T_R` / `T_S` (Figure 6).  Returns the tables and every
/// object as the job left it: carrying its cell and pivot distance, sharing
/// the point [`raw_inputs`] allocated, cell by cell in the reducers' order.
/// Both the job's shuffle and its pivot-assignment computations are billed
/// to `metrics`.
pub(crate) fn partition_job(
    plan: &JoinPlan,
    r: &PointSet,
    s: &PointSet,
    ctx: &ExecutionContext,
    metrics: &mut JoinMetrics,
) -> Result<(Arc<SummaryTables>, Vec<ShuffleRecord>), JoinError> {
    let pivots = select_plan_pivots(r, plan, metrics);

    let start = Instant::now();
    let job = JobBuilder::new("voronoi-partition")
        .reducers(plan.reducers)
        .map_tasks(plan.map_tasks)
        .workers(ctx.workers())
        .run_with_optional_combiner(
            raw_inputs(r, s),
            &PartitionMapper(VoronoiPartitioner::new(pivots.clone(), plan.metric)),
            plan.combiner.then_some(&BatchCombiner),
            &PassThroughReducer,
        )
        .map_err(|e| JoinError::substrate("voronoi-partition", e))?;
    metrics.absorb_job(&job.metrics);
    let records: Vec<ShuffleRecord> = job.output.into_iter().map(|(_, record)| record).collect();
    metrics.record_phase(phases::DATA_PARTITIONING, start.elapsed());

    let start = Instant::now();
    let of_kind = |kind: RecordKind| {
        ShuffleRecord::of_kind(&records, kind)
            .map(|record| (record.partition as usize, record.pivot_distance))
    };
    let tables = SummaryTables::from_assignments(
        pivots,
        plan.metric,
        of_kind(RecordKind::R),
        of_kind(RecordKind::S),
        plan.k,
    );
    metrics.record_phase(phases::INDEX_MERGING, start.elapsed());
    Ok((Arc::new(tables), records))
}

/// The intermediate value of the partitioning job: a batch of records bound
/// for one Voronoi partition.  Mappers emit singleton batches; the map-side
/// [`BatchCombiner`] merges every batch a map task produced for the same
/// partition into one, so the per-record shuffle framing is paid once per
/// (task, partition) instead of once per object.
#[derive(Debug, Clone, Default, PartialEq)]
struct RecordBatch(Vec<ShuffleRecord>);

impl ByteSize for RecordBatch {
    fn byte_size(&self) -> usize {
        // Exactly the records' own bytes: the `Record` codec is
        // self-delimiting, so a batch needs no extra framing and a singleton
        // batch costs the same as shipping the bare record.  This keeps the
        // combiner-off baseline comparable (its savings are real, not an
        // artifact of batch framing).
        self.0.iter().map(ByteSize::byte_size).sum()
    }
}

/// Mapper of the partitioning job: assign each object to its closest pivot
/// via [`VoronoiPartitioner::nearest_pivot`], crediting the pivot-assignment
/// counter with the distance computations actually spent (the pruned search
/// usually touches far fewer than `|P|` pivots).
struct PartitionMapper(VoronoiPartitioner);

impl Mapper for PartitionMapper {
    type KIn = u64;
    type VIn = ShuffleRecord;
    type KOut = u32;
    type VOut = RecordBatch;

    fn map(&self, _key: &u64, value: &ShuffleRecord, ctx: &mut MapContext<u32, RecordBatch>) {
        let assignment = self.0.nearest_pivot(&value.point.coords);
        ctx.counters().add(
            counters::PIVOT_ASSIGNMENT_COMPUTATIONS,
            assignment.computations,
        );
        let partition = assignment.partition as u32;
        let out = ShuffleRecord {
            partition,
            pivot_distance: assignment.distance,
            ..value.clone()
        };
        ctx.emit(partition, RecordBatch(vec![out]));
    }
}

/// Combiner of the partitioning job: concatenate a map task's batches per
/// partition.  Batching is trivially associative, so the reducer sees the
/// same records whether or not the combiner ran — only the shuffle framing
/// shrinks.
struct BatchCombiner;

impl Combiner for BatchCombiner {
    type K = u32;
    type V = RecordBatch;

    fn combine(&self, _key: &u32, values: &[RecordBatch]) -> Vec<RecordBatch> {
        let records = values.iter().flat_map(|batch| batch.0.iter().cloned());
        vec![RecordBatch(records.collect())]
    }
}

/// Reducer of the partitioning job: hand each partition's records on as they
/// arrived (map-task order, then input order).  The job's output is what the
/// join job reads, and a record is a handle on its object, so nothing is
/// copied.
struct PassThroughReducer;

impl Reducer for PassThroughReducer {
    type KIn = u32;
    type VIn = RecordBatch;
    type KOut = u32;
    type VOut = ShuffleRecord;

    fn reduce(
        &self,
        key: &u32,
        values: &[RecordBatch],
        ctx: &mut ReduceContext<u32, ShuffleRecord>,
    ) {
        for record in values.iter().flat_map(|batch| &batch.0) {
            ctx.emit(*key, record.clone());
        }
    }
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
/// queries.  The two algorithms share it whole: nothing here, the probe
/// included, looks at `plan.algorithm`.
#[derive(Debug)]
pub(crate) struct VoronoiPrepared {
    /// Pivot assignment machinery (flat pivot matrix + pruned search);
    /// `Arc`-shared so compaction epochs reuse it untouched.
    partitioner: Arc<VoronoiPartitioner>,
    /// The pivot set, shared into every per-query [`SummaryTables`].
    pivots: Arc<Vec<Point>>,
    /// Voronoi-partitioned `S` in flat layout.
    s_parts: CellMap,
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
    /// because the correctness of every bound holds for any pivot set.  `S`
    /// is assigned as every probe and compaction assigns, and billed to
    /// `metrics` likewise.
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
        let pivot_distances = Arc::new(pivot_distance_matrix(&pivots, plan.metric));
        let mut cells: Vec<Vec<Row<'_>>> = vec![Vec::new(); pivots.len()];
        for p in s {
            let (cell, dist) = assign(&partitioner, &p.coords, metrics);
            cells[cell].push((dist, p.id, &p.coords));
        }
        let mut s_parts = CellMap::new();
        let mut s_summaries = Vec::with_capacity(cells.len());
        for (j, rows) in cells.into_iter().enumerate() {
            let cell = FlatPartition::sorted(s.dims(), rows);
            s_summaries.push(SPartitionSummary::of_sorted(j, cell.pivot_dists(), plan.k));
            if !cell.is_empty() {
                s_parts.insert(j, Arc::new(cell));
            }
        }
        let non_empty: Vec<usize> = s_parts.keys().copied().collect();
        let s_orders = Arc::new(compute_s_orders(&non_empty, &pivot_distances));
        metrics.record_phase(phases::DATA_PARTITIONING, start.elapsed());
        Self {
            partitioner,
            pivots,
            s_parts,
            s_summaries: Arc::new(s_summaries),
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
    /// A rebuilt cell is the merge of its surviving rows (already in cell
    /// order) with its adds (sorted here, a handful per cell) — no cell is
    /// ever re-sorted — and its `T_S` row is read off the merged column as
    /// in the full build, so the compacted state is row-identical to a cold
    /// build over the materialized corpus.
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
        let mut add_cells: BTreeMap<usize, Vec<Row<'_>>> = BTreeMap::new();
        for (id, coords) in delta.adds() {
            let (cell, dist) = assign(&self.partitioner, coords, metrics);
            affected.insert(cell);
            add_cells.entry(cell).or_default().push((dist, id, coords));
        }

        let mut s_parts = self.s_parts.clone();
        let mut s_summaries = (*self.s_summaries).clone();
        for &j in &affected {
            let survivors = self
                .s_parts
                .get(&j)
                .into_iter()
                .flat_map(|old| old.rows())
                .filter(|row| !delta.is_tombstoned(row.1));
            let mut adds = add_cells.remove(&j).unwrap_or_default();
            adds.sort_unstable_by(row_order);
            let rows: Vec<Row<'_>> = merge_rows(survivors, adds.into_iter()).collect();
            let cell = FlatPartition::from_sorted(dims, &rows);
            metrics.compacted_points += cell.len() as u64;
            s_summaries[j] = SPartitionSummary::of_sorted(j, cell.pivot_dists(), plan.k);
            if cell.is_empty() {
                s_parts.remove(&j);
            } else {
                s_parts.insert(j, Arc::new(cell));
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

    /// Assembles the full [`SummaryTables`] for one probe batch: `T_R` is
    /// folded from the batch's assignments; the pivot set, `T_S` and the
    /// pivot-distance matrix are `Arc`-shared from the prebuilt state, so
    /// assembly costs O(t) for the fresh `R` summaries and nothing else.
    fn query_tables(&self, assignments: &[(usize, f64)]) -> SummaryTables {
        SummaryTables {
            pivots: Arc::clone(&self.pivots),
            metric: self.partitioner.metric(),
            r_summaries: r_summaries(self.pivots.len(), assignments.iter().copied()),
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
        let assignments: Vec<(usize, f64)> = rows
            .iter()
            .map(|row| assign(&self.partitioner, row, metrics))
            .collect();
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

/// Assigns one object to its `(cell, pivot distance)` — the one way `prepare`,
/// a probe and a compaction reach the search — billing the computations spent.
fn assign(
    partitioner: &VoronoiPartitioner,
    coords: &[f64],
    metrics: &mut JoinMetrics,
) -> (usize, f64) {
    let assignment = partitioner.nearest_pivot(coords);
    metrics.pivot_assignment_computations += assignment.computations;
    (assignment.partition, assignment.distance)
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
    use crate::partition::PartitionedDataset;
    use crate::pivots::{select_pivots, PivotSelectionStrategy};
    use datagen::uniform;
    use proptest::prelude::*;

    const METRICS: [DistanceMetric; 3] = [
        DistanceMetric::Euclidean,
        DistanceMetric::Manhattan,
        DistanceMetric::Chebyshev,
    ];

    /// What a reducer holds for one seeded `R ⋉ S`: the partitioned `R`, the
    /// tables, every `θ_i` and the `S` cells in cell order.
    struct Fixture {
        partitioned_r: PartitionedDataset,
        tables: SummaryTables,
        theta: Vec<f64>,
        s_parts: CellMap,
    }

    fn fixture(
        r: &PointSet,
        s: &PointSet,
        k: usize,
        pivot_count: usize,
        metric: DistanceMetric,
        seed: u64,
    ) -> Fixture {
        let pivots = select_pivots(
            r,
            pivot_count.min(r.len()),
            PivotSelectionStrategy::default(),
            1000,
            metric,
            seed,
        );
        fixture_over(pivots, r, s, k, metric)
    }

    fn fixture_over(
        pivots: Vec<Point>,
        r: &PointSet,
        s: &PointSet,
        k: usize,
        metric: DistanceMetric,
    ) -> Fixture {
        let partitioner = VoronoiPartitioner::new(pivots.clone(), metric);
        let (partitioned_r, partitioned_s) = (partitioner.partition(r), partitioner.partition(s));
        let tables = SummaryTables::build(pivots, metric, &partitioned_r, &partitioned_s, k);
        let theta = PartitionBounds::compute(&tables, k).theta;
        let s_parts = partitioned_s
            .partitions
            .iter()
            .enumerate()
            .map(|(j, bucket)| {
                let rows = bucket
                    .iter()
                    .map(|(s, dist)| (*dist, s.id, s.coords.as_slice()));
                (j, Arc::new(FlatPartition::sorted(r.dims(), rows.collect())))
            })
            .collect();
        Fixture {
            partitioned_r,
            tables,
            theta,
            s_parts,
        }
    }

    impl Fixture {
        /// Calls `each(scan order, r, r's pivot distance, r's partition)` for
        /// every object of `R`.
        fn for_each_r(&self, mut each: impl FnMut(&[usize], &Point, f64, usize)) {
            for (i, bucket) in self.partitioned_r.partitions.iter().enumerate() {
                let s_order = order_by_pivot_distance(
                    self.s_parts.keys().copied(),
                    &self.tables.pivot_distances[i],
                );
                for (r_obj, r_pivot_dist) in bucket {
                    each(&s_order, r_obj, *r_pivot_dist, i);
                }
            }
        }
    }

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
            let metric = METRICS[which_metric];
            let r = uniform(n_r, dims, 50.0, seed);
            let s = uniform(n_s, dims, 50.0, seed ^ 0xABCD);
            let f = fixture(&r, &s, k, pivot_count, metric, seed);
            let empty = DeltaOverlay::default();
            let no_adds = DeltaView::gather(&empty, dims);
            for mode in [KernelMode::Exact, KernelMode::Fast] {
                let mut frozen = VoronoiScan::new(&f.tables, k, metric, mode);
                let mut overlaid = VoronoiScan::new(&f.tables, k, metric, mode)
                    .with_delta(Some(&no_adds));
                let mut verdict = Ok(());
                f.for_each_r(|s_order, r_obj, r_pivot_dist, i| {
                    let a = frozen.scan(&r_obj.coords, r_pivot_dist, i, &f.s_parts, s_order, f.theta[i]);
                    let b = overlaid.scan(&r_obj.coords, r_pivot_dist, i, &f.s_parts, s_order, f.theta[i]);
                    if a != b && verdict.is_ok() {
                        verdict = Err(format!("{mode:?}: {a:?} vs {b:?}"));
                    }
                });
                prop_assert!(verdict.is_ok(), "{:?}", verdict);
            }
        }

        /// The bound the window-first walk exists for, per `R` object: both
        /// modes answer what a brute-force scan answers (`Exact` bit for
        /// bit, `Fast` within 1e-9), and `Fast` evaluates at most
        /// `SCAN_TILE − 1` objects more than `Exact` behind each edge of a
        /// cell it visits (both walk the same tiles, so a difference takes a
        /// `Fast` distance landing on the other side of θ).  A cell either
        /// mode visits costs `Exact` at least one object, so the visits are
        /// bounded by `Exact`'s object evaluations and by the number of
        /// cells.
        #[test]
        fn fast_evaluates_at_most_a_tile_per_edge_more_than_exact_in_a_visited_cell(
            n_r in 5usize..40,
            n_s in 100usize..1200,
            k in 1usize..12,
            pivot_count in 1usize..7,
            dims in 1usize..6,
            seed in 0u64..100,
            which_metric in 0usize..3,
        ) {
            let metric = METRICS[which_metric];
            let r = uniform(n_r, dims, 50.0, seed);
            let s = uniform(n_s, dims, 50.0, seed ^ 0x5EED);
            let f = fixture(&r, &s, k, pivot_count, metric, seed);
            let mut exact = VoronoiScan::new(&f.tables, k, metric, KernelMode::Exact);
            let mut fast = VoronoiScan::new(&f.tables, k, metric, KernelMode::Fast);
            let mut verdict = Ok(());
            f.for_each_r(|s_order, r_obj, r_pivot_dist, i| {
                let mut oracle = NeighborList::new(k);
                for s_obj in &s {
                    oracle.offer(s_obj.id, metric.distance(r_obj, s_obj));
                }
                let want: Vec<f64> = oracle.into_sorted().iter().map(|n| n.distance).collect();
                let (e_rows, e) = exact.scan(&r_obj.coords, r_pivot_dist, i, &f.s_parts, s_order, f.theta[i]);
                let (f_rows, fc) = fast.scan(&r_obj.coords, r_pivot_dist, i, &f.s_parts, s_order, f.theta[i]);
                let e_dists: Vec<f64> = e_rows.iter().map(|n| n.distance).collect();
                let close = f_rows.len() == want.len()
                    && f_rows.iter().zip(&want).all(|(n, w)| (n.distance - w).abs() <= 1e-9 * w.max(1.0));
                // A cell of the scan order costs at most one pivot distance
                // (none once the walk has stopped), so this is a lower bound.
                let cells = s_order.len() as u64;
                let exact_objects = e.frozen.saturating_sub(cells);
                let slack = 2 * (SCAN_TILE as u64 - 1) * cells.min(exact_objects);
                if verdict.is_ok() && (e_dists != want || !close || fc.frozen > e.frozen + slack) {
                    verdict = Err(format!(
                        "r {}: exact {e_dists:?} ({} evals), fast {f_rows:?} ({} evals), \
                         oracle {want:?}, slack {slack}",
                        r_obj.id, e.frozen, fc.frozen
                    ));
                }
            });
            prop_assert!(verdict.is_ok(), "{:?}", verdict);
        }
    }

    /// The pivot-order cut ends the walk: with one pivot per well-separated
    /// cluster, a scan pays for its own cell and stops at the next one, so
    /// its evaluations — pivots and objects together — are fewer than the
    /// cells of the scan order, each of which cost a pivot distance before
    /// the cut.  The answers are still the brute-force ones.
    #[test]
    fn the_walk_stops_at_the_first_cell_too_far_to_hold_a_neighbour() {
        let k = 2;
        let centres: Vec<Point> = (0..30)
            .map(|i| Point::new(i, vec![100.0 * i as f64, 0.0]))
            .collect();
        let around_centres = |offset: f64| {
            let rows = centres.iter().flat_map(|c| {
                (0..4).map(move |t| vec![c.coords[0] + offset + 0.3 * t as f64, 0.5])
            });
            PointSet::from_coords(rows.collect())
        };
        let (r, s) = (around_centres(-0.4), around_centres(-0.5));
        for metric in METRICS {
            let f = fixture_over(centres.clone(), &r, &s, k, metric);
            for mode in [KernelMode::Exact, KernelMode::Fast] {
                let mut scan = VoronoiScan::new(&f.tables, k, metric, mode);
                f.for_each_r(|s_order, r_obj, r_pivot_dist, i| {
                    let (rows, counts) = scan.scan(
                        &r_obj.coords,
                        r_pivot_dist,
                        i,
                        &f.s_parts,
                        s_order,
                        f.theta[i],
                    );
                    assert_eq!(s_order.len(), centres.len());
                    assert!(
                        counts.frozen < s_order.len() as u64,
                        "{metric:?} {mode:?} r {}: {} evaluations over {} cells",
                        r_obj.id,
                        counts.frozen,
                        s_order.len()
                    );
                    let mut oracle = NeighborList::new(k);
                    for s_obj in &s {
                        oracle.offer(s_obj.id, metric.distance(r_obj, s_obj));
                    }
                    let want = oracle.into_sorted();
                    let close = rows.len() == want.len()
                        && rows
                            .iter()
                            .zip(&want)
                            .all(|(got, want)| (got.distance - want.distance).abs() <= 1e-9);
                    assert!(
                        if mode.is_exact() { rows == want } else { close },
                        "{metric:?} {mode:?}: {rows:?} vs {want:?}"
                    );
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "cell invariant violated")]
    fn a_cell_refuses_rows_out_of_cell_order() {
        let rows: [Row<'_>; 2] = [(2.0, 1, &[0.0]), (1.0, 2, &[0.0])];
        FlatPartition::from_sorted(1, &rows);
    }

    /// Compaction merges instead of sorting: with adds and tombstones landing
    /// in the same cells, every rebuilt cell (audited at construction) and
    /// its `T_S` row equal, row for row, what a cold build over the
    /// materialized corpus lays out.
    #[test]
    fn compaction_lays_cells_out_like_a_cold_build_over_the_materialized_corpus() {
        let (dims, k) = (3, 4);
        let calibration = uniform(200, dims, 40.0, 7);
        let frozen = uniform(900, dims, 40.0, 8);
        let plan = JoinPlan {
            k,
            pivot_count: 6,
            ..JoinPlan::default()
        };
        let mut metrics = JoinMetrics::default();
        let built = VoronoiPrepared::build(&calibration, &frozen, &plan, &mut metrics);
        // Churn inside the first two cells: delete every third of their
        // objects and re-add as many right beside the survivors.
        let mut overlay = DeltaOverlay::default();
        let mut live: Vec<Point> = Vec::new();
        let churned: Vec<usize> = built.s_parts.keys().copied().take(2).collect();
        for p in &frozen {
            let cell = built.partitioner.nearest_pivot(&p.coords).partition;
            if churned.contains(&cell) && p.id % 3 == 0 {
                overlay.tombstone(p.id);
                let beside: Vec<f64> = p.coords.iter().map(|c| c + 0.01).collect();
                overlay.insert_add(10_000 + p.id, beside.clone());
                live.push(Point::new(10_000 + p.id, beside));
            } else {
                live.push(p.clone());
            }
        }
        assert!(overlay.tombstones_len() > 20);
        let compacted = built.compact(&overlay, &plan, &mut metrics);
        let cold = VoronoiPrepared::build(
            &calibration,
            &PointSet::from_points(live),
            &plan,
            &mut metrics,
        );
        assert_eq!(compacted.s_parts, cold.s_parts);
        assert_eq!(compacted.s_summaries, cold.s_summaries);
        assert_eq!(compacted.s_orders, cold.s_orders);
    }
}
