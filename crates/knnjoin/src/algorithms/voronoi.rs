//! The Voronoi family shared by PGBJ and PBJ: the front half that turns
//! points into cells (`partition_job`), the cells themselves
//! ([`FlatPartition`]: an `exact::FlatBlock`, the layout every scan ranks, plus
//! the rows' ascending pivot distances), the one bounded candidate scan of
//! Algorithm 3 ([`VoronoiScan`]), and the prepared state that runs it
//! against a resident `S` (`VoronoiPrepared`).
//!
//! §6 of the paper defines PBJ as PGBJ's bounds without the grouping, so
//! both cold algorithms share everything up to the summary tables and call
//! the same scan; they differ only in where the `S` partitions, the scan
//! order and `θ_i` come from.  The prepared state is PGBJ's alone: with `S`
//! resident nothing is routed, so PBJ would probe it identically.
//! The scan is shaped like every other scan of the crate: its tiles go
//! through `FlatBlock::offer`, and it writes into its caller's
//! [`NeighborList`].

use crate::algorithms::common::{ScanCounts, ScanKernels, TileScratch, PARALLEL_PROBE_CUT};
use crate::bounds::{bounding_knn_theta, hyperplane_bound, theorem2_window};
use crate::context::ExecutionContext;
use crate::delta::DeltaOverlay;
use crate::exact::FlatBlock;
use crate::metrics::{phases, Count, JoinMetrics, Tally};
use crate::partition::{PivotDistances, VoronoiPartitioner};
use crate::pivots::select_pivots;
use crate::plan::JoinPlan;
use crate::result::JoinError;
use crate::summary::SummaryTables;
use geom::{Mask, Neighbor, NeighborList, Point, PointId, PointSet, Record, RecordKind};
use mapreduce::{
    parallel_map, ByteSize, Combiner, JobBuilder, MapContext, Mapper, ReduceContext, Reducer,
};
use std::cmp::Ordering;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// One object on its way into a [`FlatPartition`]: its distance to the
/// cell's pivot, its id, its coordinates.
type Row<'a> = (f64, PointId, &'a [f64]);

/// One of a delta's adds on its way into a cell at compaction: `(pivot
/// distance, id, index among the overlay's adds)`.
type AddRow = (f64, PointId, usize);

/// The order of a cell's rows, by `(pivot distance, id)` key: ascending
/// pivot distance, ties by id.
fn cell_order(a: (f64, PointId), b: (f64, PointId)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// [`cell_order`] on incoming rows.
fn row_order(a: &Row<'_>, b: &Row<'_>) -> Ordering {
    cell_order((a.0, a.1), (b.0, b.1))
}

/// One Voronoi cell's objects (of `R` or of `S`): their ids and
/// coordinates as an `exact::FlatBlock` — column-major, the layout every scan
/// ranks — and their pivot distances in a parallel vector, with the rows
/// **ascending by pivot distance, ties by id**, so the objects inside a
/// Theorem 2 window are one contiguous run found by binary search
/// ([`VoronoiScan`] owns that walk) and the objects Theorem 6 routes to a
/// group are a suffix.
///
/// The fields are private and a cell is only made from rows already in
/// order (`Self::from_sorted`) or from an ordered selection of another
/// cell's rows, so the order cannot be broken from outside; every
/// constructor audits it under `cfg(test)` and the `debug-invariants`
/// feature.  A cell is sorted once, where it is first whole (job 1's
/// reducer, `VoronoiPrepared::build`); compaction merges and PBJ's split
/// takes subsequences.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatPartition {
    rows: FlatBlock,
    pivot_dists: Vec<f64>,
}

impl FlatPartition {
    /// Lays out `rows`, which must already be in cell order.
    pub(crate) fn from_sorted(rows: &[Row<'_>]) -> Self {
        let dims = rows.first().map_or(0, |row| row.2.len());
        let ids = rows.iter().map(|row| row.1).collect();
        Self {
            rows: FlatBlock::by_columns(ids, dims, |d, out| {
                out.extend(rows.iter().map(|row| row.2[d]));
            }),
            pivot_dists: rows.iter().map(|row| row.0).collect(),
        }
        .audited()
    }

    /// Puts `rows` in cell order, then lays them out: each object is copied
    /// once, into its final row.
    pub(crate) fn sorted(mut rows: Vec<Row<'_>>) -> Self {
        rows.sort_unstable_by(row_order);
        Self::from_sorted(&rows)
    }

    /// `self`, its row order asserted under `cfg(test)` and the
    /// `debug-invariants` feature.
    fn audited(self) -> Self {
        #[cfg(any(test, feature = "debug-invariants"))]
        assert!(
            (1..self.rows.len()).all(|i| cell_order(self.key(i - 1), self.key(i)).is_le()),
            "cell invariant violated: rows do not ascend by (pivot distance, id)"
        );
        self
    }

    /// Row `i`'s `(pivot distance, id)`.
    fn key(&self, i: usize) -> (f64, PointId) {
        (self.pivot_dists[i], self.rows.ids()[i])
    }

    /// The cell of the rows at the ascending indices `picked`, gathered
    /// column by column.
    fn gather(&self, picked: &[usize]) -> Self {
        let ids = picked.iter().map(|&i| self.rows.ids()[i]).collect();
        Self {
            rows: FlatBlock::by_columns(ids, self.rows.dims(), |d, out| {
                let column = self.rows.column(d);
                out.extend(picked.iter().map(|&i| column[i]));
            }),
            pivot_dists: picked.iter().map(|&i| self.pivot_dists[i]).collect(),
        }
        .audited()
    }

    /// The rows not tombstoned in `delta`, merged with `adds` (in cell
    /// order; an add goes before an equal row), `dims` coordinates each:
    /// the cell may be empty, and an empty block has no columns to count.
    /// Each run of surviving rows is copied with one `extend_from_slice` per
    /// field and column, and an add's coordinates are read from the
    /// overlay's columns.
    fn merged(&self, dims: usize, delta: &DeltaOverlay, adds: &[AddRow]) -> Self {
        /// A run of surviving rows, or one add.
        enum Piece {
            Kept(Range<usize>),
            Added(usize),
        }
        /// Lays one field out in merged order: `kept` is the field's old
        /// values, `added(a)` its value for add `a`.
        fn assemble<T: Copy>(
            out: &mut Vec<T>,
            pieces: &[Piece],
            kept: &[T],
            added: impl Fn(usize) -> T,
        ) {
            for piece in pieces {
                match piece {
                    Piece::Kept(run) => out.extend_from_slice(&kept[run.clone()]),
                    Piece::Added(a) => out.push(added(*a)),
                }
            }
        }

        let (mut pieces, mut next) = (Vec::new(), 0);
        let ids = self.rows.ids();
        for i in (0..ids.len()).filter(|&i| !delta.is_tombstoned(ids[i])) {
            let below = |add: &&AddRow| cell_order((add.0, add.1), self.key(i)).is_lt();
            while adds.get(next).filter(below).is_some() {
                pieces.push(Piece::Added(next));
                next += 1;
            }
            match pieces.last_mut() {
                Some(Piece::Kept(run)) if run.end == i => run.end += 1,
                _ => pieces.push(Piece::Kept(i..i + 1)),
            }
        }
        pieces.extend((next..adds.len()).map(Piece::Added));

        let n = ids.len() + adds.len();
        let (mut merged_ids, mut pivot_dists) = (Vec::with_capacity(n), Vec::with_capacity(n));
        assemble(&mut merged_ids, &pieces, ids, |a| adds[a].1);
        assemble(&mut pivot_dists, &pieces, &self.pivot_dists, |a| adds[a].0);
        let added = delta.add_block();
        Self {
            rows: FlatBlock::by_columns(merged_ids, dims, |d, out| {
                let added = added.column(d);
                assemble(out, &pieces, self.rows.column(d), |a| added[adds[a].2]);
            }),
            pivot_dists,
        }
        .audited()
    }
}

/// The rows of one shared cell from `first_row` on — how a cell crosses a
/// shuffle and how a scan holds it.  Every group a cell is replicated to,
/// and every epoch a compaction left it alone in, read one allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSlice {
    cell: Arc<FlatPartition>,
    first_row: usize,
}

impl CellSlice {
    /// All of `cell`.
    pub(crate) fn whole(cell: FlatPartition) -> Self {
        Self {
            cell: Arc::new(cell),
            first_row: 0,
        }
    }

    /// The rows at pivot distance `bound` or more: Theorem 6's `|s, p_j| ≥
    /// LB(P_j^S, G)` for the whole cell at once — the test is monotone along
    /// ascending rows, so what a group needs is a suffix, one binary search.
    pub(crate) fn at_least(&self, bound: f64) -> Self {
        Self {
            cell: Arc::clone(&self.cell),
            first_row: self.first_row + self.pivot_dists().partition_point(|&d| d < bound),
        }
    }

    /// Splits the rows into `blocks` whole sub-cells by `id mod blocks` (the
    /// block framework's split); a subsequence of a sorted cell is sorted.
    pub(crate) fn split_by_id(&self, blocks: usize) -> Vec<Self> {
        let mut picked: Vec<Vec<usize>> = vec![Vec::new(); blocks];
        let ids = self.cell.rows.ids();
        for i in self.first_row..ids.len() {
            picked[(ids[i] % blocks as u64) as usize].push(i);
        }
        let sub_cell = |rows: &Vec<usize>| Self::whole(self.cell.gather(rows));
        picked.iter().map(sub_cell).collect()
    }

    /// The rows, in cell order, each copied out of the columns.
    fn rows(&self) -> impl Iterator<Item = (f64, PointId, Vec<f64>)> + '_ {
        let cell = &*self.cell;
        (self.first_row..cell.rows.len()).map(|i| {
            let (pivot_dist, id) = cell.key(i);
            (pivot_dist, id, cell.rows.row(i))
        })
    }

    /// The rows' pivot distances, ascending.
    pub(crate) fn pivot_dists(&self) -> &[f64] {
        &self.cell.pivot_dists[self.first_row..]
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cell.rows.len() - self.first_row
    }

    /// Whether the slice holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The cells a scan runs against — the suffixes a cold reducer was sent, or
/// a prepared state's whole cells — in a table with one slot per partition,
/// empty where no cell is present.  Present cells iterate in ascending
/// partition order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMap {
    slots: Vec<Option<CellSlice>>,
}

impl CellMap {
    /// A table for `t` partitions, every slot empty.
    pub(crate) fn new(t: usize) -> Self {
        Self {
            slots: vec![None; t],
        }
    }

    /// The cell of partition `j`, if present.
    #[inline]
    pub(crate) fn get(&self, j: usize) -> Option<&CellSlice> {
        self.slots[j].as_ref()
    }

    /// Puts `cell` (or nothing) in partition `j`'s slot, returning what was
    /// there.
    pub(crate) fn set(&mut self, j: usize, cell: Option<CellSlice>) -> Option<CellSlice> {
        std::mem::replace(&mut self.slots[j], cell)
    }

    /// The present cells with their partitions, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &CellSlice)> {
        let slots = self.slots.iter().enumerate();
        slots.filter_map(|(j, slot)| Some((j, slot.as_ref()?)))
    }

    /// The partitions with a cell, ascending.
    pub(crate) fn partitions(&self) -> impl Iterator<Item = usize> + '_ {
        self.iter().map(|(j, _)| j)
    }
}

/// Fills `order` with the present cells of `s_parts`, sorted by ascending
/// pivot distance from one `R` partition's pivot, given that pivot's row of
/// the pivot-distance matrix (Algorithm 3 line 14).
fn order_by_pivot_distance(order: &mut Vec<usize>, s_parts: &CellMap, row: &[f64]) {
    order.clear();
    order.extend(s_parts.partitions());
    order.sort_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap_or(Ordering::Equal));
}

/// Rows per kernel call of the candidate walk.  Small on purpose: θ is
/// re-read between tiles, so a tile is also how far past a shrinking edge the
/// walk may evaluate.  (The prune-free scanners have no edge to overshoot
/// and keep [`geom::kernels::PROBE_TILE`].)
const SCAN_TILE: usize = 32;

/// The pruned candidate scan at the heart of Algorithm 3 (lines 16–25) — the
/// single implementation behind the PGBJ group reducer, the PBJ cell reducer
/// and the prepared probe, under any delta overlay.
///
/// For one `R` object `r` (in partition `i`, at pivot distance `|r, p_i|`),
/// [`VoronoiScan::scan`] visits the `S` cells in the order `s_order`
/// (ascending pivot distance from `p_i`) under the running threshold `θ =
/// min(θ_i, current kth distance)`:
///
/// 1. the walk ends at the first cell `j` with `|p_i, p_j| / 2 − |r, p_i| >
///    θ`, before `|r, p_j|` is evaluated: no object of that cell is within
///    θ, nor of any later one (proof in ARCHITECTURE.md, "The cell walk
///    stops early").  An addition to Algorithm 3, which pays a pivot
///    distance for every cell it then prunes with Corollary 1;
/// 2. Corollary 1 prunes a whole cell, Theorem 2 turns the rest into a
///    window `[lo, hi]` of pivot distances: two `partition_point`s over the
///    cell's ascending pivot distances make it a row range, a third finds
///    its *centre*, the first row with `|p_j, s| ≥ |p_j, r|`;
/// 3. the range is walked from the centre up to `hi`, then from the centre
///    down to `lo`, in tiles of `SCAN_TILE` rows, each offered with
///    `FlatBlock::offer`, the tiled offer every scan shares;
/// 4. before every tile θ is re-read and the tile is cut at the first row
///    with `||p_j, s| − |p_j, r|| > θ`, which ends that direction: by the
///    triangle inequality every later row is farther still.  Walked from
///    one end instead, a cell's near edge could never move — a row admitted
///    on the way in keeps θ above its own `||p_j, s| − |p_j, r||`, hence
///    above that of every row between it and the centre.
///
/// The frozen cells and the delta's adds are ranked by the exact column
/// kernel (`ScanKernels::columns`), so the scan keeps the scalar kernel's
/// bits and its answers equal a brute-force scan's bit for bit.  θ, the
/// cut, Corollary 1 and the window compare true distances; the one
/// rank-space comparison is `offer_ranks`' skip, whose bound is widened so
/// that it only skips rows `offer` would reject.
///
/// The scan's delta overlay (the cold reducers' is empty) is merged by one
/// rule: its added points are offered *first*, one `FlatBlock::offer`
/// over all of them (tightening the running θ before any frozen candidate
/// is scanned), and tombstoned frozen rows are evaluated with their tile but
/// masked from the list through the overlay's [`Mask`].  Callers must pass
/// `θ_i = ∞` whenever the overlay carries tombstones: `θ_i` is derived
/// from the frozen `T_S` table, whose guarantee ("partition `i` alone holds
/// `k` objects within `θ_i`") deletions can break.  Added points never
/// invalidate it; they only shrink the true kth distance.
pub struct VoronoiScan<'a> {
    tables: &'a SummaryTables,
    k: usize,
    kernels: ScanKernels,
    delta: &'a DeltaOverlay,
    masked: Mask<'a>,
    scratch: TileScratch,
    /// The distance computations of every scan so far.
    pub(crate) counts: ScanCounts,
}

impl<'a> VoronoiScan<'a> {
    /// A scan over the frozen `S` partitions summarized by `tables`, merged
    /// with `delta`.
    pub(crate) fn new(
        tables: &'a SummaryTables,
        k: usize,
        kernels: ScanKernels,
        delta: &'a DeltaOverlay,
    ) -> Self {
        Self {
            tables,
            k,
            kernels,
            delta,
            masked: delta.mask(),
            scratch: TileScratch::new(),
            counts: ScanCounts::default(),
        }
    }

    /// Leaves in `out`, reset to `k` on entry, the `k` best neighbours of
    /// one `R` object `r_coords`, assigned to partition `i` at pivot
    /// distance `r_pivot_dist`, and adds the distance computations spent
    /// (object-to-object plus object-to-pivot, per the paper's selectivity
    /// definition) into the scan's `counts`.
    pub fn scan(
        &mut self,
        r_coords: &[f64],
        (i, r_pivot_dist): (usize, f64),
        s_parts: &CellMap,
        s_order: &[usize],
        theta_i: f64,
        out: &mut NeighborList,
    ) {
        let (tables, kernels, masked) = (self.tables, &self.kernels, self.masked);
        let (counts, scratch) = (&mut self.counts, &mut self.scratch);
        out.reset(self.k);
        let adds = self.delta.add_block();
        adds.offer(r_coords, 0..adds.len(), Mask::NONE, kernels, scratch, out);
        counts.delta += adds.len() as u64;
        for &j in s_order {
            let theta = theta_i.min(out.threshold());
            let pivot_dist = tables.pivot_distance(i, j);
            // Every s of cell j is at least |p_i, p_j| / 2 from p_i, hence at
            // least that minus |r, p_i| from r; later cells are farther.
            if j != i && 0.5 * pivot_dist - r_pivot_dist > theta {
                break;
            }
            // Distance from r to the pivot of partition j; pivots count as
            // objects in the paper's selectivity metric.
            let d_r_pj = (kernels.pair)(r_coords, tables.pivots.row(j));
            counts.frozen += 1;
            // Corollary 1: skip the whole partition if the hyperplane between
            // p_i and p_j is already farther away than θ.
            if j != i
                && theta.is_finite()
                && hyperplane_bound(r_pivot_dist, d_r_pj, pivot_dist, kernels.metric) > theta
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
            let Some(slice) = s_parts.get(j) else {
                continue;
            };
            // The rows Theorem 6 kept from this reducer lie below the window:
            // |r, p_j| − θ ≥ |p_i, p_j| − U(P_i^R) − θ_i ≥ LB(P_j^S, G), up to
            // the rounding of the two sides.
            #[cfg(any(test, feature = "debug-invariants"))]
            assert!(
                slice.cell.pivot_dists[..slice.first_row]
                    .last()
                    .is_none_or(|&cut| cut < lo + 1e-9 * (1.0 + lo.abs())),
                "suffix invariant violated: a Theorem 2 window starts before its slice"
            );
            let (cell, first_row) = (&slice.cell.rows, slice.first_row);
            let pivot_dists = slice.pivot_dists();
            let first = pivot_dists.partition_point(|&d| d < lo);
            let last = pivot_dists.partition_point(|&d| d <= hi);
            let centre = first + pivot_dists[first..last].partition_point(|&d| d < d_r_pj);
            // Offers the slice's rows `rows` (counted from its first row).
            let mut offer = |rows: Range<usize>, out: &mut NeighborList| {
                counts.frozen += rows.len() as u64;
                let rows = first_row + rows.start..first_row + rows.end;
                counts.masked += cell.offer(r_coords, rows, masked, kernels, scratch, out);
            };
            // Up from the centre, until |p_j, s| − |p_j, r| > θ.
            let mut next = centre;
            while next < last {
                let theta_now = theta_i.min(out.threshold());
                let tile = &pivot_dists[next..(next + SCAN_TILE).min(last)];
                let stop = next + tile.partition_point(|&d| d - d_r_pj <= theta_now);
                if stop == next {
                    break;
                }
                offer(next..stop, out);
                next = stop;
            }
            // Down from the centre, until |p_j, r| − |p_j, s| > θ.
            let mut done = centre;
            while first < done {
                let theta_now = theta_i.min(out.threshold());
                let tile = &pivot_dists[done.saturating_sub(SCAN_TILE).max(first)..done];
                let start = done - tile.len() + tile.partition_point(|&d| d_r_pj - d > theta_now);
                if start == done {
                    break;
                }
                offer(start..done, out);
                done = start;
            }
        }
    }

    /// The body of a cold Algorithm 3 reducer (lines 12–25), PGBJ's and
    /// PBJ's alike: the received `S` slices *are* the [`CellMap`] (line 13),
    /// the scan order is sorted per `R` cell (line 14) into one buffer, and
    /// every received `R` row is scanned into one list, handed with its id to
    /// `emit`.  `theta_of` supplies `θ_i` for an `R` partition given the `S`
    /// subset received.  Returns the distance computations spent.
    pub(crate) fn join_cells(
        &mut self,
        values: &[ShuffledCell],
        mut theta_of: impl FnMut(usize, &CellMap) -> f64,
        mut emit: impl FnMut(PointId, &mut NeighborList),
    ) -> u64 {
        let t = self.tables.partition_count();
        let (mut r_cells, mut s_parts) = (CellMap::new(t), CellMap::new(t));
        for value in values {
            let partition = value.partition as usize;
            let cells = match value.kind {
                RecordKind::R => &mut r_cells,
                RecordKind::S => &mut s_parts,
            };
            let replaced = cells.set(partition, Some(value.rows.clone()));
            debug_assert!(
                replaced.is_none(),
                "a reducer received cell {partition} twice"
            );
        }
        let mut list = NeighborList::new(self.k);
        let mut r_coords = vec![0.0; self.tables.pivots.dims()];
        let mut s_order = Vec::with_capacity(t);
        for (i, r_cell) in r_cells.iter() {
            order_by_pivot_distance(&mut s_order, &s_parts, self.tables.pivot_distances.row(i));
            let theta_i = theta_of(i, &s_parts);
            let cell = &*r_cell.cell;
            for row in r_cell.first_row..cell.rows.len() {
                for (d, c) in r_coords.iter_mut().enumerate() {
                    *c = cell.rows.column(d)[row];
                }
                let (pivot_dist, id) = cell.key(row);
                let r = (i, pivot_dist);
                self.scan(&r_coords, r, &s_parts, &s_order, theta_i, &mut list);
                emit(id, &mut list);
            }
        }
        self.counts.frozen
    }
}

/// Selects the plan's pivots from `r` (the preprocessing step of cold PGBJ
/// and PBJ and of `prepare`), recording the phase and the selection counter.
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

/// One cell of one dataset as the cold jobs move it: job 1 emits it whole,
/// the join job shuffles the suffix or sub-cell a reducer needs.  Shuffle
/// cost is accounted, not produced: `n` rows are charged as `n` per-object
/// emissions — `n` records of [`Record::encoded_len_for_dims`] bytes, the
/// key once per record ([`ByteSize::records`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShuffledCell {
    /// Originating dataset.
    pub kind: RecordKind,
    /// The cell's pivot.
    pub partition: u32,
    /// The rows sent.
    pub rows: CellSlice,
}

impl ByteSize for ShuffledCell {
    fn byte_size(&self) -> usize {
        self.records() * Record::encoded_len_for_dims(self.rows.cell.rows.dims())
    }

    fn records(&self) -> usize {
        self.rows.len()
    }
}

/// The partitioning job's output, the join job's input: every non-empty
/// cell of `R` and of `S`, keyed by its pivot.
pub(crate) type KeyedCells = Vec<(u32, ShuffledCell)>;

/// The front half of cold PGBJ and cold PBJ, the same step by definition
/// (§6): pivot selection, the first MapReduce job — every object of `R ∪ S`
/// to the cell of its closest pivot, every cell laid out once by the reducer
/// that holds all of it — and index merging, which reads `T_R` / `T_S` off
/// the cells' sorted pivot distances (Figure 6).  Returns the tables and the
/// job's output as it is.  The job's shuffle and its pivot-assignment
/// computations are billed to `metrics`.
pub(crate) fn partition_job(
    plan: &JoinPlan,
    r: &PointSet,
    s: &PointSet,
    ctx: &ExecutionContext,
    metrics: &mut JoinMetrics,
) -> Result<(Arc<SummaryTables>, KeyedCells), JoinError> {
    let pivots = select_plan_pivots(r, plan, metrics);

    let start = Instant::now();
    let partitioner = VoronoiPartitioner::new(pivots, plan.metric);
    let tally = Tally::default();
    let datasets = [(RecordKind::R, r), (RecordKind::S, s)];
    let input = datasets
        .iter()
        .flat_map(|(kind, set)| set.iter().map(move |point| (point.id, (*kind, point))));
    let job = JobBuilder::new("voronoi-partition")
        .reducers(plan.reducers)
        .map_tasks(plan.map_tasks)
        .workers(ctx.workers())
        .run_with_combiner(
            input.collect(),
            &PartitionMapper(&partitioner),
            &BatchCombiner(PhantomData),
            &CellReducer(&tally),
        )
        .map_err(|e| JoinError::substrate("voronoi-partition", e))?;
    metrics.absorb_job(&job.metrics);
    metrics.absorb_tally(tally);
    metrics.record_phase(phases::DATA_PARTITIONING, start.elapsed());

    let start = Instant::now();
    let columns = |kind: RecordKind| {
        let cells = job.output.iter().filter(move |(_, cell)| cell.kind == kind);
        cells.map(|(j, cell)| (*j as usize, cell.rows.pivot_dists()))
    };
    let tables = SummaryTables::from_sorted_columns(
        &partitioner,
        columns(RecordKind::R),
        columns(RecordKind::S),
        plan.k,
    );
    metrics.record_phase(phases::INDEX_MERGING, start.elapsed());
    Ok((Arc::new(tables), job.output))
}

/// One object as the partitioning job shuffles it — the tuple of the paper's
/// Figure 4: dataset, distance to its cell's pivot (the cell is the key) and
/// the object, borrowed from the caller: the first copy of an object is the
/// row the reducer writes.  Charged what [`Record::encode`] would produce.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AssignedPoint<'a> {
    kind: RecordKind,
    pivot_distance: f64,
    /// Pivot distances the mapper's search spent.  Not part of the tuple: it
    /// rides along so the reducer tallies it once per cell instead of once
    /// per object.
    search_cost: u64,
    point: &'a Point,
}

/// The intermediate value of the partitioning job: a batch of objects bound
/// for one cell.  Mappers emit singletons (inline: no allocation per object);
/// the map-side [`BatchCombiner`] merges a task's batches per cell, so the
/// shuffle framing is paid once per (task, cell) instead of once per object.
#[derive(Debug, Clone, PartialEq)]
enum RecordBatch<'a> {
    One(AssignedPoint<'a>),
    Many(Vec<AssignedPoint<'a>>),
}

impl<'a> RecordBatch<'a> {
    fn objects(&self) -> &[AssignedPoint<'a>] {
        match self {
            Self::One(object) => std::slice::from_ref(object),
            Self::Many(objects) => objects,
        }
    }
}

impl ByteSize for RecordBatch<'_> {
    fn byte_size(&self) -> usize {
        // Exactly the records' own bytes — the codec is self-delimiting, so
        // a singleton batch costs what the bare record costs and the
        // combiner's savings are real, not an artifact of batch framing.
        let len = |object: &AssignedPoint<'_>| Record::encoded_len_for_dims(object.point.dims());
        self.objects().iter().map(len).sum()
    }
}

/// Mapper of the partitioning job: assign each object to its closest pivot
/// via [`VoronoiPartitioner::nearest_pivot`].
struct PartitionMapper<'a>(&'a VoronoiPartitioner);

impl<'a> Mapper for PartitionMapper<'a> {
    type KIn = u64;
    type VIn = (RecordKind, &'a Point);
    type KOut = u32;
    type VOut = RecordBatch<'a>;

    fn map(
        &self,
        _id: &u64,
        &(kind, point): &(RecordKind, &'a Point),
        ctx: &mut MapContext<u32, RecordBatch<'a>>,
    ) {
        let assignment = self.0.nearest_pivot(&point.coords);
        let object = AssignedPoint {
            kind,
            pivot_distance: assignment.distance,
            search_cost: assignment.computations,
            point,
        };
        ctx.emit(assignment.partition as u32, RecordBatch::One(object));
    }
}

/// Combiner of the partitioning job, which always runs: concatenate a map
/// task's batches per cell.  The reducer sees the records a task emitted,
/// in order; only the shuffle framing shrinks, to one key per (task, cell).
struct BatchCombiner<'a>(PhantomData<&'a Point>);

impl<'a> Combiner for BatchCombiner<'a> {
    type K = u32;
    type V = RecordBatch<'a>;

    fn combine(&self, _key: &u32, values: &[RecordBatch<'a>]) -> Vec<RecordBatch<'a>> {
        let objects = values.iter().flat_map(|batch| batch.objects());
        vec![RecordBatch::Many(objects.copied().collect())]
    }
}

/// Reducer of the partitioning job: it holds all of a cell, so it lays it
/// out once for everything downstream — its `R` and its `S` objects each as
/// one sorted [`FlatPartition`] (empty ones are not emitted), as
/// [`VoronoiPrepared::build`] lays out `S` — and tallies the pivot
/// assignments the cell's objects actually cost.
struct CellReducer<'a>(&'a Tally);

impl<'a> Reducer for CellReducer<'a> {
    type KIn = u32;
    type VIn = RecordBatch<'a>;
    type KOut = u32;
    type VOut = ShuffledCell;

    fn reduce(
        &self,
        key: &u32,
        values: &[RecordBatch<'a>],
        ctx: &mut ReduceContext<u32, ShuffledCell>,
    ) {
        let objects = || values.iter().flat_map(|batch| batch.objects());
        let search_cost = objects().map(|object| object.search_cost).sum();
        self.0.add(Count::PivotAssignments, search_cost);
        for kind in [RecordKind::R, RecordKind::S] {
            let of_kind = objects().filter(|object| object.kind == kind);
            let rows: Vec<Row<'_>> = of_kind
                .map(|o| (o.pivot_distance, o.point.id, o.point.coords.as_slice()))
                .collect();
            if !rows.is_empty() {
                let rows = CellSlice::whole(FlatPartition::sorted(rows));
                let partition = *key;
                ctx.emit(
                    partition,
                    ShuffledCell {
                        kind,
                        partition,
                        rows,
                    },
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Prepared (build/probe) serving
// ---------------------------------------------------------------------------

/// The prepared PGBJ state: the pivot machinery (pivots are selected
/// once, from the calibration `R` the join was prepared with, exactly as the
/// cold path would), the Voronoi-partitioned `S` in flat columnar layout, the
/// frozen summary tables and the per-partition scan orders.  Everything here
/// depends only on `S`, the pivot set and the plan — probe batches of `R`
/// reuse it unchanged, which is what keeps `pivot_selections` flat across
/// queries.  It is the one prepared index: PBJ would build and probe the
/// same state (it differs only in job 2's routing), so `prepare` refuses it.
#[derive(Debug)]
pub(crate) struct VoronoiPrepared {
    /// Pivot assignment machinery (flat pivot matrix + pruned search) and
    /// owner of the pivot set and pivot-distance table `tables` shares;
    /// compaction epochs reuse it untouched.
    partitioner: Arc<VoronoiPartitioner>,
    /// Voronoi-partitioned `S` in flat layout, every cell whole.
    s_parts: CellMap,
    /// The frozen summary tables every probe reads: the shared pivots and
    /// pivot distances, and `T_S` with the plan's `k`.  Their `T_R` is
    /// empty: a probe folds `U(P_i^R)` for the cells its rows touch.
    tables: SummaryTables,
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
        let mut cells: Vec<Vec<Row<'_>>> = vec![Vec::new(); partitioner.partition_count()];
        for p in s {
            let (cell, dist) = assign(&partitioner, &p.coords, metrics);
            cells[cell].push((dist, p.id, &p.coords));
        }
        let mut s_parts = CellMap::new(cells.len());
        for (j, rows) in cells.into_iter().enumerate() {
            let cell = CellSlice::whole(FlatPartition::sorted(rows));
            s_parts.set(j, (!cell.is_empty()).then_some(cell));
        }
        let tables = frozen_tables(&partitioner, &s_parts, plan.k);
        let s_orders = Arc::new(compute_s_orders(&s_parts, partitioner.pivot_distances()));
        metrics.record_phase(phases::DATA_PARTITIONING, start.elapsed());
        Self {
            partitioner,
            s_parts,
            tables,
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
    /// ever re-sorted — and the `T_S` rows are read off the cells' columns
    /// as in the full build, so the compacted state is row-identical to a
    /// cold build over the materialized corpus.
    pub(crate) fn compact(
        &self,
        delta: &DeltaOverlay,
        plan: &JoinPlan,
        metrics: &mut JoinMetrics,
    ) -> Self {
        let (dims, empty) = (
            self.partitioner.pivot_matrix().dims(),
            FlatPartition::from_sorted(&[]),
        );
        let mut affected = vec![false; self.partitioner.partition_count()];
        if delta.tombstones_len() > 0 {
            for (j, part) in self.s_parts.iter() {
                affected[j] = part
                    .cell
                    .rows
                    .ids()
                    .iter()
                    .any(|id| delta.is_tombstoned(*id));
            }
        }
        let mut add_cells: Vec<Vec<AddRow>> = vec![Vec::new(); affected.len()];
        for (a, (id, coords)) in delta.adds().enumerate() {
            let (cell, dist) = assign(&self.partitioner, &coords, metrics);
            affected[cell] = true;
            add_cells[cell].push((dist, id, a));
        }

        let mut s_parts = self.s_parts.clone();
        for (j, mut adds) in add_cells.into_iter().enumerate() {
            if !affected[j] {
                continue;
            }
            adds.sort_unstable_by(|a, b| cell_order((a.0, a.1), (b.0, b.1)));
            // A prepared cell is whole: its slice starts at row 0.
            let old = self.s_parts.get(j).map_or(&empty, |slice| &*slice.cell);
            let cell = CellSlice::whole(old.merged(dims, delta, &adds));
            metrics.compacted_points += cell.len() as u64;
            s_parts.set(j, (!cell.is_empty()).then_some(cell));
        }

        let s_orders = if s_parts.partitions().eq(self.s_parts.partitions()) {
            Arc::clone(&self.s_orders)
        } else {
            let pivot_distances = self.partitioner.pivot_distances();
            Arc::new(compute_s_orders(&s_parts, pivot_distances))
        };
        Self {
            partitioner: Arc::clone(&self.partitioner),
            tables: frozen_tables(&self.partitioner, &s_parts, plan.k),
            s_parts,
            s_orders,
        }
    }

    /// The resident `S` rows, cell by cell, each copied out of the columns.
    pub(crate) fn points(&self) -> impl Iterator<Item = (PointId, Vec<f64>)> + '_ {
        let rows = self.s_parts.iter().flat_map(|(_, cell)| cell.rows());
        rows.map(|(_, id, coords)| (id, coords))
    }

    /// Answers one probe batch, positionally: assign the rows to cells,
    /// derive `θ_i` for the cells the batch touches, then run Algorithm 3's
    /// bounded scan against the resident `S`, merged with `delta`, through
    /// [`Self::probe_rows`].  `θ_i` comes from the global Algorithm 1 bound
    /// over the resident `S`, the full dataset.  Algorithm 2's `LB` matrix
    /// and Algorithm 4's grouping decide which `S` replica is shipped to
    /// which reducer; nothing is shipped here, so neither is computed.
    pub(crate) fn probe(
        &self,
        rows: &[&[f64]],
        plan: &JoinPlan,
        workers: usize,
        delta: &DeltaOverlay,
        metrics: &mut JoinMetrics,
    ) -> Vec<Vec<Neighbor>> {
        let start = Instant::now();
        let assignments: Vec<(usize, f64)> = rows
            .iter()
            .map(|row| assign(&self.partitioner, row, metrics))
            .collect();
        metrics.record_phase(phases::DATA_PARTITIONING, start.elapsed());

        let start = Instant::now();
        // θ_i promises that partition i alone holds k objects within θ_i of
        // any r assigned there — a promise the frozen T_S cannot keep once
        // objects are deleted, so tombstones demote θ to the running kth
        // distance alone.
        let theta = if delta.tombstones_len() == 0 {
            self.row_thetas(&assignments, plan.k)
        } else {
            vec![f64::INFINITY; rows.len()]
        };
        metrics.record_phase(phases::INDEX_MERGING, start.elapsed());

        let scan = VoronoiScan::new(&self.tables, plan.k, ScanKernels::new(plan.metric), delta);
        self.probe_rows(rows, &assignments, &theta, scan, workers, metrics)
    }

    /// The probe routine of the prepared join: scans row `at` of `rows` from
    /// its assignment and `θ` with `scan` into a list of its own, whose
    /// sorted rows are its answer, and returns the answers positionally,
    /// folding the scan counters into `metrics` and recording the `knn
    /// join` phase.  Nothing is encoded, shuffled or grouped — `S` is
    /// resident, so a probe costs what its scans cost.  Batches of
    /// [`PARALLEL_PROBE_CUT`] rows or more are split into one contiguous
    /// range per worker on the engine's [`parallel_map`], each scanned by a
    /// scan of its own made like `scan` (its own tile scratch and counts).
    /// Rows are scanned independently, so the split changes neither a row
    /// nor a counter.
    fn probe_rows(
        &self,
        rows: &[&[f64]],
        assignments: &[(usize, f64)],
        theta: &[f64],
        scan: VoronoiScan<'_>,
        workers: usize,
        metrics: &mut JoinMetrics,
    ) -> Vec<Vec<Neighbor>> {
        mapreduce::sync::assert_none_held("probe_rows");
        let start = Instant::now();
        let n = rows.len();
        let scan_range = |mut scan: VoronoiScan<'_>, range: Range<usize>| {
            let answers: Vec<Vec<Neighbor>> = range
                .map(|at| {
                    #[cfg(test)]
                    failpoint::check(rows[at]);
                    let (i, _) = assignments[at];
                    let (cells, order) = (&self.s_parts, &self.s_orders[i]);
                    let mut list = NeighborList::new(scan.k);
                    scan.scan(
                        rows[at],
                        assignments[at],
                        cells,
                        order,
                        theta[at],
                        &mut list,
                    );
                    list.into_sorted()
                })
                .collect();
            (answers, scan.counts)
        };
        let ranges = if n < PARALLEL_PROBE_CUT || workers <= 1 {
            vec![scan_range(scan, 0..n)]
        } else {
            let per_range = n.div_ceil(workers);
            let bounds: Vec<Range<usize>> = (0..n)
                .step_by(per_range)
                .map(|lo| lo..(lo + per_range).min(n))
                .collect();
            parallel_map(bounds, workers, |_, range| {
                let own = VoronoiScan::new(scan.tables, scan.k, scan.kernels, scan.delta);
                scan_range(own, range)
            })
        };
        let mut answers = Vec::with_capacity(n);
        for (range_answers, counts) in ranges {
            answers.extend(range_answers);
            metrics.distance_computations += counts.frozen;
            metrics.delta_probe_computations += counts.delta;
            metrics.tombstone_masked += counts.masked;
        }
        metrics.record_phase(phases::KNN_JOIN, start.elapsed());
        answers
    }

    /// Each row's `θ_i` (Algorithm 1), computed once per cell the batch
    /// touches and for no other: the rows are grouped by cell in row order,
    /// `U(P_i^R)` is the largest pivot distance of a group — the `U` of the
    /// batch's `T_R` row, folded with the same `max` in the same order — and
    /// the walk follows the cell's scan order, ascending by pivot distance,
    /// so it skips nearly every cell past the first few.
    fn row_thetas(&self, assignments: &[(usize, f64)], k: usize) -> Vec<f64> {
        let mut by_cell: Vec<usize> = (0..assignments.len()).collect();
        by_cell.sort_by_key(|&at| assignments[at].0);
        let mut theta = vec![f64::INFINITY; assignments.len()];
        for group in by_cell.chunk_by(|&a, &b| assignments[a].0 == assignments[b].0) {
            let i = assignments[group[0]].0;
            let dists = group.iter().map(|&at| assignments[at].1);
            let upper = dists.reduce(f64::max).unwrap_or(0.0);
            let theta_i =
                bounding_knn_theta(&self.tables, i, upper, k, self.s_orders[i].iter().copied());
            for &at in group {
                theta[at] = theta_i;
            }
        }
        theta
    }
}

/// The frozen summary tables of a prepared `S`: the partitioner's pivots and
/// pivot distances, `T_S` read off each cell's ascending pivot distances as
/// index merging reads it, and an empty `T_R`.
fn frozen_tables(partitioner: &VoronoiPartitioner, s_parts: &CellMap, k: usize) -> SummaryTables {
    let columns = s_parts.iter().map(|(j, cell)| (j, cell.pivot_dists()));
    SummaryTables::from_sorted_columns(partitioner, std::iter::empty(), columns, k)
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

/// The per-`R`-partition scan orders over the present `S` cells (ascending
/// pivot distance, Algorithm 3 line 14), shared by the full build and the
/// partial compaction.
fn compute_s_orders(s_parts: &CellMap, pivot_distances: &PivotDistances) -> Vec<Vec<usize>> {
    let mut orders = vec![Vec::new(); s_parts.slots.len()];
    for (order, row) in orders.iter_mut().zip(pivot_distances.rows()) {
        order_by_pivot_distance(order, s_parts, row);
    }
    orders
}

/// The fault-injection hook of the serving tests, at the one place every
/// prepared probe passes.  Compiled into this crate's unit tests only, and
/// keyed on the probed row itself — nothing is armed, so tests running in
/// parallel cannot trip each other.
#[cfg(test)]
pub(crate) mod failpoint {
    /// A finite coordinate no generated dataset contains: a probe row that
    /// starts with it panics inside [`super::VoronoiPrepared::probe_rows`].
    pub(crate) const POISON: f64 = -6.022_140_76e23;

    pub(super) fn check(row: &[f64]) {
        assert!(
            row.first() != Some(&POISON),
            "failpoint: poisoned probe row"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::PartitionBounds;
    use crate::delta::NO_DELTA;
    use crate::grouping::{build_grouping, GroupingStrategy};
    use crate::partition::PartitionedDataset;
    use crate::pivots::{select_pivots, PivotSelectionStrategy};
    use crate::summary::RPartitionSummary;
    use datagen::uniform;
    use geom::DistanceMetric;
    use proptest::prelude::*;

    /// `T_R` over `t` cells: one fold over the `(cell, pivot distance)` of every
    /// object of `R`.  A cell no object fell in reports `(0, 0)` like an absent
    /// row in the paper's tables.  The reference for the tables a cold join
    /// reads off sorted columns and for the `U` a prepared probe folds — with
    /// the same `max`, in the same row order — for the cells its rows touch.
    fn r_summaries(
        t: usize,
        assignments: impl IntoIterator<Item = (usize, f64)>,
    ) -> Vec<RPartitionSummary> {
        let empty = |partition| RPartitionSummary {
            partition,
            ..Default::default()
        };
        let mut rows: Vec<RPartitionSummary> = (0..t).map(empty).collect();
        for (cell, dist) in assignments {
            let row = &mut rows[cell];
            (row.lower, row.upper) = match row.count {
                0 => (dist, dist),
                _ => (row.lower.min(dist), row.upper.max(dist)),
            };
            row.count += 1;
        }
        rows
    }

    const METRICS: [DistanceMetric; 3] = [
        DistanceMetric::Euclidean,
        DistanceMetric::Manhattan,
        DistanceMetric::Chebyshev,
    ];

    /// What a reducer holds for one seeded `R ⋉ S`: the partitioned `R` and
    /// `S`, the tables, every `θ_i` and the `S` cells in cell order.
    struct Fixture {
        partitioned_r: PartitionedDataset,
        partitioned_s: PartitionedDataset,
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
        let cells = partitioned_s.partitions.iter().map(|bucket| {
            let rows = bucket
                .iter()
                .map(|(s, dist)| (*dist, s.id, s.coords.as_slice()));
            CellSlice::whole(FlatPartition::sorted(rows.collect()))
        });
        let s_parts = CellMap::of(tables.partition_count(), cells.enumerate());
        Fixture {
            partitioned_r,
            partitioned_s,
            tables,
            theta,
            s_parts,
        }
    }

    impl CellMap {
        /// `cells` in a table for `t` partitions.
        pub(crate) fn of(t: usize, cells: impl IntoIterator<Item = (usize, CellSlice)>) -> Self {
            let mut map = Self::new(t);
            for (j, cell) in cells {
                map.set(j, Some(cell));
            }
            map
        }
    }

    impl Fixture {
        /// Calls `each(scan order, r, r's pivot distance, r's partition)` for
        /// every object of `R`.
        fn for_each_r(&self, mut each: impl FnMut(&[usize], &Point, f64, usize)) {
            let mut s_order = Vec::new();
            for (i, bucket) in self.partitioned_r.partitions.iter().enumerate() {
                let row = self.tables.pivot_distances.row(i);
                order_by_pivot_distance(&mut s_order, &self.s_parts, row);
                for (r_obj, r_pivot_dist) in bucket {
                    each(&s_order, r_obj, *r_pivot_dist, i);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// An overlay that mutations left empty must not perturb the scan:
        /// same neighbours, same counters as the cold reducers' `NO_DELTA`,
        /// row after row through one scan and one list each — what lets one
        /// scan serve the frozen and the mutated corpus.
        #[test]
        fn an_emptied_overlay_scans_exactly_like_the_cold_one(
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
            // An overlay emptied by mutations, not the one born empty.
            let added = DeltaOverlay::default().after_insert(7, &vec![1.0; dims], false);
            let emptied = added.after_delete(7, false).expect("the add is dropped");
            let kernels = ScanKernels::new(metric);
            let mut frozen = VoronoiScan::new(&f.tables, k, kernels, &NO_DELTA);
            let mut overlaid = VoronoiScan::new(&f.tables, k, kernels, &emptied);
            let (mut a, mut b) = (NeighborList::new(k), NeighborList::new(k));
            let mut verdict = Ok(());
            f.for_each_r(|s_order, r_obj, r_pivot_dist, i| {
                let r = (&r_obj.coords[..], (i, r_pivot_dist));
                frozen.scan(r.0, r.1, &f.s_parts, s_order, f.theta[i], &mut a);
                overlaid.scan(r.0, r.1, &f.s_parts, s_order, f.theta[i], &mut b);
                let (a, b) = ((a.as_slice(), frozen.counts), (b.as_slice(), overlaid.counts));
                if a != b && verdict.is_ok() {
                    verdict = Err(format!("{a:?} vs {b:?}"));
                }
            });
            prop_assert!(verdict.is_ok(), "{:?}", verdict);
        }

        /// The frozen cells and a delta's adds are ranked with the exact
        /// column kernel, so per `R` object the scan answers what a
        /// brute-force scan over the live corpus answers, bit for bit: with
        /// no overlay, and with one that deletes every third object of `S`
        /// and adds as many points as `R` has (θ_i = ∞ under tombstones).
        /// Each overlay's scan and list serve every row, so a list the scan
        /// failed to reset would carry the last row's neighbours.
        #[test]
        fn the_frozen_scan_answers_the_oracle_bit_for_bit(
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
            let (mut overlay, mut live) = (DeltaOverlay::default(), Vec::new());
            for p in &s {
                if p.id % 3 == 0 {
                    overlay = overlay.after_delete(p.id, true).expect("a frozen id is live");
                } else {
                    live.push(p.clone());
                }
            }
            for p in &uniform(n_r, dims, 50.0, seed ^ 0xADD5) {
                overlay = overlay.after_insert(100_000 + p.id, &p.coords, false);
                live.push(Point::new(100_000 + p.id, p.coords.clone()));
            }
            let bits = |list: &[Neighbor]| -> Vec<u64> { list.iter().map(|n| n.distance.to_bits()).collect() };
            let mut verdict = Ok(());
            for (delta, corpus) in [(&NO_DELTA, s.points()), (&overlay, &live[..])] {
                let mut scan = VoronoiScan::new(&f.tables, k, ScanKernels::new(metric), delta);
                let mut list = NeighborList::new(k);
                f.for_each_r(|s_order, r_obj, r_pivot_dist, i| {
                    let mut oracle = NeighborList::new(k);
                    for s_obj in corpus {
                        oracle.offer(s_obj.id, metric.distance(r_obj, s_obj));
                    }
                    let theta = if delta.tombstones_len() == 0 { f.theta[i] } else { f64::INFINITY };
                    scan.scan(&r_obj.coords, (i, r_pivot_dist), &f.s_parts, s_order, theta, &mut list);
                    let (got, want) = (bits(list.as_slice()), bits(oracle.as_slice()));
                    if verdict.is_ok() && got != want {
                        verdict = Err(format!("r {}: {list:?}, oracle distance bits {want:?}", r_obj.id));
                    }
                });
            }
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
            let mut scan = VoronoiScan::new(&f.tables, k, ScanKernels::new(metric), &NO_DELTA);
            let mut list = NeighborList::new(k);
            f.for_each_r(|s_order, r_obj, r_pivot_dist, i| {
                let before = scan.counts.frozen;
                let r = (i, r_pivot_dist);
                scan.scan(&r_obj.coords, r, &f.s_parts, s_order, f.theta[i], &mut list);
                let spent = scan.counts.frozen - before;
                assert_eq!(s_order.len(), centres.len());
                assert!(
                    spent < s_order.len() as u64,
                    "{metric:?} r {}: {spent} evaluations over {} cells",
                    r_obj.id,
                    s_order.len()
                );
                let mut oracle = NeighborList::new(k);
                for s_obj in &s {
                    oracle.offer(s_obj.id, metric.distance(r_obj, s_obj));
                }
                assert_eq!(list.as_slice(), oracle.as_slice(), "{metric:?}");
            });
        }
    }

    /// How many of `dists` are at least `bound` — Theorem 6, one object at a
    /// time, as Algorithm 3's mapper states it.
    fn admitted_one_by_one(dists: impl Iterator<Item = f64>, bound: f64) -> usize {
        dists.filter(|&d| d >= bound).count()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Suffix routing is the per-object rule: for every (cell, group)
        /// the slice `CellSlice::at_least` cuts holds exactly the objects
        /// with `|s, p_j| ≥ LB(P_j^S, G)` — under both grouping strategies,
        /// with `k` beyond `|S|` (every bound `−∞`), more reducers than
        /// cells (memberless groups, bound `+∞`), empty cells, and a bound
        /// exactly on an object's distance — and the slices add up to
        /// Theorem 7's replica count.
        #[test]
        fn suffix_routing_ships_what_the_per_object_rule_ships(
            n_r in 5usize..80,
            n_s in 1usize..150,
            k in 1usize..12,
            pivot_count in 1usize..10,
            reducers in 1usize..14,
            greedy in proptest::bool::ANY,
            dims in 1usize..4,
            seed in 0u64..200,
        ) {
            let metric = METRICS[(seed % 3) as usize];
            let r = uniform(n_r, dims, 50.0, seed);
            let s = uniform(n_s, dims, 50.0, seed ^ 0x7E06);
            let f = fixture(&r, &s, k, pivot_count, metric, seed);
            let bounds = PartitionBounds::compute(&f.tables, k);
            let strategy = if greedy { GroupingStrategy::Greedy } else { GroupingStrategy::Geometric };
            let grouping = build_grouping(strategy, &f.tables, &bounds, reducers);
            let mut shipped = 0u64;
            for group_lb in bounds.group_lower_bounds(&grouping) {
                for (j, bucket) in f.partitioned_s.partitions.iter().enumerate() {
                    let slice = f.s_parts.get(j).unwrap().at_least(group_lb[j]);
                    let want = admitted_one_by_one(bucket.iter().map(|(_, d)| *d), group_lb[j]);
                    prop_assert_eq!(slice.len(), want, "cell {}, bound {}", j, group_lb[j]);
                    prop_assert_eq!(slice.pivot_dists(), &f.s_parts.get(j).unwrap().pivot_dists()[bucket.len() - want..]);
                    shipped += want as u64;
                }
            }
            prop_assert_eq!(shipped, bounds.count_replicas(&grouping, &f.partitioned_s));
            // The edge bounds, whatever the grouping produced.
            for (j, bucket) in f.partitioned_s.partitions.iter().enumerate() {
                let cell = f.s_parts.get(j).unwrap();
                prop_assert_eq!(cell.at_least(f64::NEG_INFINITY).len(), bucket.len());
                prop_assert_eq!(cell.at_least(f64::INFINITY).len(), 0);
                for &(_, tie) in bucket {
                    let want = admitted_one_by_one(bucket.iter().map(|(_, d)| *d), tie);
                    prop_assert_eq!(cell.at_least(tie).len(), want);
                    prop_assert_eq!(cell.at_least(tie).at_least(tie), cell.at_least(tie));
                }
            }
        }
    }

    /// Ties: on an integer lattice many objects share a pivot distance, and
    /// a bound that equals it admits every one of them.
    #[test]
    fn a_bound_on_a_shared_pivot_distance_admits_every_object_at_it() {
        let lattice = |offset: f64| {
            let rows = (0..8).flat_map(|x| (0..8).map(move |y| vec![x as f64 + offset, y as f64]));
            PointSet::from_coords(rows.collect())
        };
        let (r, s) = (lattice(0.0), lattice(0.0));
        let pivots = vec![Point::new(0, vec![2.0, 2.0]), Point::new(1, vec![5.0, 5.0])];
        let f = fixture_over(pivots, &r, &s, 3, DistanceMetric::Manhattan);
        for (j, bucket) in f.partitioned_s.partitions.iter().enumerate() {
            let cell = f.s_parts.get(j).unwrap();
            let shared = bucket.iter().filter(|(_, d)| *d == 2.0).count();
            assert!(shared > 2, "the lattice lost its ties");
            let below = bucket.iter().filter(|(_, d)| *d < 2.0).count();
            assert_eq!(cell.at_least(2.0).len(), bucket.len() - below);
            assert_eq!(
                cell.at_least(2.0).pivot_dists()[..shared],
                vec![2.0; shared]
            );
        }
    }

    /// The cold twin of the compaction test below: for one plan, the cells
    /// job 1's reducer emits are `VoronoiPrepared::build`'s cells field by
    /// field, `T_S` and `T_R` are what the sorted columns say, and the task
    /// layout does not change a cell.
    #[test]
    fn job_one_emits_the_cells_a_prepared_build_lays_out() {
        let (dims, k) = (3, 4);
        let r = uniform(700, dims, 40.0, 17);
        let s = uniform(900, dims, 40.0, 18);
        let plan = JoinPlan {
            k,
            pivot_count: 9,
            reducers: 3,
            map_tasks: 5,
            ..JoinPlan::default()
        };
        let ctx = ExecutionContext::default();
        let mut metrics = JoinMetrics::default();
        let built = VoronoiPrepared::build(&r, &s, &plan, &mut metrics);
        let (tables, cells) = partition_job(&plan, &r, &s, &ctx, &mut metrics).unwrap();

        let of_kind = |kind: RecordKind| {
            let cells = cells.iter().filter(|(_, cell)| cell.kind == kind);
            let cells = cells.map(|(j, cell)| {
                assert_eq!(*j, cell.partition);
                (*j as usize, cell.rows.clone())
            });
            CellMap::of(tables.partition_count(), cells)
        };
        assert_eq!(of_kind(RecordKind::S), built.s_parts);
        assert_eq!(tables.s_summaries, built.tables.s_summaries);
        assert_eq!(tables.pivots, *built.partitioner.pivot_matrix());
        assert_eq!(tables.pivot_distances, *built.partitioner.pivot_distances());

        // T_R is the fold over R's assignments, and the R cells hold R.
        let assigned = built.partitioner.partition(&r);
        let folded = r_summaries(
            tables.partition_count(),
            assigned
                .partitions
                .iter()
                .enumerate()
                .flat_map(|(i, bucket)| bucket.iter().map(move |(_, d)| (i, *d))),
        );
        assert_eq!(tables.r_summaries, folded);
        let r_cells = of_kind(RecordKind::R);
        for (i, bucket) in assigned.partitions.iter().enumerate() {
            let mut want: Vec<(f64, PointId)> = bucket.iter().map(|(p, d)| (*d, p.id)).collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let got: Vec<(f64, PointId)> = r_cells.get(i).map_or(Vec::new(), |cell| {
                cell.rows().map(|row| (row.0, row.1)).collect()
            });
            assert_eq!(got, want, "R cell {i}");
        }

        // Same cells from any task layout.
        for (map_tasks, reducers) in [(1, 1), (11, 7)] {
            let other = JoinPlan {
                map_tasks,
                reducers,
                ..plan.clone()
            };
            let (other_tables, mut other_cells) =
                partition_job(&other, &r, &s, &ctx, &mut JoinMetrics::default()).unwrap();
            assert_eq!(other_tables, tables);
            let mut cells = cells.clone();
            let by_cell = |cell: &(u32, ShuffledCell)| (cell.0, cell.1.kind == RecordKind::S);
            cells.sort_by_key(by_cell);
            other_cells.sort_by_key(by_cell);
            assert_eq!(other_cells, cells, "{map_tasks} x {reducers}");
        }
    }

    /// A shuffled slice is charged what its rows would be one by one: `n`
    /// records of the codec's length each, whatever part of the cell it is.
    #[test]
    fn a_slice_is_charged_its_rows_at_the_codec_length() {
        let rows: Vec<Row<'_>> = (0..7)
            .map(|i| (i as f64, i, &[0.5, 1.5, 2.5][..]))
            .collect();
        let whole = ShuffledCell {
            kind: RecordKind::S,
            partition: 3,
            rows: CellSlice::whole(FlatPartition::from_sorted(&rows)),
        };
        let record = Record::new(RecordKind::S, 3, 2.0, Point::new(2, vec![0.5, 1.5, 2.5]));
        for (bound, n) in [(f64::NEG_INFINITY, 7), (2.0, 5), (6.5, 0)] {
            let slice = ShuffledCell {
                rows: whole.rows.at_least(bound),
                ..whole.clone()
            };
            assert_eq!(slice.records(), n);
            assert_eq!(slice.byte_size(), n * record.encoded_len());
        }
    }

    /// PBJ's split: the `B` sub-cells of a cell partition its rows by
    /// `id mod B`, and each is a cell in its own right (every constructor
    /// audits the order of the cell it builds).
    #[test]
    fn sub_cells_partition_a_cell_and_each_ascends() {
        let s = uniform(400, 2, 30.0, 5);
        let f = fixture(&s, &s, 3, 4, DistanceMetric::Euclidean, 5);
        for blocks in [1, 3, 7] {
            for (_, cell) in f.s_parts.iter() {
                let sub_cells = cell.split_by_id(blocks);
                assert_eq!(sub_cells.len(), blocks);
                let mut rejoined = Vec::new();
                for (block, sub_cell) in sub_cells.iter().enumerate() {
                    assert!(sub_cell
                        .rows()
                        .all(|row| row.1 % blocks as u64 == block as u64));
                    rejoined.extend(sub_cell.rows());
                }
                rejoined.sort_by(|a, b| cell_order((a.0, a.1), (b.0, b.1)));
                assert_eq!(rejoined, cell.rows().collect::<Vec<_>>());
            }
        }
    }

    /// The audit behind suffix routing: a reducer handed less of a cell than
    /// its bound allows (here: nothing below the cell's median) is caught
    /// at the first window that reaches into the missing rows.
    #[test]
    #[should_panic(expected = "suffix invariant violated")]
    fn a_scan_refuses_a_slice_cut_inside_its_window() {
        let s = uniform(300, 2, 30.0, 9);
        let f = fixture(&s, &s, 3, 2, DistanceMetric::Euclidean, 9);
        let cut = f.s_parts.iter().map(|(j, cell)| {
            let dists = cell.pivot_dists();
            (j, cell.at_least(dists[dists.len() / 2]))
        });
        let cut = CellMap::of(f.tables.partition_count(), cut);
        let mut scan = VoronoiScan::new(
            &f.tables,
            3,
            ScanKernels::new(DistanceMetric::Euclidean),
            &NO_DELTA,
        );
        let mut list = NeighborList::new(3);
        f.for_each_r(|s_order, r_obj, r_pivot_dist, i| {
            let r = (i, r_pivot_dist);
            scan.scan(&r_obj.coords, r, &cut, s_order, f.theta[i], &mut list);
        });
    }

    #[test]
    #[should_panic(expected = "cell invariant violated")]
    fn a_cell_refuses_rows_out_of_cell_order() {
        let rows: [Row<'_>; 2] = [(2.0, 1, &[0.0]), (1.0, 2, &[0.0])];
        FlatPartition::from_sorted(&rows);
    }

    /// The column layout loses no bit: every row read back out of a cell's
    /// columns equals the row that went in — after `from_sorted` (the
    /// prepared build), in every `at_least` suffix, in every `split_by_id`
    /// sub-cell, and after a compaction with adds, deletions and an upsert,
    /// whose cells also equal a cold build over the corpus they read back as
    /// (what `materialized_corpus` returns once the overlay is folded).
    /// Signed zeros, subnormals and large magnitudes ride along.
    #[test]
    fn every_row_reads_back_bit_for_bit_through_each_layout_step() {
        let dims = 4;
        let odd = [-0.0, 5e-324, -2.5e-310, 3.0e5, 0.0];
        let mut s = uniform(500, dims, 40.0, 21);
        for (i, p) in s.points_mut().iter_mut().enumerate() {
            p.coords[i % dims] = odd[i % odd.len()];
        }
        let plan = JoinPlan {
            k: 3,
            pivot_count: 7,
            ..JoinPlan::default()
        };
        let mut metrics = JoinMetrics::default();
        let built = VoronoiPrepared::build(&s, &s, &plan, &mut metrics);

        let bits = |coords: &[f64]| coords.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        let reads_back = |slice: &CellSlice, source: &[(PointId, Vec<f64>)]| {
            for (_, id, coords) in slice.rows() {
                let at = source.binary_search_by_key(&id, |row| row.0).unwrap();
                assert_eq!(bits(&coords), bits(&source[at].1), "row {id}");
            }
            slice.len()
        };
        let source: Vec<(PointId, Vec<f64>)> = s.iter().map(|p| (p.id, p.coords.clone())).collect();
        let mut read = 0;
        for (_, cell) in built.s_parts.iter() {
            read += reads_back(cell, &source);
            for &bound in cell.pivot_dists().iter().step_by(7) {
                let suffix = cell.at_least(bound);
                reads_back(&suffix, &source);
                for blocks in [1, 3] {
                    let sub_cells = suffix.split_by_id(blocks);
                    let split: usize = sub_cells.iter().map(|sub| reads_back(sub, &source)).sum();
                    assert_eq!(split, suffix.len());
                }
            }
        }
        assert_eq!(read, s.len());

        // Delete every fifth object, move every seventh (an upsert), add 40
        // new ones.
        let mut overlay = DeltaOverlay::default();
        let mut live: Vec<(PointId, Vec<f64>)> = Vec::new();
        for (id, coords) in &source {
            if id % 5 == 0 {
                overlay = overlay
                    .after_delete(*id, true)
                    .expect("a frozen id is live");
            } else if id % 7 == 0 {
                let moved: Vec<f64> = coords.iter().map(|c| -c).collect();
                overlay = overlay.after_insert(*id, &moved, true);
                live.push((*id, moved));
            } else {
                live.push((*id, coords.clone()));
            }
        }
        for i in 0..40u64 {
            let coords: Vec<f64> = (0..dims)
                .map(|d| odd[(i as usize + d) % odd.len()] + i as f64)
                .collect();
            overlay = overlay.after_insert(1_000 + i, &coords, false);
            live.push((1_000 + i, coords));
        }
        live.sort_by_key(|row| row.0);
        let compacted = built.compact(&overlay, &plan, &mut metrics);
        let read: usize = compacted
            .s_parts
            .iter()
            .map(|(_, cell)| reads_back(cell, &live))
            .sum();
        assert_eq!(read, live.len());

        let mut corpus: Vec<Point> = compacted
            .points()
            .map(|(id, c)| Point::new(id, c))
            .collect();
        corpus.sort_by_key(|p| p.id);
        let cold = VoronoiPrepared::build(&s, &PointSet::from_points(corpus), &plan, &mut metrics);
        assert_eq!(compacted.s_parts, cold.s_parts);
        assert_eq!(compacted.tables, cold.tables);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// A probe batch's per-row θ has the bits of the tables the probe
        /// used to assemble per batch: `T_R` folded over every row, then
        /// Algorithm 1 over every cell in partition order, for the cell of
        /// each row — on batches of 1 to 150 rows, with cells repeating,
        /// under every metric.
        #[test]
        fn per_cell_theta_is_the_folded_tables_theta(
            n_rows in 1usize..150,
            k in 1usize..30,
            which in 0usize..3,
            seed in 0u64..1000,
        ) {
            let plan = JoinPlan {
                k,
                pivot_count: 12,
                metric: METRICS[which],
                ..JoinPlan::default()
            };
            let s = uniform(400, 3, 40.0, seed);
            let mut metrics = JoinMetrics::default();
            let built = VoronoiPrepared::build(&s, &s, &plan, &mut metrics);
            let batch = uniform(n_rows, 3, 40.0, seed ^ 0x5eed);
            let assignments: Vec<(usize, f64)> = batch
                .iter()
                .map(|p| assign(&built.partitioner, &p.coords, &mut metrics))
                .collect();
            let t = built.tables.partition_count();
            let folded = SummaryTables {
                r_summaries: r_summaries(t, assignments.iter().copied()),
                ..built.tables.clone()
            };
            let want = PartitionBounds::compute(&folded, k).theta;
            let got = built.row_thetas(&assignments, k);
            for (at, &(i, _)) in assignments.iter().enumerate() {
                prop_assert_eq!(got[at].to_bits(), want[i].to_bits(), "row {} in cell {}", at, i);
            }
        }
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
        let churned: Vec<usize> = built.s_parts.partitions().take(2).collect();
        for p in &frozen {
            let cell = built.partitioner.nearest_pivot(&p.coords).partition;
            if churned.contains(&cell) && p.id % 3 == 0 {
                let beside: Vec<f64> = p.coords.iter().map(|c| c + 0.01).collect();
                let deleted = overlay
                    .after_delete(p.id, true)
                    .expect("a frozen id is live");
                overlay = deleted.after_insert(10_000 + p.id, &beside, false);
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
        assert_eq!(compacted.tables, cold.tables);
        assert_eq!(compacted.s_orders, cold.s_orders);
    }
}
