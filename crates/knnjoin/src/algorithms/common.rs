//! Pieces shared by every MapReduce join algorithm: the typed object value
//! the jobs without a partitioning step shuffle, the neighbour-list value
//! type used by the merge jobs, the kernel / delta / tile plumbing of the
//! candidate scans, and the direct probe routine of the prepared join.
//!
//! Shuffle bytes are accounted, not produced: a [`ShuffleRecord`] (like the
//! Voronoi family's cells, see [`crate::algorithms::voronoi`]) crosses the
//! engine's in-process shuffle as it is and is charged the length
//! [`geom::Record`]'s codec would give it — the codec is the reference for
//! the unit, and nothing here serialises.

use crate::delta::DeltaOverlay;
use crate::metrics::{phases, JoinMetrics};
use crate::result::JoinRow;
use geom::kernels::{ColumnKernel, Kernel, PROBE_TILE};
use geom::{DistanceMetric, Neighbor, NeighborList, Point, PointSet, Record, RecordKind};
use mapreduce::{parallel_map, ByteSize};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// One object as the jobs of H-BRJ, the broadcast join and H-zkNNJ shuffle
/// it: originating dataset and the object itself behind a shared handle —
/// the tuple of the paper's Figure 4 with no Voronoi cell assigned.
///
/// Mappers emit replicas by cloning the handle; reducers borrow the
/// coordinates straight into their own layouts.  The [`ByteSize`] is exactly
/// what [`Record::encode`] would produce for the tuple (partition 0, pivot
/// distance 0), so the engine's byte accounting is the paper's
/// shuffling-cost metric although no byte is ever written.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuffleRecord {
    /// Originating dataset.
    pub kind: RecordKind,
    /// The object, shared by every replica.
    pub point: Arc<Point>,
}

impl ShuffleRecord {
    /// Wraps one object of dataset `kind`.
    pub fn raw(kind: RecordKind, point: Point) -> Self {
        Self {
            kind,
            point: Arc::new(point),
        }
    }

    /// The records of one dataset among a reducer's received `values`, in
    /// arrival order.
    pub(crate) fn of_kind(values: &[Self], kind: RecordKind) -> impl Iterator<Item = &Self> {
        values.iter().filter(move |record| record.kind == kind)
    }
}

impl ByteSize for ShuffleRecord {
    fn byte_size(&self) -> usize {
        Record::encoded_len_for_dims(self.point.dims())
    }
}

/// A partial kNN list for one `R` object, shuffled by the merge job of the
/// two-job algorithms (H-BRJ, PBJ, H-zkNNJ).
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborListValue {
    /// Candidate neighbours (at most `k` of them) found by one reducer cell.
    pub neighbors: Vec<Neighbor>,
}

impl NeighborListValue {
    /// Wraps a candidate list.
    pub fn new(neighbors: Vec<Neighbor>) -> Self {
        Self { neighbors }
    }
}

impl ByteSize for NeighborListValue {
    fn byte_size(&self) -> usize {
        // r-id is the key; each neighbour is an (id, distance) pair.
        4 + self.neighbors.len() * (8 + 8)
    }
}

/// Merges several partial candidate lists into the final `k` nearest
/// neighbours of one `R` object.
pub fn merge_neighbor_lists(lists: &[NeighborListValue], k: usize) -> Vec<Neighbor> {
    let mut acc = NeighborList::new(k);
    for list in lists {
        for n in &list.neighbors {
            acc.offer(n.id, n.distance);
        }
    }
    acc.into_sorted()
}

/// Distance-computation breakdown of one candidate scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounts {
    /// Kernel evaluations against frozen structures (objects or pivots).
    pub frozen: u64,
    /// Kernel evaluations against the delta memtable's added points.
    pub delta: u64,
    /// Frozen candidates discarded because their id is tombstoned.
    pub masked: u64,
}

/// The kernels one scan evaluates candidates with, built once per join from
/// the plan's metric.  Every block a scan ranks is column-major, so one
/// bit-exact column kernel serves them all.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScanKernels {
    /// The metric every kernel computes; tile ranks are offered with it
    /// ([`NeighborList::offer_ranks`]).
    pub metric: DistanceMetric,
    /// The scalar true-distance kernel, for isolated evaluations (an object
    /// against a pivot, a per-candidate recheck).
    pub pair: Kernel,
    /// Rank kernel for row runs of a column-major block, bit-identical to
    /// the scalar rank kernel.
    pub columns: ColumnKernel,
}

impl ScanKernels {
    pub(crate) fn new(metric: DistanceMetric) -> Self {
        Self {
            metric,
            pair: metric.kernel(),
            columns: metric.column_rank_kernel(),
        }
    }
}

/// Reusable per-reducer scratch for the tiled scans: one rank tile,
/// allocated once and reused across every probe object the reducer serves.
#[derive(Debug)]
pub(crate) struct TileScratch {
    pub ranks: Vec<f64>,
}

impl TileScratch {
    /// Fresh scratch sized for [`PROBE_TILE`]-row tiles.
    pub(crate) fn new() -> Self {
        Self {
            ranks: vec![0.0; PROBE_TILE],
        }
    }
}

/// The delta rule of the prepared scan: the overlay's adds are offered
/// *first* — one [`crate::exact::FlatBlock::offer`] walk over all of them,
/// so they tighten the running threshold before any frozen row is looked
/// at — then the frozen cells are searched, every evaluated row billed and
/// a tombstoned one masked on offer ([`NeighborList::offer_ranks`] with
/// [`DeltaOverlay::tombstones`]).  Returns the scan's counts so far: the
/// adds evaluated, which is all of them.
pub(crate) fn offer_adds(
    delta: &DeltaOverlay,
    query: &[f64],
    kernels: &ScanKernels,
    scratch: &mut TileScratch,
    neighbors: &mut NeighborList,
) -> ScanCounts {
    let adds = delta.add_block();
    ScanCounts {
        delta: adds.offer(query, 0..adds.len(), kernels, scratch, neighbors),
        ..ScanCounts::default()
    }
}

// ---------------------------------------------------------------------------
// Cold job inputs/outputs and the prepared probe routine
// ---------------------------------------------------------------------------

/// Raw `R ∪ S` as job input for the algorithms without a preprocessing
/// step, keyed by object id.  Each object is copied once here; every replica
/// a mapper emits afterwards shares that copy.
pub(crate) fn raw_inputs(r: &PointSet, s: &PointSet) -> Vec<(u64, ShuffleRecord)> {
    let mut input = Vec::with_capacity(r.len() + s.len());
    for (kind, set) in [(RecordKind::R, r), (RecordKind::S, s)] {
        for p in set {
            input.push((p.id, ShuffleRecord::raw(kind, p.clone())));
        }
    }
    input
}

/// Turns a job's `(r id, neighbours)` output into join rows.
pub(crate) fn rows_from_output(output: Vec<(u64, Vec<Neighbor>)>) -> Vec<JoinRow> {
    output
        .into_iter()
        .map(|(r_id, neighbors)| JoinRow { r_id, neighbors })
        .collect()
}

/// Labels a probe's positional neighbour lists with the ids of the points
/// whose coordinate rows it was given.
pub(crate) fn label_rows(r: &PointSet, neighbors: Vec<Vec<Neighbor>>) -> Vec<JoinRow> {
    r.iter()
        .zip(neighbors)
        .map(|(p, neighbors)| JoinRow {
            r_id: p.id,
            neighbors,
        })
        .collect()
}

/// Rows below which a prepared probe scans its batch inline on the calling
/// thread; from this many rows up the batch is cut into one contiguous row
/// range per worker and scanned on the engine's scoped threads.
///
/// Measured with PGBJ on the benchmark's two shapes (`forest10d` 12 000 ×
/// 10-d and `osm2d` 48 000 × 2-d, 110 pivots, 2 workers on 2 cores), where a
/// row costs ~11.5 µs to scan on either: handing two ranges to
/// [`parallel_map`] costs ~130 µs of spawn + join, so the split breaks even
/// at 16 rows (188 µs inline vs 180 µs split on `forest10d`), wins 14–23%
/// at 32 and ~30% at 64.  The hand-off grows with the worker count while
/// the per-range work shrinks, so the cut sits at four times the 2-worker
/// break-even — and above the 16 singles a server round coalesces at most,
/// so a coalesced batch, which only forms while every probe permit is out,
/// never spawns threads of its own.
pub const PARALLEL_PROBE_CUT: usize = 64;

/// The probe routine of the prepared join: runs `scan_row(scan, i, rows[i])`
/// for every row and returns the neighbour lists positionally, folding the
/// scan counters into `metrics` and recording the `knn join` phase.  Nothing
/// is encoded, shuffled or grouped — `S` is resident, so a probe costs what its
/// scans cost.  Batches of [`PARALLEL_PROBE_CUT`] rows or more are split into
/// one contiguous range per worker on the engine's [`parallel_map`]; each
/// range builds its own scan state (kernels, tile scratch) with `new_scan`.
/// Rows are scanned independently, so the split changes neither a row nor a
/// counter.
pub(crate) fn probe_rows<S>(
    rows: &[&[f64]],
    workers: usize,
    metrics: &mut JoinMetrics,
    new_scan: impl Fn() -> S + Sync,
    scan_row: impl Fn(&mut S, usize, &[f64]) -> (Vec<Neighbor>, ScanCounts) + Sync,
) -> Vec<Vec<Neighbor>> {
    let start = Instant::now();
    let n = rows.len();
    let scan_range = |range: Range<usize>| {
        let mut scan = new_scan();
        let mut totals = ScanCounts::default();
        let rows: Vec<Vec<Neighbor>> = range
            .map(|i| {
                #[cfg(test)]
                failpoint::check(rows[i]);
                let (neighbors, counts) = scan_row(&mut scan, i, rows[i]);
                totals.frozen += counts.frozen;
                totals.delta += counts.delta;
                totals.masked += counts.masked;
                neighbors
            })
            .collect();
        (rows, totals)
    };
    let ranges = if n < PARALLEL_PROBE_CUT || workers <= 1 {
        vec![scan_range(0..n)]
    } else {
        let per_range = n.div_ceil(workers);
        let bounds: Vec<Range<usize>> = (0..n)
            .step_by(per_range)
            .map(|lo| lo..(lo + per_range).min(n))
            .collect();
        parallel_map(bounds, workers, |_, range| scan_range(range))
    };
    let mut rows = Vec::with_capacity(n);
    for (range_rows, counts) in ranges {
        rows.extend(range_rows);
        metrics.distance_computations += counts.frozen;
        metrics.delta_probe_computations += counts.delta;
        metrics.tombstone_masked += counts.masked;
    }
    metrics.record_phase(phases::KNN_JOIN, start.elapsed());
    rows
}

/// The fault-injection hook of the serving tests, at the one place every
/// prepared probe passes.  Compiled into this crate's unit tests only, and
/// keyed on the probed row itself — nothing is armed, so tests running in
/// parallel cannot trip each other.
#[cfg(test)]
pub(crate) mod failpoint {
    /// A finite coordinate no generated dataset contains: a probe row that
    /// starts with it panics inside [`super::probe_rows`].
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

    /// The byte unit, pinned where the codec and the shuffle part ways: a
    /// shuffled object is charged exactly the bytes `Record::encode` writes
    /// for the same tuple, and those bytes decode back to it.
    #[test]
    fn shuffle_record_is_charged_the_codec_length() {
        for kind in [RecordKind::R, RecordKind::S] {
            for dims in [2usize, 10] {
                let point = Point::new(9, (0..dims).map(|d| d as f64 - 1.5).collect());
                let value = ShuffleRecord::raw(kind, point.clone());
                let record = Record::new(kind, 0, 0.0, point);
                let bytes = record.encode();
                assert_eq!(value.byte_size(), bytes.len());
                assert_eq!(value.byte_size(), record.encoded_len());
                assert_eq!(value.byte_size(), 25 + 8 * dims);
                assert_eq!(Record::decode(&bytes), Some(record));
            }
        }
    }

    #[test]
    fn neighbor_list_value_size() {
        let v = NeighborListValue::new(vec![Neighbor::new(1, 0.5), Neighbor::new(2, 1.5)]);
        assert_eq!(v.byte_size(), 4 + 2 * 16);
    }

    #[test]
    fn merging_partial_lists_keeps_global_k_best() {
        let a = NeighborListValue::new(vec![Neighbor::new(1, 5.0), Neighbor::new(2, 1.0)]);
        let b = NeighborListValue::new(vec![Neighbor::new(3, 0.5), Neighbor::new(4, 9.0)]);
        let merged = merge_neighbor_lists(&[a, b], 2);
        let ids: Vec<u64> = merged.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 2]);
    }

    #[test]
    fn merging_handles_duplicates_across_blocks() {
        // The same S object can be seen by several reducer cells; duplicates
        // must not crowd out distinct neighbours... they are kept as-is since
        // block algorithms never see the same (r, s) pair twice, but merging
        // is still well-defined.
        let a = NeighborListValue::new(vec![Neighbor::new(1, 1.0)]);
        let b = NeighborListValue::new(vec![Neighbor::new(2, 2.0)]);
        let merged = merge_neighbor_lists(&[a.clone(), b, a], 3);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].id, 1);
    }
}
