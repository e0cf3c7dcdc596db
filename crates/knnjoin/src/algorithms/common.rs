//! Pieces shared by every MapReduce join algorithm: the typed object value
//! the jobs without a partitioning step shuffle, the per-cell runs of
//! partial kNN lists and the borrowed lists the merge jobs shuffle, the
//! kernel and tile plumbing of the candidate scans, and the batch size from
//! which a prepared probe splits its rows across workers.
//!
//! Shuffle bytes are accounted, not produced: a [`ShuffleRecord`] (like the
//! Voronoi family's cells, see [`crate::algorithms::voronoi`]) crosses the
//! engine's in-process shuffle as it is, a borrow of its input object, and
//! is charged the length [`geom::Record`]'s codec would give it — the codec
//! is the reference for the unit, and nothing here serialises or copies.

use crate::result::JoinRow;
use geom::kernels::{ColumnKernel, Kernel, PROBE_TILE};
use geom::{DistanceMetric, Neighbor, NeighborList, Point, PointId, PointSet, Record, RecordKind};
use mapreduce::ByteSize;

/// One object as the jobs of H-BRJ, the broadcast join and H-zkNNJ shuffle
/// it: originating dataset and a borrow of the object in its input set —
/// the tuple of the paper's Figure 4 with no Voronoi cell assigned.
///
/// Mappers emit replicas by copying the record, never the object; reducers
/// borrow the coordinates straight into their own layouts.  The [`ByteSize`]
/// is exactly what [`Record::encode`] would produce for the tuple (partition
/// 0, pivot distance 0), so the engine's byte accounting is the paper's
/// shuffling-cost metric although no byte is ever written.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShuffleRecord<'a> {
    /// Originating dataset.
    pub kind: RecordKind,
    /// The object, borrowed from its input set by every replica.
    pub point: &'a Point,
}

impl<'a> ShuffleRecord<'a> {
    /// The records of one dataset among a reducer's received `values`, in
    /// arrival order.
    pub(crate) fn of_kind(
        values: &[Self],
        kind: RecordKind,
    ) -> impl Iterator<Item = &'a Point> + Clone + '_ {
        values
            .iter()
            .filter_map(move |r| (r.kind == kind).then_some(r.point))
    }
}

impl ByteSize for ShuffleRecord<'_> {
    fn byte_size(&self) -> usize {
        Record::encoded_len_for_dims(self.point.dims())
    }
}

/// One reducer cell's partial kNN lists, laid end to end: the `R` ids in
/// emission order, where each list ends, and every list's neighbours in one
/// buffer.  The block join reducers (PBJ, H-BRJ) and H-zkNNJ's slab reducer
/// emit one run per cell, and the merge job borrows each list out of it
/// ([`PartialList`]), so no partial list is a heap object of its
/// own and none is freed on another thread.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CellRun {
    r_ids: Vec<PointId>,
    ends: Vec<usize>,
    neighbors: Vec<Neighbor>,
}

impl CellRun {
    /// An empty run with room for `lists` lists of up to `list_len`
    /// neighbours each.
    pub(crate) fn with_capacity(lists: usize, list_len: usize) -> Self {
        Self {
            r_ids: Vec::with_capacity(lists),
            ends: Vec::with_capacity(lists),
            neighbors: Vec::with_capacity(lists * list_len),
        }
    }

    /// Appends `r_id`'s partial list.
    pub(crate) fn push(&mut self, r_id: PointId, list: &[Neighbor]) {
        self.neighbors.extend_from_slice(list);
        self.r_ids.push(r_id);
        self.ends.push(self.neighbors.len());
    }

    /// The `(r id, list)` pairs in the order they were appended.
    pub(crate) fn lists(&self) -> impl Iterator<Item = (PointId, &[Neighbor])> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.r_ids
            .iter()
            .zip(starts.zip(&self.ends))
            .map(|(&r_id, (start, &end))| (r_id, &self.neighbors[start..end]))
    }
}

/// A partial kNN list of one `R` object as the merge job of the two-job
/// algorithms (H-BRJ, PBJ, H-zkNNJ) shuffles it: borrowed from the
/// [`CellRun`] of the reducer cell that found it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PartialList<'a>(pub &'a [Neighbor]);

impl ByteSize for PartialList<'_> {
    fn byte_size(&self) -> usize {
        // r-id is the key; each neighbour is an (id, distance) pair.
        4 + self.0.len() * (8 + 8)
    }
}

/// Merges several partial candidate lists into the final `k` nearest
/// neighbours of one `R` object.
pub(crate) fn merge_neighbor_lists(lists: &[PartialList<'_>], k: usize) -> Vec<Neighbor> {
    let mut acc = NeighborList::new(k);
    for list in lists {
        for n in list.0 {
            acc.offer(n.id, n.distance);
        }
    }
    acc.into_sorted()
}

/// Distance-computation breakdown of the candidate scans one
/// [`crate::algorithms::voronoi::VoronoiScan`] ran.
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

// ---------------------------------------------------------------------------
// Cold job inputs/outputs and the prepared probe's batch split
// ---------------------------------------------------------------------------

/// Raw `R ∪ S` as job input for the algorithms without a preprocessing
/// step, keyed by object id.  Nothing is copied: every record, and every
/// replica a mapper emits from it, borrows the object from `r` or `s`.
pub(crate) fn raw_inputs<'a>(r: &'a PointSet, s: &'a PointSet) -> Vec<(u64, ShuffleRecord<'a>)> {
    let mut input = Vec::with_capacity(r.len() + s.len());
    for (kind, set) in [(RecordKind::R, r), (RecordKind::S, s)] {
        for point in set {
            input.push((point.id, ShuffleRecord { kind, point }));
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
/// 10-d and `osm2d` 48 000 × 2-d, 110 pivots, a shared 2-vCPU host):
/// handing two ranges to [`mapreduce::parallel_map`] costs ~100–130 µs of
/// spawn + join, and a 64-row batch split over 2 workers still ran slower
/// than inline in 2 of 2 runs (`forest10d` 706 / 1079 µs against 588 /
/// 610 µs, `osm2d` 445 / 584 µs against 285 / 274 µs); 128 rows came out
/// about even.  So on such a host the cut sits below break-even; it is kept
/// until a measurement on free cores places it.  It sits above the 16 singles a
/// server round coalesces at most, so a coalesced batch, which only forms
/// while every probe permit is out, never spawns threads of its own.
pub const PARALLEL_PROBE_CUT: usize = 64;

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
                let value = ShuffleRecord {
                    kind,
                    point: &point,
                };
                let record = Record::new(kind, 0, 0.0, point.clone());
                let bytes = record.encode();
                assert_eq!(value.byte_size(), bytes.len());
                assert_eq!(value.byte_size(), record.encoded_len());
                assert_eq!(value.byte_size(), 25 + 8 * dims);
                assert_eq!(Record::decode(&bytes), Some(record));
            }
        }
    }

    #[test]
    fn partial_list_size() {
        let list = [Neighbor::new(1, 0.5), Neighbor::new(2, 1.5)];
        assert_eq!(PartialList(&list).byte_size(), 4 + 2 * 16);
        assert_eq!(PartialList(&[]).byte_size(), 4);
    }

    #[test]
    fn a_cell_run_hands_back_its_lists_in_order() {
        let mut run = CellRun::with_capacity(3, 2);
        assert_eq!(run.lists().count(), 0);
        let a = [Neighbor::new(1, 0.5), Neighbor::new(2, 1.5)];
        let c = [Neighbor::new(3, 2.0)];
        run.push(7, &a);
        run.push(4, &[]);
        run.push(9, &c);
        let lists: Vec<(PointId, &[Neighbor])> = run.lists().collect();
        assert_eq!(lists, vec![(7, &a[..]), (4, &[][..]), (9, &c[..])]);
    }

    #[test]
    fn merging_partial_lists_keeps_global_k_best() {
        let a = [Neighbor::new(1, 5.0), Neighbor::new(2, 1.0)];
        let b = [Neighbor::new(3, 0.5), Neighbor::new(4, 9.0)];
        let merged = merge_neighbor_lists(&[PartialList(&a), PartialList(&b)], 2);
        let ids: Vec<u64> = merged.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 2]);
    }

    #[test]
    fn merging_handles_duplicates_across_blocks() {
        // The same S object can be seen by several reducer cells; duplicates
        // must not crowd out distinct neighbours... they are kept as-is since
        // block algorithms never see the same (r, s) pair twice, but merging
        // is still well-defined.
        let a = PartialList(&[Neighbor::new(1, 1.0)]);
        let b = PartialList(&[Neighbor::new(2, 2.0)]);
        let merged = merge_neighbor_lists(&[a, b, a], 3);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].id, 1);
    }
}
