//! An R-tree bulk-loaded with Sort-Tile-Recursive (STR).
//!
//! H-BRJ reducers in the paper build an R-tree over their block of `S` and
//! answer each `r`'s kNN query by a best-first traversal with a bounded
//! priority queue — "both operations are costly for multi-dimensional
//! objects", which is exactly the behaviour the reproduction needs to exhibit.
//!
//! The tree is immutable once built (bulk loading matches the join use-case,
//! where the whole block of `S` is known up front), so it is stored packed
//! rather than as linked nodes: the points in leaf order as one column-major
//! block, and each level of nodes as flat bounding boxes plus the runs of the
//! level below that they own.  Queries optionally report the number of
//! point-distance computations performed, which feeds the paper's
//! *computation selectivity* metric.

use geom::{DistanceMetric, Mask, Neighbor, NeighborList, Point, PointId};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

/// One level of nodes: node `i` owns entries `first[i]..first[i + 1]` of
/// the level below (of the leaf rows, for the bottom level) and bounds them
/// by `lo[d·nodes + i]..=hi[d·nodes + i]` on dimension `d` — column-major,
/// like the rows, so a run of siblings is bounded by contiguous columns.
#[derive(Debug, Clone)]
struct Level {
    lo: Vec<f64>,
    hi: Vec<f64>,
    first: Vec<usize>,
}

impl Level {
    /// The level whose node `i` bounds entries `first[i]..first[i + 1]` of
    /// a column-major block of `stride` entries, entry `e` spanning
    /// `lo[d·stride + e]..=hi[d·stride + e]` on dimension `d`.
    fn bounding(first: Vec<usize>, dims: usize, stride: usize, lo: &[f64], hi: &[f64]) -> Self {
        let boxes = (first.len() - 1) * dims;
        let (mut lows, mut highs) = (Vec::with_capacity(boxes), Vec::with_capacity(boxes));
        for d in 0..dims {
            for run in first.windows(2) {
                let entries = d * stride + run[0]..d * stride + run[1];
                let (lo, hi) = (&lo[entries.clone()], &hi[entries]);
                lows.push(lo.iter().fold(f64::INFINITY, |m, &x| m.min(x)));
                highs.push(hi.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x)));
            }
        }
        Self {
            lo: lows,
            hi: highs,
            first,
        }
    }

    fn nodes(&self) -> usize {
        self.first.len() - 1
    }

    /// The entries of the level below that node `i` owns.
    fn run(&self, i: usize) -> Range<usize> {
        self.first[i]..self.first[i + 1]
    }

    /// The level above this one: each parent owns the next `fanout` nodes.
    fn parent(&self, dims: usize, fanout: usize) -> Self {
        let nodes = self.nodes();
        let first = (0..nodes).step_by(fanout).chain([nodes]).collect();
        Self::bounding(first, dims, nodes, &self.lo, &self.hi)
    }

    /// MINDIST from `q` to nodes `first..first + out.len()`: `out[i]` is
    /// `metric.distance_coords(q, clamped)` bit for bit, where `clamped` is
    /// `q` clamped into node `first + i`'s box (zero inside it).
    fn min_distances(&self, metric: DistanceMetric, q: &[f64], first: usize, out: &mut [f64]) {
        match metric {
            DistanceMetric::Euclidean => {
                self.fold_gaps(q, first, out, |acc, g| acc + g * g);
                out.iter_mut().for_each(|d| *d = d.sqrt());
            }
            DistanceMetric::Manhattan => self.fold_gaps(q, first, out, |acc, g| acc + g.abs()),
            DistanceMetric::Chebyshev => self.fold_gaps(q, first, out, |acc, g| acc.max(g.abs())),
        }
    }

    /// Folds `step` over each node's gaps `q[d] − clamp(q[d], lo, hi)` from
    /// zero, left to right as the scalar kernels sum; eight nodes at a time,
    /// so their chains overlap.
    #[inline(always)]
    fn fold_gaps(&self, q: &[f64], first: usize, out: &mut [f64], step: impl Fn(f64, f64) -> f64) {
        const BLOCK: usize = 8;
        let stride = self.nodes();
        for (b, slots) in out.chunks_mut(BLOCK).enumerate() {
            let node = first + b * BLOCK;
            let mut acc = [0.0f64; BLOCK];
            for (d, &x) in q.iter().enumerate() {
                let lo = &self.lo[d * stride + node..][..slots.len()];
                let hi = &self.hi[d * stride + node..][..slots.len()];
                for ((acc, &l), &h) in acc.iter_mut().zip(lo).zip(hi) {
                    // `x.clamp(l, h)` without its assert: the lanes vectorize.
                    let clamped = if x < l {
                        l
                    } else if x > h {
                        h
                    } else {
                        x
                    };
                    *acc = step(*acc, x - clamped);
                }
            }
            slots.copy_from_slice(&acc[..slots.len()]);
        }
    }
}

/// An immutable, STR bulk-loaded R-tree.
///
/// # Example
///
/// Bulk-load a block of `S` and probe it with a kNN query, exactly as an
/// H-BRJ reducer does:
///
/// ```
/// use geom::{DistanceMetric, Point};
/// use spatial::RTree;
///
/// let block: Vec<Point> = (0..100)
///     .map(|i| Point::new(i, vec![i as f64, 0.0]))
///     .collect();
/// let tree = RTree::bulk_load(block, DistanceMetric::Euclidean);
///
/// let query = Point::new(1000, vec![41.9, 0.0]);
/// let neighbors = tree.knn(&query, 3);
/// assert_eq!(neighbors[0].id, 42);
/// assert_eq!(neighbors.len(), 3);
///
/// // `knn_counted` additionally reports the distance computations spent,
/// // feeding the paper's computation-selectivity metric.
/// let (same, computations) = tree.knn_counted(&query, 3);
/// assert_eq!(same[0].id, neighbors[0].id);
/// assert!(computations < 100, "best-first search must prune");
/// ```
#[derive(Debug, Clone)]
pub struct RTree {
    /// The points' ids in leaf order.
    ids: Vec<PointId>,
    /// The points' coordinates in leaf order, column-major: coordinate `d`
    /// of row `i` is `cols[d * len + i]`.
    cols: Vec<f64>,
    /// `levels[0]` groups the rows into leaves; the last level is the root.
    levels: Vec<Level>,
    metric: DistanceMetric,
    fanout: usize,
}

/// Priority-queue entry for best-first traversal: node `node` of
/// `levels[level]`, keyed by the minimum possible distance from the query to
/// its box.  The order compares `dist` alone: equal ones pop in heap order.
#[derive(Debug)]
struct Prioritized {
    dist: f64,
    level: u32,
    node: u32,
}

impl PartialEq for Prioritized {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for Prioritized {}
impl Ord for Prioritized {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap (a max-heap) pops the *smallest* distance.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
    }
}
impl PartialOrd for Prioritized {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The node heap, rank buffer and answer list of [`RTree::knn_with`],
/// cleared by each query with their capacity kept, so a run of queries
/// allocates them once.
#[derive(Debug)]
pub struct KnnScratch {
    heap: BinaryHeap<Prioritized>,
    ranks: Vec<f64>,
    neighbors: NeighborList,
}

impl Default for KnnScratch {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            ranks: Vec::new(),
            neighbors: NeighborList::new(1),
        }
    }
}

impl RTree {
    /// Default maximum number of entries per node.
    pub const DEFAULT_FANOUT: usize = 16;

    /// Bulk-loads an R-tree with the default fanout.
    pub fn bulk_load<P: Borrow<Point>>(
        points: impl IntoIterator<Item = P>,
        metric: DistanceMetric,
    ) -> Self {
        Self::bulk_load_with_fanout(points, metric, Self::DEFAULT_FANOUT)
    }

    /// Bulk-loads an R-tree using Sort-Tile-Recursive packing with the given
    /// fanout (maximum entries per node), from owned or borrowed points.
    ///
    /// # Panics
    /// Panics if `fanout < 2` or if there are more than `u32::MAX` points.
    pub fn bulk_load_with_fanout<P: Borrow<Point>>(
        points: impl IntoIterator<Item = P>,
        metric: DistanceMetric,
        fanout: usize,
    ) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2");
        let points: Vec<P> = points.into_iter().collect();
        let point = |row: usize| -> &Point { points[row].borrow() };
        let len = points.len();
        let dims = if len > 0 { point(0).dims() } else { 0 };
        // The input's columns: the sort keys of STR, one contiguous column
        // per dimension.
        let mut input = Vec::with_capacity(dims * len);
        for d in 0..dims {
            input.extend((0..len).map(|row| point(row).coords[d]));
        }
        let mut rows: Vec<u32> =
            (0..u32::try_from(len).expect("at most u32::MAX points")).collect();
        let mut first = vec![0];
        str_pack(&input, &mut rows, 0, dims, fanout, &mut first);
        let ids = rows.iter().map(|&r| point(r as usize).id).collect();
        let cols: Vec<f64> = input
            .chunks(len.max(1))
            .flat_map(|column| rows.iter().map(|&r| column[r as usize]))
            .collect();
        let mut levels = Vec::new();
        if len > 0 {
            levels.push(Level::bounding(first, dims, len, &cols, &cols));
            while let Some(top) = levels.last().filter(|top| top.nodes() > 1) {
                levels.push(top.parent(dims, fanout));
            }
        }
        Self {
            ids,
            cols,
            levels,
            metric,
            fanout,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Height of the tree in levels (0 for an empty tree, 1 for a single leaf).
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// The metric used for queries.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// The configured fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The `k` nearest neighbours of `query`, sorted by ascending distance.
    pub fn knn(&self, query: &Point, k: usize) -> Vec<Neighbor> {
        self.knn_counted(query, k).0
    }

    /// Like [`RTree::knn`], additionally returning the number of point-to-point
    /// distance computations performed (used for the computation-selectivity
    /// metric of the paper): [`RTree::knn_with`] on a fresh scratch.
    pub fn knn_counted(&self, query: &Point, k: usize) -> (Vec<Neighbor>, u64) {
        let mut scratch = KnnScratch::default();
        let computations = self.search(&query.coords, k, &mut scratch);
        (scratch.neighbors.into_sorted(), computations)
    }

    /// The `k` nearest neighbours of the coordinates `query`, sorted by
    /// ascending distance and borrowed from the caller's `scratch`, and the
    /// number of distance computations spent — a loop of probes reuses one
    /// heap, one rank buffer and one answer list.
    pub fn knn_with<'s>(
        &self,
        query: &[f64],
        k: usize,
        scratch: &'s mut KnnScratch,
    ) -> (&'s [Neighbor], u64) {
        let computations = self.search(query, k, scratch);
        (scratch.neighbors.as_slice(), computations)
    }

    /// Leaves the `k` nearest neighbours of `query` in `scratch`'s answer
    /// list and returns the distance computations spent.
    ///
    /// A leaf is ranked in one call of the metric's bit-exact column kernel
    /// over its run of rows and offered straight into the accumulator
    /// ([`NeighborList::offer_ranks`]), so the heap holds nodes only and
    /// every distance has [`DistanceMetric::distance_coords`]' bits.  The
    /// leaves visited are those of a walk that queues each point and offers
    /// it when popped: when a node at MBR distance `m` is popped, that walk
    /// has already popped and offered every discovered point with `d ≤ m`,
    /// so both compare `m` against the same `k`-th distance.
    fn search(&self, query: &[f64], k: usize, scratch: &mut KnnScratch) -> u64 {
        let KnnScratch {
            heap,
            ranks,
            neighbors: result,
        } = scratch;
        result.reset(k.max(1));
        let Some(root) = self.levels.len().checked_sub(1).filter(|_| k > 0) else {
            return 0;
        };
        let rank = self.metric.column_rank_kernel();
        heap.clear();
        // The ranks of a leaf's rows or the MINDISTs of a node's children:
        // a node owns at most `fanout` entries.
        ranks.resize(self.fanout, 0.0);
        let mut distance_computations = 0u64;
        self.levels[root].min_distances(self.metric, query, 0, &mut ranks[..1]);
        heap.push(Prioritized {
            dist: ranks[0],
            level: root as u32,
            node: 0,
        });
        while let Some(Prioritized { dist, level, node }) = heap.pop() {
            // Everything still in the heap is at least `dist` away; once that
            // exceeds the current kth-distance we are done.
            let threshold = result.threshold();
            if dist > threshold {
                break;
            }
            let run = self.levels[level as usize].run(node as usize);
            let ranks = &mut ranks[..run.len()];
            if level == 0 {
                rank(query, &self.cols, self.ids.len(), run.start, ranks);
                distance_computations += ranks.len() as u64;
                result.offer_ranks(&self.ids[run], ranks, Mask::NONE, self.metric);
                continue;
            }
            self.levels[level as usize - 1].min_distances(self.metric, query, run.start, ranks);
            for (child, &d) in run.zip(ranks.iter()) {
                if d <= threshold {
                    heap.push(Prioritized {
                        dist: d,
                        level: level - 1,
                        node: child as u32,
                    });
                }
            }
        }
        distance_computations
    }
}

/// Sort-Tile-Recursive packing: reorders `rows` (indices into the `columns`
/// of a column-major block) so that every leaf is a run of at most
/// `capacity` of them, cycling through the dimensions from `dim`, and
/// appends each run's end to `ends`.  With no dimension to sort on, the rows
/// are chunked in input order.
fn str_pack(
    columns: &[f64],
    rows: &mut [u32],
    dim: usize,
    dims: usize,
    capacity: usize,
    ends: &mut Vec<usize>,
) {
    if rows.len() <= capacity || dims == 0 {
        for leaf in rows.chunks(capacity) {
            ends.push(ends[ends.len() - 1] + leaf.len());
        }
        return;
    }
    let n_groups = rows.len().div_ceil(capacity);
    let d = dim % dims;
    // Number of slabs along the current dimension: the (remaining dims)-th
    // root of the number of groups, as in the STR paper.
    let slabs = (n_groups as f64).powf(1.0 / (dims - d) as f64).ceil() as usize;
    let slabs = slabs.clamp(1, n_groups);
    let len = columns.len() / dims;
    let column = &columns[d * len..][..len];
    // Stable, so rows with equal keys keep their order.
    rows.sort_by(|&a, &b| {
        column[a as usize]
            .partial_cmp(&column[b as usize])
            .unwrap_or(Ordering::Equal)
    });
    for slab in rows.chunks_mut(rows.len().div_ceil(slabs)) {
        str_pack(columns, slab, dim + 1, dims, capacity, ends);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::BruteForceIndex;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, dims: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                Point::new(
                    i as u64,
                    (0..dims).map(|_| rng.gen::<f64>() * 100.0).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn empty_tree() {
        let t = RTree::bulk_load(Vec::<Point>::new(), DistanceMetric::Euclidean);
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.knn(&Point::new(0, vec![0.0, 0.0]), 5).is_empty());
    }

    #[test]
    fn single_point_tree() {
        let t = RTree::bulk_load(
            vec![Point::new(7, vec![1.0, 1.0])],
            DistanceMetric::Euclidean,
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        let nn = t.knn(&Point::new(0, vec![0.0, 0.0]), 3);
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0].id, 7);
    }

    #[test]
    fn knn_matches_bruteforce_2d() {
        let pts = random_points(500, 2, 11);
        let tree = RTree::bulk_load(pts.clone(), DistanceMetric::Euclidean);
        let brute = BruteForceIndex::new(pts, DistanceMetric::Euclidean);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let q = Point::new(
                u64::MAX,
                vec![rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0],
            );
            let a = tree.knn(&q, 10);
            let b = brute.knn(&q, 10);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn knn_matches_bruteforce_high_dim() {
        let pts = random_points(300, 8, 21);
        let tree = RTree::bulk_load_with_fanout(pts.clone(), DistanceMetric::Euclidean, 8);
        let brute = BruteForceIndex::new(pts, DistanceMetric::Euclidean);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let q = Point::new(u64::MAX, (0..8).map(|_| rng.gen::<f64>() * 100.0).collect());
            assert_eq!(tree.knn(&q, 5), brute.knn(&q, 5));
        }
    }

    #[test]
    fn pruning_saves_distance_computations() {
        let pts = random_points(5000, 2, 9);
        let tree = RTree::bulk_load(pts, DistanceMetric::Euclidean);
        let q = Point::new(u64::MAX, vec![25.0, 75.0]);
        let (_, computations) = tree.knn_counted(&q, 10);
        assert!(
            computations < 2500,
            "best-first search visited {computations} of 5000 points — no pruning happening"
        );
    }

    #[test]
    fn tree_structure_respects_fanout() {
        let pts = random_points(1000, 2, 13);
        let tree = RTree::bulk_load_with_fanout(pts, DistanceMetric::Euclidean, 4);
        // 1000 points with fanout 4: at least ceil(log_4(250)) + 1 levels.
        assert!(tree.height() >= 4, "height {} too small", tree.height());
        assert_eq!(tree.len(), 1000);
        assert_eq!(tree.fanout(), 4);
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn tiny_fanout_panics() {
        let _ = RTree::bulk_load_with_fanout(random_points(10, 2, 0), DistanceMetric::Euclidean, 1);
    }

    #[test]
    fn duplicate_points_are_all_retrievable() {
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push(Point::new(i, vec![1.0, 1.0]));
        }
        let tree = RTree::bulk_load(pts, DistanceMetric::Euclidean);
        let nn = tree.knn(&Point::new(u64::MAX, vec![1.0, 1.0]), 20);
        assert_eq!(nn.len(), 20);
        assert!(nn.iter().all(|n| n.distance == 0.0));
    }

    const METRICS: [DistanceMetric; 3] = [
        DistanceMetric::Euclidean,
        DistanceMetric::Manhattan,
        DistanceMetric::Chebyshev,
    ];

    /// Distance computations and heights recorded on the linked-node tree
    /// this packed layout replaced: the STR leaf order, the node boxes and
    /// the heap's push/pop sequence (ties included — the `grid` rows snap
    /// every coordinate to one of six values) must all be unchanged for the
    /// counts to match.  Each count is the sum over eight queries.
    #[test]
    fn distance_computations_and_heights_are_pinned() {
        // (n, dims, fanout, k, metric, seed, grid) => (computations, height)
        let table = [
            ((500, 2, 2, 5, 0, 1, false), (68, 9)),
            ((500, 2, 4, 10, 1, 2, false), (178, 5)),
            ((500, 2, 16, 3, 2, 3, false), (146, 3)),
            ((400, 10, 2, 7, 1, 4, false), (647, 9)),
            ((400, 10, 4, 5, 2, 5, false), (595, 5)),
            ((400, 10, 16, 10, 0, 6, false), (3110, 3)),
            ((300, 17, 2, 4, 2, 7, false), (391, 9)),
            ((300, 17, 4, 10, 0, 8, false), (1995, 5)),
            ((300, 17, 16, 1, 1, 9, false), (2400, 3)),
            ((600, 2, 4, 8, 0, 10, true), (263, 5)),
            ((600, 3, 16, 20, 1, 11, true), (926, 3)),
            ((600, 2, 2, 6, 2, 12, true), (226, 10)),
        ];
        let snap = |c: &mut f64, grid: bool| {
            if grid {
                *c = (*c / 20.0).floor();
            }
        };
        for ((n, dims, fanout, k, which, seed, grid), expected) in table {
            let mut pts = random_points(n, dims, seed);
            pts.iter_mut()
                .flat_map(|p| &mut p.coords)
                .for_each(|c| snap(c, grid));
            let tree = RTree::bulk_load_with_fanout(pts, METRICS[which], fanout);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
            let computations: u64 = (0..8)
                .map(|_| {
                    let mut q: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>() * 100.0).collect();
                    q.iter_mut().for_each(|c| snap(c, grid));
                    tree.knn_counted(&Point::new(u64::MAX, q), k).1
                })
                .sum();
            assert_eq!(
                (computations, tree.height()),
                expected,
                "(n, dims, fanout, k, metric, seed, grid) = {:?}",
                (n, dims, fanout, k, which, seed, grid)
            );
        }
    }

    /// With no dimension to sort on, rows are chunked in input order and
    /// every MINDIST and every distance is zero.
    #[test]
    fn zero_dimensional_points_are_packed_and_probed() {
        let pts: Vec<Point> = (0..200).map(|i| Point::new(i, Vec::new())).collect();
        for metric in METRICS {
            let tree = RTree::bulk_load_with_fanout(pts.clone(), metric, 4);
            assert_eq!((tree.len(), tree.height()), (200, 4));
            let nn = tree.knn(&Point::new(u64::MAX, Vec::new()), 3);
            assert_eq!(nn.len(), 3);
            assert!(nn.iter().all(|n| n.distance == 0.0));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Ids and distance bits equal the scalar-kernel reference's, over
        /// every dimensionality and leaf size up to past two SIMD registers
        /// (lane tails of the tile kernel and of its portable twin).
        #[test]
        fn knn_always_matches_bruteforce(
            n in 1usize..200,
            dims in 1usize..18,
            fanout in 2usize..17,
            k in 1usize..12,
            seed in 0u64..1000,
            which in 0usize..3,
        ) {
            let metric = METRICS[which];
            let pts = random_points(n, dims, seed);
            let tree = RTree::bulk_load_with_fanout(pts.clone(), metric, fanout);
            let brute = BruteForceIndex::new(pts, metric);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
            let q = Point::new(u64::MAX, (0..dims).map(|_| rng.gen::<f64>() * 100.0).collect());
            prop_assert_eq!(tree.knn(&q, k), brute.knn(&q, k));
        }
    }

    /// A tree loaded from borrowed points is the tree loaded from owned
    /// copies of them: same height, same answers, same counts.
    #[test]
    fn borrowed_and_owned_points_load_the_same_tree() {
        for (n, dims, fanout, which) in
            [(0, 2, 4, 0), (1, 3, 2, 1), (700, 2, 16, 2), (300, 9, 4, 0)]
        {
            let pts = random_points(n, dims, n as u64);
            let borrowed = RTree::bulk_load_with_fanout(&pts, METRICS[which], fanout);
            let owned = RTree::bulk_load_with_fanout(pts.clone(), METRICS[which], fanout);
            assert_eq!(
                (borrowed.len(), borrowed.height()),
                (owned.len(), owned.height())
            );
            for q in random_points(20, dims, 99) {
                assert_eq!(borrowed.knn_counted(&q, 7), owned.knn_counted(&q, 7));
            }
        }
    }

    /// Which of several equal-distance points survive into a query's `k`
    /// depends on the order the heap pops equal-MINDIST nodes, which no
    /// count shows.  A run of queries on five-value grid rows through one
    /// reused scratch is pinned as an FNV-1a digest of every answer's ids
    /// and distance bits, recorded with fresh `knn_counted` calls on the
    /// traversal whose heap entries held `usize` levels and nodes.
    #[test]
    fn tie_heavy_answers_are_pinned() {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        let snap = |c: f64| (c / 20.0).floor();
        let mut computations = 0;
        for (which, fanout, dims) in [(0, 2, 2), (1, 4, 3), (2, 16, 2), (0, 4, 3)] {
            let mut pts = random_points(600, dims, 40 + fanout as u64);
            pts.iter_mut()
                .flat_map(|p| &mut p.coords)
                .for_each(|c| *c = snap(*c));
            let tree = RTree::bulk_load_with_fanout(&pts, METRICS[which], fanout);
            let mut rng = StdRng::seed_from_u64(fanout as u64);
            let mut scratch = KnnScratch::default();
            for k in 1..30 {
                let q: Vec<f64> = (0..dims).map(|_| snap(rng.gen::<f64>() * 100.0)).collect();
                let (neighbors, count) = tree.knn_with(&q, k, &mut scratch);
                computations += count;
                for n in neighbors {
                    mix(n.id);
                    mix(n.distance.to_bits());
                }
            }
        }
        assert_eq!((hash, computations), (0x6291_36de_10ec_3a13, 6798));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// One scratch reused across a run of queries — varied `k`, every
        /// metric, tie-heavy `grid` rows — answers each exactly as a fresh
        /// `knn_counted` does: ids, distance bits and counts.
        #[test]
        fn a_reused_scratch_answers_like_a_fresh_one(
            n in 1usize..400,
            dims in 1usize..6,
            fanout in 2usize..17,
            seed in 0u64..1000,
            which in 0usize..3,
            grid in proptest::bool::ANY,
        ) {
            let snap = |c: f64| if grid { (c / 20.0).floor() } else { c };
            let mut pts = random_points(n, dims, seed);
            pts.iter_mut().flat_map(|p| &mut p.coords).for_each(|c| *c = snap(*c));
            let tree = RTree::bulk_load_with_fanout(&pts, METRICS[which], fanout);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
            let mut scratch = KnnScratch::default();
            for _ in 0..12 {
                let q: Vec<f64> = (0..dims).map(|_| snap(rng.gen::<f64>() * 100.0)).collect();
                let k = rng.gen_range(0..n + 3);
                let (reused, reused_count) = tree.knn_with(&q, k, &mut scratch);
                let (fresh, fresh_count) = tree.knn_counted(&Point::new(u64::MAX, q), k);
                let bits = |list: &[Neighbor]| -> Vec<(PointId, u64)> {
                    list.iter().map(|n| (n.id, n.distance.to_bits())).collect()
                };
                prop_assert_eq!(bits(reused), bits(&fresh));
                prop_assert_eq!(reused_count, fresh_count);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The in-place MINDIST has the bits of the metric's distance to the
        /// query clamped into each box of a level, for queries inside box
        /// `j` (`side` 0), on its face (1: one coordinate on a bound) and
        /// outside it (2: one coordinate below the box).
        #[test]
        fn min_distances_are_the_distances_to_the_clamped_query(
            dims in 1usize..34,
            nodes in 1usize..20,
            side in 0usize..3,
            seed in 0u64..1000,
            which in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut coord = || rng.gen::<f64>() * 200.0 - 100.0;
            let corners: Vec<(f64, f64)> = (0..dims * nodes).map(|_| (coord(), coord())).collect();
            let level = Level {
                lo: corners.iter().map(|&(a, b)| a.min(b)).collect(),
                hi: corners.iter().map(|&(a, b)| a.max(b)).collect(),
                first: (0..=nodes).collect(),
            };
            let bound = |side: &[f64], node: usize| -> Vec<f64> {
                (0..dims).map(|d| side[d * nodes + node]).collect()
            };
            let j = seed as usize % nodes;
            let (lo, hi) = (bound(&level.lo, j), bound(&level.hi, j));
            let mut q: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| l + (h - l) * 0.5).collect();
            let d = seed as usize % dims;
            match side {
                0 => {}
                1 => q[d] = if seed % 2 == 0 { lo[d] } else { hi[d] },
                _ => {
                    q.iter_mut().for_each(|c| *c = coord() * 3.0);
                    q[d] = lo[d] - 1.0 - coord().abs();
                }
            }
            let metric = METRICS[which];
            let mut packed = vec![f64::NAN; nodes];
            level.min_distances(metric, &q, 0, &mut packed);
            for (node, packed) in packed.iter().enumerate() {
                let (lo, hi) = (bound(&level.lo, node), bound(&level.hi, node));
                let clamped: Vec<f64> = (0..dims).map(|d| q[d].clamp(lo[d], hi[d])).collect();
                let expected = metric.distance_coords(&q, &clamped).to_bits();
                prop_assert_eq!(packed.to_bits(), expected);
                let mut alone = [f64::NAN];
                level.min_distances(metric, &q, node, &mut alone);
                prop_assert_eq!(alone[0].to_bits(), expected);
            }
            prop_assert_eq!(packed[j] > 0.0, side == 2);
        }
    }
}
