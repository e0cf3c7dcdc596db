//! An R-tree bulk-loaded with Sort-Tile-Recursive (STR).
//!
//! H-BRJ reducers in the paper build an R-tree over their block of `S` and
//! answer each `r`'s kNN query by a best-first traversal with a bounded
//! priority queue — "both operations are costly for multi-dimensional
//! objects", which is exactly the behaviour the reproduction needs to exhibit.
//!
//! The tree is immutable once built (bulk loading matches the join use-case,
//! where the whole block of `S` is known up front).  Queries optionally report
//! the number of point-distance computations performed, which feeds the
//! paper's *computation selectivity* metric.

use crate::rect::Rect;
use geom::{CoordMatrix, DistanceMetric, Neighbor, NeighborList, Point, PointId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A node of the R-tree.  Leaves hold their points in flat structure-of-data
/// layout (ids parallel to [`CoordMatrix`] rows): a leaf scan is the hot loop
/// of every kNN probe, and walking one contiguous coordinate block beats
/// chasing a heap-allocated `Point` per entry.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        mbr: Rect,
        ids: Vec<PointId>,
        coords: CoordMatrix,
    },
    Internal {
        mbr: Rect,
        children: Vec<Node>,
    },
}

impl Node {
    fn mbr(&self) -> &Rect {
        match self {
            Node::Leaf { mbr, .. } | Node::Internal { mbr, .. } => mbr,
        }
    }

    fn leaf(points: Vec<Point>) -> Self {
        let mbr = Rect::bounding(&points);
        let coords = CoordMatrix::from_points(&points);
        let ids = points.into_iter().map(|p| p.id).collect();
        Node::Leaf { mbr, ids, coords }
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
    root: Option<Node>,
    metric: DistanceMetric,
    fanout: usize,
    len: usize,
    height: usize,
}

/// Priority-queue entry for best-first traversal: a node, keyed by the
/// minimum possible distance from the query to its MBR.
struct Prioritized<'a> {
    dist: f64,
    node: &'a Node,
}

impl PartialEq for Prioritized<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for Prioritized<'_> {}
impl Ord for Prioritized<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap (a max-heap) pops the *smallest* distance.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
    }
}
impl PartialOrd for Prioritized<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl RTree {
    /// Default maximum number of entries per node.
    pub const DEFAULT_FANOUT: usize = 16;

    /// Bulk-loads an R-tree with the default fanout.
    pub fn bulk_load(points: Vec<Point>, metric: DistanceMetric) -> Self {
        Self::bulk_load_with_fanout(points, metric, Self::DEFAULT_FANOUT)
    }

    /// Bulk-loads an R-tree using Sort-Tile-Recursive packing with the given
    /// fanout (maximum entries per node).
    ///
    /// # Panics
    /// Panics if `fanout < 2`.
    pub fn bulk_load_with_fanout(
        points: Vec<Point>,
        metric: DistanceMetric,
        fanout: usize,
    ) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2");
        let len = points.len();
        if points.is_empty() {
            return Self {
                root: None,
                metric,
                fanout,
                len: 0,
                height: 0,
            };
        }
        let dims = points[0].dims().max(1);
        let leaf_groups = str_pack(points, 0, dims, fanout);
        let mut level: Vec<Node> = leaf_groups.into_iter().map(Node::leaf).collect();
        let mut height = 1;
        while level.len() > 1 {
            level = pack_nodes(level, fanout);
            height += 1;
        }
        Self {
            root: level.into_iter().next(),
            metric,
            fanout,
            len,
            height,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree in levels (0 for an empty tree, 1 for a single leaf).
    pub fn height(&self) -> usize {
        self.height
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
    /// metric of the paper).
    ///
    /// A leaf is ranked in one call of the metric's bit-exact tile kernel
    /// over its contiguous rows and offered straight into the accumulator
    /// ([`NeighborList::offer_ranks`]), so the heap holds nodes only and
    /// every distance has [`DistanceMetric::distance_coords`]' bits.  The
    /// leaves visited are those of a walk that queues each point and offers
    /// it when popped: when a node at MBR distance `m` is popped, that walk
    /// has already popped and offered every discovered point with `d ≤ m`,
    /// so both compare `m` against the same `k`-th distance.
    pub fn knn_counted(&self, query: &Point, k: usize) -> (Vec<Neighbor>, u64) {
        let Some(root) = self.root.as_ref().filter(|_| k > 0) else {
            return (Vec::new(), 0);
        };
        let mut result = NeighborList::new(k);
        let query = query.coords.as_slice();
        let tile = self.metric.exact_batch_rank_kernel();
        let dims = query.len();
        // Reused across every leaf this query visits; a leaf holds at most
        // `fanout` rows.
        let mut ranks = vec![0.0f64; self.fanout];
        let mut distance_computations = 0u64;
        let mut heap: BinaryHeap<Prioritized<'_>> = BinaryHeap::new();
        heap.push(Prioritized {
            dist: root.mbr().min_distance(query, self.metric),
            node: root,
        });
        while let Some(Prioritized { dist, node }) = heap.pop() {
            // Everything still in the heap is at least `dist` away; once that
            // exceeds the current kth-distance we are done.
            if dist > result.threshold() {
                break;
            }
            match node {
                Node::Leaf { ids, coords, .. } => {
                    let ranks = &mut ranks[..ids.len()];
                    tile(query, coords.as_slice(), dims, ranks);
                    distance_computations += ranks.len() as u64;
                    result.offer_ranks(ids, ranks, &[], self.metric);
                }
                Node::Internal { children, .. } => {
                    for child in children {
                        let d = child.mbr().min_distance(query, self.metric);
                        if d <= result.threshold() {
                            heap.push(Prioritized {
                                dist: d,
                                node: child,
                            });
                        }
                    }
                }
            }
        }
        (result.into_sorted(), distance_computations)
    }
}

/// Recursive Sort-Tile-Recursive packing of points into groups of at most
/// `capacity`, cycling through dimensions.
fn str_pack(mut points: Vec<Point>, dim: usize, dims: usize, capacity: usize) -> Vec<Vec<Point>> {
    if points.len() <= capacity {
        return vec![points];
    }
    let n_groups = points.len().div_ceil(capacity);
    let remaining_dims = (dims - dim % dims).max(1);
    // Number of slabs along the current dimension: the (remaining_dims)-th
    // root of the number of groups, as in the STR paper.
    let slabs = (n_groups as f64).powf(1.0 / remaining_dims as f64).ceil() as usize;
    let slabs = slabs.clamp(1, n_groups);
    let d = dim % dims;
    points.sort_by(|a, b| {
        a.coords[d]
            .partial_cmp(&b.coords[d])
            .unwrap_or(Ordering::Equal)
    });
    let per_slab = points.len().div_ceil(slabs);
    let mut out = Vec::new();
    let mut it = points.into_iter();
    loop {
        let slab: Vec<Point> = it.by_ref().take(per_slab).collect();
        if slab.is_empty() {
            break;
        }
        if slabs == 1 {
            // No further useful split along this dimension at this level;
            // chunk directly to avoid infinite recursion.
            let mut slab_it = slab.into_iter();
            loop {
                let chunk: Vec<Point> = slab_it.by_ref().take(capacity).collect();
                if chunk.is_empty() {
                    break;
                }
                out.push(chunk);
            }
        } else {
            out.extend(str_pack(slab, dim + 1, dims, capacity));
        }
    }
    out
}

/// Packs one level of nodes into parents of at most `fanout` children each.
fn pack_nodes(nodes: Vec<Node>, fanout: usize) -> Vec<Node> {
    let mut out = Vec::with_capacity(nodes.len().div_ceil(fanout));
    let mut it = nodes.into_iter();
    loop {
        let children: Vec<Node> = it.by_ref().take(fanout).collect();
        if children.is_empty() {
            break;
        }
        let mut mbr = children[0].mbr().clone();
        for c in &children[1..] {
            mbr.expand(c.mbr());
        }
        out.push(Node::Internal { mbr, children });
    }
    out
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
        let t = RTree::bulk_load(Vec::new(), DistanceMetric::Euclidean);
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
            let metric = [DistanceMetric::Euclidean, DistanceMetric::Manhattan, DistanceMetric::Chebyshev][which];
            let pts = random_points(n, dims, seed);
            let tree = RTree::bulk_load_with_fanout(pts.clone(), metric, fanout);
            let brute = BruteForceIndex::new(pts, metric);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
            let q = Point::new(u64::MAX, (0..dims).map(|_| rng.gen::<f64>() * 100.0).collect());
            prop_assert_eq!(tree.knn(&q, k), brute.knn(&q, k));
        }
    }
}
