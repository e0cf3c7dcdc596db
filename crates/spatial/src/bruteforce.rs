//! Linear-scan reference index.
//!
//! Used as (a) the correctness oracle against which the R-tree and the
//! MapReduce join algorithms are validated, and (b) the distance-computation
//! workhorse inside reducers when an index would not pay off.

use geom::{CoordMatrix, DistanceMetric, Neighbor, NeighborList, Point, PointId};

/// A "no index" index: answers kNN queries by scanning all points.
///
/// Coordinates are stored in a flat [`CoordMatrix`] (ids in a parallel
/// vector), so the scan is a linear walk over contiguous memory with the
/// metric's scalar kernel hoisted out of the loop.
#[derive(Debug, Clone)]
pub struct BruteForceIndex {
    ids: Vec<PointId>,
    coords: CoordMatrix,
    metric: DistanceMetric,
}

impl BruteForceIndex {
    /// Builds the index (i.e. flattens the points into columnar storage).
    pub fn new(points: Vec<Point>, metric: DistanceMetric) -> Self {
        let coords = CoordMatrix::from_points(&points);
        let ids = points.into_iter().map(|p| p.id).collect();
        Self {
            ids,
            coords,
            metric,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The metric the index was built with.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// The `k` nearest neighbours of `query`, sorted by ascending distance.
    /// Returns fewer than `k` entries if the index holds fewer points.
    pub fn knn(&self, query: &Point, k: usize) -> Vec<Neighbor> {
        if k == 0 {
            return Vec::new();
        }
        let kernel = self.metric.kernel();
        let mut list = NeighborList::new(k);
        for (i, row) in self.coords.rows().enumerate() {
            list.offer(self.ids[i], kernel(&query.coords, row));
        }
        list.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<Point> {
        // 5x5 integer grid, ids 0..25 assigned row-major.
        let mut pts = Vec::new();
        for y in 0..5 {
            for x in 0..5 {
                pts.push(Point::new((y * 5 + x) as u64, vec![x as f64, y as f64]));
            }
        }
        pts
    }

    #[test]
    fn knn_on_grid() {
        let idx = BruteForceIndex::new(grid(), DistanceMetric::Euclidean);
        let q = Point::new(999, vec![0.0, 0.0]);
        let nn = idx.knn(&q, 3);
        assert_eq!(nn.len(), 3);
        assert_eq!(nn[0].id, 0); // (0,0) itself
        assert_eq!(nn[0].distance, 0.0);
        // next two are (1,0) and (0,1) at distance 1, tie broken by id
        assert_eq!(nn[1].id, 1);
        assert_eq!(nn[2].id, 5);
    }

    #[test]
    fn knn_with_k_larger_than_index() {
        let idx = BruteForceIndex::new(grid(), DistanceMetric::Euclidean);
        let q = Point::new(999, vec![2.0, 2.0]);
        assert_eq!(idx.knn(&q, 100).len(), 25);
        assert!(idx.knn(&q, 0).is_empty());
    }

    #[test]
    fn empty_index_behaves() {
        let idx = BruteForceIndex::new(Vec::new(), DistanceMetric::Manhattan);
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.knn(&Point::new(0, vec![0.0]), 3).is_empty());
        assert_eq!(idx.metric(), DistanceMetric::Manhattan);
    }
}
