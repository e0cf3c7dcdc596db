//! Points and point sets.

use std::fmt;

/// Identifier of a point within its originating dataset (`R` or `S`).
///
/// The paper treats objects as opaque records with coordinates; a dense `u64`
/// id is enough to reconstruct the join output `(r, KNN(r, S))`.
pub type PointId = u64;

/// An object in the `n`-dimensional metric space `D`.
///
/// Coordinates are stored inline as an owned `Vec<f64>`.  Points are cheap to
/// clone relative to the cost of the distance computations performed on them;
/// the MapReduce layer shares one copy per object across its shuffles and
/// accounts it at its encoded size (see [`crate::record`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Identifier, unique within the dataset the point belongs to.
    pub id: PointId,
    /// Coordinate values, one per dimension.
    pub coords: Vec<f64>,
}

impl Point {
    /// Creates a new point from an id and coordinates.
    pub fn new(id: PointId, coords: Vec<f64>) -> Self {
        Self { id, coords }
    }

    /// Number of dimensions of this point.
    pub fn dims(&self) -> usize {
        self.coords.len()
    }

    /// Coordinate along dimension `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.dims()`.
    pub fn coord(&self, i: usize) -> f64 {
        self.coords[i]
    }

    /// Returns a copy of this point restricted to the first `dims` dimensions.
    ///
    /// The paper's dimensionality experiment (Figure 10) projects the Forest
    /// dataset onto its first 2..10 attributes; this helper implements that
    /// projection.
    pub fn project(&self, dims: usize) -> Point {
        let d = dims.min(self.coords.len());
        Point::new(self.id, self.coords[..d].to_vec())
    }

    /// The approximate number of bytes this point occupies when encoded as a
    /// MapReduce record: id + per-dimension f64 values.
    pub fn encoded_len(&self) -> usize {
        8 + 8 * self.coords.len()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}(", self.id)?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.3}")?;
        }
        write!(f, ")")
    }
}

/// A dataset of points (either `R` or `S` in the paper's notation).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointSet {
    points: Vec<Point>,
}

impl PointSet {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self { points: Vec::new() }
    }

    /// Creates a dataset from a vector of points.
    pub fn from_points(points: Vec<Point>) -> Self {
        Self { points }
    }

    /// Creates a dataset from raw coordinate rows, assigning ids `0..rows.len()`.
    pub fn from_coords(rows: Vec<Vec<f64>>) -> Self {
        let points = rows
            .into_iter()
            .enumerate()
            .map(|(i, coords)| Point::new(i as PointId, coords))
            .collect();
        Self { points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Dimensionality of the dataset (0 if empty).
    pub fn dims(&self) -> usize {
        self.points.first().map_or(0, Point::dims)
    }

    /// The first point whose dimensionality differs from the first point's,
    /// as `(index, its_dims)` — `None` when the dataset is uniform.
    ///
    /// A ragged dataset would index-panic (or silently truncate coordinates)
    /// deep inside the distance kernels, which only `debug_assert` the
    /// lengths; join planning uses this to reject such inputs up front with a
    /// typed error.
    pub fn first_dim_mismatch(&self) -> Option<(usize, usize)> {
        let expected = self.dims();
        self.points
            .iter()
            .enumerate()
            .find(|(_, p)| p.dims() != expected)
            .map(|(i, p)| (i, p.dims()))
    }

    /// Immutable access to the underlying points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Mutable access to the underlying points.
    pub fn points_mut(&mut self) -> &mut Vec<Point> {
        &mut self.points
    }

    /// Consumes the dataset and returns its points.
    pub fn into_points(self) -> Vec<Point> {
        self.points
    }

    /// Adds a point to the dataset.
    pub fn push(&mut self, p: Point) {
        self.points.push(p);
    }

    /// Iterator over the points.
    pub fn iter(&self) -> std::slice::Iter<'_, Point> {
        self.points.iter()
    }

    /// Returns the point with position `idx` (not id).
    pub fn get(&self, idx: usize) -> Option<&Point> {
        self.points.get(idx)
    }

    /// Projects every point onto its first `dims` dimensions.
    pub fn project(&self, dims: usize) -> PointSet {
        PointSet::from_points(self.points.iter().map(|p| p.project(dims)).collect())
    }

    /// Total encoded size of the dataset in bytes (used to size the shuffle).
    pub fn encoded_len(&self) -> usize {
        self.points.iter().map(Point::encoded_len).sum()
    }
}

impl<'a> IntoIterator for &'a PointSet {
    type Item = &'a Point;
    type IntoIter = std::slice::Iter<'a, Point>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

impl IntoIterator for PointSet {
    type Item = Point;
    type IntoIter = std::vec::IntoIter<Point>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.into_iter()
    }
}

impl FromIterator<Point> for PointSet {
    fn from_iter<T: IntoIterator<Item = Point>>(iter: T) -> Self {
        Self {
            points: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_basics() {
        let p = Point::new(7, vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dims(), 3);
        assert_eq!(p.coord(1), 2.0);
        assert_eq!(p.encoded_len(), 8 + 24);
        assert_eq!(format!("{p}"), "#7(1.000, 2.000, 3.000)");
    }

    #[test]
    fn point_projection_truncates() {
        let p = Point::new(1, vec![1.0, 2.0, 3.0, 4.0]);
        let q = p.project(2);
        assert_eq!(q.coords, vec![1.0, 2.0]);
        assert_eq!(q.id, 1);
        // Projecting beyond the dimensionality keeps all coordinates.
        assert_eq!(p.project(10).coords.len(), 4);
    }

    #[test]
    fn pointset_from_coords_assigns_sequential_ids() {
        let ps = PointSet::from_coords(vec![vec![0.0], vec![1.0], vec![2.0]]);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps.dims(), 1);
        let ids: Vec<_> = ps.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn pointset_projection_applies_to_all_points() {
        let ps = PointSet::from_coords(vec![vec![0.0, 1.0, 2.0], vec![3.0, 4.0, 5.0]]);
        let proj = ps.project(2);
        assert_eq!(proj.dims(), 2);
        assert_eq!(proj.len(), 2);
    }

    #[test]
    fn ragged_sets_report_the_first_mismatching_point() {
        let uniform = PointSet::from_coords(vec![vec![0.0, 1.0], vec![2.0, 3.0]]);
        assert_eq!(uniform.first_dim_mismatch(), None);
        assert_eq!(PointSet::new().first_dim_mismatch(), None);
        let ragged = PointSet::from_coords(vec![vec![0.0, 1.0], vec![2.0], vec![3.0]]);
        assert_eq!(ragged.first_dim_mismatch(), Some((1, 1)));
    }

    #[test]
    fn pointset_encoded_len_sums_points() {
        let ps = PointSet::from_coords(vec![vec![0.0, 1.0], vec![2.0, 3.0]]);
        assert_eq!(ps.encoded_len(), 2 * (8 + 16));
    }

    #[test]
    fn pointset_iterators() {
        let ps = PointSet::from_coords(vec![vec![0.0], vec![1.0]]);
        let collected: PointSet = ps.iter().cloned().collect();
        assert_eq!(collected, ps);
        let owned: Vec<Point> = ps.clone().into_iter().collect();
        assert_eq!(owned.len(), 2);
        assert!(!ps.is_empty());
        assert!(PointSet::new().is_empty());
    }
}
