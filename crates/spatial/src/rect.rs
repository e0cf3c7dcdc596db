//! Axis-aligned minimum bounding rectangles (MBRs).

use geom::{DistanceMetric, Point};

/// An axis-aligned rectangle in `n` dimensions, stored as per-dimension
/// `[min, max]` intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    /// Lower corner.
    pub min: Vec<f64>,
    /// Upper corner.
    pub max: Vec<f64>,
}

impl Rect {
    /// Creates a rectangle from explicit corners.
    ///
    /// # Panics
    /// Panics if the corners have different dimensionality or if any
    /// `min > max`.
    pub fn new(min: Vec<f64>, max: Vec<f64>) -> Self {
        assert_eq!(min.len(), max.len(), "corner dimensionality mismatch");
        assert!(
            min.iter().zip(&max).all(|(a, b)| a <= b),
            "min corner must not exceed max corner"
        );
        Self { min, max }
    }

    /// The smallest rectangle enclosing a non-empty set of points.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn bounding(points: &[Point]) -> Self {
        assert!(!points.is_empty(), "cannot bound an empty point set");
        let dims = points[0].dims();
        let mut min = vec![f64::INFINITY; dims];
        let mut max = vec![f64::NEG_INFINITY; dims];
        for p in points {
            for d in 0..dims {
                min[d] = min[d].min(p.coords[d]);
                max[d] = max[d].max(p.coords[d]);
            }
        }
        Self { min, max }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.min.len()
    }

    /// Grows this rectangle to also cover `other`.
    pub fn expand(&mut self, other: &Rect) {
        for d in 0..self.dims() {
            self.min[d] = self.min[d].min(other.min[d]);
            self.max[d] = self.max[d].max(other.max[d]);
        }
    }

    /// Minimum distance from a query point to any point of this rectangle
    /// (zero if the query is inside).  This is the classic `MINDIST` bound
    /// driving best-first R-tree traversal.
    pub fn min_distance(&self, q: &[f64], metric: DistanceMetric) -> f64 {
        let nearest: Vec<f64> = q
            .iter()
            .enumerate()
            .map(|(d, c)| c.clamp(self.min[d], self.max[d]))
            .collect();
        metric.distance_coords(q, &nearest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coords: &[f64]) -> Point {
        Point::new(0, coords.to_vec())
    }

    #[test]
    fn bounding_box_of_points() {
        let pts = vec![p(&[0.0, 5.0]), p(&[2.0, 1.0]), p(&[-1.0, 3.0])];
        let r = Rect::bounding(&pts);
        assert_eq!(r.min, vec![-1.0, 1.0]);
        assert_eq!(r.max, vec![2.0, 5.0]);
        assert_eq!(r.dims(), 2);
    }

    #[test]
    fn min_distance_zero_inside_positive_outside() {
        let r = Rect::new(vec![0.0, 0.0], vec![2.0, 2.0]);
        let m = DistanceMetric::Euclidean;
        assert_eq!(r.min_distance(&[1.0, 1.0], m), 0.0);
        assert!((r.min_distance(&[5.0, 2.0], m) - 3.0).abs() < 1e-12);
        // corner case: diagonal distance
        assert!((r.min_distance(&[5.0, 6.0], m) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn expand_covers_both() {
        let mut r = Rect::new(vec![0.0], vec![1.0]);
        r.expand(&Rect::new(vec![-2.0], vec![0.5]));
        assert_eq!(r.min, vec![-2.0]);
        assert_eq!(r.max, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "min corner")]
    fn inverted_rect_panics() {
        let _ = Rect::new(vec![1.0], vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn bounding_empty_panics() {
        let _ = Rect::bounding(&[]);
    }
}
