//! Distance metrics.
//!
//! The paper uses the Euclidean distance (Equation 1) and notes that the
//! Manhattan (L1) and maximum (L∞) distances are equally applicable, since the
//! pruning rules only rely on the triangle inequality.  All three are provided
//! here; every algorithm in the workspace is parameterised by a
//! [`DistanceMetric`].

use crate::kernels::{self, ColumnKernel, Kernel};
use crate::point::Point;

/// A metric on the `n`-dimensional space `D`.
///
/// All variants satisfy the triangle inequality, which the distance bounds of
/// Theorems 3 and 4 in the paper depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DistanceMetric {
    /// Euclidean distance (Equation 1 in the paper).
    #[default]
    Euclidean,
    /// Manhattan distance (L1).
    Manhattan,
    /// Maximum / Chebyshev distance (L∞).
    Chebyshev,
}

impl DistanceMetric {
    /// Distance `|r, s|` between two coordinate slices.
    ///
    /// Delegates to the monomorphized [`crate::kernels`]; hot loops should
    /// hoist [`DistanceMetric::kernel`] instead of dispatching per call.
    ///
    /// # Panics
    /// Panics in debug builds if the slices have different lengths.
    pub fn distance_coords(&self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            DistanceMetric::Euclidean => kernels::euclidean(a, b),
            DistanceMetric::Manhattan => kernels::manhattan(a, b),
            DistanceMetric::Chebyshev => kernels::chebyshev(a, b),
        }
    }

    /// The monomorphized kernel computing this metric's true distance.
    /// Resolving it once outside a loop replaces an enum dispatch per
    /// candidate with a direct call.
    pub fn kernel(&self) -> Kernel {
        match self {
            DistanceMetric::Euclidean => kernels::euclidean,
            DistanceMetric::Manhattan => kernels::manhattan,
            DistanceMetric::Chebyshev => kernels::chebyshev,
        }
    }

    /// The kernel computing this metric's comparison *rank*: a value with the
    /// same ordering as the true distance but cheaper to compute — the squared
    /// distance for L2 (no `sqrt`), the distance itself for L1/L∞.  Convert
    /// back with [`DistanceMetric::rank_to_distance`].
    pub fn rank_kernel(&self) -> Kernel {
        match self {
            DistanceMetric::Euclidean => kernels::squared_euclidean,
            DistanceMetric::Manhattan => kernels::manhattan,
            DistanceMetric::Chebyshev => kernels::chebyshev,
        }
    }

    /// The one-query-vs-a-row-run rank kernel over a column-major block
    /// whose every output is bit-identical to [`DistanceMetric::rank_kernel`]
    /// on the same row, on any CPU (see [`ColumnKernel`]).
    pub fn column_rank_kernel(&self) -> ColumnKernel {
        match self {
            DistanceMetric::Euclidean => kernels::squared_euclidean_columns,
            DistanceMetric::Manhattan => kernels::manhattan_columns,
            DistanceMetric::Chebyshev => kernels::chebyshev_columns,
        }
    }

    /// Converts a rank produced by [`DistanceMetric::rank_kernel`] back to the
    /// true distance.  For L2 this is the `sqrt` the rank kernel skipped, so
    /// `rank_to_distance(rank_kernel(a, b))` is bit-identical to
    /// [`DistanceMetric::distance_coords`].
    ///
    /// The round trip only runs *rank → distance*: the reverse mapping
    /// (squaring a distance to obtain a rank) is **not** the bit-exact
    /// inverse — `sqrt` rounds, so `rank_to_distance(d * d)` may differ from
    /// `d` in the last ulp, and a threshold squared into rank space must be
    /// widened before a rank is compared against it
    /// ([`crate::NeighborList::offer_ranks`] has the one such bound and its
    /// proof).  What every rank-space consumer may rely on is *order
    /// preservation*:
    /// `rank_to_distance` is monotone non-decreasing, so an argmin/top-k over
    /// ranks is an argmin/top-k over distances (pinned by the
    /// `rank_ordering_matches_distance_ordering` proptest).
    ///
    /// # Panics
    /// Debug builds panic on a negative rank (ranks are sums/maxima of
    /// non-negative terms; a negative one indicates a caller bug that would
    /// silently become `NaN` under L2).
    pub fn rank_to_distance(&self, rank: f64) -> f64 {
        debug_assert!(
            rank >= 0.0 || rank.is_nan(),
            "negative rank {rank} passed to rank_to_distance"
        );
        match self {
            DistanceMetric::Euclidean => rank.sqrt(),
            DistanceMetric::Manhattan | DistanceMetric::Chebyshev => rank,
        }
    }

    /// Distance `|r, s|` between two points.
    pub fn distance(&self, a: &Point, b: &Point) -> f64 {
        self.distance_coords(&a.coords, &b.coords)
    }

    /// Human readable name, used by the benchmark harness when labelling rows.
    pub fn name(&self) -> &'static str {
        match self {
            DistanceMetric::Euclidean => "L2",
            DistanceMetric::Manhattan => "L1",
            DistanceMetric::Chebyshev => "Linf",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(id: u64, coords: &[f64]) -> Point {
        Point::new(id, coords.to_vec())
    }

    #[test]
    fn euclidean_matches_hand_computation() {
        let m = DistanceMetric::Euclidean;
        assert!((m.distance(&p(0, &[0.0, 0.0]), &p(1, &[3.0, 4.0])) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn manhattan_matches_hand_computation() {
        let m = DistanceMetric::Manhattan;
        assert!((m.distance(&p(0, &[1.0, 2.0]), &p(1, &[4.0, -2.0])) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn chebyshev_matches_hand_computation() {
        let m = DistanceMetric::Chebyshev;
        assert!((m.distance(&p(0, &[1.0, 2.0]), &p(1, &[4.0, -2.0])) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(DistanceMetric::Euclidean.name(), "L2");
        assert_eq!(DistanceMetric::Manhattan.name(), "L1");
        assert_eq!(DistanceMetric::Chebyshev.name(), "Linf");
    }

    #[test]
    fn default_is_euclidean() {
        assert_eq!(DistanceMetric::default(), DistanceMetric::Euclidean);
    }

    #[test]
    fn hoisted_kernels_match_dispatch() {
        let a = [1.5, -2.0, 3.25];
        let b = [0.5, 4.0, -1.75];
        for m in [
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Chebyshev,
        ] {
            let d = m.distance_coords(&a, &b);
            assert_eq!((m.kernel())(&a, &b).to_bits(), d.to_bits());
            let rank = (m.rank_kernel())(&a, &b);
            assert_eq!(m.rank_to_distance(rank).to_bits(), d.to_bits());
            // One row is its own three one-row columns.
            let mut tile = [0.0];
            (m.column_rank_kernel())(&a, &b, 1, 0, &mut tile);
            assert_eq!(tile[0].to_bits(), rank.to_bits());
        }
    }

    proptest! {
        /// The invariant the whole rank path leans on: comparing ranks
        /// decides exactly like comparing true distances.  Strict rank order implies non-decreasing distance
        /// order (`sqrt` can collapse adjacent ranks onto one distance);
        /// strict distance order implies strict rank order; equal ranks map
        /// to bit-equal distances.
        #[test]
        fn rank_ordering_matches_distance_ordering(
            a in proptest::collection::vec(-1e3f64..1e3, 1..16),
            b in proptest::collection::vec(-1e3f64..1e3, 1..16),
            c in proptest::collection::vec(-1e3f64..1e3, 1..16),
            d in proptest::collection::vec(-1e3f64..1e3, 1..16),
            which in 0usize..3,
        ) {
            let m = [DistanceMetric::Euclidean, DistanceMetric::Manhattan, DistanceMetric::Chebyshev][which];
            let n = a.len().min(b.len()).min(c.len()).min(d.len());
            let rank = m.rank_kernel();
            let (r1, r2) = (rank(&a[..n], &b[..n]), rank(&c[..n], &d[..n]));
            let (d1, d2) = (m.rank_to_distance(r1), m.rank_to_distance(r2));
            prop_assert_eq!(d1.to_bits(), m.distance_coords(&a[..n], &b[..n]).to_bits());
            if r1 < r2 {
                prop_assert!(d1 <= d2, "rank order {r1} < {r2} but distances {d1} > {d2}");
            }
            if d1 < d2 {
                prop_assert!(r1 < r2, "distance order {d1} < {d2} but ranks {r1} >= {r2}");
            }
            if r1 == r2 {
                prop_assert_eq!(d1.to_bits(), d2.to_bits());
            }
        }

        /// Distance axioms: non-negativity, identity, symmetry, triangle
        /// inequality — these underpin every pruning rule in the paper.
        #[test]
        fn metric_axioms(
            a in proptest::collection::vec(-1e3f64..1e3, 4),
            b in proptest::collection::vec(-1e3f64..1e3, 4),
            c in proptest::collection::vec(-1e3f64..1e3, 4),
            which in 0usize..3,
        ) {
            let m = [DistanceMetric::Euclidean, DistanceMetric::Manhattan, DistanceMetric::Chebyshev][which];
            let dab = m.distance_coords(&a, &b);
            let dba = m.distance_coords(&b, &a);
            let dac = m.distance_coords(&a, &c);
            let dcb = m.distance_coords(&c, &b);
            prop_assert!(dab >= 0.0);
            prop_assert!((dab - dba).abs() < 1e-9);
            prop_assert!(m.distance_coords(&a, &a) < 1e-12);
            // triangle inequality with a small tolerance for fp error
            prop_assert!(dab <= dac + dcb + 1e-9);
        }
    }
}
