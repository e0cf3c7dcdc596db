//! Voronoi-diagram based data partitioning (Section 2.3 / first MapReduce job).
//!
//! Given the selected pivots, every object of `R ∪ S` is assigned to the
//! partition (generalized Voronoi cell) of its closest pivot, together with
//! its distance to that pivot — the distance is shipped with the object and
//! drives all later pruning.  [`VoronoiPartitioner::nearest_pivot`] is the
//! one search every path assigns with, and an exact tie goes to the smallest
//! pivot index.  That departs from footnote 1 of the paper (ties go to the
//! partition currently holding fewer objects): a mapper of the first job sees
//! one object at a time and no global cell sizes, so the footnote's rule
//! cannot run inside the job that does the partitioning.

use geom::{CoordMatrix, DistanceMetric, Point, PointSet};
use std::sync::Arc;

/// The `t × t` pairwise pivot distances in one flat row-major table: row `i`
/// is `|p_i, p_0| … |p_i, p_{t−1}|`.  Computed once, by
/// [`VoronoiPartitioner::new`], and `Arc`-shared from there into the
/// [`crate::SummaryTables`] of every join and probe over those pivots.
#[derive(Debug, Clone, PartialEq)]
pub struct PivotDistances {
    t: usize,
    flat: Vec<f64>,
}

impl PivotDistances {
    fn compute(pivots: &CoordMatrix, metric: DistanceMetric) -> Self {
        let t = pivots.len();
        let kernel = metric.kernel();
        let mut flat = vec![0.0; t * t];
        for i in 0..t {
            for j in (i + 1)..t {
                let d = kernel(pivots.row(i), pivots.row(j));
                flat[i * t + j] = d;
                flat[j * t + i] = d;
            }
        }
        Self { t, flat }
    }

    /// `|p_i, p_j|` for every `j`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.flat[i * self.t..(i + 1) * self.t]
    }

    /// `|p_i, p_j|`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.flat[i * self.t + j]
    }

    /// The rows, in pivot order.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.t).map(|i| self.row(i))
    }
}

/// Assigns objects to generalized Voronoi cells around a fixed pivot set.
///
/// Pivot coordinates are held in a flat [`CoordMatrix`] so the assignment
/// scan walks one contiguous allocation, and the pairwise pivot distances are
/// precomputed once at construction: they power the Elkan-style triangle
/// -inequality pruning of [`VoronoiPartitioner::nearest_pivot`].
#[derive(Debug, Clone)]
pub struct VoronoiPartitioner {
    /// The pivots, row `i` being pivot `i`: the one copy the assignment
    /// search and every [`crate::SummaryTables`] over these pivots read.
    matrix: Arc<CoordMatrix>,
    /// `|p_i, p_j|`, the one copy every bound and scan order reads.
    pair: Arc<PivotDistances>,
    /// The reference pivot `p_r` anchoring the search window: the most
    /// eccentric pivot (maximum summed distance to the others), since an
    /// eccentric reference spreads the `|p_r, p_j|` values and makes the
    /// window bound `|q, p_j| ≥ ||p_r, p_j| − |q, p_r||` more selective.
    ref_pivot: usize,
    /// Pivot indices sorted by distance from the reference pivot, with the
    /// matching distances in `ref_dists`.  [`nearest_pivot`] binary-searches
    /// this list and expands outwards, so pivots pruned by the reference
    /// bound are never even visited.
    ///
    /// [`nearest_pivot`]: VoronoiPartitioner::nearest_pivot
    ref_order: Vec<u32>,
    /// `ref_dists[i] = |p_r, p_{ref_order[i]}|`, ascending.
    ref_dists: Vec<f64>,
    metric: DistanceMetric,
}

/// The outcome of one nearest-pivot search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PivotAssignment {
    /// Index of the closest pivot (smallest index on exact ties).
    pub partition: usize,
    /// Distance to that pivot.
    pub distance: f64,
    /// Point-to-pivot distance computations actually performed.  The
    /// brute-force scan spends exactly `|P|`; the pruned scan usually far
    /// fewer — this is the number that feeds the paper's selectivity
    /// accounting, so it reports what was really spent.
    pub computations: u64,
}

/// A dataset split into Voronoi partitions.
#[derive(Debug, Clone, Default)]
pub struct PartitionedDataset {
    /// `partitions[i]` holds the objects assigned to pivot `i`, each paired
    /// with its distance to that pivot.
    pub partitions: Vec<Vec<(Point, f64)>>,
}

impl PartitionedDataset {
    /// Number of partitions (equals the number of pivots).
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of objects across partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sizes of all partitions.
    pub fn sizes(&self) -> Vec<usize> {
        self.partitions.iter().map(Vec::len).collect()
    }

    /// Descriptive statistics of partition sizes: `(min, max, mean, stddev)`.
    /// These are exactly the columns of Table 2 in the paper.
    pub fn size_statistics(&self) -> (usize, usize, f64, f64) {
        size_statistics(&self.sizes())
    }
}

/// Computes `(min, max, mean, population standard deviation)` of a size
/// distribution; shared by partition statistics (Table 2) and group
/// statistics (Table 3).
pub fn size_statistics(sizes: &[usize]) -> (usize, usize, f64, f64) {
    if sizes.is_empty() {
        return (0, 0, 0.0, 0.0);
    }
    let min = *sizes.iter().min().expect("non-empty");
    let max = *sizes.iter().max().expect("non-empty");
    let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    let var = sizes
        .iter()
        .map(|s| {
            let d = *s as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / sizes.len() as f64;
    (min, max, mean, var.sqrt())
}

impl VoronoiPartitioner {
    /// Creates a partitioner for the given pivots and metric.
    ///
    /// Builds the flat pivot [`CoordMatrix`] and the `|P|²` pairwise pivot
    /// distance table the pruned assignment relies on — the same
    /// [`PivotDistances`] the summary tables then share.
    ///
    /// # Panics
    /// Panics if `pivots` is empty.
    pub fn new(pivots: Vec<Point>, metric: DistanceMetric) -> Self {
        assert!(!pivots.is_empty(), "need at least one pivot");
        let matrix = CoordMatrix::from_points(&pivots);
        let t = matrix.len();
        let pair = PivotDistances::compute(&matrix, metric);
        let row_sums: Vec<f64> = pair.rows().map(|row| row.iter().sum()).collect();
        let ref_pivot = (0..t)
            .max_by(|&a, &b| {
                row_sums[a]
                    .partial_cmp(&row_sums[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("at least one pivot");
        let ref_row = pair.row(ref_pivot);
        let mut ref_order: Vec<u32> = (0..t as u32).collect();
        ref_order.sort_by(|&a, &b| {
            ref_row[a as usize]
                .partial_cmp(&ref_row[b as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let ref_dists: Vec<f64> = ref_order.iter().map(|&j| ref_row[j as usize]).collect();
        Self {
            matrix: Arc::new(matrix),
            pair: Arc::new(pair),
            ref_pivot,
            ref_order,
            ref_dists,
            metric,
        }
    }

    /// The pairwise pivot distances behind their shared handle.
    pub(crate) fn pivot_distances(&self) -> &Arc<PivotDistances> {
        &self.pair
    }

    /// The pivot coordinates in flat row-major storage, behind their shared
    /// handle.
    pub fn pivot_matrix(&self) -> &Arc<CoordMatrix> {
        &self.matrix
    }

    /// The number of partitions.
    pub fn partition_count(&self) -> usize {
        self.matrix.len()
    }

    /// The metric used for assignment.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// Finds the closest pivot of the query, pruning candidates with the
    /// triangle inequality applied to the precomputed pivot-pivot table:
    ///
    /// * **Reference window** — with `d_r = |q, p_r|` to the reference pivot
    ///   in hand, every pivot satisfies `|q, p_j| ≥ ||p_r, p_j| − d_r|`, so
    ///   only pivots whose distance from `p_r` falls inside
    ///   `(d_r − best, d_r + best)` can beat the current best.  Pivots are
    ///   pre-sorted by `|p_r, p_j|`, so the
    ///   search binary-searches to `d_0` and expands outwards, stopping each
    ///   direction as soon as the bound exceeds the shrinking best distance —
    ///   pruned pivots are never visited at all.
    /// * **Elkan bound on the running best** — a surviving candidate `p_j` is
    ///   still skipped when `|p_b, p_j| ≥ 2·d_b` for the best-so-far pivot
    ///   `p_b` (then `|q, p_j| ≥ |p_b, p_j| − d_b ≥ d_b` cannot win).
    ///
    /// Surviving candidates are compared in rank space (squared distances
    /// under L2 — no `sqrt`, no enum dispatch).  They are computed with the
    /// full (non-early-exit) kernels: the window and Elkan bounds have
    /// already discarded the far candidates a partial-sum exit would have
    /// saved, and an unconditional kernel body measures faster than one with
    /// a bound check in the middle.  Exact ties at the pruning boundary are
    /// deliberately *not* skipped (both rules fire strictly), so the result
    /// is the same `(pivot index, distance)` as the brute-force argmin —
    /// smallest index on exact ties — together with the number of distance
    /// computations *actually* spent (it used to be reported as "always
    /// `|P|`"; see [`PivotAssignment::computations`]).
    pub fn nearest_pivot(&self, query: &[f64]) -> PivotAssignment {
        // One dispatch per query; each arm monomorphizes the search with the
        // metric's kernels inlined into the candidate loop.
        match self.metric {
            DistanceMetric::Euclidean => {
                self.nearest_pivot_impl(query, geom::kernels::squared_euclidean, f64::sqrt)
            }
            DistanceMetric::Manhattan => {
                self.nearest_pivot_impl(query, geom::kernels::manhattan, |r| r)
            }
            DistanceMetric::Chebyshev => {
                self.nearest_pivot_impl(query, geom::kernels::chebyshev, |r| r)
            }
        }
    }

    /// The monomorphized search behind [`VoronoiPartitioner::nearest_pivot`]:
    /// `rank_full` computes the metric's comparison rank and `to_distance`
    /// converts a rank back to a true distance.
    // The final `flush!` expansion leaves its state updates dead, which is
    // inherent to reusing the macros for both walk directions.
    #[allow(unused_assignments)]
    #[inline]
    fn nearest_pivot_impl(
        &self,
        query: &[f64],
        rank_full: impl Fn(&[f64], &[f64]) -> f64,
        to_distance: impl Fn(f64) -> f64,
    ) -> PivotAssignment {
        let matrix: &CoordMatrix = &self.matrix;
        let t = matrix.len();
        let mut best = self.ref_pivot;
        let mut best_rank = rank_full(query, matrix.row(best));
        let mut best_d = to_distance(best_rank);
        let mut computations = 1u64;
        if t == 1 {
            return PivotAssignment {
                partition: 0,
                distance: best_d,
                computations,
            };
        }
        let d0 = best_d;
        let ref_dists = &self.ref_dists[..t];
        let ref_order = &self.ref_order[..t];
        // Branchless lower bound: first position with `ref_dists[pos] >= d0`.
        let pos = {
            let mut left = 0usize;
            let mut size = t;
            while size > 1 {
                let half = size / 2;
                let mid = left + half;
                left = if ref_dists[mid] < d0 { mid } else { left };
                size -= half;
            }
            left + usize::from(ref_dists[left] < d0)
        };
        // Walk the reference-sorted pivots outwards from d0, one monotone
        // direction at a time; each stops once its reference bound passes the
        // shrinking best distance.  The reference pivot is already computed;
        // the Elkan bound against the running best is strict, so exact ties
        // are still computed and resolved towards the smaller index (the
        // reference may start as `best` with a non-minimal index, but any
        // equal-or-better candidate later replaces it through the same
        // rules).  Surviving candidates are computed two at a time: each
        // distance still accumulates left-to-right on its own
        // (bit-identical), but the two chains are independent, so the CPU
        // overlaps them.
        let mut elkan_row = self.pair.row(best);
        // Bounds hoisted out of the per-visit checks; refreshed on update.
        let mut two_best = 2.0 * best_d;
        let mut win_lo = d0 - best_d;
        let mut win_hi = d0 + best_d;
        macro_rules! resolve {
            ($j:expr, $rank:expr) => {
                if $rank < best_rank || ($rank == best_rank && $j < best) {
                    best_rank = $rank;
                    best = $j;
                    best_d = to_distance($rank);
                    elkan_row = self.pair.row(best);
                    two_best = 2.0 * best_d;
                    win_lo = d0 - best_d;
                    win_hi = d0 + best_d;
                }
            };
        }
        const NONE: usize = usize::MAX;
        let mut pending = NONE;
        let ref_pivot = self.ref_pivot;
        macro_rules! admit {
            ($cand:expr) => {
                let j = $cand;
                if j != ref_pivot && elkan_row[j] <= two_best {
                    if pending == NONE {
                        pending = j;
                    } else {
                        let j1 = pending;
                        pending = NONE;
                        let r1 = rank_full(query, matrix.row(j1));
                        let r2 = rank_full(query, matrix.row(j));
                        computations += 2;
                        resolve!(j1, r1);
                        resolve!(j, r2);
                    }
                }
            };
        }
        macro_rules! flush {
            () => {
                if pending != NONE {
                    let r = rank_full(query, matrix.row(pending));
                    computations += 1;
                    resolve!(pending, r);
                    pending = NONE;
                }
            };
        }
        for i in pos..t {
            if ref_dists[i] > win_hi {
                break;
            }
            admit!(ref_order[i] as usize);
        }
        flush!();
        for i in (0..pos).rev() {
            if ref_dists[i] < win_lo {
                break;
            }
            admit!(ref_order[i] as usize);
        }
        flush!();
        PivotAssignment {
            partition: best,
            distance: best_d,
            computations,
        }
    }

    /// The unpruned reference scan: computes all `|P|` pivot distances.  Kept
    /// as the correctness oracle the pruned-search tests compare
    /// [`VoronoiPartitioner::nearest_pivot`] against.
    ///
    /// The argmin runs in the same rank space as the pruned search (squared
    /// distances under L2): `sqrt` is monotone but can collapse two ranks a
    /// single ulp apart onto the same distance double, so comparing in one
    /// domain everywhere is what makes the two paths agree *exactly*, ties
    /// included.
    pub fn nearest_pivot_bruteforce(&self, query: &[f64]) -> PivotAssignment {
        let rank_kernel = self.metric.rank_kernel();
        let mut best = 0usize;
        let mut best_rank = f64::INFINITY;
        for (i, row) in self.matrix.rows().enumerate() {
            let rank = rank_kernel(query, row);
            if rank < best_rank {
                best_rank = rank;
                best = i;
            }
        }
        PivotAssignment {
            partition: best,
            distance: self.metric.rank_to_distance(best_rank),
            computations: self.matrix.len() as u64,
        }
    }

    /// Partitions a whole dataset: one [`VoronoiPartitioner::nearest_pivot`]
    /// per object, each bucket in input order.
    pub fn partition(&self, data: &PointSet) -> PartitionedDataset {
        let mut partitions: Vec<Vec<(Point, f64)>> = vec![Vec::new(); self.matrix.len()];
        for p in data {
            let assignment = self.nearest_pivot(&p.coords);
            partitions[assignment.partition].push((p.clone(), assignment.distance));
        }
        PartitionedDataset { partitions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::uniform;
    use proptest::prelude::*;

    fn pivots_2d() -> Vec<Point> {
        vec![
            Point::new(0, vec![0.0, 0.0]),
            Point::new(1, vec![10.0, 0.0]),
            Point::new(2, vec![0.0, 10.0]),
        ]
    }

    #[test]
    fn nearest_pivot_picks_closest_pivot() {
        let part = VoronoiPartitioner::new(pivots_2d(), DistanceMetric::Euclidean);
        assert_eq!(part.nearest_pivot(&[1.0, 1.0]).partition, 0);
        assert_eq!(part.nearest_pivot(&[9.0, 1.0]).partition, 1);
        assert_eq!(part.nearest_pivot(&[1.0, 9.0]).partition, 2);
        let d = part.nearest_pivot(&[3.0, 4.0]).distance;
        assert!((d - 5.0).abs() < 1e-12);
    }

    #[test]
    fn partition_is_a_disjoint_cover() {
        let data = uniform(500, 2, 10.0, 3);
        let part = VoronoiPartitioner::new(pivots_2d(), DistanceMetric::Euclidean);
        let pd = part.partition(&data);
        assert_eq!(pd.partition_count(), 3);
        assert_eq!(pd.len(), 500);
        // No object appears twice.
        let mut seen = std::collections::HashSet::new();
        for bucket in &pd.partitions {
            for (p, d) in bucket {
                assert!(seen.insert(p.id), "object {} assigned twice", p.id);
                assert!(*d >= 0.0);
            }
        }
    }

    #[test]
    fn each_object_is_with_its_nearest_pivot() {
        let data = uniform(200, 2, 10.0, 5);
        let pivots = pivots_2d();
        let metric = DistanceMetric::Euclidean;
        let part = VoronoiPartitioner::new(pivots.clone(), metric);
        let pd = part.partition(&data);
        for (i, bucket) in pd.partitions.iter().enumerate() {
            for (p, d) in bucket {
                let min_d = pivots
                    .iter()
                    .map(|pv| metric.distance(p, pv))
                    .fold(f64::INFINITY, f64::min);
                assert!((min_d - d).abs() < 1e-9);
                assert!((metric.distance(p, &pivots[i]) - min_d).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ties_go_to_the_lower_pivot_index() {
        // Two pivots symmetric about x = 0; every object on the axis is
        // equidistant, and the one tie rule sends them all to pivot 0.
        let pivots = vec![
            Point::new(0, vec![-1.0, 0.0]),
            Point::new(1, vec![1.0, 0.0]),
        ];
        let part = VoronoiPartitioner::new(pivots, DistanceMetric::Euclidean);
        let data = PointSet::from_coords((0..10).map(|i| vec![0.0, i as f64]).collect());
        let pd = part.partition(&data);
        assert_eq!(pd.sizes(), [10, 0]);
    }

    #[test]
    fn size_statistics_match_hand_computation() {
        let (min, max, avg, dev) = size_statistics(&[2, 4, 6]);
        assert_eq!((min, max), (2, 6));
        assert!((avg - 4.0).abs() < 1e-12);
        assert!((dev - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(size_statistics(&[]), (0, 0, 0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one pivot")]
    fn empty_pivots_panic() {
        let _ = VoronoiPartitioner::new(Vec::new(), DistanceMetric::Euclidean);
    }

    #[test]
    fn nearest_pivot_reports_actual_computations() {
        // Well-separated pivots + a query close to one of them: the triangle
        // inequality must rule out most pivots without computing them.
        let pivots: Vec<Point> = uniform(64, 3, 1000.0, 17).into_points();
        let part = VoronoiPartitioner::new(pivots, DistanceMetric::Euclidean);
        let data = uniform(200, 3, 1000.0, 18);
        let mut total = 0u64;
        for p in &data {
            let a = part.nearest_pivot(&p.coords);
            assert!(a.computations >= 1);
            assert!(a.computations <= 64);
            total += a.computations;
        }
        assert!(
            total < 200 * 64,
            "pruned assignment spent the full |P| budget ({total} computations) — no pruning"
        );
        // The brute-force oracle always reports exactly |P|.
        let brute = part.nearest_pivot_bruteforce(&data.points()[0].coords);
        assert_eq!(brute.computations, 64);
    }

    #[test]
    fn pruned_and_bruteforce_agree_on_lattice_ties() {
        // Symmetric lattice: exact distance ties between pivots exercise the
        // `>=` skip rule at equality.
        let pivots = vec![
            Point::new(0, vec![-1.0, 0.0]),
            Point::new(1, vec![1.0, 0.0]),
            Point::new(2, vec![0.0, 2.0]),
        ];
        for metric in [
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Chebyshev,
        ] {
            let part = VoronoiPartitioner::new(pivots.clone(), metric);
            for y in -3..=3 {
                for x in -3..=3 {
                    let q = [x as f64, y as f64];
                    let brute = part.nearest_pivot_bruteforce(&q);
                    let pruned = part.nearest_pivot(&q);
                    let alone = part.partition(&PointSet::from_coords(vec![q.to_vec()]));
                    let cell = alone
                        .sizes()
                        .iter()
                        .position(|&n| n == 1)
                        .expect("one cell");
                    for (subject, cell, dist) in [
                        ("nearest_pivot", pruned.partition, pruned.distance),
                        ("partition", cell, alone.partitions[cell][0].1),
                    ] {
                        assert_eq!(cell, brute.partition, "{subject} {metric:?} at {q:?}");
                        assert_eq!(
                            dist.to_bits(),
                            brute.distance.to_bits(),
                            "{subject} {metric:?} at {q:?}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The pruned scan must return the *identical* `(pivot, distance)` as
        /// the brute-force argmin for every metric — pruning may only skip
        /// pivots that provably cannot win.
        #[test]
        fn pruned_nearest_pivot_equals_bruteforce(
            n_pivots in 1usize..48,
            n_queries in 1usize..40,
            dims in 1usize..6,
            seed in 0u64..1000,
            which in 0usize..3,
        ) {
            let metric = [
                DistanceMetric::Euclidean,
                DistanceMetric::Manhattan,
                DistanceMetric::Chebyshev,
            ][which];
            let pivots: Vec<Point> = uniform(n_pivots, dims, 100.0, seed).into_points();
            let part = VoronoiPartitioner::new(pivots, metric);
            for q in &uniform(n_queries, dims, 100.0, seed ^ 0x1234) {
                let pruned = part.nearest_pivot(&q.coords);
                let brute = part.nearest_pivot_bruteforce(&q.coords);
                prop_assert_eq!(pruned.partition, brute.partition);
                prop_assert_eq!(pruned.distance.to_bits(), brute.distance.to_bits());
                prop_assert!(pruned.computations <= brute.computations);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// `partition` puts every object in the cell, and at the distance
        /// bits, the exhaustive scan gives.
        #[test]
        fn pruned_partitioning_matches_exhaustive_semantics(
            n in 1usize..150,
            n_pivots in 1usize..16,
            seed in 0u64..300,
            which in 0usize..3,
        ) {
            let metric = [
                DistanceMetric::Euclidean,
                DistanceMetric::Manhattan,
                DistanceMetric::Chebyshev,
            ][which];
            let data = uniform(n, 3, 100.0, seed);
            let pivots: Vec<Point> = uniform(n_pivots, 3, 100.0, seed ^ 0xbeef).into_points();
            let part = VoronoiPartitioner::new(pivots, metric);
            let pd = part.partition(&data);
            prop_assert_eq!(pd.len(), n);
            for (i, bucket) in pd.partitions.iter().enumerate() {
                for (p, d) in bucket {
                    let brute = part.nearest_pivot_bruteforce(&p.coords);
                    prop_assert_eq!(brute.partition, i);
                    prop_assert_eq!(brute.distance.to_bits(), d.to_bits());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn partitioning_preserves_every_object(
            n in 1usize..300,
            n_pivots in 1usize..20,
            seed in 0u64..500,
        ) {
            let data = uniform(n, 3, 100.0, seed);
            let pivots: Vec<Point> = uniform(n_pivots, 3, 100.0, seed ^ 0xabc).into_points();
            let part = VoronoiPartitioner::new(pivots, DistanceMetric::Euclidean);
            let pd = part.partition(&data);
            prop_assert_eq!(pd.len(), n);
            prop_assert_eq!(pd.partition_count(), n_pivots);
            let mut ids: Vec<u64> = pd
                .partitions
                .iter()
                .flat_map(|b| b.iter().map(|(p, _)| p.id))
                .collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..n as u64).collect::<Vec<_>>());
        }
    }
}
