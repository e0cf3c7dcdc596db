//! Bounded k-nearest-neighbour accumulators.
//!
//! Both the reducers of the paper's Algorithm 3 and the baseline joins need to
//! maintain "the best `k` candidates seen so far, and the distance of the
//! worst of them" while scanning candidate objects.  [`NeighborList`] keeps
//! those `k` candidates in ascending order, providing exactly that.
//! [`Mask`] names the ids a scan must not offer (deleted objects a frozen
//! structure still holds), fronted by an [`IdFilter`] so that an id outside
//! the set almost always costs one bit test.

use crate::metric::DistanceMetric;
use crate::point::PointId;
use std::cmp::Ordering;

/// A one-hash bit filter over a set of ids: [`IdFilter::might_contain`] is
/// `true` for every id of the set and for about one in sixteen of the rest.
///
/// The table holds ~16 bits per id, rounded up to a power of two (at least
/// one 64-bit word), so it is sized from the set alone.  An id picks its bit
/// by Fibonacci hashing — the top bits of `id · 2⁶⁴/φ` — which spreads runs
/// of consecutive ids over the whole table.
#[derive(Debug, Clone)]
pub struct IdFilter {
    words: Vec<u64>,
    /// `64 − log2(bits)`: the shift that leaves a bit index.
    shift: u32,
}

impl IdFilter {
    /// The filter that holds nothing; [`Self::might_contain`] is `false`
    /// for every id.
    const EMPTY: IdFilter = IdFilter {
        words: Vec::new(),
        shift: 64,
    };

    /// The filter over `ids`, ~16 bits per id.
    pub fn new(ids: &[PointId]) -> Self {
        Self::with_words(ids, (ids.len() * 16).div_ceil(64))
    }

    /// The filter over `ids` in `words` 64-bit words, rounded up to a power
    /// of two; an empty set gets an empty table.
    fn with_words(ids: &[PointId], words: usize) -> Self {
        if ids.is_empty() {
            return Self::EMPTY;
        }
        let words = words.max(1).next_power_of_two();
        let mut filter = Self {
            words: vec![0; words],
            shift: 64 - (words * 64).trailing_zeros(),
        };
        for &id in ids {
            let bit = filter.bit(id);
            filter.words[bit / 64] |= 1 << (bit % 64);
        }
        filter
    }

    /// The bit `id` hashes to; only called on a non-empty table.
    #[inline]
    fn bit(&self, id: PointId) -> usize {
        (id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Whether `id` may be in the set: never `false` for an id that is.
    #[inline]
    pub fn might_contain(&self, id: PointId) -> bool {
        if self.words.is_empty() {
            return false;
        }
        let bit = self.bit(id);
        self.words[bit / 64] >> (bit % 64) & 1 == 1
    }
}

/// The ids a scan must not offer: an ascending run and the [`IdFilter`]
/// built over it.  Membership is the run's binary search, asked only of the
/// ids the filter lets through, so it is exact and a miss costs one bit
/// test.
#[derive(Debug, Clone, Copy)]
pub struct Mask<'a> {
    ids: &'a [PointId],
    filter: &'a IdFilter,
}

impl<'a> Mask<'a> {
    /// The mask of nothing, which unmasked scans pass.
    pub const NONE: Mask<'static> = Mask {
        ids: &[],
        filter: &IdFilter::EMPTY,
    };

    /// The mask of the ascending `ids`; `filter` must be built over them
    /// ([`IdFilter::new`]).
    pub fn new(ids: &'a [PointId], filter: &'a IdFilter) -> Self {
        Self { ids, filter }
    }

    /// Whether `id` is masked.
    #[inline]
    pub fn contains(&self, id: PointId) -> bool {
        self.filter.might_contain(id) && self.ids.binary_search(&id).is_ok()
    }
}

/// A candidate neighbour: the id of an `S` object and its distance to the
/// query object from `R`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Id of the neighbour (an object of `S`).
    pub id: PointId,
    /// Distance from the query object to this neighbour.
    pub distance: f64,
}

impl Neighbor {
    /// Creates a neighbour record.
    pub fn new(id: PointId, distance: f64) -> Self {
        Self { id, distance }
    }
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        // Order primarily by distance; break ties by id so the ordering is total
        // and results are deterministic across runs and algorithms.
        self.distance
            .partial_cmp(&other.distance)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The `k` smallest-distance neighbours seen so far, kept sorted ascending
/// by (distance, id).
///
/// A candidate scan rejects almost every offer, which costs one comparison
/// against the last entry; an admitted one is pushed and shifted down past
/// the larger entries — O(k) moves of a two-word `Copy` value, cheaper than
/// a heap's sift plus the final sort at the `k` a kNN join runs with.
#[derive(Debug, Clone)]
pub struct NeighborList {
    k: usize,
    sorted: Vec<Neighbor>,
}

impl NeighborList {
    /// Creates an empty list bounded at `k` entries.
    ///
    /// # Panics
    /// Panics if `k == 0`: a kNN join with `k = 0` is meaningless.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            sorted: Vec::with_capacity(k),
        }
    }

    /// Empties the list and bounds it at `k` entries, keeping its
    /// allocation and growing it to `k` entries if it is smaller: a loop of
    /// queries reuses one list.
    ///
    /// # Panics
    /// Panics if `k == 0`, as [`Self::new`] does.
    pub fn reset(&mut self, k: usize) {
        assert!(k > 0, "k must be positive");
        self.k = k;
        self.sorted.clear();
        self.sorted.reserve(k);
    }

    /// The neighbours held, ascending by (distance, id).
    pub fn as_slice(&self) -> &[Neighbor] {
        &self.sorted
    }

    /// The bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of neighbours currently held (≤ `k`).
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether no neighbour has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Whether the list already holds `k` neighbours.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.sorted.len() >= self.k
    }

    /// Current pruning threshold θ: the distance of the worst neighbour kept,
    /// or `f64::INFINITY` while fewer than `k` neighbours have been seen.
    ///
    /// This matches line 24 of Algorithm 3: `θ ← max_{o ∈ KNN(r,S)} |o, r|`.
    #[inline]
    pub fn threshold(&self) -> f64 {
        if self.is_full() {
            self.sorted.last().map_or(f64::INFINITY, |n| n.distance)
        } else {
            f64::INFINITY
        }
    }

    /// Offers a candidate; it is kept only if it improves the current kNN set
    /// (strictly closer than the worst neighbour once the list is full, which
    /// then leaves: the largest by (distance, id)).  Returns `true` if the
    /// candidate was inserted.
    #[inline]
    pub fn offer(&mut self, id: PointId, distance: f64) -> bool {
        if self.is_full() {
            if distance < self.threshold() {
                self.sorted.pop();
            } else {
                return false;
            }
        }
        let candidate = Neighbor::new(id, distance);
        self.sorted.push(candidate);
        let mut at = self.sorted.len() - 1;
        while at > 0 && candidate < self.sorted[at - 1] {
            self.sorted[at] = self.sorted[at - 1];
            at -= 1;
        }
        self.sorted[at] = candidate;
        true
    }

    /// Offers the evaluated rows `ids[i]` at rank `ranks[i]` (`metric`'s rank
    /// kernels' output), in order, except those whose id is in `masked`
    /// (deleted objects a frozen structure still holds; [`Mask::NONE`] for
    /// none), and returns how many were masked — the one admission rule of
    /// every candidate scan.
    ///
    /// Once the list is full, a row with `rank ≥ bound` is skipped
    /// unconverted; every other row goes through
    /// [`DistanceMetric::rank_to_distance`] to [`Self::offer`].  The bound is
    /// θ for L1/L∞ (rank = distance) and `max(θ·θ·(1 + 4ε),
    /// f64::MIN_POSITIVE)` for L2, which only skips rows `offer` rejects:
    ///
    /// * in the reals the bound exceeds θ².  For a normal `fl(θ²)` each of
    ///   the two roundings loses at most a factor `1 − 2⁻⁵³`, and `(1 −
    ///   2⁻⁵³)²·(1 + 2⁻⁵⁰) > 1` (overflow gives `+∞`); for a subnormal or
    ///   zero `fl(θ²)`, θ² is below the floor;
    /// * so `rank ≥ bound` gives `√rank > θ`, hence `fl(√rank) ≥ θ`: θ is a
    ///   float and correctly rounded `sqrt` is monotone;
    /// * `offer` admits only distances strictly below θ.
    ///
    /// So θ after every row, every admission and the list's bits are those
    /// of offering every converted row.  While the list is not full the
    /// bound is `NaN`, which no rank reaches: even a `+∞` rank is offered.
    #[inline]
    pub fn offer_ranks(
        &mut self,
        ids: &[PointId],
        ranks: &[f64],
        masked: Mask<'_>,
        metric: DistanceMetric,
    ) -> u64 {
        let mut bound = self.rank_bound(metric);
        let mut masked_met = 0;
        for (&id, &rank) in ids.iter().zip(ranks) {
            if masked.contains(id) {
                masked_met += 1;
                continue;
            }
            if rank >= bound {
                continue;
            }
            if self.offer(id, metric.rank_to_distance(rank)) {
                bound = self.rank_bound(metric);
            }
        }
        masked_met
    }

    /// [`Self::offer_ranks`]' skip bound for the current θ.
    #[inline]
    fn rank_bound(&self, metric: DistanceMetric) -> f64 {
        if !self.is_full() {
            return f64::NAN;
        }
        let theta = self.threshold();
        match metric {
            DistanceMetric::Euclidean => {
                (theta * theta * (1.0 + 4.0 * f64::EPSILON)).max(f64::MIN_POSITIVE)
            }
            DistanceMetric::Manhattan | DistanceMetric::Chebyshev => theta,
        }
    }

    /// Consumes the list and returns the neighbours sorted by ascending
    /// distance (ties broken by id).
    pub fn into_sorted(self) -> Vec<Neighbor> {
        self.sorted
    }

    /// Iterator over the neighbours currently held, ascending.
    pub fn iter(&self) -> impl Iterator<Item = &Neighbor> {
        self.sorted.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    /// The bounded max-heap [`NeighborList`] replaced, kept as the reference
    /// its admission and eviction rules are replayed against.
    struct HeapList {
        k: usize,
        heap: BinaryHeap<Neighbor>,
    }

    impl HeapList {
        fn threshold(&self) -> f64 {
            if self.heap.len() >= self.k {
                self.heap.peek().map_or(f64::INFINITY, |n| n.distance)
            } else {
                f64::INFINITY
            }
        }

        fn offer(&mut self, id: PointId, distance: f64) -> bool {
            if self.heap.len() < self.k {
                self.heap.push(Neighbor::new(id, distance));
                true
            } else if distance < self.threshold() {
                self.heap.pop();
                self.heap.push(Neighbor::new(id, distance));
                true
            } else {
                false
            }
        }

        fn into_sorted(self) -> Vec<Neighbor> {
            let mut v = self.heap.into_vec();
            v.sort_unstable();
            v
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = NeighborList::new(0);
    }

    #[test]
    fn keeps_k_smallest() {
        let mut l = NeighborList::new(3);
        for (id, d) in [(1, 5.0), (2, 1.0), (3, 4.0), (4, 2.0), (5, 3.0)] {
            l.offer(id, d);
        }
        let got: Vec<_> = l.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(got, vec![2, 4, 5]);
    }

    #[test]
    fn threshold_is_infinite_until_full() {
        let mut l = NeighborList::new(2);
        assert_eq!(l.threshold(), f64::INFINITY);
        l.offer(1, 1.0);
        assert_eq!(l.threshold(), f64::INFINITY);
        l.offer(2, 2.0);
        assert_eq!(l.threshold(), 2.0);
        assert!(l.is_full());
    }

    #[test]
    fn rejects_worse_candidates_when_full() {
        let mut l = NeighborList::new(1);
        assert!(l.offer(1, 1.0));
        assert!(!l.offer(2, 2.0));
        assert!(l.offer(3, 0.5));
        assert_eq!(l.into_sorted()[0].id, 3);
    }

    /// The admission rule [`NeighborList::offer_ranks`] replaced, kept as
    /// its reference: every rank converted first, then every unmasked row
    /// offered, masking by binary search alone.
    fn offer_rows(
        list: &mut NeighborList,
        ids: &[PointId],
        ranks: &[f64],
        masked: &[PointId],
        metric: DistanceMetric,
    ) -> u64 {
        let distances: Vec<f64> = ranks.iter().map(|&r| rank_to_distance(r, metric)).collect();
        let mut skipped = 0;
        for (id, &distance) in ids.iter().zip(&distances) {
            if masked.binary_search(id).is_ok() {
                skipped += 1;
            } else {
                list.offer(*id, distance);
            }
        }
        skipped
    }

    /// The reference's conversion, the `sqrt` sweep over a whole tile.
    fn rank_to_distance(rank: f64, metric: DistanceMetric) -> f64 {
        match metric {
            DistanceMetric::Euclidean => rank.sqrt(),
            DistanceMetric::Manhattan | DistanceMetric::Chebyshev => rank,
        }
    }

    #[test]
    fn offer_ranks_offers_all_but_the_masked_ids() {
        let (ids, distances) = ([4, 9, 2, 7], [1.0, 0.5, 3.0, 2.0]);
        let squared = distances.map(|d| d * d);
        for (metric, ranks) in [
            (DistanceMetric::Manhattan, distances),
            (DistanceMetric::Euclidean, squared),
        ] {
            let mut all = NeighborList::new(3);
            assert_eq!(all.offer_ranks(&ids, &ranks, Mask::NONE, metric), 0);
            let got: Vec<_> = all.iter().map(|n| (n.id, n.distance)).collect();
            assert_eq!(got, vec![(9, 0.5), (4, 1.0), (7, 2.0)]);
            // Masked rows are counted, whether or not they would have entered.
            let mut live = NeighborList::new(3);
            let (dead, filter) = ([2, 9, 11], IdFilter::new(&[2, 9, 11]));
            let mask = Mask::new(&dead, &filter);
            assert_eq!(live.offer_ranks(&ids, &ranks, mask, metric), 2);
            let got: Vec<_> = live.iter().map(|n| n.id).collect();
            assert_eq!(got, vec![4, 7]);
        }
    }

    #[test]
    fn a_reset_list_is_a_new_one() {
        let mut list = NeighborList::new(2);
        list.offer(4, 1.0);
        list.offer(5, 0.5);
        list.reset(3);
        assert!(list.is_empty() && list.as_slice().is_empty());
        assert_eq!((list.k(), list.threshold()), (3, f64::INFINITY));
        for (id, d) in [(1, 3.0), (2, 1.0), (3, 2.0), (6, 0.5)] {
            list.offer(id, d);
        }
        let ids: Vec<_> = list.as_slice().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![6, 2, 3]);
    }

    #[test]
    fn an_empty_filter_holds_nothing() {
        let filter = IdFilter::new(&[]);
        assert!(filter.words.is_empty());
        assert!((0..100).all(|id| !filter.might_contain(id)));
        assert!((0..100).all(|id| !Mask::NONE.contains(id)));
        // ~16 bits per id, a power of two of whole words.
        assert_eq!(IdFilter::new(&[7]).words.len(), 1);
        assert_eq!(IdFilter::new(&(0..5).collect::<Vec<_>>()).words.len(), 2);
        assert_eq!(
            IdFilter::new(&(0..500).collect::<Vec<_>>()).words.len(),
            128
        );
    }

    #[test]
    fn deterministic_tie_breaking_by_id() {
        let mut a = NeighborList::new(2);
        a.offer(5, 1.0);
        a.offer(3, 1.0);
        a.offer(9, 1.0);
        let ids: Vec<_> = a.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 5]);
    }

    proptest! {
        /// Any offer sequence — distances drawn from a handful of values so
        /// ties at the threshold are the rule, ids repeating — is admitted,
        /// evicted and thresholded exactly as by the reference heap.
        #[test]
        fn replays_the_reference_heap_offer_for_offer(
            offers in proptest::collection::vec(0u64..72, 1..96),
            k in 1usize..10,
        ) {
            let mut list = NeighborList::new(k);
            let mut reference = HeapList { k, heap: BinaryHeap::new() };
            for offer in offers {
                // Twelve ids at six distances each.
                let (id, distance) = (offer / 6, (offer % 6) as f64 * 0.5);
                prop_assert_eq!(list.offer(id, distance), reference.offer(id, distance));
                prop_assert_eq!(list.threshold(), reference.threshold());
                prop_assert_eq!(list.len(), reference.heap.len());
            }
            prop_assert_eq!(list.into_sorted(), reference.into_sorted());
        }

        /// The accumulator must agree with sorting all candidates and taking
        /// the first k (under the same deterministic tie-breaking).
        #[test]
        fn matches_full_sort(
            dists in proptest::collection::vec(0.0f64..100.0, 1..64),
            k in 1usize..10,
        ) {
            let mut list = NeighborList::new(k);
            for (i, d) in dists.iter().enumerate() {
                list.offer(i as PointId, *d);
            }
            let mut expect: Vec<Neighbor> = dists
                .iter()
                .enumerate()
                .map(|(i, d)| Neighbor::new(i as PointId, *d))
                .collect();
            expect.sort();
            expect.truncate(k);
            prop_assert_eq!(list.into_sorted(), expect);
        }

        /// A mask answers what the binary search over its ids answers, for
        /// ids in and out of the set, whether its filter has ~16 bits per
        /// id or one word for up to 200 ids (where nearly every id
        /// collides); the filter never misses an id of the set.
        #[test]
        fn a_mask_answers_the_binary_search(
            set in proptest::collection::vec(0u64..600, 0..200),
            words in 0usize..3,
            probes in proptest::collection::vec(0u64..700, 1..200),
        ) {
            let mut ids = set;
            ids.sort_unstable();
            ids.dedup();
            let filter = match words {
                0 => IdFilter::new(&ids),
                w => IdFilter::with_words(&ids, w),
            };
            let mask = Mask::new(&ids, &filter);
            for &id in &ids {
                prop_assert!(filter.might_contain(id));
                prop_assert!(mask.contains(id));
            }
            for id in probes {
                prop_assert_eq!(mask.contains(id), ids.binary_search(&id).is_ok(), "id {}", id);
            }
        }

        /// `offer_ranks` is the rule it replaced, tile for tile: after every
        /// tile the list holds the same bits, and the tile masked as many
        /// rows, as converting every rank and offering every unmasked row.
        /// Ranks sit within 8 ulps of a few held distances' own ranks — on
        /// both sides of the skip bound, which sits 4-8 ulps above θ² —
        /// with zeros and `+∞`s mixed in, under every metric, at ordinary
        /// scales and at one where θ² is subnormal.  Masks are filtered at
        /// ~16 bits per id or in one word, where unmasked ids collide with
        /// masked ones.
        #[test]
        fn offer_ranks_replays_the_convert_every_rank_rule(
            draws in proptest::collection::vec(0u64..1 << 16, 1..160),
            tile in 1usize..12,
            k in 1usize..10,
            which_metric in 0usize..3,
            tiny in proptest::bool::ANY,
            masked in proptest::collection::vec(0u64..24, 0..6),
            tiny_filter in proptest::bool::ANY,
        ) {
            let metric = [
                DistanceMetric::Euclidean,
                DistanceMetric::Manhattan,
                DistanceMetric::Chebyshev,
            ][which_metric];
            let scale = if tiny { 1e-160 } else { 1.0 };
            // The 24 ids are scattered over 64 bits: Fibonacci hashing
            // spreads small consecutive ids without a collision even in a
            // one-word filter, scattered ones share its bits.
            let scatter = |n: u64| {
                let z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let mut masked: Vec<PointId> = masked.into_iter().map(scatter).collect();
            masked.sort_unstable();
            masked.dedup();
            let filter = if tiny_filter {
                IdFilter::with_words(&masked, 1)
            } else {
                IdFilter::new(&masked)
            };
            let mask = Mask::new(&masked, &filter);
            let nudged = |x: f64, ulps: i64| f64::from_bits((x.to_bits() as i64 + ulps).max(0) as u64);
            let (ids, ranks): (Vec<PointId>, Vec<f64>) = draws
                .iter()
                .map(|&draw| {
                    let distance = [0.75, 1.5, 3.0, 1.1e-3][(draw >> 5) as usize % 4] * scale;
                    let held = match metric {
                        DistanceMetric::Euclidean => distance * distance,
                        _ => distance,
                    };
                    let rank = match (draw >> 7) % 19 {
                        0 => 0.0,
                        1 => f64::INFINITY,
                        ulps => nudged(held, ulps as i64 - 10),
                    };
                    (scatter(draw % 24), rank)
                })
                .unzip();
            let mut list = NeighborList::new(k);
            let mut reference = NeighborList::new(k);
            for (ids, ranks) in ids.chunks(tile).zip(ranks.chunks(tile)) {
                prop_assert_eq!(
                    list.offer_ranks(ids, ranks, mask, metric),
                    offer_rows(&mut reference, ids, ranks, &masked, metric)
                );
                let bits = |l: &NeighborList| -> Vec<(PointId, u64)> {
                    l.iter().map(|n| (n.id, n.distance.to_bits())).collect()
                };
                prop_assert_eq!(bits(&list), bits(&reference));
            }
        }
    }
}
