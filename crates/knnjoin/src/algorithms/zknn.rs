//! H-zkNNJ — the z-value-based *approximate* kNN join (Zhang, Li, Jestes;
//! EDBT 2012), the third competitor of the paper's evaluation and the only
//! one trading exactness for speed.
//!
//! The idea: map every object to a one-dimensional *z-value* (bit-interleaved
//! quantized coordinates, [`geom::zorder`]), where spatial proximity mostly
//! survives.  A kNN query then becomes a scan of the nearest z-values — a
//! window of `z_window · k` on each side of the query's position in z-order
//! (the EDBT paper uses `z_window = 1`, i.e. the 2k z-neighbours) — instead
//! of a scan of `S`.  Because the z-curve has seams, the whole join is
//! repeated over `α` randomly shifted copies of the data (`shift_copies`) and
//! the per-copy candidates are merged, keeping the *exact-over-candidates*
//! top-`k`: every reported distance is a true distance, only the candidate
//! sets are approximate.
//!
//! As two MapReduce jobs:
//!
//! 1. **`zknn-join`** — each shifted copy of `R ∪ S` is sorted by z-value and
//!    range-partitioned into `n` balanced slabs (boundaries are computed
//!    driver-side from the full sort; the paper estimates them from a sample
//!    and then copies the `k` boundary records between adjacent partitions —
//!    here the `S` slabs are *padded* by the candidate window on each side
//!    directly, which replicates exactly those boundary records).  Each
//!    reducer sorts its slab's `S` subset by z-value and answers every local
//!    `r` from its z-window, computing true distances to the candidates.
//! 2. **`merge`** — the merge job shared with H-BRJ/PBJ, under
//!    [`merge_distinct_candidates`]: the `α` partial candidate lists of every
//!    `r` fold into the final top-`k` in one reducer call per `r`, with no
//!    map-side pass.
//!
//! Cost structure: `O(α·|R∪S|)` shuffled records and at most
//! `α·2·z_window·k` distance computations per `R` object — a constant per
//! object, far below the exact algorithms — at the price of recall < 1 when
//! a true neighbour is z-far in every shifted copy.
//! [`crate::result::QualityReport`] measures exactly that trade.

use crate::algorithms::blocks::run_merge_job;
use crate::algorithms::common::{
    raw_inputs, CellRun, PartialList, ScanKernels, ShuffleRecord, TileScratch,
};
use crate::context::ExecutionContext;
use crate::exact::FlatBlock;
use crate::metrics::{phases, Count, JoinMetrics, Tally};
use crate::plan::JoinPlan;
use crate::result::{JoinError, JoinRow};
use geom::zorder::{random_shifts, ZQuantizer, ZValue, MAX_Z_BITS};
use geom::{Mask, NeighborList, PointId, PointSet, RecordKind};
use mapreduce::{IdentityPartitioner, JobBuilder, MapContext, Mapper, ReduceContext, Reducer};
use std::sync::Arc;
use std::time::Instant;

/// Grid bits per dimension of the z-value quantization: 16 — plenty for the
/// paper's workloads — wherever the interleaved value fits, and as many as
/// fit its [`MAX_Z_BITS`] beyond 16 dimensions.
fn z_bits(dims: usize) -> u32 {
    (MAX_Z_BITS / dims as u32).min(16)
}

/// Rejects a dimensionality no z-value can interleave — none, or more than
/// one bit each fits: the one H-zkNNJ rule that depends on the data, checked
/// at planning time and again by the cold driver (a hand-built plan never
/// went through planning).
pub(crate) fn check_z_bits(dims: usize) -> Result<(), JoinError> {
    if dims == 0 || dims as u32 > MAX_Z_BITS {
        return Err(JoinError::InvalidConfig(format!(
            "H-zkNNJ interleaves 1..={MAX_Z_BITS} dims into its z-value (got {dims})"
        )));
    }
    Ok(())
}

/// Runs cold H-zkNNJ for a validated `plan` over validated inputs.
pub(crate) fn join(
    plan: &JoinPlan,
    r: &PointSet,
    s: &PointSet,
    ctx: &ExecutionContext,
    metrics: &mut JoinMetrics,
) -> Result<Vec<JoinRow>, JoinError> {
    check_z_bits(r.dims())?;
    let k = plan.k;

    // ---- Driver: quantizer, shifts and slab boundaries ---------------------
    let start = Instant::now();
    let shared = Arc::new(ZknnShared::build(r, s, plan));
    metrics.record_phase(phases::DATA_PARTITIONING, start.elapsed());

    // ---- Job 1: per-copy z-order slabs, 2k z-neighbour candidates ----------
    let input = raw_inputs(r, s);
    let start = Instant::now();
    let tally = Tally::default();
    let join_job = JobBuilder::new("zknn-join")
        .reducers(shared.copies.len() * shared.slabs)
        .map_tasks(plan.map_tasks)
        .workers(ctx.workers())
        .run_with_partitioner(
            input,
            &ZRouteMapper {
                shared: Arc::clone(&shared),
                tally: &tally,
            },
            &ZSlabReducer {
                shared: Arc::clone(&shared),
                k,
                kernels: ScanKernels::new(plan.metric),
                tally: &tally,
            },
            &IdentityPartitioner,
        )
        .map_err(|e| JoinError::substrate("zknn-join", e))?;
    metrics.record_phase(phases::KNN_JOIN, start.elapsed());
    metrics.absorb_job(&join_job.metrics);
    metrics.absorb_tally(tally);

    // ---- Job 2: merge the per-copy candidate lists -------------------------
    let (runs, workers) = (&join_job.output, ctx.workers());
    run_merge_job(runs, plan, workers, merge_distinct_candidates, metrics)
}

/// One shifted copy's range partitioning: the slab cut points over `R ∪ S`
/// z-values, and the `k`-rank-padded z-window of `S` records each slab
/// additionally receives (the boundary replicas of the EDBT paper).
#[derive(Debug, Clone)]
struct CopySlabs {
    /// Ascending cut z-values; a z belongs to slab `#cuts ≤ z`.
    cuts: Vec<ZValue>,
    /// Per slab: smallest S z-value the (padded) slab receives.
    pad_lo: Vec<ZValue>,
    /// Per slab: largest S z-value the (padded) slab receives.
    pad_hi: Vec<ZValue>,
}

/// Everything the mapper and reducer share: the quantizer, the shift
/// vectors, and each copy's slab boundaries.
#[derive(Debug)]
struct ZknnShared {
    quantizer: ZQuantizer,
    shifts: Vec<Vec<f64>>,
    slabs: usize,
    /// Candidate z-neighbours per side: `z_window · k`.
    window: usize,
    copies: Vec<CopySlabs>,
}

impl ZknnShared {
    /// Computes the quantization domain over `R ∪ S`, the seeded shift
    /// vectors and per-copy balanced slab boundaries from the data
    /// (driver-side preprocessing; the shuffled work stays in the MapReduce
    /// jobs).
    fn build(r: &PointSet, s: &PointSet, plan: &JoinPlan) -> ZknnShared {
        let dims = r.dims();
        let mut mins = vec![f64::INFINITY; dims];
        let mut maxs = vec![f64::NEG_INFINITY; dims];
        for p in r.iter().chain(s.iter()) {
            for d in 0..dims {
                mins[d] = mins[d].min(p.coords[d]);
                maxs[d] = maxs[d].max(p.coords[d]);
            }
        }
        let widths: Vec<f64> = mins.iter().zip(&maxs).map(|(lo, hi)| hi - lo).collect();
        let quantizer = ZQuantizer::new(&mins, &maxs, z_bits(dims))
            .expect("dims validated against the z-value before build");
        let shifts = random_shifts(&widths, plan.shift_copies, plan.seed);
        // Spread the reducer budget over the copies, at least one slab each.
        let slabs = (plan.reducers / plan.shift_copies).max(1);
        let window = plan.z_window.saturating_mul(plan.k);

        let copies = shifts
            .iter()
            .map(|shift| {
                let mut all_z: Vec<ZValue> = r
                    .iter()
                    .chain(s.iter())
                    .map(|p| quantizer.z_value(&p.coords, Some(shift)))
                    .collect();
                let mut s_z: Vec<ZValue> = s
                    .iter()
                    .map(|p| quantizer.z_value(&p.coords, Some(shift)))
                    .collect();
                all_z.sort_unstable();
                s_z.sort_unstable();
                // Balanced slabs over the combined sort: cut j sits at rank
                // (j+1)·n/slabs.
                let n = all_z.len();
                let cuts: Vec<ZValue> = (1..slabs).map(|j| all_z[j * n / slabs]).collect();
                let mut pad_lo = Vec::with_capacity(slabs);
                let mut pad_hi = Vec::with_capacity(slabs);
                for j in 0..slabs {
                    // S ranks covered by slab j, then padded by the candidate
                    // window on each side so boundary objects keep their full
                    // window.
                    let lo = if j == 0 {
                        0
                    } else {
                        s_z.partition_point(|z| *z < cuts[j - 1])
                    };
                    let hi = if j + 1 == slabs {
                        s_z.len()
                    } else {
                        s_z.partition_point(|z| *z < cuts[j])
                    };
                    let plo = lo.saturating_sub(window);
                    let phi = (hi + window).min(s_z.len());
                    pad_lo.push(if plo == 0 { ZValue::MIN } else { s_z[plo] });
                    pad_hi.push(if phi == s_z.len() {
                        ZValue::MAX
                    } else {
                        s_z[phi - 1]
                    });
                }
                CopySlabs {
                    cuts,
                    pad_lo,
                    pad_hi,
                }
            })
            .collect();

        ZknnShared {
            quantizer,
            shifts,
            slabs,
            window,
            copies,
        }
    }

    /// The z-value of `coords` in shifted copy `copy`.
    fn z(&self, copy: usize, coords: &[f64]) -> ZValue {
        self.quantizer.z_value(coords, Some(&self.shifts[copy]))
    }

    /// The slab of a z-value within one copy.
    fn slab_of(&self, copy: usize, z: ZValue) -> usize {
        self.copies[copy].cuts.partition_point(|c| *c <= z)
    }
}

/// Mapper of job 1: for every shifted copy, route each `R` record to its
/// z-slab and each `S` record to every slab whose padded z-window contains it
/// (its own slab plus, near boundaries, the neighbour it pads).
struct ZRouteMapper<'a> {
    shared: Arc<ZknnShared>,
    tally: &'a Tally,
}

impl<'a> Mapper for ZRouteMapper<'a> {
    type KIn = u64;
    type VIn = ShuffleRecord<'a>;
    type KOut = u32;
    type VOut = ShuffleRecord<'a>;

    fn map(&self, _key: &u64, value: &Self::VIn, ctx: &mut MapContext<u32, Self::VOut>) {
        let slabs = self.shared.slabs;
        let mut replicas = 0;
        for copy in 0..self.shared.copies.len() {
            let z = self.shared.z(copy, &value.point.coords);
            match value.kind {
                RecordKind::R => {
                    let slab = self.shared.slab_of(copy, z);
                    replicas += 1;
                    ctx.emit((copy * slabs + slab) as u32, *value);
                }
                RecordKind::S => {
                    let bounds = &self.shared.copies[copy];
                    for slab in 0..slabs {
                        if z >= bounds.pad_lo[slab] && z <= bounds.pad_hi[slab] {
                            replicas += 1;
                            ctx.emit((copy * slabs + slab) as u32, *value);
                        }
                    }
                }
            }
        }
        self.tally.add(Count::Shuffled(value.kind), replicas);
    }
}

/// Reducer of job 1, one per (copy, slab): sort the received `S` subset into
/// a [`SortedCopy`] and answer every local `r` from the candidate window
/// around its z-position — `z_window · k` preceding and following — with
/// true distances.
struct ZSlabReducer<'a> {
    shared: Arc<ZknnShared>,
    k: usize,
    kernels: ScanKernels,
    tally: &'a Tally,
}

impl<'a> Reducer for ZSlabReducer<'a> {
    type KIn = u32;
    type VIn = ShuffleRecord<'a>;
    type KOut = u32;
    type VOut = CellRun;

    fn reduce(
        &self,
        key: &u32,
        values: &[ShuffleRecord<'a>],
        ctx: &mut ReduceContext<u32, CellRun>,
    ) {
        let copy = *key as usize / self.shared.slabs;
        let r_count = ShuffleRecord::of_kind(values, RecordKind::R).count();
        if r_count == 0 {
            return;
        }
        let slab = SortedCopy::sorted(
            ShuffleRecord::of_kind(values, RecordKind::S).map(|s| (s.id, s.coords.as_slice())),
            |coords| self.shared.z(copy, coords),
        );
        let mut run = CellRun::with_capacity(r_count, self.k.min(slab.z.len()));
        let mut scratch = TileScratch::new();
        let mut list = NeighborList::new(self.k);
        let mut computations = 0;
        for r in ShuffleRecord::of_kind(values, RecordKind::R) {
            let z_r = self.shared.z(copy, &r.coords);
            list.reset(self.k);
            computations += slab.scan_window(
                &r.coords,
                z_r,
                self.shared.window,
                &self.kernels,
                &mut scratch,
                &mut list,
            );
            run.push(r.id, list.as_slice());
        }
        self.tally.add(Count::Distances, computations);
        ctx.emit(*key, run);
    }
}

/// Merges per-copy candidate lists into the `k` best *distinct* `S` objects.
///
/// Unlike the block algorithms' merge (where every `(r, s)` pair meets in
/// exactly one reducer cell), H-zkNNJ can find the same `S` object in several
/// shifted copies; keeping duplicates would crowd distinct candidates out of
/// the top-`k`.
pub(crate) fn merge_distinct_candidates(
    lists: &[PartialList<'_>],
    k: usize,
) -> Vec<geom::Neighbor> {
    // BTreeMap (not HashMap): the bounded list breaks exact-distance ties by
    // arrival order, so candidates must be offered in a deterministic (id)
    // order or equal-distance survivors would vary run to run.
    let mut best: std::collections::BTreeMap<PointId, f64> = std::collections::BTreeMap::new();
    for list in lists {
        for n in list.0 {
            best.entry(n.id)
                .and_modify(|d| *d = d.min(n.distance))
                .or_insert(n.distance);
        }
    }
    let mut acc = NeighborList::new(k);
    for (id, distance) in best {
        acc.offer(id, distance);
    }
    acc.into_sorted()
}

/// One slab's `S` objects sorted by `(z-value, id)`: the z-values, and the
/// rows as a [`FlatBlock`] in the same order — the windows its `R` objects
/// scan.
#[derive(Debug)]
struct SortedCopy {
    z: Vec<ZValue>,
    rows: FlatBlock,
}

impl SortedCopy {
    /// Sorts `(id, coords)` entries by `(z_of(coords), id)`: the id tiebreak
    /// makes the candidate windows deterministic when z-values collide
    /// (duplicate or grid-coincident points).
    fn sorted<'p>(
        entries: impl Iterator<Item = (PointId, &'p [f64])>,
        z_of: impl Fn(&[f64]) -> ZValue,
    ) -> Self {
        let mut entries: Vec<(ZValue, PointId, &[f64])> = entries
            .map(|(id, coords)| (z_of(coords), id, coords))
            .collect();
        entries.sort_unstable_by_key(|(z, id, _)| (*z, *id));
        Self {
            z: entries.iter().map(|(z, _, _)| *z).collect(),
            rows: FlatBlock::new(entries.iter().map(|(_, id, row)| (*id, *row))),
        }
    }

    /// Offers the candidate z-window around `z_r`'s insertion position —
    /// `window` predecessors and `window` successors, one contiguous run of
    /// sorted rows — into `list` with true distances, returning the number
    /// of rows evaluated.
    fn scan_window(
        &self,
        query: &[f64],
        z_r: ZValue,
        window: usize,
        kernels: &ScanKernels,
        scratch: &mut TileScratch,
        list: &mut NeighborList,
    ) -> u64 {
        let pos = self.z.partition_point(|z| *z < z_r);
        let rows = pos.saturating_sub(window)..(pos + window).min(self.z.len());
        self.rows
            .offer(query, rows.clone(), Mask::NONE, kernels, scratch, list);
        rows.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testing::run;
    use crate::exact::NestedLoopJoin;
    use crate::Algorithm::Zknn;
    use crate::JoinBuilder;
    use datagen::{gaussian_clusters, uniform, ClusterConfig};
    use geom::DistanceMetric;
    use proptest::prelude::*;

    const EUCLIDEAN: DistanceMetric = DistanceMetric::Euclidean;

    fn clustered(n: usize, dims: usize, seed: u64) -> PointSet {
        gaussian_clusters(
            &ClusterConfig {
                n_points: n,
                dims,
                n_clusters: 5,
                std_dev: 5.0,
                extent: 150.0,
                skew: 0.5,
            },
            seed,
        )
    }

    fn quality(
        r: &PointSet,
        s: &PointSet,
        k: usize,
        tune: impl FnOnce(JoinBuilder<'_>) -> JoinBuilder<'_>,
    ) -> (f64, f64) {
        let exact = NestedLoopJoin.join(r, s, k, EUCLIDEAN).unwrap();
        // 0x5EED is the shift seed the recall thresholds below were set at.
        let got = run(Zknn, r, s, k, EUCLIDEAN, |b| tune(b.seed(0x5EED)));
        assert_eq!(got.rows.len(), r.len(), "every r must receive a row");
        for row in &got.rows {
            assert!(row.neighbors.len() <= k);
            assert!(row
                .neighbors
                .windows(2)
                .all(|w| w[0].distance <= w[1].distance));
        }
        let q = got.quality_against(&exact);
        (q.recall, q.distance_ratio)
    }

    #[test]
    fn high_recall_on_clustered_2d_data() {
        let r = clustered(300, 2, 1);
        let s = clustered(350, 2, 2);
        let (recall, ratio) = quality(&r, &s, 10, |b| b);
        assert!(recall >= 0.9, "recall {recall}");
        assert!((1.0..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn more_shift_copies_do_not_hurt_recall() {
        let r = uniform(250, 3, 100.0, 3);
        let s = uniform(250, 3, 100.0, 4);
        let (r1, _) = quality(&r, &s, 5, |b| b.shift_copies(1));
        let (r4, _) = quality(&r, &s, 5, |b| b.shift_copies(4));
        assert!(
            r4 >= r1 - 1e-9,
            "recall must not degrade with more copies: {r1} -> {r4}"
        );
        assert!(r4 >= 0.9, "recall at 4 copies: {r4}");
    }

    #[test]
    fn exact_when_k_covers_s() {
        // With k ≥ |S| every candidate window spans all of S: the result is
        // exact by construction.
        let r = uniform(40, 2, 30.0, 6);
        let s = uniform(7, 2, 30.0, 7);
        let exact = NestedLoopJoin.join(&r, &s, 12, EUCLIDEAN).unwrap();
        let got = run(Zknn, &r, &s, 12, EUCLIDEAN, |b| b);
        assert!(
            got.matches(&exact, 1e-9),
            "{:?}",
            got.mismatch_against(&exact, 1e-9)
        );
    }

    #[test]
    fn exact_on_identical_points() {
        // All-identical coordinates collapse to one z-value; the id tiebreak
        // still yields k candidates at distance 0.
        let data = PointSet::from_coords(vec![vec![3.0, 3.0]; 25]);
        let exact = NestedLoopJoin.join(&data, &data, 4, EUCLIDEAN).unwrap();
        let got = run(Zknn, &data, &data, 4, EUCLIDEAN, |b| b);
        assert!(got.matches(&exact, 1e-9));
    }

    #[test]
    fn shuffles_far_less_than_broadcast_and_computes_far_less_than_exact() {
        let r = clustered(400, 2, 8);
        let s = clustered(400, 2, 9);
        let k = 10;
        let res = run(Zknn, &r, &s, k, EUCLIDEAN, |b| b);
        let m = &res.metrics;
        // Each R object costs at most α·2·window·k distance computations —
        // a constant per object, unlike the exact algorithms.
        let defaults = JoinPlan::default();
        let per_object = (defaults.shift_copies * 2 * defaults.z_window * k) as u64;
        assert!(m.distance_computations <= r.len() as u64 * per_object);
        assert!(m.distance_computations < (r.len() * s.len()) as u64 / 2);
        // α copies of R; α copies of S plus boundary padding.
        let alpha = defaults.shift_copies as u64;
        assert_eq!(m.r_records_shuffled, alpha * r.len() as u64);
        assert!(m.s_records_shuffled >= alpha * s.len() as u64);
        assert!(m.shuffle_bytes > 0);
        // Both jobs report phases.
        assert!(m.phase(phases::KNN_JOIN) > std::time::Duration::ZERO);
        assert!(m
            .phase_times
            .iter()
            .any(|(n, _)| n == phases::RESULT_MERGING));
    }

    /// A z-window is offered exactly as a per-row loop of the scalar rank
    /// kernels offers it: the same ids, the same distance bits, one
    /// evaluation per row — for windows clamped at the slab's start
    /// (`pos < window`) and at its end (`pos + window > len`), and for
    /// windows longer than one `PROBE_TILE`, whose tiles end inside them.
    #[test]
    fn sorted_copy_windows_offer_what_a_scalar_row_loop_offers() {
        use geom::kernels::{chebyshev, manhattan, squared_euclidean, Kernel, PROBE_TILE};
        let n = 300;
        assert!(n > PROBE_TILE);
        // Row `i` has z-value `2i`, so a query at z `2p` sits at position `p`.
        let z_of = |coords: &[f64]| ZValue([0, 0, 0, coords[0] as u64 * 2]);
        let windows = [
            (0, 5, 0..5),
            (3, 10, 0..13),
            (n - 2, 6, n - 8..n),
            (n, 4, n - 4..n),
            (150, 120, 30..270),
            (150, 200, 0..n),
        ];
        for dims in [1, 3, 10] {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let wiggle = |d: usize| ((i * 31 + d * 17) as f64 * 0.37).sin() * 40.0;
                    std::iter::once(i as f64)
                        .chain((1..dims).map(wiggle))
                        .collect()
                })
                .collect();
            // Entries arrive unsorted; ids are 1000 + the row index.
            let entries = rows
                .iter()
                .enumerate()
                .rev()
                .map(|(i, row)| (1_000 + i as u64, &row[..]));
            let slab = SortedCopy::sorted(entries, z_of);
            for (metric, scalar) in [
                (DistanceMetric::Euclidean, squared_euclidean as Kernel),
                (DistanceMetric::Manhattan, manhattan as Kernel),
                (DistanceMetric::Chebyshev, chebyshev as Kernel),
            ] {
                let kernels = ScanKernels::new(metric);
                let mut scratch = TileScratch::new();
                for (pos, window, expected) in windows.clone() {
                    let query: Vec<f64> = (0..dims)
                        .map(|d| pos as f64 + 0.25 * d as f64 - 3.5)
                        .collect();
                    let mut got = NeighborList::new(expected.len());
                    let z_r = ZValue([0, 0, 0, 2 * pos as u64]);
                    let evaluated =
                        slab.scan_window(&query, z_r, window, &kernels, &mut scratch, &mut got);
                    assert_eq!(
                        evaluated,
                        expected.len() as u64,
                        "{metric:?} dims {dims} at {pos}"
                    );
                    let mut want = NeighborList::new(expected.len());
                    for i in expected {
                        want.offer(
                            1_000 + i as u64,
                            metric.rank_to_distance(scalar(&query, &rows[i])),
                        );
                    }
                    let bits = |list: NeighborList| -> Vec<(u64, u64)> {
                        list.into_sorted()
                            .iter()
                            .map(|n| (n.id, n.distance.to_bits()))
                            .collect()
                    };
                    assert_eq!(bits(got), bits(want), "{metric:?} dims {dims} at {pos}");
                }
            }
        }
    }

    #[test]
    fn merge_breaks_exact_distance_ties_deterministically() {
        // Two copies each contribute a different candidate at the same
        // distance; with k = 1 only one survives, and it must be the same
        // one (smallest id) on every run — not whichever a hash map yields
        // first.
        let from_copy_a = PartialList(&[geom::Neighbor::new(7, 2.5)]);
        let from_copy_b = PartialList(&[geom::Neighbor::new(3, 2.5)]);
        for _ in 0..32 {
            let merged = merge_distinct_candidates(&[from_copy_a, from_copy_b], 1);
            assert_eq!(merged.len(), 1);
            assert_eq!(merged[0].id, 3);
        }
        // Duplicates of one id keep the smaller distance, not a second slot.
        let dup = PartialList(&[geom::Neighbor::new(7, 1.0)]);
        let merged = merge_distinct_candidates(&[from_copy_a, dup], 2);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].distance, 1.0);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let r = clustered(200, 3, 10);
        let s = clustered(220, 3, 11);
        let a = run(Zknn, &r, &s, 5, EUCLIDEAN, |b| b);
        let b = run(Zknn, &r, &s, 5, EUCLIDEAN, |b| b);
        assert!(a.matches(&b, 0.0));
        assert_eq!(
            a.metrics.distance_computations,
            b.metrics.distance_computations
        );
        assert_eq!(a.metrics.shuffle_bytes, b.metrics.shuffle_bytes);
        // A different shift seed may legitimately produce different
        // candidates (still high recall, checked elsewhere).
        let c = run(Zknn, &r, &s, 5, EUCLIDEAN, |b| b.seed(999));
        assert_eq!(c.rows.len(), r.len());
    }

    #[test]
    fn grid_bits_follow_the_dimensionality_and_overflow_is_a_typed_error() {
        // Up to 16 dims the grid keeps its 16 bits; beyond, as many as fit.
        assert_eq!([1, 2, 10, 16].map(z_bits), [16; 4]);
        assert_eq!([17, 20, 64, 256].map(z_bits), [15, 12, 4, 1]);
        // 20 dims × 16 bits would overflow the z-value; with derived bits the
        // join runs, a hand-built plan included.
        let plan = JoinPlan {
            algorithm: Zknn,
            k: 2,
            ..Default::default()
        };
        let ctx = ExecutionContext::default();
        let wide = uniform(40, 20, 1.0, 2);
        assert_eq!(plan.execute(&wide, &wide, &ctx).unwrap().rows.len(), 40);
        // More dimensions than the z-value has bits, or none at all, is a
        // typed error.
        let flat = PointSet::from_coords(vec![Vec::new(); 3]);
        for unfit in [uniform(4, 257, 1.0, 2), flat] {
            let err = plan.execute(&unfit, &unfit, &ctx).unwrap_err();
            assert!(matches!(err, JoinError::InvalidConfig(_)), "{err}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        /// The candidate sets are approximate but the plumbing is not: every
        /// run yields one row per R object with at most k sorted true-distance
        /// neighbours, and recall against the oracle stays high.
        #[test]
        fn recall_stays_high_on_random_workloads(
            n_r in 20usize..120,
            n_s in 20usize..120,
            k in 1usize..8,
            reducers in 1usize..10,
            seed in 0u64..50,
        ) {
            let r = uniform(n_r, 2, 80.0, seed);
            let s = uniform(n_s, 2, 80.0, seed ^ 0x5A);
            let exact = NestedLoopJoin.join(&r, &s, k, EUCLIDEAN).unwrap();
            let got = run(Zknn, &r, &s, k, EUCLIDEAN, |b| b.reducers(reducers).map_tasks(3));
            prop_assert_eq!(got.rows.len(), r.len());
            let q = got.quality_against(&exact);
            prop_assert!(q.recall >= 0.8, "recall {} below threshold", q.recall);
            prop_assert!(q.distance_ratio >= 1.0 - 1e-9);
        }
    }
}
