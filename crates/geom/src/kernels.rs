//! Monomorphized distance kernels over flat coordinate slices.
//!
//! [`crate::DistanceMetric::distance_coords`] is convenient but pays an enum
//! dispatch per call, and the Euclidean variant a `sqrt` per call.  The hot
//! loops (pivot assignment, Algorithm 3 scans, k-means) instead hoist one of
//! these kernels out of the loop and call it directly.  There are three
//! families:
//!
//! * the scalar kernels ([`euclidean`], [`manhattan`], [`chebyshev`]) compute
//!   exactly the same value as `distance_coords` — same left-to-right
//!   accumulation order, so results are bit-identical — and
//!   [`squared_euclidean`] skips the `sqrt`, for argmin loops that only need
//!   the *ordering* of distances (`sqrt` is monotone);
//! * the `*_columns` kernels rank one query against a run of rows of a
//!   column-major block — the layout of every block a scan ranks — eight
//!   rows per pass, one row per lane, each dimension's column read with no
//!   transpose: the same operations in the same order, so the scalar
//!   kernel's bits on any CPU;
//! * [`squared_euclidean_batch`] ranks one query against a row-major block,
//!   four dimensions per SIMD register and FMA where the CPU has them.  No
//!   scan calls it; it stays for the benchmark's per-layer kernel timing.
//!
//! The batch kernel reorders floating-point addition, so it agrees with the
//! scalar kernel to ~1e-9 relative, not bit for bit.  Every scan
//! and every isolated pair — pivot selection, pivot assignment, an object
//! against a pivot inside a scan — goes through the scalar or column
//! kernels: the stored pivot distances feed every pruning bound.
//!
//! Squared distances are safe wherever only comparisons *within* the squared
//! domain happen (argmin against a running best kept in the same domain).
//! They are **not** substituted where a distance meets a triangle-inequality
//! bound derived from true distances (the θ-window checks of Algorithm 3):
//! squaring a threshold and rooting a sum both round, so cross-domain
//! comparisons could flip at the last ulp.  See ARCHITECTURE.md.

/// A plain distance kernel: `f(a, b)` over equal-length coordinate slices.
pub type Kernel = fn(&[f64], &[f64]) -> f64;

/// A one-query-vs-a-row-run kernel over a column-major block:
/// `f(q, cols, stride, first, out)` where `cols` holds `q.len()` columns of
/// `stride` rows each, coordinate `d` of row `r` at `cols[d * stride + r]`,
/// and `out[i]` receives the rank of `(q, row first + i)`.  Every
/// `*_columns` kernel returns the scalar rank kernel's bits.
pub type ColumnKernel = fn(&[f64], &[f64], usize, usize, &mut [f64]);

/// How many rows of a column-major block the tiled probe loops rank per
/// column-kernel call.  256 rows × 16 dims × 8 bytes = 32 KiB, so a tile
/// plus its rank scratch stays L1/L2-resident while the kernel streams it;
/// consumers walk larger blocks in `PROBE_TILE`-row tiles.
pub const PROBE_TILE: usize = 256;

/// A join's kernel-mode knob.  No scan reads it: every scan ranks its rows
/// with the bit-exact column kernels, so both modes run the same code and
/// return the same bits.  It is kept only for `benchmark/`, which still
/// names both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelMode {
    /// The default.
    #[default]
    Exact,
    /// Runs the same scans as [`KernelMode::Exact`].
    Fast,
}

/// Squared Euclidean distance `Σ (aᵢ − bᵢ)²` — the L2 argmin workhorse.
///
/// # Panics
/// Panics in debug builds if the slices have different lengths.
#[inline]
pub fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let mut acc = 0.0;
    for i in 0..a.len() {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

/// Euclidean distance (Equation 1 of the paper): `sqrt` of
/// [`squared_euclidean`].  Bit-identical to
/// `DistanceMetric::Euclidean.distance_coords`.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    squared_euclidean(a, b).sqrt()
}

/// Manhattan (L1) distance `Σ |aᵢ − bᵢ|`.
#[inline]
pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let mut acc = 0.0;
    for i in 0..a.len() {
        acc += (a[i] - b[i]).abs();
    }
    acc
}

/// Chebyshev (L∞) distance `max |aᵢ − bᵢ|`.
#[inline]
pub fn chebyshev(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let mut acc = 0.0f64;
    for i in 0..a.len() {
        acc = acc.max((a[i] - b[i]).abs());
    }
    acc
}

// ---------------------------------------------------------------------------
// Batch (one query vs many rows) kernel
// ---------------------------------------------------------------------------

/// [`squared_euclidean`] with four independent partial sums over
/// `chunks_exact(4)`: the remainder rows of the AVX2 batch kernel.  The
/// accumulation order differs from the scalar kernel's, so values agree
/// with it to ~1e-9 relative, not bit for bit.
#[inline]
fn squared_euclidean_fast(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let head = a.len() & !3;
    let (a_head, a_tail) = a.split_at(head);
    let (b_head, b_tail) = b.split_at(head);
    let mut acc = [0.0f64; 4];
    for (ca, cb) in a_head.chunks_exact(4).zip(b_head.chunks_exact(4)) {
        let d0 = ca[0] - cb[0];
        let d1 = ca[1] - cb[1];
        let d2 = ca[2] - cb[2];
        let d3 = ca[3] - cb[3];
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
    }
    let mut tail = 0.0;
    for (x, y) in a_tail.iter().zip(b_tail) {
        let d = x - y;
        tail += d * d;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

/// Explicit SIMD kernels for x86-64, selected at runtime with
/// `is_x86_feature_detected!` (the workspace builds for the baseline
/// `x86-64` target, which only guarantees SSE2 — wide vectors must be opted
/// into per function).
///
/// The batch kernel keeps four rows in flight, each with its own 256-bit
/// accumulator; the ragged `dim % 4` tail is a masked load (masked-out
/// lanes read as 0.0 and contribute nothing), and the four accumulators
/// reduce into four output slots at once.  Accumulation groups every 4th
/// dimension per lane, like [`squared_euclidean_fast`], and fuses
/// multiply-and-add into FMA.  The column kernels keep the scalar kernels'
/// bits.
#[cfg(target_arch = "x86_64")]
mod x86 {
    #[inline]
    pub(super) fn have_avx2_fma() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    #[inline]
    pub(super) fn have_avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// [`super::squared_euclidean_batch`] on AVX2 and FMA.
    ///
    /// # Safety
    /// Caller must verify AVX2 and FMA at runtime and uphold
    /// `q.len() == dim && rows.len() == dim * out.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn squared_euclidean_batch_avx2(
        q: &[f64],
        rows: &[f64],
        dim: usize,
        out: &mut [f64],
    ) {
        use std::arch::x86_64::*;
        let n = out.len();
        let full = dim & !3;
        let rem = dim - full;
        // Top-bit-set lanes of the mask select the tail elements.
        let lane = |d: usize| if d < rem { -1 } else { 0 };
        let tail_mask = _mm256_setr_epi64x(lane(0), lane(1), lane(2), 0);
        let qp = q.as_ptr();
        let mut r0 = rows.as_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let (r1, r2, r3) = (r0.add(dim), r0.add(2 * dim), r0.add(3 * dim));
            let [mut a0, mut a1, mut a2, mut a3] = [_mm256_setzero_pd(); 4];
            let mut d = 0;
            while d < full {
                let qv = _mm256_loadu_pd(qp.add(d));
                let d0 = _mm256_sub_pd(qv, _mm256_loadu_pd(r0.add(d)));
                let d1 = _mm256_sub_pd(qv, _mm256_loadu_pd(r1.add(d)));
                let d2 = _mm256_sub_pd(qv, _mm256_loadu_pd(r2.add(d)));
                let d3 = _mm256_sub_pd(qv, _mm256_loadu_pd(r3.add(d)));
                a0 = _mm256_fmadd_pd(d0, d0, a0);
                a1 = _mm256_fmadd_pd(d1, d1, a1);
                a2 = _mm256_fmadd_pd(d2, d2, a2);
                a3 = _mm256_fmadd_pd(d3, d3, a3);
                d += 4;
            }
            if rem > 0 {
                let qv = _mm256_maskload_pd(qp.add(full), tail_mask);
                let d0 = _mm256_sub_pd(qv, _mm256_maskload_pd(r0.add(full), tail_mask));
                let d1 = _mm256_sub_pd(qv, _mm256_maskload_pd(r1.add(full), tail_mask));
                let d2 = _mm256_sub_pd(qv, _mm256_maskload_pd(r2.add(full), tail_mask));
                let d3 = _mm256_sub_pd(qv, _mm256_maskload_pd(r3.add(full), tail_mask));
                a0 = _mm256_fmadd_pd(d0, d0, a0);
                a1 = _mm256_fmadd_pd(d1, d1, a1);
                a2 = _mm256_fmadd_pd(d2, d2, a2);
                a3 = _mm256_fmadd_pd(d3, d3, a3);
            }
            // 4x4 horizontal sum: hadd pairs rows (0,1) and (2,3), the two
            // 128-bit cross permutes realign the lane halves, and one add
            // yields [Σa0, Σa1, Σa2, Σa3].
            let h01 = _mm256_hadd_pd(a0, a1);
            let h23 = _mm256_hadd_pd(a2, a3);
            let lo = _mm256_permute2f128_pd(h01, h23, 0x20);
            let hi = _mm256_permute2f128_pd(h01, h23, 0x31);
            _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_add_pd(lo, hi));
            r0 = r3.add(dim);
            i += 4;
        }
        while i < n {
            out[i] = super::squared_euclidean_fast(q, &rows[i * dim..(i + 1) * dim]);
            i += 1;
        }
    }

    /// A column kernel: rows `first..first + out.len()` of a column-major
    /// block, eight per pass, one row per lane.  Each dimension's column is
    /// contiguous, so two unaligned loads fetch that coordinate of eight
    /// rows with no transpose; the last 1-7 rows take one full and one
    /// masked load, or one masked load, and a masked-out lane touches no
    /// memory.  `$step` is the scalar kernel's loop body, dimensions in
    /// order, so each lane holds exactly the bits the scalar kernel returns
    /// for its row.
    macro_rules! avx2_column_kernel {
        ($name:ident, ($($decl:tt)*), |$qd:ident, $col:ident, $acc:ident| $step:expr) => {
            /// # Safety
            /// Caller must verify AVX2 at runtime and uphold
            /// `cols.len() == q.len() * stride && first + out.len() <= stride`.
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name(
                q: &[f64],
                cols: &[f64],
                stride: usize,
                first: usize,
                out: &mut [f64],
            ) {
                use std::arch::x86_64::*;

                /// `4 * REGS` rows from `rows` on, `stride` apart per
                /// dimension; with `MASKED` register `g` loads the lanes
                /// `masks[g]` selects.
                ///
                /// # Safety
                /// As the enclosing kernel's, for the selected rows.
                #[inline]
                #[target_feature(enable = "avx2")]
                unsafe fn block<const REGS: usize, const MASKED: bool>(
                    q: &[f64],
                    rows: *const f64,
                    stride: usize,
                    masks: [__m256i; REGS],
                ) -> [__m256d; REGS] {
                    $($decl)*
                    let mut accs = [_mm256_setzero_pd(); REGS];
                    let mut column = rows;
                    for &qd in q {
                        let $qd = _mm256_set1_pd(qd);
                        for g in 0..REGS {
                            let $col = if MASKED {
                                _mm256_maskload_pd(column.add(4 * g), masks[g])
                            } else {
                                _mm256_loadu_pd(column.add(4 * g))
                            };
                            let $acc = &mut accs[g];
                            $step;
                        }
                        column = column.add(stride);
                    }
                    accs
                }

                if q.is_empty() {
                    // No columns: `cols` may be a dangling empty slice that
                    // `first` must not offset.
                    out.fill(0.0);
                    return;
                }
                let n = out.len();
                let rows = cols.as_ptr().add(first);
                let mut i = 0;
                while i + 8 <= n {
                    let accs = block::<2, false>(q, rows.add(i), stride, [_mm256_setzero_si256(); 2]);
                    _mm256_storeu_pd(out.as_mut_ptr().add(i), accs[0]);
                    _mm256_storeu_pd(out.as_mut_ptr().add(i + 4), accs[1]);
                    i += 8;
                }
                let rem = n - i;
                if rem > 0 {
                    let lane = |row: usize| if row < rem { -1 } else { 0 };
                    let mask = |from: usize| _mm256_setr_epi64x(lane(from), lane(from + 1), lane(from + 2), lane(from + 3));
                    let mut tail = [0.0f64; 8];
                    if rem <= 4 {
                        let accs = block::<1, true>(q, rows.add(i), stride, [mask(0)]);
                        _mm256_storeu_pd(tail.as_mut_ptr(), accs[0]);
                    } else {
                        let accs = block::<2, true>(q, rows.add(i), stride, [mask(0), mask(4)]);
                        _mm256_storeu_pd(tail.as_mut_ptr(), accs[0]);
                        _mm256_storeu_pd(tail.as_mut_ptr().add(4), accs[1]);
                    }
                    out[i..].copy_from_slice(&tail[..rem]);
                }
            }
        };
    }

    avx2_column_kernel!(squared_euclidean_columns_avx2, (), |qd, col, acc| {
        let diff = _mm256_sub_pd(qd, col);
        *acc = _mm256_add_pd(*acc, _mm256_mul_pd(diff, diff));
    });

    avx2_column_kernel!(
        manhattan_columns_avx2,
        (let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));),
        |qd, col, acc| {
            let diff = _mm256_sub_pd(qd, col);
            *acc = _mm256_add_pd(*acc, _mm256_and_pd(diff, abs_mask));
        }
    );

    avx2_column_kernel!(
        chebyshev_columns_avx2,
        (let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));),
        |qd, col, acc| {
            let diff = _mm256_sub_pd(qd, col);
            *acc = _mm256_max_pd(_mm256_and_pd(diff, abs_mask), *acc);
        }
    );
}

/// The portable loop of [`squared_euclidean_batch`], where AVX2 and FMA are
/// missing: rows eight at a time with the dimension loop innermost, so the
/// eight per-row accumulator chains are independent and the CPU (or the
/// autovectorizer) overlaps them.  Each row's own accumulation stays in
/// dimension order, so every output is bit-identical to
/// [`squared_euclidean`]'s.
fn squared_euclidean_batch_portable(q: &[f64], rows: &[f64], dim: usize, out: &mut [f64]) {
    assert_eq!(q.len(), dim, "query dimensionality mismatch");
    assert_eq!(rows.len(), dim * out.len(), "ragged batch block");
    const BLOCK: usize = 8;
    let mut blocks = rows.chunks_exact(BLOCK * dim);
    let mut slots = out.chunks_exact_mut(BLOCK);
    for (block, slot) in blocks.by_ref().zip(slots.by_ref()) {
        // One subslice per row so the inner loads are provably in bounds
        // (`d < dim = row.len()`): the bounds checks vanish and the 8
        // accumulator chains stay independent.
        let rows_in_block: [&[f64]; BLOCK] =
            core::array::from_fn(|r| &block[r * dim..(r + 1) * dim]);
        let mut acc = [0.0f64; BLOCK];
        for d in 0..dim {
            let qd = q[d];
            for r in 0..BLOCK {
                let diff = qd - rows_in_block[r][d];
                acc[r] += diff * diff;
            }
        }
        slot.copy_from_slice(&acc);
    }
    for (row, slot) in blocks
        .remainder()
        .chunks_exact(dim)
        .zip(slots.into_remainder())
    {
        *slot = squared_euclidean(q, row);
    }
}

/// Squared Euclidean ranks of `q` against every row of a flat row-major
/// coordinate block: `out[i] = Σ_d (q[d] − rows[i·dim + d])²`.  On x86-64
/// with AVX2+FMA (runtime-detected) four rows are kept in flight, each with
/// its own 256-bit FMA accumulator over four dimensions at a time, so the
/// result agrees with [`squared_euclidean`] to ~1e-9 relative (measured
/// ~4e-16), not bit for bit, and may differ in the last bits between CPUs
/// with and without AVX2; elsewhere the portable loop returns the scalar
/// kernel's bits.  No scan calls it (the column kernels of
/// [`crate::DistanceMetric::column_rank_kernel`] are the bit-exact family
/// every scan ranks with).
///
/// # Panics
/// Panics if `q.len() != dim` or `rows.len() != dim * out.len()`.
#[inline]
pub fn squared_euclidean_batch(q: &[f64], rows: &[f64], dim: usize, out: &mut [f64]) {
    assert_eq!(q.len(), dim, "query dimensionality mismatch");
    assert_eq!(rows.len(), dim * out.len(), "ragged batch block");
    #[cfg(target_arch = "x86_64")]
    if dim > 0 && x86::have_avx2_fma() {
        // SAFETY: required CPU features verified at runtime; slice
        // invariants asserted above.
        unsafe { x86::squared_euclidean_batch_avx2(q, rows, dim, out) };
        return;
    }
    squared_euclidean_batch_portable(q, rows, dim, out);
}

/// Expands to a column kernel's portable loop: rows eight at a time, the
/// dimension loop outside the row loop, every row accumulating in dimension
/// order — the scalar `$step`, so each output is bit-identical to the scalar
/// kernel's.
macro_rules! column_blocked_batch {
    ($q:ident, $cols:ident, $stride:ident, $first:ident, $out:ident,
     |$qd:ident, $x:ident, $acc:ident| $step:expr) => {{
        const BLOCK: usize = 8;
        for (b, slots) in $out.chunks_mut(BLOCK).enumerate() {
            let row = $first + b * BLOCK;
            let mut acc = [0.0f64; BLOCK];
            for (d, &$qd) in $q.iter().enumerate() {
                let column = &$cols[d * $stride + row..][..slots.len()];
                for (&$x, $acc) in column.iter().zip(&mut acc) {
                    $step;
                }
            }
            slots.copy_from_slice(&acc[..slots.len()]);
        }
    }};
}

/// The portable column loop for L2²: what [`squared_euclidean_columns`] runs
/// where AVX2 is missing, bit-identical to [`squared_euclidean`] per row.
fn squared_euclidean_columns_portable(
    q: &[f64],
    cols: &[f64],
    stride: usize,
    first: usize,
    out: &mut [f64],
) {
    column_blocked_batch!(q, cols, stride, first, out, |qd, x, acc| {
        let d = qd - x;
        *acc += d * d;
    });
}

/// [`squared_euclidean_columns_portable`] for L1, bit-identical to
/// [`manhattan`] per row.
fn manhattan_columns_portable(
    q: &[f64],
    cols: &[f64],
    stride: usize,
    first: usize,
    out: &mut [f64],
) {
    column_blocked_batch!(q, cols, stride, first, out, |qd, x, acc| {
        *acc += (qd - x).abs();
    });
}

/// [`squared_euclidean_columns_portable`] for L∞, bit-identical to
/// [`chebyshev`] per row.
fn chebyshev_columns_portable(
    q: &[f64],
    cols: &[f64],
    stride: usize,
    first: usize,
    out: &mut [f64],
) {
    column_blocked_batch!(q, cols, stride, first, out, |qd, x, acc| {
        *acc = (*acc).max((qd - x).abs());
    });
}

/// Asserts a column kernel's slice invariants: `cols` holds `q.len()`
/// columns of `stride` rows, and the rows asked for lie inside them.
#[inline]
fn check_columns(q: &[f64], cols: &[f64], stride: usize, first: usize, out: &[f64]) {
    assert_eq!(
        cols.len(),
        q.len() * stride,
        "column block is not dims × stride"
    );
    assert!(
        first <= stride && out.len() <= stride - first,
        "rows past the end of the columns"
    );
}

/// [`squared_euclidean`] of `q` against rows `first..first + out.len()` of a
/// column-major block, **bit for bit**: `out[i]` is the rank of row
/// `first + i`, whose coordinate `d` is `cols[d * stride + first + i]`.
/// This is the tile kernel of every scan: each column is contiguous, so the AVX2 path (runtime-detected) loads
/// eight rows' coordinate in two loads and still sums every row left to
/// right with a separate multiply and add — no transpose, no reassociation.
/// The portable twin runs where AVX2 is missing.
///
/// # Panics
/// Panics if `cols.len() != q.len() * stride` or
/// `first + out.len() > stride`.
#[inline]
pub(crate) fn squared_euclidean_columns(
    q: &[f64],
    cols: &[f64],
    stride: usize,
    first: usize,
    out: &mut [f64],
) {
    check_columns(q, cols, stride, first, out);
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2() {
        // SAFETY: AVX2 verified at runtime; slice invariants asserted above.
        unsafe { x86::squared_euclidean_columns_avx2(q, cols, stride, first, out) };
        return;
    }
    squared_euclidean_columns_portable(q, cols, stride, first, out);
}

/// [`manhattan`] of `q` against rows of a column-major block, bit for bit
/// (see [`squared_euclidean_columns`]).
///
/// # Panics
/// As [`squared_euclidean_columns`].
#[inline]
pub(crate) fn manhattan_columns(
    q: &[f64],
    cols: &[f64],
    stride: usize,
    first: usize,
    out: &mut [f64],
) {
    check_columns(q, cols, stride, first, out);
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2() {
        // SAFETY: AVX2 verified at runtime; slice invariants asserted above.
        unsafe { x86::manhattan_columns_avx2(q, cols, stride, first, out) };
        return;
    }
    manhattan_columns_portable(q, cols, stride, first, out);
}

/// [`chebyshev`] of `q` against rows of a column-major block, bit for bit
/// (see [`squared_euclidean_columns`]).
///
/// # Panics
/// As [`squared_euclidean_columns`].
#[inline]
pub(crate) fn chebyshev_columns(
    q: &[f64],
    cols: &[f64],
    stride: usize,
    first: usize,
    out: &mut [f64],
) {
    check_columns(q, cols, stride, first, out);
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2() {
        // SAFETY: AVX2 verified at runtime; slice invariants asserted above.
        unsafe { x86::chebyshev_columns_avx2(q, cols, stride, first, out) };
        return;
    }
    chebyshev_columns_portable(q, cols, stride, first, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistanceMetric;
    use proptest::prelude::*;

    #[test]
    fn hand_computed_values() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(squared_euclidean(&a, &b), 25.0);
        assert_eq!(euclidean(&a, &b), 5.0);
        assert_eq!(manhattan(&a, &b), 7.0);
        assert_eq!(chebyshev(&a, &b), 4.0);
    }

    /// `n` values of the uniform `seed` from `offset` on, turned adversarial
    /// deterministically: every 4th value is rescaled to huge magnitude,
    /// every 4th-plus-one down to denormal-adjacent magnitude, every
    /// 4th-plus-two zeroed — so a summation mixes magnitudes, exact zeros and
    /// subnormals.
    fn adversarial(seed: &[f64], offset: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let v = seed[(offset + i) % seed.len()];
                match i % 4 {
                    0 => v * 1e5,
                    1 => v * 1e-305,
                    2 => 0.0,
                    _ => v,
                }
            })
            .collect()
    }

    proptest! {
        /// The kernels must agree with `DistanceMetric::distance_coords`
        /// *exactly* (same accumulation order ⇒ same bits), which is far
        /// stronger than the 1e-12 agreement the hot paths rely on.
        #[test]
        fn kernels_agree_with_distance_coords(
            a in proptest::collection::vec(-1e3f64..1e3, 1..24),
            b in proptest::collection::vec(-1e3f64..1e3, 1..24),
        ) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            prop_assert_eq!(
                euclidean(a, b).to_bits(),
                DistanceMetric::Euclidean.distance_coords(a, b).to_bits()
            );
            prop_assert_eq!(
                manhattan(a, b).to_bits(),
                DistanceMetric::Manhattan.distance_coords(a, b).to_bits()
            );
            prop_assert_eq!(
                chebyshev(a, b).to_bits(),
                DistanceMetric::Chebyshev.distance_coords(a, b).to_bits()
            );
            prop_assert_eq!(
                squared_euclidean(a, b).sqrt().to_bits(),
                euclidean(a, b).to_bits()
            );
        }

        /// The fast and batch L2 kernels agree with the scalar kernel within
        /// 1e-9 *relative* on adversarial inputs: mixed magnitudes, denormals
        /// and the dimensionalities the tile loops monomorphize over.
        #[test]
        fn fast_and_batch_kernels_match_their_scalar_twins(
            dim_idx in 0usize..8,
            rows in 1usize..9,
            seed in proptest::collection::vec(-1e3f64..1e3, 300),
        ) {
            let dim = [1usize, 2, 3, 4, 7, 8, 16, 33][dim_idx];
            let q = adversarial(&seed, 0, dim);
            let block = adversarial(&seed, dim, dim * rows);
            let close = |got: f64, want: f64| -> bool {
                (got - want).abs() <= 1e-9 * want.abs().max(1.0)
            };

            let row = &block[..dim];
            let (fast, scalar) = (squared_euclidean_fast(&q, row), squared_euclidean(&q, row));
            prop_assert!(close(fast, scalar), "fast {} vs scalar {}", fast, scalar);

            let mut out = vec![0.0f64; rows];
            squared_euclidean_batch(&q, &block, dim, &mut out);
            for (i, row) in block.chunks_exact(dim).enumerate() {
                let scalar = squared_euclidean(&q, row);
                prop_assert!(close(out[i], scalar), "batch row {i}: {} vs scalar {}", out[i], scalar);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        /// The portable row-blocked loop [`squared_euclidean_batch`] falls
        /// back to returns the scalar kernel's bits, row for row, over every
        /// dimensionality 1..=33 (crossing the 4-dim chunk edge) and every
        /// row count 0..=70 (crossing the 8-row block edge), with huge,
        /// subnormal-adjacent and zero coordinates mixed.  The
        /// rank→distance sweep then lands on `distance_coords`' bits.
        #[test]
        fn portable_batch_loops_equal_their_scalar_twins_bit_for_bit(
            seed in proptest::collection::vec(-1e3f64..1e3, 300),
        ) {
            for dim in 1usize..=33 {
                let q = adversarial(&seed, 0, dim);
                let block = adversarial(&seed, dim, dim * 70);
                let want: Vec<u64> = block
                    .chunks_exact(dim)
                    .map(|row| squared_euclidean(&q, row).to_bits())
                    .collect();
                for rows in 0usize..=70 {
                    let mut out = vec![f64::NAN; rows];
                    squared_euclidean_batch_portable(&q, &block[..dim * rows], dim, &mut out);
                    let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(&got[..], &want[..rows], "dim {} rows {}", dim, rows);
                }
                let mut out = vec![f64::NAN; 70];
                squared_euclidean_batch_portable(&q, &block, dim, &mut out);
                for (rank, row) in out.iter().zip(block.chunks_exact(dim)) {
                    prop_assert_eq!(
                        DistanceMetric::Euclidean.rank_to_distance(*rank).to_bits(),
                        DistanceMetric::Euclidean.distance_coords(&q, row).to_bits()
                    );
                }
            }
        }
    }

    /// `rows` rows of `dims` coordinates, row-major, as one column per
    /// dimension, in an allocation of exactly `dims * rows` values.
    fn to_columns(block: &[f64], dims: usize) -> Box<[f64]> {
        let rows = block.len() / dims;
        let columns = (0..dims).flat_map(|d| block.iter().skip(d).step_by(dims).copied());
        let columns: Box<[f64]> = columns.collect();
        assert_eq!(columns.len(), dims * rows);
        columns
    }

    /// Every metric's column kernel, as the scans reach it, and its
    /// portable twin, each beside the metric's scalar rank kernel.  The
    /// match is exhaustive: a new metric does not compile until it is
    /// listed here with its twin.
    fn column_kernels() -> Vec<(String, ColumnKernel, Kernel)> {
        let metrics = [
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Chebyshev,
        ];
        let portable = |metric| -> ColumnKernel {
            match metric {
                DistanceMetric::Euclidean => squared_euclidean_columns_portable,
                DistanceMetric::Manhattan => manhattan_columns_portable,
                DistanceMetric::Chebyshev => chebyshev_columns_portable,
            }
        };
        metrics
            .into_iter()
            .flat_map(|m| {
                [
                    (
                        m.name().to_string(),
                        m.column_rank_kernel(),
                        m.rank_kernel(),
                    ),
                    (
                        format!("{} portable", m.name()),
                        portable(m),
                        m.rank_kernel(),
                    ),
                ]
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]
        /// The column kernels return the scalar kernels' bits, row for row:
        /// through the dispatched function (AVX2 where the host has it) and
        /// through the portable loop called directly, over every
        /// dimensionality 1..=33 and every window `first..first + len` of a
        /// 70-row column block (crossing the 8-row block edge and every
        /// 1-7-row tail at every offset), with huge, subnormal-adjacent and
        /// zero coordinates mixed.
        #[test]
        fn column_kernels_equal_their_scalar_twins_bit_for_bit(
            seed in proptest::collection::vec(-1e3f64..1e3, 300),
        ) {
            const ROWS: usize = 70;
            for dims in 1usize..=33 {
                let q = adversarial(&seed, 0, dims);
                let block = adversarial(&seed, dims, dims * ROWS);
                let columns = to_columns(&block, dims);
                for (name, kernel, scalar) in column_kernels() {
                    let want: Vec<u64> = block
                        .chunks_exact(dims)
                        .map(|row| scalar(&q, row).to_bits())
                        .collect();
                    let mut out = [f64::NAN; ROWS];
                    for first in 0..=ROWS {
                        for len in 0..=ROWS - first {
                            kernel(&q, &columns, ROWS, first, &mut out[..len]);
                            let same = out[..len].iter().zip(&want[first..]).all(|(v, w)| v.to_bits() == *w);
                            prop_assert!(same, "{} dims {} rows {}..{}", name, dims, first, first + len);
                        }
                    }
                }
            }
        }
    }

    /// A window that ends at a block's last row loads no coordinate past
    /// it: every tail length, in a block whose allocation ends exactly at
    /// the last row of its last column, so an over-read would run off the
    /// allocation (caught by a sanitizer or a guard page) rather than into
    /// a neighbouring column.  The ranks are the scalar kernels'.
    #[test]
    fn a_masked_tail_reads_nothing_past_the_last_row() {
        let seed: Vec<f64> = (0..97).map(|i| (i as f64 * 0.37).sin() * 40.0).collect();
        for dims in [1usize, 2, 3, 10] {
            for rows in 1usize..=17 {
                let block = adversarial(&seed, 3, dims * rows);
                let columns = to_columns(&block, dims);
                let q = adversarial(&seed, 11, dims);
                for (name, kernel, scalar) in column_kernels() {
                    for len in 1..=rows {
                        let mut out = vec![f64::NAN; len];
                        kernel(&q, &columns, rows, rows - len, &mut out);
                        let want = block[(rows - len) * dims..].chunks_exact(dims);
                        for (got, row) in out.iter().zip(want) {
                            assert_eq!(
                                got.to_bits(),
                                scalar(&q, row).to_bits(),
                                "{name} dims {dims}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The column kernels refuse a window that runs past the column end.
    #[test]
    #[should_panic(expected = "rows past the end of the columns")]
    fn a_window_past_the_column_end_is_refused() {
        let columns = [0.0; 6];
        squared_euclidean_columns(&[0.0, 0.0], &columns, 3, 2, &mut [0.0; 2]);
    }
}
