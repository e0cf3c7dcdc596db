//! A fixed-size, log-bucketed latency histogram.
//!
//! The serving front-end records one sample per answered request, from many
//! client threads at once.  A mergeable histogram keeps that cheap: every
//! probe permit owns its private [`LatencyHistogram`] (no shared counter, no
//! contended lock on the hot path) and the aggregate view is produced by
//! [`LatencyHistogram::merge`]-ing the per-permit histograms on demand.
//! Merging is associative and commutative — it is a per-bucket sum plus
//! min/max/count folds — so the aggregate is independent of permit order and
//! of how partial aggregates are grouped (proptested in
//! `tests/serving_concurrency.rs`).
//!
//! Buckets are log-linear, HdrHistogram style: each power-of-two octave of
//! nanoseconds is split into [`SUB`] linear sub-buckets, so quantiles carry
//! at most `1/SUB` ≈ 6% relative error while the whole histogram is a flat
//! array of a few hundred `u64`s covering 1 ns to ≈ 18 minutes.

use std::time::Duration;

/// Linear sub-buckets per power-of-two octave (quantile resolution ≈ 1/SUB).
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Total buckets: values below `SUB` ns get exact unit buckets, every octave
/// above contributes `SUB` sub-buckets, up to the top of the `u64` range.
const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

/// Bucket index of a nanosecond value (log-linear, monotone in the value).
fn bucket_index(nanos: u64) -> usize {
    let v = nanos.max(1);
    let exponent = 63 - v.leading_zeros();
    if exponent < SUB_BITS {
        v as usize
    } else {
        let shift = exponent - SUB_BITS;
        let sub = ((v >> shift) as usize) & (SUB - 1);
        ((exponent - SUB_BITS + 1) as usize * SUB + sub).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound (in nanoseconds) of the values a bucket holds.
fn bucket_upper_nanos(index: usize) -> u64 {
    if index < SUB {
        index as u64
    } else {
        let octave = (index / SUB) as u32;
        let sub = (index % SUB) as u64;
        let exponent = octave + SUB_BITS - 1;
        let width = 1u64 << (exponent - SUB_BITS);
        // `- 1` before the widths: the top bucket's bound is `u64::MAX`.
        (1u64 << exponent) - 1 + (sub + 1) * width
    }
}

/// A mergeable log-bucketed latency histogram with p50/p95/p99 readouts.
///
/// ```
/// use knnjoin::serving::LatencyHistogram;
/// use std::time::Duration;
///
/// let mut h = LatencyHistogram::new();
/// for micros in [50, 80, 120, 400, 2_000] {
///     h.record(Duration::from_micros(micros));
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.p50() >= Duration::from_micros(80));
/// assert!(h.p99() <= h.max() + Duration::from_nanos(h.max().as_nanos() as u64 / 16));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    total_nanos: u64,
    min_nanos: u64,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            total_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        self.record_nanos(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one latency sample given in nanoseconds.
    pub fn record_nanos(&mut self, nanos: u64) {
        self.buckets[bucket_index(nanos)] += 1;
        self.count += 1;
        self.total_nanos = self.total_nanos.saturating_add(nanos);
        self.min_nanos = self.min_nanos.min(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Folds another histogram into this one (per-bucket sum plus
    /// min/max/count/total folds).  Associative and commutative, so partial
    /// per-permit aggregates can be combined in any grouping.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (zero when empty).
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.min_nanos)
        }
    }

    /// Largest recorded sample (zero when empty).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }

    /// Mean of the recorded samples (zero when empty).
    pub fn mean(&self) -> Duration {
        self.total_nanos
            .checked_div(self.count)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// The latency at quantile `q ∈ [0, 1]`: an upper bound on the value at
    /// or below which `q · count` samples fall, with ≈ 6% bucket resolution,
    /// clamped to the exactly-tracked min/max.  Zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = bucket_upper_nanos(index);
                return Duration::from_nanos(upper.clamp(self.min_nanos, self.max_nanos));
            }
        }
        self.max()
    }

    /// Median latency.
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> Duration {
        self.quantile(0.95)
    }

    /// 99th-percentile latency — the serving SLO headline number.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.p99(), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.min(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut values: Vec<u64> = Vec::new();
        for exp in 0u32..64 {
            for off in [0u64, 1, 3] {
                values.push((1u64 << exp).saturating_add(off * (1u64 << exp.saturating_sub(3))));
            }
        }
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "index {idx} for value {v}");
            assert!(idx >= last, "index not monotone at value {v}");
            last = idx;
        }
    }

    #[test]
    fn bucket_upper_bound_contains_its_values() {
        for v in [1u64, 7, 15, 16, 17, 100, 1_000, 123_456, 1 << 30, 1 << 40] {
            let idx = bucket_index(v);
            assert!(
                bucket_upper_nanos(idx) >= v,
                "value {v} above its bucket's upper bound"
            );
            // The relative error of reading the upper bound back is ≤ 1/SUB.
            assert!(bucket_upper_nanos(idx) as f64 <= v as f64 * (1.0 + 1.0 / SUB as f64) + 1.0);
        }
        // The top bucket's bound is `u64::MAX`, read back without overflow
        // through both entries.
        assert_eq!(bucket_upper_nanos(bucket_index(u64::MAX)), u64::MAX);
        let mut h = LatencyHistogram::new();
        h.record_nanos(u64::MAX);
        h.record(Duration::MAX);
        assert_eq!(h.p50(), Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn single_sample_quantiles_are_tight() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(123));
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            // Clamped to the exactly-tracked min/max of one sample.
            assert_eq!(h.quantile(q), Duration::from_micros(123), "q={q}");
        }
        assert_eq!(h.mean(), Duration::from_micros(123));
    }

    #[test]
    fn quantiles_are_monotone_and_ordered() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record_nanos(i * 997);
        }
        assert!(h.p50() <= h.p95());
        assert!(h.p95() <= h.p99());
        assert!(h.p99() <= h.max());
        assert!(h.min() <= h.p50());
        // p50 of a uniform ramp sits near the middle (within bucket error).
        let p50 = h.p50().as_nanos() as f64;
        let exact = 500.0 * 997.0;
        assert!((p50 - exact).abs() / exact < 0.10, "p50 {p50} vs {exact}");
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LatencyHistogram::new();
        a.record_nanos(10);
        a.record_nanos(1_000);
        let mut b = LatencyHistogram::new();
        b.record_nanos(5);
        b.record_nanos(100_000);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.min(), Duration::from_nanos(5));
        assert_eq!(merged.max(), Duration::from_nanos(100_000));
        // Merging equals recording the union.
        let mut union = LatencyHistogram::new();
        for n in [10, 1_000, 5, 100_000] {
            union.record_nanos(n);
        }
        assert_eq!(merged, union);
    }
}
