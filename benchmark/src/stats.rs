//! Order statistics over timing samples.

/// Sorts `samples` and returns them (timings are never NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending slice by linear
/// interpolation between closest ranks; NaN for an empty slice so a phase
/// that produced no sample fails the finite-value check instead of
/// reporting a made-up number.
pub fn quantile(ascending: &[f64], q: f64) -> f64 {
    match ascending {
        [] => f64::NAN,
        [only] => *only,
        _ => {
            let pos = q.clamp(0.0, 1.0) * (ascending.len() - 1) as f64;
            let below = pos.floor() as usize;
            let above = pos.ceil() as usize;
            let frac = pos - below as f64;
            ascending[below] + (ascending[above] - ascending[below]) * frac
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// Arithmetic mean; NaN for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Mean of the samples left after discarding the largest `trim` share — a
/// mean that a handful of host stalls cannot drag.  NaN for no samples.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> f64 {
    let ascending = sorted(samples.to_vec());
    let keep = ascending.len() - (ascending.len() as f64 * trim).floor() as usize;
    mean(&ascending[..keep])
}

/// The highest of p50/p90/p95/p99/p99.9 that still has at least ten samples
/// beyond it — the tail a sample of this size can support.
pub fn highest_supported_percentile(count: usize) -> f64 {
    // (percentile, one sample in this many lies beyond it)
    [(0.999, 1000), (0.99, 100), (0.95, 20), (0.9, 10)]
        .into_iter()
        .find(|(_, one_in)| count / one_in >= 10)
        .map_or(0.5, |(q, _)| q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_closest_ranks() {
        let v = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn empty_samples_are_not_a_number() {
        assert!(quantile(&[], 0.5).is_nan());
        assert!(median(&[]).is_nan());
        assert!(mean(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn trimmed_mean_drops_the_largest_share() {
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        v.push(1e9);
        assert_eq!(trimmed_mean(&v, 0.01), 50.0);
        assert_eq!(trimmed_mean(&[2.0, 4.0], 0.01), 3.0);
        assert!(trimmed_mean(&[], 0.01).is_nan());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(15), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(200), 0.95);
        assert_eq!(highest_supported_percentile(1_000), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
    }
}
