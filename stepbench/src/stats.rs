//! Order statistics over step samples.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (the
/// "inclusive" definition: `q = 0` is the minimum, `q = 1` the
/// maximum). Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples strictly beyond the `q` quantile of `n` samples: the tail a
/// percentile rests on. A p90 needs ten of them to be trusted.
pub fn tail_samples(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Element-wise maximum across ranks of per-step series of equal
/// length.
pub fn max_across(series: &[Vec<f64>]) -> Vec<f64> {
    let len = series.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| series.iter().map(|s| s[i]).fold(f64::MIN, f64::max))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_a_ten_sample_tail() {
        assert_eq!(tail_samples(100, 0.9), 10);
        assert_eq!(tail_samples(99, 0.9), 9);
        assert_eq!(tail_samples(5, 0.5), 2);
    }

    #[test]
    fn max_across_takes_the_slowest_rank_per_step() {
        let m = max_across(&[vec![1.0, 5.0], vec![2.0, 3.0, 9.0]]);
        assert_eq!(m, vec![2.0, 5.0]);
    }
}
