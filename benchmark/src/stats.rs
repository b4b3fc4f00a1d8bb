//! Order statistics over latency samples and repeated runs.

/// Nearest-rank percentile (`q` in `[0, 1]`) of `samples`; sorts in place.
/// Returns 0 for an empty slice.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median with the usual mean-of-middle-pair rule; sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// computes them — the driver's spread rule. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Python: j = i * (n + 1) // 4 clamped to [1, n - 1]; delta = i * (n + 1) - j * 4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median: the spread the
/// driver holds against each end-to-end metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(&mut values.to_vec());
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.9), 90.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), (10.0, 40.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
