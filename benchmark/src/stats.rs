//! Order statistics: percentiles of one run's samples, and quartiles and
//! spread across runs.

/// Sort samples ascending (NaN-free by construction: they are durations).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median as the mean of the two middle samples for even counts, so a
/// two-valued sample set does not snap to one side.
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Whether percentile `p` of `n` samples has at least ten samples beyond
/// it — the rule for which tail percentile a sample count supports.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p) >= 10.0 - 1e-9
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values.to_vec());
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(100, 0.90));
        assert!(!tail_supported(99, 0.90));
        assert!(tail_supported(10_000, 0.999));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]), (1.5, 3.0, 8.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
