//! Order statistics over timing samples.

/// A statistic and the number of samples behind it.
pub type Stat = (f64, usize);

/// Sort a sample ascending (timings are finite, so `total_cmp` is the
/// plain numeric order).
fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (0..=100) of an ascending sample; 0.0
/// for an empty one, so an idle layer reads as "no time spent".
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p).max(1) - 1]
}

/// Nearest-rank percentile `p` of an unsorted sample, with its size.
pub fn percentile_of(values: Vec<f64>, p: f64) -> Stat {
    let v = sorted(values);
    (percentile(&v, p), v.len())
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even), 0.0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest rank (1-based) of percentile `p` among `n` samples. The
/// small slack keeps `99.9 / 100 * 10_000` (a hair above 9990 in
/// floating point) from rounding up to the next rank.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0 * n as f64) - 1e-9).ceil() as usize).min(n)
}

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 that still
/// has at least ten samples beyond it — the tail a sample of `n` can
/// support. `None` below 20 samples, where not even the median does.
pub fn supported_tail(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| n - rank(n, p) >= 10)
}

/// Harmonic mean, 0.0 if the sample is empty or holds a non-positive
/// value (the Graph 500 convention for a failed run).
pub fn harmonic_mean(v: &[f64]) -> f64 {
    if v.is_empty() || v.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    v.len() as f64 / v.iter().map(|x| 1.0 / x).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s[..3], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile_of(vec![3.0, 1.0, 2.0], 50.0), (2.0, 3));
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(99), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn harmonic_mean_rejects_non_positive_values() {
        assert_eq!(harmonic_mean(&[2.0, 2.0]), 2.0);
        assert!((harmonic_mean(&[1.0, 3.0]) - 1.5).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[1.0, 0.0]), 0.0);
        assert_eq!(harmonic_mean(&[]), 0.0);
    }
}
