//! Logarithmic histograms.
//!
//! Figure 2 of the paper plots the degree distribution of a Graph 500
//! graph on log-log axes, showing the characteristic multi-peak shape of
//! R-MAT. [`LogHistogram`] buckets values by powers of a configurable
//! base so the figure harness can print the same series at laptop scale.

/// Histogram whose bucket `k` covers `[base^k, base^(k+1))`.
///
/// Bucket 0 additionally holds the value `0` so every sample lands
/// somewhere.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    base: f64,
    counts: Vec<u64>,
}

impl LogHistogram {
    /// Create an empty histogram with logarithmic `base` (must be > 1).
    pub fn new(base: f64) -> Self {
        assert!(base > 1.0, "histogram base must exceed 1");
        LogHistogram {
            base,
            counts: Vec::new(),
        }
    }

    /// Convenience: base-10 histogram matching the paper's Figure 2 axes.
    pub fn decades() -> Self {
        Self::new(10.0)
    }

    /// Bucket index for `value`.
    #[inline]
    pub fn bucket_of(&self, value: u64) -> usize {
        if value <= 1 {
            return 0;
        }
        // Iterative comparison avoids the classic `ln(1000)/ln(10) =
        // 2.999...` floating-point misbucket.
        let mut k = 0usize;
        let mut bound = self.base;
        while value as f64 >= bound {
            k += 1;
            bound *= self.base;
        }
        k
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let b = self.bucket_of(value);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
    }

    /// `(lower_bound, count)` pairs for every non-empty trailing-trimmed bucket.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(k, &c)| (self.base.powi(k as i32) as u64, c))
            .collect()
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Merge another histogram (same base) into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            (self.base - other.base).abs() < f64::EPSILON,
            "cannot merge histograms with different bases"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_base10() {
        let h = LogHistogram::decades();
        assert_eq!(h.bucket_of(0), 0);
        assert_eq!(h.bucket_of(1), 0);
        assert_eq!(h.bucket_of(9), 0);
        assert_eq!(h.bucket_of(10), 1);
        assert_eq!(h.bucket_of(99), 1);
        assert_eq!(h.bucket_of(100), 2);
        assert_eq!(h.bucket_of(1_000_000), 6);
    }

    #[test]
    fn record_and_total() {
        let mut h = LogHistogram::decades();
        h.record(5);
        h.record(50);
        for _ in 0..3 {
            h.record(500);
        }
        assert_eq!(h.total(), 5);
        let b = h.buckets();
        assert_eq!(b[0], (1, 1));
        assert_eq!(b[1], (10, 1));
        assert_eq!(b[2], (100, 3));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LogHistogram::decades();
        let mut b = LogHistogram::decades();
        a.record(1);
        b.record(1);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.buckets()[0].1, 2);
        assert_eq!(a.buckets()[3].1, 1);
    }

    #[test]
    #[should_panic]
    fn merge_base_mismatch_panics() {
        let mut a = LogHistogram::new(2.0);
        let b = LogHistogram::new(10.0);
        a.merge(&b);
    }
}
