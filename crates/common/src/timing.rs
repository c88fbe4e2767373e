//! Simulated-time accounting.
//!
//! The reproduction separates *functional* execution (real Rust code
//! moving real bytes at laptop scale) from *performance* projection (a
//! cost model calibrated to the paper's machine constants). Both the
//! chip simulator and the network runtime express cost in [`SimTime`]
//! seconds and aggregate per-category costs in a [`TimeAccumulator`],
//! which the figure harnesses read to print the paper's breakdowns
//! (Figures 10, 11, 15).

use std::collections::BTreeMap;
use std::ops::{Add, AddAssign, Sub};

/// A duration/instant on the simulated clock, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds.
    #[inline]
    pub fn secs(s: f64) -> Self {
        SimTime(s)
    }

    /// Construct from a byte volume over a bandwidth in bytes/second.
    #[inline]
    pub fn from_bytes(bytes: u64, bandwidth: f64) -> Self {
        debug_assert!(bandwidth > 0.0);
        SimTime(bytes as f64 / bandwidth)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Seconds as `f64`.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

/// Named per-category simulated-time totals.
///
/// Categories are free-form strings ("alltoallv", "EH2EH.pull", ...); the
/// figure harnesses group and normalize them. Deterministic iteration
/// order (BTreeMap) keeps printed tables stable.
#[derive(Clone, Debug, Default)]
pub struct TimeAccumulator {
    totals: BTreeMap<String, f64>,
}

impl TimeAccumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `t` to `category`.
    pub fn add(&mut self, category: &str, t: SimTime) {
        // Looked up before it is owned: only a category's first charge
        // allocates its key.
        match self.totals.get_mut(category) {
            Some(total) => *total += t.0,
            None => {
                self.totals.insert(category.to_string(), 0.0 + t.0);
            }
        }
    }

    /// Total for one category (0 when absent).
    pub fn get(&self, category: &str) -> SimTime {
        SimTime(self.totals.get(category).copied().unwrap_or(0.0))
    }

    /// Sum over all categories.
    pub fn total(&self) -> SimTime {
        SimTime(self.totals.values().sum())
    }

    /// Sum over categories whose name starts with `prefix`.
    pub fn total_with_prefix(&self, prefix: &str) -> SimTime {
        SimTime(
            self.totals
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, v)| v)
                .sum(),
        )
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &TimeAccumulator) {
        for (k, v) in &other.totals {
            *self.totals.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    /// All `(category, seconds)` pairs in lexicographic order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, f64)> {
        self.totals.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Remove every category, keeping the allocation.
    pub fn reset(&mut self) {
        self.totals.clear();
    }

    /// Per-category difference `self - earlier` (categories missing from
    /// `earlier` count as zero). Used to isolate one phase's times from
    /// a running accumulator.
    pub fn diff(&self, earlier: &TimeAccumulator) -> TimeAccumulator {
        let mut out = TimeAccumulator::new();
        for (k, v) in &self.totals {
            let base = earlier.totals.get(k).copied().unwrap_or(0.0);
            let d = v - base;
            if d != 0.0 {
                out.totals.insert(k.clone(), d);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::secs(1.5);
        let b = SimTime::secs(0.5);
        assert_eq!((a + b).as_secs(), 2.0);
        assert_eq!((a - b).as_secs(), 1.0);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn from_bytes_divides_by_bandwidth() {
        assert_eq!(SimTime::from_bytes(100, 50.0).as_secs(), 2.0);
    }

    #[test]
    fn accumulator_adds_and_groups() {
        let mut acc = TimeAccumulator::new();
        acc.add("comm.alltoallv", SimTime::secs(1.0));
        acc.add("comm.alltoallv", SimTime::secs(2.0));
        acc.add("comm.allgather", SimTime::secs(4.0));
        acc.add("compute", SimTime::secs(8.0));
        assert_eq!(acc.get("comm.alltoallv").as_secs(), 3.0);
        assert_eq!(acc.total_with_prefix("comm.").as_secs(), 7.0);
        assert_eq!(acc.total().as_secs(), 15.0);
    }

    #[test]
    fn accumulator_merge() {
        let mut a = TimeAccumulator::new();
        let mut b = TimeAccumulator::new();
        a.add("x", SimTime::secs(1.0));
        b.add("x", SimTime::secs(2.0));
        b.add("y", SimTime::secs(3.0));
        a.merge(&b);
        assert_eq!(a.get("x").as_secs(), 3.0);
        assert_eq!(a.get("y").as_secs(), 3.0);
    }

    #[test]
    fn diff_isolates_a_phase() {
        let mut acc = TimeAccumulator::new();
        acc.add("a", SimTime::secs(1.0));
        let snapshot = acc.clone();
        acc.add("a", SimTime::secs(2.0));
        acc.add("b", SimTime::secs(5.0));
        let d = acc.diff(&snapshot);
        assert_eq!(d.get("a").as_secs(), 2.0);
        assert_eq!(d.get("b").as_secs(), 5.0);
        assert_eq!(d.total().as_secs(), 7.0);
    }

    #[test]
    fn entries_are_sorted() {
        let mut acc = TimeAccumulator::new();
        acc.add("b", SimTime::secs(1.0));
        acc.add("a", SimTime::secs(1.0));
        let keys: Vec<&str> = acc.entries().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }
}
