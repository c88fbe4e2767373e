//! Degree-distribution tooling.
//!
//! Figure 2 of the paper shows the degree distribution of a SCALE-40
//! Graph 500 graph: extremely skewed yet *discrete* — "multiple
//! hypergeometric distributions centered at numerous peaks". Because
//! only thresholds that fall *between* peaks are meaningful, threshold
//! tuning (Figure 12) starts from this histogram. These helpers compute
//! exact degrees and log-bucketed histograms at laptop scales.

use sunbfs_common::{Edge, LogHistogram};

/// Exact degree of every vertex (counting both endpoints of every
/// generated edge; self loops add 2, matching adjacency-matrix
/// conventions used by the generator's skew analysis).
pub fn degrees(num_vertices: u64, edges: &[Edge]) -> Vec<u32> {
    let mut deg = vec![0u32; num_vertices as usize];
    for e in edges {
        deg[e.u as usize] += 1;
        deg[e.v as usize] += 1;
    }
    deg
}

/// Log-10 bucketed histogram of a degree array (the axes of Figure 2).
pub fn degree_histogram(degs: &[u32]) -> LogHistogram {
    let mut h = LogHistogram::decades();
    for &d in degs {
        h.record(d as u64);
    }
    h
}

/// Exact frequency table: `(degree, number_of_vertices)` sorted by
/// degree, skipping degree zero. Used to locate the distribution's
/// peaks when selecting candidate E/H thresholds.
pub fn degree_frequencies(degs: &[u32]) -> Vec<(u32, u64)> {
    let mut sorted: Vec<u32> = degs.iter().copied().filter(|&d| d > 0).collect();
    sorted.sort_unstable();
    let mut out: Vec<(u32, u64)> = Vec::new();
    for d in sorted {
        match out.last_mut() {
            Some((last, cnt)) if *last == d => *cnt += 1,
            _ => out.push((d, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrees_counts_both_endpoints() {
        let edges = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 2)];
        let d = degrees(4, &edges);
        assert_eq!(d, vec![1, 2, 3, 0]);
    }

    #[test]
    fn histogram_totals_match_vertex_count() {
        let d = [0u32, 1, 5, 10, 100, 1000];
        let h = degree_histogram(&d);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn frequencies_sorted_and_complete() {
        let d = [3u32, 1, 3, 0, 1, 3];
        let f = degree_frequencies(&d);
        assert_eq!(f, vec![(1, 2), (3, 3)]);
    }
}
