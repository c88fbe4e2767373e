//! Helpers shared by the root integration tests.

/// Vertices per depth (index = depth) of a depth array; `u64::MAX`
/// marks an unreached vertex and is not counted.
pub fn census(depths: &[u64]) -> Vec<u64> {
    let mut histogram = Vec::new();
    for &d in depths.iter().filter(|&&d| d != u64::MAX) {
        histogram.resize(histogram.len().max(d as usize + 1), 0);
        histogram[d as usize] += 1;
    }
    histogram
}
