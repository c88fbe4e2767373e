//! Block distribution of vertices over ranks.
//!
//! "Vertices are first evenly distributed across nodes" (§6.2.2): rank
//! `r` owns the contiguous interval `[r·⌈n/P⌉, (r+1)·⌈n/P⌉) ∩ [0, n)`.
//! Owners hold the L-vertex state (frontier/visited/parent bits) and
//! the L-rooted components of the partition.

use std::ops::Range;

/// Block distribution of `n` vertices over `p` ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VertexDistribution {
    n: u64,
    p: usize,
    chunk: u64,
    /// `log2(chunk)` when `chunk` is a power of two — every
    /// power-of-two `n` over a power-of-two mesh — so that
    /// [`Self::owner`], which routes every L message, shifts instead of
    /// dividing by a runtime value.
    chunk_shift: Option<u32>,
}

impl VertexDistribution {
    /// Distribution of `n` vertices over `p` ranks.
    pub fn new(n: u64, p: usize) -> Self {
        assert!(p > 0);
        assert!(n > 0, "empty vertex set");
        let chunk = n.div_ceil(p as u64);
        VertexDistribution {
            n,
            p,
            chunk,
            chunk_shift: chunk.is_power_of_two().then(|| chunk.trailing_zeros()),
        }
    }

    /// Total vertices.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.n
    }

    /// Number of ranks.
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.p
    }

    /// Owning rank of vertex `v`.
    #[inline]
    pub fn owner(&self, v: u64) -> usize {
        debug_assert!(v < self.n);
        let block = match self.chunk_shift {
            Some(shift) => v >> shift,
            None => v / self.chunk,
        };
        (block as usize).min(self.p - 1)
    }

    /// The interval rank `r` owns (possibly empty for trailing ranks).
    #[inline]
    pub fn range_of(&self, r: usize) -> Range<u64> {
        debug_assert!(r < self.p);
        let lo = (r as u64 * self.chunk).min(self.n);
        let hi = ((r as u64 + 1) * self.chunk).min(self.n);
        lo..hi
    }

    /// Local index of `v` on its owner.
    #[inline]
    pub fn local_index(&self, v: u64) -> u64 {
        v - self.range_of(self.owner(v)).start
    }

    /// Number of vertices rank `r` owns.
    #[inline]
    pub fn local_count(&self, r: usize) -> u64 {
        let range = self.range_of(r);
        range.end - range.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_vertex_set() {
        // Shifted blocks (64/8, 1/1, 10/16, and 1021/8: an odd `n`
        // whose block of 128 leaves the last rank short), divided ones,
        // and 9/8: blocks of 2, the last three ranks empty.
        for (n, p) in [
            (100u64, 7usize),
            (64, 8),
            (10, 16),
            (1, 1),
            (1000, 3),
            (1021, 8),
            (9, 8),
        ] {
            let d = VertexDistribution::new(n, p);
            let mut covered = 0u64;
            for r in 0..p {
                let range = d.range_of(r);
                assert_eq!(range.start, covered.min(n));
                covered = covered.max(range.end);
                for v in range.clone() {
                    assert_eq!(d.owner(v), r, "owner mismatch at v={v}, n={n}, p={p}");
                    assert_eq!(d.local_index(v), v - range.start);
                }
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn owner_clamps_to_last_rank() {
        // n=10, p=16: chunk=1, vertices 0..10 owned by ranks 0..10,
        // ranks 10..16 own nothing.
        let d = VertexDistribution::new(10, 16);
        assert_eq!(d.owner(9), 9);
        assert_eq!(d.local_count(12), 0);
    }

    #[test]
    fn local_counts_sum_to_n() {
        let d = VertexDistribution::new(12345, 17);
        let total: u64 = (0..17).map(|r| d.local_count(r)).sum();
        assert_eq!(total, 12345);
    }
}
