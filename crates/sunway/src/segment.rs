//! CG-aware core-subgraph segmenting, §4.3.
//!
//! The hot kernel of the paper is the bottom-up (pull) sweep of the
//! EH2EH core subgraph: random reads of the column E∪H activeness bit
//! vector. That vector (≤ 12.5 MB per column) does not fit one CPE's
//! 256 KB LDM, so the paper segments the subgraph by destination into
//! six pieces — one per core group — and distributes each segment's bit
//! vector over the 64 CPE LDMs of its CG in 1024-byte lines,
//! round-robin by line (Figure 7):
//!
//! ```text
//! bit offset = [ line number | CPE number (6 bits) | offset in line (13 bits) ]
//! ```
//!
//! A CPE then reads any bit of the segment with one RMA `get` from a
//! peer LDM (≈ 9× cheaper than the GLD main-memory access it replaces).
//!
//! [`SegmentedBitvec`] implements the mapping functionally (bits are
//! stored per-CPE exactly as the mapping dictates) and exposes the
//! access-cost classification the BFS engine charges.

use sunbfs_common::Bitmap;

/// Bits per LDM line (1024 bytes).
pub const BITS_PER_LINE: u64 = 1024 * 8;

/// Where a bit of the segment lives on the core group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitLocation {
    /// Owning CPE (0..cpes).
    pub cpe: usize,
    /// Line index within that CPE's LDM slice.
    pub local_line: usize,
    /// Bit offset inside the line.
    pub offset_in_line: u64,
}

/// A bit vector distributed over the LDMs of one core group.
#[derive(Clone, Debug)]
pub struct SegmentedBitvec {
    num_bits: u64,
    cpes: usize,
    /// Per-CPE LDM content: `lines_per_cpe * BITS_PER_LINE / 64` words each.
    ldm: Vec<Vec<u64>>,
}

impl SegmentedBitvec {
    /// Distribute `num_bits` over `cpes` LDMs.
    pub fn new(num_bits: u64, cpes: usize) -> Self {
        assert!(cpes > 0);
        let lines = num_bits.div_ceil(BITS_PER_LINE);
        let lines_per_cpe = lines.div_ceil(cpes as u64).max(1) as usize;
        let words_per_cpe = lines_per_cpe * (BITS_PER_LINE as usize / 64);
        SegmentedBitvec {
            num_bits,
            cpes,
            ldm: vec![vec![0u64; words_per_cpe]; cpes],
        }
    }

    /// Build from a plain bitmap (the column activeness vector).
    pub fn from_bitmap(bm: &Bitmap, cpes: usize) -> Self {
        let mut s = SegmentedBitvec::new(bm.len(), cpes);
        for i in bm.iter_ones() {
            s.set(i);
        }
        s
    }

    /// Capacity in bits.
    #[inline]
    pub fn len(&self) -> u64 {
        self.num_bits
    }

    /// True when capacity is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_bits == 0
    }

    /// Number of CPEs the vector is spread over.
    #[inline]
    pub fn cpes(&self) -> usize {
        self.cpes
    }

    /// LDM bytes each CPE dedicates to this vector.
    pub fn ldm_bytes_per_cpe(&self) -> usize {
        self.ldm[0].len() * 8
    }

    /// Whether a segment of `num_bits` fits the per-CPE LDM budget.
    pub fn fits_budget(num_bits: u64, cpes: usize, budget_bytes: usize) -> bool {
        let lines = num_bits.div_ceil(BITS_PER_LINE);
        let lines_per_cpe = lines.div_ceil(cpes as u64).max(1);
        (lines_per_cpe * 1024) as usize <= budget_bytes
    }

    /// The Figure 7 offset mapping: line number round-robins over CPEs.
    #[inline]
    pub fn location_of(&self, bit: u64) -> BitLocation {
        debug_assert!(
            bit < self.num_bits,
            "bit {bit} out of range {}",
            self.num_bits
        );
        let line = bit / BITS_PER_LINE;
        BitLocation {
            cpe: (line % self.cpes as u64) as usize,
            local_line: (line / self.cpes as u64) as usize,
            offset_in_line: bit % BITS_PER_LINE,
        }
    }

    /// Set a bit (host-side construction path).
    pub fn set(&mut self, bit: u64) {
        let loc = self.location_of(bit);
        let word =
            loc.local_line * (BITS_PER_LINE as usize / 64) + (loc.offset_in_line / 64) as usize;
        self.ldm[loc.cpe][word] |= 1u64 << (loc.offset_in_line % 64);
    }

    /// Read a bit as CPE `from_cpe` would: returns the value and whether
    /// the read crossed to another CPE's LDM (an RMA get) or stayed
    /// local.
    #[inline]
    pub fn get_from(&self, from_cpe: usize, bit: u64) -> (bool, bool) {
        let loc = self.location_of(bit);
        let word =
            loc.local_line * (BITS_PER_LINE as usize / 64) + (loc.offset_in_line / 64) as usize;
        let v = (self.ldm[loc.cpe][word] >> (loc.offset_in_line % 64)) & 1 == 1;
        (v, loc.cpe != from_cpe)
    }

    /// Plain read (cost-agnostic).
    #[inline]
    pub fn get(&self, bit: u64) -> bool {
        self.get_from(0, bit).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunbfs_common::SplitMix64;

    #[test]
    fn mapping_matches_figure7_fields() {
        let s = SegmentedBitvec::new(64 * BITS_PER_LINE * 3, 64);
        // Bit 0 → line 0 → CPE 0.
        assert_eq!(
            s.location_of(0),
            BitLocation {
                cpe: 0,
                local_line: 0,
                offset_in_line: 0
            }
        );
        // Last bit of line 0 stays on CPE 0.
        let l = s.location_of(BITS_PER_LINE - 1);
        assert_eq!(
            (l.cpe, l.local_line, l.offset_in_line),
            (0, 0, BITS_PER_LINE - 1)
        );
        // First bit of line 1 hops to CPE 1.
        let l = s.location_of(BITS_PER_LINE);
        assert_eq!((l.cpe, l.local_line, l.offset_in_line), (1, 0, 0));
        // Line 64 wraps back to CPE 0, local line 1.
        let l = s.location_of(64 * BITS_PER_LINE);
        assert_eq!((l.cpe, l.local_line, l.offset_in_line), (0, 1, 0));
    }

    #[test]
    fn set_get_roundtrip_random_bits() {
        let n = 1_000_000u64;
        let mut s = SegmentedBitvec::new(n, 64);
        let mut rng = SplitMix64::new(9);
        let bits: Vec<u64> = (0..1000).map(|_| rng.next_below(n)).collect();
        for &b in &bits {
            s.set(b);
        }
        for &b in &bits {
            assert!(s.get(b), "bit {b} lost in the LDM mapping");
        }
        // Bits we never set stay clear.
        let set: std::collections::HashSet<u64> = bits.iter().copied().collect();
        for _ in 0..1000 {
            let b = rng.next_below(n);
            if !set.contains(&b) {
                assert!(!s.get(b));
            }
        }
    }

    #[test]
    fn from_bitmap_preserves_contents() {
        let mut bm = Bitmap::new(100_000);
        for i in (0..100_000).step_by(37) {
            bm.set(i);
        }
        let s = SegmentedBitvec::from_bitmap(&bm, 64);
        for i in 0..100_000 {
            assert_eq!(s.get(i), bm.get(i), "mismatch at bit {i}");
        }
    }

    #[test]
    fn remote_reads_are_flagged() {
        let s = SegmentedBitvec::new(64 * BITS_PER_LINE, 64);
        // Bit in line 5 belongs to CPE 5.
        let bit = 5 * BITS_PER_LINE + 17;
        assert!(!s.get_from(5, bit).1, "owner read must be local");
        assert!(s.get_from(4, bit).1, "peer read must be RMA");
    }

    #[test]
    fn ldm_budget_check_matches_paper_sizes() {
        // §4.3: a ~2 MB per-CG segment over 64 CPEs → 32 KB per CPE,
        // comfortably inside 256 KB LDM.
        let bits_2mb = 2 * 1024 * 1024 * 8u64;
        assert!(SegmentedBitvec::fits_budget(bits_2mb, 64, 256 * 1024));
        let s = SegmentedBitvec::new(bits_2mb, 64);
        assert_eq!(s.ldm_bytes_per_cpe(), 32 * 1024);
        // A 12.5 MB undivided column vector does NOT fit a 256 KB LDM
        // budget on one CPE — the reason segmenting exists.
        assert!(!SegmentedBitvec::fits_budget(100_000_000, 1, 256 * 1024));
    }
}
