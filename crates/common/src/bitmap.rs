//! Dense bit vectors.
//!
//! Frontier and visited sets in the BFS engine are bit vectors, exactly
//! as in the paper's implementation (the EH2EH pull kernel distributes
//! an "activeness bit vector" over CPE scratchpads). This module
//! provides a compact, allocation-friendly `Bitmap` built on `u64`
//! words with the operations the engine needs: set/test, word-level
//! bulk OR, population count, iteration over set bits, and in-place
//! difference.

pub mod wide;

/// A fixed-capacity dense bit vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    bits: u64,
    words: Vec<u64>,
}

impl Bitmap {
    /// Create an all-zero bitmap capable of holding `bits` bits.
    pub fn new(bits: u64) -> Self {
        let nwords = bits.div_ceil(64) as usize;
        Bitmap {
            bits,
            words: vec![0; nwords],
        }
    }

    /// Number of bits this bitmap can hold.
    #[inline]
    pub fn len(&self) -> u64 {
        self.bits
    }

    /// True when the bitmap has zero capacity.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Test bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()` in debug builds.
    #[inline]
    pub fn get(&self, i: u64) -> bool {
        debug_assert!(i < self.bits, "bit index {i} out of range {}", self.bits);
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to one. Returns the previous value.
    #[inline]
    pub fn set(&mut self, i: u64) -> bool {
        debug_assert!(i < self.bits, "bit index {i} out of range {}", self.bits);
        let w = &mut self.words[(i / 64) as usize];
        let mask = 1u64 << (i % 64);
        let old = *w & mask != 0;
        *w |= mask;
        old
    }

    /// Zero the whole bitmap, keeping capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        wide::count_ones(&self.words)
    }

    /// True when no bit is set.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Bitwise OR of `other` into `self`.
    ///
    /// # Panics
    /// Panics when lengths differ.
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.bits, other.bits, "bitmap length mismatch");
        wide::or_assign(&mut self.words, &other.words);
    }

    /// Bitwise AND-NOT: remove from `self` every bit set in `other`.
    pub fn and_not_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.bits, other.bits, "bitmap length mismatch");
        wide::and_not_assign(&mut self.words, &other.words);
    }

    /// Count set bits within `[start, end)`.
    pub fn count_ones_range(&self, start: u64, end: u64) -> u64 {
        let end = end.min(self.bits);
        if start >= end {
            return 0;
        }
        let (ws, we) = ((start / 64) as usize, ((end - 1) / 64) as usize);
        let mut total = 0u64;
        for w in ws..=we {
            let mut word = self.words[w];
            if w == ws {
                word &= u64::MAX << (start % 64);
            }
            if w == we {
                let top = end - w as u64 * 64;
                if top < 64 {
                    word &= (1u64 << top) - 1;
                }
            }
            total += word.count_ones() as u64;
        }
        total
    }

    /// Raw word storage (read-only); used by collectives to ship bitmaps.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Raw word storage (mutable); used by collectives to receive bitmaps.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Iterate over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        self.iter_ones_words(0, self.words.len())
    }

    /// Number of `u64` words backing the bitmap — the unit the worker
    /// pool chunks scans on (one word = a 64-vertex block).
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Iterate set-bit indices (global, ascending) of the word window
    /// `[wstart, wend)`. This is the worker-pool entry point: chunking
    /// a scan on disjoint word windows and concatenating the results in
    /// window order reproduces [`Bitmap::iter_ones`] exactly.
    pub fn iter_ones_words(&self, wstart: usize, wend: usize) -> OnesIter<'_> {
        let wend = wend.min(self.words.len());
        let wstart = wstart.min(wend);
        OnesIter {
            words: &self.words[..wend],
            bits: self.bits,
            word_idx: wstart,
            current: self.words.get(wstart).copied().unwrap_or(0),
        }
    }
}

/// Iterator over set bit indices of a [`Bitmap`].
pub struct OnesIter<'a> {
    words: &'a [u64],
    bits: u64,
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as u64;
                self.current &= self.current - 1;
                let idx = self.word_idx as u64 * 64 + tz;
                if idx < self.bits {
                    return Some(idx);
                }
                return None;
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let b = Bitmap::new(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_ones(), 0);
        assert!(b.is_zero());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitmap::new(100);
        assert!(!b.set(63));
        assert!(b.set(63)); // second set reports prior value
        b.set(64);
        b.set(99);
        assert!(b.get(63) && b.get(64) && b.get(99));
        assert!(!b.get(0) && !b.get(65));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn or_assign_unions() {
        let mut a = Bitmap::new(70);
        let mut b = Bitmap::new(70);
        a.set(1);
        b.set(69);
        a.or_assign(&b);
        assert!(a.get(1) && a.get(69));
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    fn and_not_removes() {
        let mut a = Bitmap::new(70);
        let mut b = Bitmap::new(70);
        a.set(1);
        a.set(2);
        b.set(2);
        a.and_not_assign(&b);
        assert!(a.get(1) && !a.get(2));
    }

    #[test]
    fn iter_ones_yields_ascending_indices() {
        let mut b = Bitmap::new(200);
        let idxs = [0u64, 63, 64, 127, 128, 199];
        for &i in &idxs {
            b.set(i);
        }
        let got: Vec<u64> = b.iter_ones().collect();
        assert_eq!(got, idxs);
    }

    #[test]
    fn count_ones_range_matches_iteration() {
        let mut b = Bitmap::new(300);
        for i in (0..300).step_by(7) {
            b.set(i);
        }
        for (lo, hi) in [
            (0u64, 300u64),
            (0, 0),
            (5, 5),
            (63, 65),
            (64, 128),
            (1, 299),
            (128, 300),
        ] {
            let expect = b.iter_ones().filter(|i| (lo..hi).contains(i)).count() as u64;
            assert_eq!(b.count_ones_range(lo, hi), expect, "range [{lo},{hi})");
        }
    }

    #[test]
    fn word_windows_tile_iter_ones() {
        let mut b = Bitmap::new(1000);
        for i in (0..1000).step_by(13) {
            b.set(i);
        }
        let serial: Vec<u64> = b.iter_ones().collect();
        // Any partition of the word range, concatenated in order, must
        // reproduce the full iteration — the pool's determinism basis.
        for window in [1usize, 3, 7, 16] {
            let mut tiled = Vec::new();
            let mut w = 0;
            while w < b.num_words() {
                tiled.extend(b.iter_ones_words(w, (w + window).min(b.num_words())));
                w += window;
            }
            assert_eq!(tiled, serial, "window={window}");
        }
    }

    #[test]
    fn iter_ones_words_clamps_out_of_range() {
        let mut b = Bitmap::new(100);
        b.set(99);
        assert_eq!(b.iter_ones_words(5, 99).count(), 0);
        assert_eq!(b.iter_ones_words(0, usize::MAX).count(), 1);
        assert_eq!(b.iter_ones_words(9, 3).count(), 0);
    }

    #[test]
    fn iter_ones_ignores_bits_past_len() {
        // length not a multiple of 64: highest word has slack which must
        // never be reported even if set through words_mut.
        let mut b = Bitmap::new(65);
        b.words_mut()[1] = u64::MAX;
        let got: Vec<u64> = b.iter_ones().collect();
        assert_eq!(got, vec![64]);
    }

    #[test]
    #[should_panic]
    fn or_assign_length_mismatch_panics() {
        let mut a = Bitmap::new(10);
        let b = Bitmap::new(20);
        a.or_assign(&b);
    }
}
