//! Wide-word bitmap kernels.
//!
//! The hot engine scans walk `u64` word arrays one word at a time. This
//! module provides the chunked wide-word primitives they route through
//! instead: every loop is unrolled over **4-word blocks** (`u64x4` in
//! spirit — the unroll gives the autovectorizer straight-line SIMD
//! bodies without any platform intrinsics), with a scalar tail for the
//! ragged remainder. All primitives visit words/bits in strictly
//! ascending order, so routing a pooled scan through them keeps the
//! chunk-ordered merge — and therefore parents and depths — byte-for-
//! byte identical to the scalar loops they replace (the determinism
//! contract of `docs/PERF.md`).
//!
//! Callers hold plain `&[u64]` slices (both [`super::Bitmap`] storage
//! and the batch engine's raw per-root word arrays), so the primitives
//! take slices rather than bitmaps.

/// Words per unrolled block. Block-chunked loops must handle word
/// counts that are *not* multiples of this (the ragged tail).
pub const BLOCK_WORDS: usize = 4;

/// Population count of a word slice, unrolled over 4-word blocks.
pub fn count_ones(words: &[u64]) -> u64 {
    let mut chunks = words.chunks_exact(BLOCK_WORDS);
    let mut c0 = 0u64;
    let mut c1 = 0u64;
    let mut c2 = 0u64;
    let mut c3 = 0u64;
    for b in &mut chunks {
        c0 += b[0].count_ones() as u64;
        c1 += b[1].count_ones() as u64;
        c2 += b[2].count_ones() as u64;
        c3 += b[3].count_ones() as u64;
    }
    let mut total = c0 + c1 + c2 + c3;
    for &w in chunks.remainder() {
        total += w.count_ones() as u64;
    }
    total
}

/// `dst[i] |= src[i]` over paired slices, unrolled over 4-word blocks.
///
/// # Panics
/// Panics when the slices differ in length.
pub fn or_assign(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "word slice length mismatch");
    let mut cd = dst.chunks_exact_mut(BLOCK_WORDS);
    let mut cs = src.chunks_exact(BLOCK_WORDS);
    for (d, s) in (&mut cd).zip(&mut cs) {
        d[0] |= s[0];
        d[1] |= s[1];
        d[2] |= s[2];
        d[3] |= s[3];
    }
    for (d, s) in cd.into_remainder().iter_mut().zip(cs.remainder()) {
        *d |= s;
    }
}

/// `dst` bits `[base, base + bits) |=` the first `bits` bits of `src`:
/// a member set spliced into a wider one at its offset. One word OR per
/// source word when `base` is word-aligned, a shifted OR with a carried
/// high part when it is not; `src` bits at or above `bits` do not
/// arrive, and no word past the interval's last is touched.
///
/// # Panics
/// Panics when `src` holds fewer than `bits` bits or the interval ends
/// past `dst`.
pub fn or_shifted(dst: &mut [u64], base: u64, src: &[u64], bits: u64) {
    let (mut at, shift) = ((base / 64) as usize, base % 64);
    let full = (bits / 64) as usize;
    let tail = (!bits.is_multiple_of(64)).then(|| src[full] & ((1 << (bits % 64)) - 1));
    if shift == 0 {
        or_assign(&mut dst[at..at + full], &src[..full]);
        if let Some(word) = tail {
            dst[at + full] |= word;
        }
        return;
    }
    let mut carry = 0;
    for word in src[..full].iter().copied().chain(tail) {
        dst[at] |= word << shift | carry;
        carry = word >> (64 - shift);
        at += 1;
    }
    if carry != 0 {
        dst[at] |= carry;
    }
}

/// `dst[i] &= !src[i]` over paired slices, unrolled over 4-word blocks.
///
/// # Panics
/// Panics when the slices differ in length.
pub fn and_not_assign(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "word slice length mismatch");
    let mut cd = dst.chunks_exact_mut(BLOCK_WORDS);
    let mut cs = src.chunks_exact(BLOCK_WORDS);
    for (d, s) in (&mut cd).zip(&mut cs) {
        d[0] &= !s[0];
        d[1] &= !s[1];
        d[2] &= !s[2];
        d[3] &= !s[3];
    }
    for (d, s) in cd.into_remainder().iter_mut().zip(cs.remainder()) {
        *d &= !s;
    }
}

/// Visit every **nonzero** word of `words[wstart..wend)` in ascending
/// index order: `f(word_index, word)`. All-zero 4-word blocks are
/// skipped with one OR-reduction — the sparse-frontier fast path of the
/// push scans.
///
/// Out-of-range or inverted windows clamp to empty, matching
/// [`super::Bitmap::iter_ones_words`].
pub fn for_each_nonzero_word(
    words: &[u64],
    wstart: usize,
    wend: usize,
    mut f: impl FnMut(usize, u64),
) {
    let wend = wend.min(words.len());
    let wstart = wstart.min(wend);
    let mut w = wstart;
    // Ragged head/tail run scalar; only full in-window blocks unroll.
    while w < wend {
        let rem = wend - w;
        if rem >= BLOCK_WORDS {
            let b = &words[w..w + BLOCK_WORDS];
            if b[0] | b[1] | b[2] | b[3] != 0 {
                for (k, &word) in b.iter().enumerate() {
                    if word != 0 {
                        f(w + k, word);
                    }
                }
            }
            w += BLOCK_WORDS;
        } else {
            for k in 0..rem {
                let word = words[w + k];
                if word != 0 {
                    f(w + k, word);
                }
            }
            w = wend;
        }
    }
}

/// Visit every set-bit index of `words[wstart..wend)` below `bits`, in
/// ascending order: the fused mask-and-advance iteration behind the
/// push scans. Equivalent to [`super::Bitmap::iter_ones_words`] but
/// block-skips zero regions and avoids iterator state.
pub fn for_each_one(words: &[u64], bits: u64, wstart: usize, wend: usize, mut f: impl FnMut(u64)) {
    for_each_nonzero_word(words, wstart, wend, |wi, mut word| {
        let base = wi as u64 * 64;
        while word != 0 {
            let idx = base + word.trailing_zeros() as u64;
            word &= word - 1;
            if idx < bits {
                f(idx);
            }
        }
    });
}

/// Fused discovery advance: `dst[i] |= a[i] & !b[i]` over paired
/// slices, unrolled over 4-word blocks — the `next |= update \ visited`
/// step of the hub sync, without materializing the difference.
///
/// # Panics
/// Panics when the slices differ in length.
pub fn or_and_not_assign(dst: &mut [u64], a: &[u64], b: &[u64]) {
    assert_eq!(dst.len(), a.len(), "word slice length mismatch");
    assert_eq!(a.len(), b.len(), "word slice length mismatch");
    let mut cd = dst.chunks_exact_mut(BLOCK_WORDS);
    let mut ca = a.chunks_exact(BLOCK_WORDS);
    let mut cb = b.chunks_exact(BLOCK_WORDS);
    for ((d, x), y) in (&mut cd).zip(&mut ca).zip(&mut cb) {
        d[0] |= x[0] & !y[0];
        d[1] |= x[1] & !y[1];
        d[2] |= x[2] & !y[2];
        d[3] |= x[3] & !y[3];
    }
    for ((d, x), y) in cd
        .into_remainder()
        .iter_mut()
        .zip(ca.remainder())
        .zip(cb.remainder())
    {
        *d |= x & !y;
    }
}

/// Visit every index of `[start, end)` where `a[i] & !b[i]` is nonzero,
/// with that difference word: the batch engine's `new = mask & !seen`
/// discovery advance. 4-item blocks are skipped with one OR-reduction
/// when nothing is new.
///
/// # Panics
/// Panics when the slices differ in length.
pub fn for_each_and_not(
    a: &[u64],
    b: &[u64],
    start: usize,
    end: usize,
    mut f: impl FnMut(usize, u64),
) {
    assert_eq!(a.len(), b.len(), "word slice length mismatch");
    let end = end.min(a.len());
    let start = start.min(end);
    let mut i = start;
    while i < end {
        let rem = end - i;
        if rem >= BLOCK_WORDS {
            let n0 = a[i] & !b[i];
            let n1 = a[i + 1] & !b[i + 1];
            let n2 = a[i + 2] & !b[i + 2];
            let n3 = a[i + 3] & !b[i + 3];
            if n0 | n1 | n2 | n3 != 0 {
                if n0 != 0 {
                    f(i, n0);
                }
                if n1 != 0 {
                    f(i + 1, n1);
                }
                if n2 != 0 {
                    f(i + 2, n2);
                }
                if n3 != 0 {
                    f(i + 3, n3);
                }
            }
            i += BLOCK_WORDS;
        } else {
            for k in 0..rem {
                let n = a[i + k] & !b[i + k];
                if n != 0 {
                    f(i + k, n);
                }
            }
            i = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic word soup with plenty of zero and all-ones blocks.
    fn soup(len: usize, seed: u64) -> Vec<u64> {
        let mut s = seed;
        (0..len)
            .map(|i| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match s % 5 {
                    0 => 0,
                    1 => u64::MAX,
                    _ => s ^ (i as u64).rotate_left(17),
                }
            })
            .collect()
    }

    #[test]
    fn count_ones_matches_scalar_at_ragged_lengths() {
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 63, 64, 65, 257] {
            let w = soup(len, 42 + len as u64);
            let scalar: u64 = w.iter().map(|x| x.count_ones() as u64).sum();
            assert_eq!(count_ones(&w), scalar, "len={len}");
        }
    }

    #[test]
    fn or_and_not_assign_match_scalar() {
        for len in [0usize, 1, 4, 5, 11, 64, 70] {
            let src = soup(len, 3);
            let base = soup(len, 4);
            let mut wide_or = base.clone();
            or_assign(&mut wide_or, &src);
            let scalar_or: Vec<u64> = base.iter().zip(&src).map(|(d, s)| d | s).collect();
            assert_eq!(wide_or, scalar_or, "or len={len}");

            let mut wide_an = base.clone();
            and_not_assign(&mut wide_an, &src);
            let scalar_an: Vec<u64> = base.iter().zip(&src).map(|(d, s)| d & !s).collect();
            assert_eq!(wide_an, scalar_an, "and_not len={len}");
        }
    }

    #[test]
    fn or_shifted_matches_the_bit_by_bit_or() {
        // Aligned and unaligned bases, whole-word and ragged lengths;
        // `dst` ends with the interval, holds bits already, and the
        // source's last word has junk above `bits`.
        for base in [0u64, 1, 63, 64, 65, 209] {
            for bits in [1u64, 63, 64, 65, 130, 256] {
                let src = soup(bits.div_ceil(64) as usize, base + bits);
                let mut want = soup((base + bits).div_ceil(64) as usize, 5);
                let mut got = want.clone();
                for bit in (0..bits).filter(|b| src[(b / 64) as usize] >> (b % 64) & 1 == 1) {
                    want[((base + bit) / 64) as usize] |= 1 << ((base + bit) % 64);
                }
                or_shifted(&mut got, base, &src, bits);
                assert_eq!(got, want, "base {base}, bits {bits}");
            }
        }
    }

    #[test]
    fn for_each_nonzero_word_visits_in_order_with_clamps() {
        let w = soup(37, 9);
        for (ws, we) in [
            (0usize, 37usize),
            (0, 5),
            (3, 37),
            (5, 5),
            (9, 3),
            (10, 999),
        ] {
            let mut got = Vec::new();
            for_each_nonzero_word(&w, ws, we, |i, word| got.push((i, word)));
            let expect: Vec<(usize, u64)> = (ws.min(we.min(w.len()))..we.min(w.len()))
                .filter(|&i| w[i] != 0)
                .map(|i| (i, w[i]))
                .collect();
            assert_eq!(got, expect, "window [{ws},{we})");
        }
    }

    #[test]
    fn for_each_one_matches_bitmap_iter_at_ragged_tails() {
        // Non-multiple-of-4 word counts AND a non-multiple-of-64 bit
        // length: the block path must clamp both tails.
        let mut b = super::super::Bitmap::new(987);
        for i in (0..987).step_by(13) {
            b.set(i);
        }
        b.words_mut()[15] |= u64::MAX << 27; // slack past len in the top word
        let last = b.num_words() - 1;
        b.words_mut()[last] = u64::MAX; // slack in the true top word
        let serial: Vec<u64> = b.iter_ones().collect();
        let mut got = Vec::new();
        for_each_one(b.words(), b.len(), 0, b.num_words(), |i| got.push(i));
        assert_eq!(got, serial);
        // Window tiling (any partition, concatenated) still matches.
        for window in [1usize, 3, 4, 5, 7] {
            let mut tiled = Vec::new();
            let mut w = 0;
            while w < b.num_words() {
                for_each_one(
                    b.words(),
                    b.len(),
                    w,
                    (w + window).min(b.num_words()),
                    |i| tiled.push(i),
                );
                w += window;
            }
            assert_eq!(tiled, serial, "window={window}");
        }
    }

    #[test]
    fn or_and_not_assign_matches_scalar() {
        for len in [0usize, 1, 4, 6, 64, 71] {
            let a = soup(len, 31);
            let b = soup(len, 32);
            let base = soup(len, 33);
            let mut wide = base.clone();
            or_and_not_assign(&mut wide, &a, &b);
            let scalar: Vec<u64> = base
                .iter()
                .zip(a.iter().zip(&b))
                .map(|(d, (x, y))| d | (x & !y))
                .collect();
            assert_eq!(wide, scalar, "len={len}");
        }
    }

    #[test]
    fn for_each_and_not_matches_scalar_difference() {
        for len in [0usize, 1, 3, 4, 5, 8, 13, 64, 66] {
            let a = soup(len, 21);
            let b = soup(len, 22);
            for (s, e) in [(0usize, len), (1, len.saturating_sub(1)), (2, 999), (5, 3)] {
                let mut got = Vec::new();
                for_each_and_not(&a, &b, s, e, |i, n| got.push((i, n)));
                let expect: Vec<(usize, u64)> = (s.min(e.min(len))..e.min(len))
                    .filter_map(|i| {
                        let n = a[i] & !b[i];
                        (n != 0).then_some((i, n))
                    })
                    .collect();
                assert_eq!(got, expect, "len={len} range [{s},{e})");
            }
        }
    }
}
