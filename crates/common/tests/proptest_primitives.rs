//! Property-based tests for the foundation types: the bitmap against a
//! HashSet model, the label scrambler's bijectivity, and histogram
//! conservation laws.

use proptest::prelude::*;
use std::collections::HashSet;
use sunbfs_common::{Bitmap, LabelScrambler, LogHistogram, SplitMix64};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A bitmap behaves exactly like a set of integers.
    #[test]
    fn bitmap_matches_hashset_model(
        len in 1u64..2000,
        ops in prop::collection::vec((0u64..2000, any::<bool>()), 0..200),
    ) {
        let mut bm = Bitmap::new(len);
        let mut model: HashSet<u64> = HashSet::new();
        for (raw, insert) in ops {
            let i = raw % len;
            if insert {
                bm.set(i);
                model.insert(i);
            } else {
                bm.words_mut()[(i / 64) as usize] &= !(1 << (i % 64));
                model.remove(&i);
            }
        }
        prop_assert_eq!(bm.count_ones(), model.len() as u64);
        let from_iter: HashSet<u64> = bm.iter_ones().collect();
        prop_assert_eq!(&from_iter, &model);
        for i in 0..len {
            prop_assert_eq!(bm.get(i), model.contains(&i));
        }
    }

    /// Range popcount agrees with filtered iteration for arbitrary windows.
    #[test]
    fn count_range_agrees_with_iter(
        len in 1u64..1000,
        bits in prop::collection::vec(0u64..1000, 0..100),
        lo in 0u64..1000,
        hi in 0u64..1200,
    ) {
        let mut bm = Bitmap::new(len);
        for b in bits {
            bm.set(b % len);
        }
        let expect = bm.iter_ones().filter(|&i| i >= lo && i < hi.min(len)).count() as u64;
        prop_assert_eq!(bm.count_ones_range(lo, hi), expect);
    }

    /// OR-union and AND-NOT difference respect set algebra.
    #[test]
    fn bitmap_algebra(
        len in 1u64..500,
        a in prop::collection::vec(0u64..500, 0..60),
        b in prop::collection::vec(0u64..500, 0..60),
    ) {
        let mut ba = Bitmap::new(len);
        let mut bb = Bitmap::new(len);
        let sa: HashSet<u64> = a.iter().map(|x| x % len).collect();
        let sb: HashSet<u64> = b.iter().map(|x| x % len).collect();
        for &x in &sa { ba.set(x); }
        for &x in &sb { bb.set(x); }
        let mut union = ba.clone();
        union.or_assign(&bb);
        prop_assert_eq!(union.count_ones(), sa.union(&sb).count() as u64);
        let mut diff = ba.clone();
        diff.and_not_assign(&bb);
        prop_assert_eq!(diff.count_ones(), sa.difference(&sb).count() as u64);
    }

    /// The label scrambler is injective on sampled points of large spaces.
    #[test]
    fn scrambler_injective_on_samples(bits in 8u32..40, seed in any::<u64>(), n in 100usize..500) {
        let s = LabelScrambler::new(bits, seed);
        let space = 1u64 << bits;
        let mut rng = SplitMix64::new(seed ^ 0xabc);
        let inputs: HashSet<u64> = (0..n).map(|_| rng.next_below(space)).collect();
        let outputs: HashSet<u64> = inputs.iter().map(|&x| s.scramble(x)).collect();
        prop_assert_eq!(outputs.len(), inputs.len(), "collision found");
        prop_assert!(outputs.iter().all(|&y| y < space));
    }

    /// Histograms conserve sample counts under any merge order.
    #[test]
    fn histogram_conservation(
        a in prop::collection::vec(0u64..1_000_000, 0..100),
        b in prop::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let mut ha = LogHistogram::decades();
        let mut hb = LogHistogram::decades();
        for &x in &a { ha.record(x); }
        for &x in &b { hb.record(x); }
        let mut merged = ha.clone();
        merged.merge(&hb);
        prop_assert_eq!(merged.total(), (a.len() + b.len()) as u64);
        // Bucket monotonicity: larger values never land in earlier buckets.
        let h = LogHistogram::decades();
        for w in a.windows(2) {
            if w[0] <= w[1] {
                prop_assert!(h.bucket_of(w[0]) <= h.bucket_of(w[1]));
            }
        }
    }

    /// SplitMix64 streams with different tags never collide on a prefix.
    #[test]
    fn split_streams_diverge(seed in any::<u64>(), t1 in 0u64..1000, t2 in 0u64..1000) {
        prop_assume!(t1 != t2);
        let root = SplitMix64::new(seed);
        let mut a = root.split(t1);
        let mut b = root.split(t2);
        let same = (0..16).all(|_| a.next_u64() == b.next_u64());
        prop_assert!(!same, "independent streams emitted identical 16-draw prefix");
    }
}
