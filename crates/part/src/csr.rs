//! Compressed sparse row storage over a dense key range.
//!
//! Every subgraph component is stored as one or two [`Csr`] indexes
//! (by source for push, by destination for pull). Keys are dense ids in
//! a half-open range (hub ids, or a rank's owned vertex interval);
//! targets are whatever the component's other endpoint space is.
//!
//! Construction is a counting sort by key followed by an in-place
//! PARADIS radix sort of each adjacency list's target ids (§5: "local
//! sort implemented with PARADIS") — the preprocessing must stay
//! in-place because on the real machine the edge list nearly fills
//! main memory. PARADIS is an MSD sort that spends a histogram, a
//! permutation and a repair scan on every byte level it is told the
//! keys have, whether or not that byte ever varies; targets are hub ids
//! (two bytes at most) or vertex ids (`⌈SCALE / 8⌉` bytes), so
//! [`Csr::from_pairs`] learns the largest target while it scatters them
//! and has PARADIS visit only the bytes that target occupies. The
//! sorted lists are the same — the skipped high bytes are zero in every
//! target.

use sunbfs_common::Bitmap;

/// CSR adjacency over keys `key_base .. key_base + num_keys`.
#[derive(Clone, Debug)]
pub struct Csr {
    key_base: u64,
    offsets: Vec<u64>,
    targets: Vec<u64>,
    /// Bit `k` set iff key `key_base + k` has an adjacency — derived
    /// from `offsets` by every constructor, never stored.
    nonempty: Bitmap,
}

/// The keys of `offsets` that own at least one target.
fn nonempty_keys(offsets: &[u64]) -> Bitmap {
    let mut mask = Bitmap::new(offsets.len() as u64 - 1);
    for (k, w) in offsets.windows(2).enumerate() {
        if w[1] > w[0] {
            mask.set(k as u64);
        }
    }
    mask
}

impl Csr {
    /// Build from `(key, target)` pairs. Keys outside the range panic.
    /// When `dedup` is set, duplicate `(key, target)` pairs collapse to
    /// one (the input edge list is a multigraph; adjacency is simple).
    ///
    /// The pairs are walked twice (count, then scatter), so they come
    /// as a cloneable iterator: a received buffer serves both of a
    /// component's orientations — `buf.iter().copied()` and
    /// `buf.iter().map(|&(a, b)| (b, a))` — without being copied.
    pub fn from_pairs<I>(key_base: u64, num_keys: u64, pairs: I, dedup: bool) -> Csr
    where
        I: IntoIterator<Item = (u64, u64)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        // Counting sort by key...
        let nk = num_keys as usize;
        let mut counts = vec![0u64; nk + 1];
        for (k, _) in pairs.clone() {
            assert!(
                k >= key_base && k < key_base + num_keys,
                "key {k} outside [{key_base}, {})",
                key_base + num_keys
            );
            counts[(k - key_base) as usize + 1] += 1;
        }
        for i in 0..nk {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut targets = vec![0u64; offsets[nk] as usize];
        let mut cursor = offsets.clone();
        let mut max_target = 0u64;
        for (k, t) in pairs {
            let idx = (k - key_base) as usize;
            targets[cursor[idx] as usize] = t;
            cursor[idx] += 1;
            max_target = max_target.max(t);
        }
        // ...then in-place PARADIS radix sort per adjacency list, over
        // the bytes the largest target has.
        let key_bytes = (u64::BITS - max_target.leading_zeros()).div_ceil(8).max(1);
        let mut csr = Csr {
            key_base,
            offsets,
            targets,
            nonempty: Bitmap::new(0),
        };
        for k in 0..nk {
            let lo = csr.offsets[k] as usize;
            let hi = csr.offsets[k + 1] as usize;
            sunbfs_sort::radix_sort_in_place(&mut csr.targets[lo..hi], &|t: &u64| *t, 1, key_bytes);
        }
        if dedup {
            csr.dedup_targets();
        }
        csr.nonempty = nonempty_keys(&csr.offsets);
        csr
    }

    fn dedup_targets(&mut self) {
        let nk = self.num_keys();
        let mut new_targets = Vec::with_capacity(self.targets.len());
        let mut new_offsets = vec![0u64; nk + 1];
        for k in 0..nk {
            let lo = self.offsets[k] as usize;
            let hi = self.offsets[k + 1] as usize;
            let mut prev: Option<u64> = None;
            for &t in &self.targets[lo..hi] {
                if prev != Some(t) {
                    new_targets.push(t);
                    prev = Some(t);
                }
            }
            new_offsets[k + 1] = new_targets.len() as u64;
        }
        self.offsets = new_offsets;
        self.targets = new_targets;
    }

    /// Rebuild a CSR from its raw arrays (the persistent-store decode
    /// path). The arrays must already satisfy the CSR invariants —
    /// `offsets` non-empty, starting at 0, non-decreasing, and ending
    /// at `targets.len()`; callers deserializing untrusted bytes must
    /// validate *before* constructing (the store does), because a
    /// violated invariant here is a panic, not a typed error.
    pub fn from_raw(key_base: u64, offsets: Vec<u64>, targets: Vec<u64>) -> Csr {
        assert!(
            !offsets.is_empty(),
            "offsets must hold num_keys + 1 entries"
        );
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len() as u64,
            "last offset must equal the target count"
        );
        Csr {
            key_base,
            nonempty: nonempty_keys(&offsets),
            offsets,
            targets,
        }
    }

    /// One bit per key, set iff the key has at least one neighbor: what
    /// a walk over keys may skip without looking at `offsets`. Not part
    /// of the serialized form.
    #[inline]
    pub fn nonempty(&self) -> &Bitmap {
        &self.nonempty
    }

    /// The raw offset array (`num_keys + 1` entries, first 0, last
    /// `num_edges`). Exposed for serialization.
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw target array, concatenated per-key adjacency lists.
    /// Exposed for serialization.
    #[inline]
    pub fn targets(&self) -> &[u64] {
        &self.targets
    }

    /// First key of the range.
    #[inline]
    pub fn key_base(&self) -> u64 {
        self.key_base
    }

    /// Number of keys in the range.
    #[inline]
    pub fn num_keys(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total stored edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Neighbors of `key` (sorted ascending).
    #[inline]
    pub fn neighbors(&self, key: u64) -> &[u64] {
        debug_assert!(key >= self.key_base);
        let idx = (key - self.key_base) as usize;
        let lo = self.offsets[idx] as usize;
        let hi = self.offsets[idx + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of `key` in this component.
    #[inline]
    pub fn degree(&self, key: u64) -> u64 {
        let idx = (key - self.key_base) as usize;
        self.offsets[idx + 1] - self.offsets[idx]
    }

    /// Iterate `(key, target)` over all stored edges.
    pub fn iter_edges(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.num_keys()).flat_map(move |k| {
            let key = self.key_base + k as u64;
            self.neighbors(key).iter().map(move |&t| (key, t))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_queries() {
        let pairs = vec![(10, 3), (12, 1), (10, 2), (12, 5), (10, 2)];
        let csr = Csr::from_pairs(10, 4, pairs, false);
        assert_eq!(csr.num_keys(), 4);
        assert_eq!(csr.num_edges(), 5);
        assert_eq!(csr.neighbors(10), &[2, 2, 3]);
        assert_eq!(csr.neighbors(11), &[] as &[u64]);
        assert_eq!(csr.neighbors(12), &[1, 5]);
        assert_eq!(csr.degree(10), 3);
    }

    #[test]
    fn dedup_collapses_duplicates() {
        let pairs = vec![(0, 7), (0, 7), (0, 7), (1, 1), (1, 2), (1, 1)];
        let csr = Csr::from_pairs(0, 2, pairs, true);
        assert_eq!(csr.neighbors(0), &[7]);
        assert_eq!(csr.neighbors(1), &[1, 2]);
        assert_eq!(csr.num_edges(), 3);
    }

    /// What `from_pairs` must equal: sort the pairs, dedup, read off
    /// each key's run.
    fn naive(key_base: u64, num_keys: u64, pairs: &[(u64, u64)], dedup: bool) -> Vec<Vec<u64>> {
        let mut sorted = pairs.to_vec();
        sorted.sort_unstable();
        if dedup {
            sorted.dedup();
        }
        let mut lists = vec![Vec::new(); num_keys as usize];
        for (k, t) in sorted {
            lists[(k - key_base) as usize].push(t);
        }
        lists
    }

    #[test]
    fn every_target_width_matches_the_naive_reference() {
        // One target space per PARADIS key width 1..=8 (the largest
        // target decides it), `u64::MAX` itself, and no input at all.
        // 3000 pairs over 8 keys: lists long enough to leave the
        // comparison-sort fallback and take the radix levels.
        let spaces = [
            1u64 << 7,
            1 << 15,
            1 << 23,
            1 << 31,
            1 << 39,
            1 << 47,
            1 << 55,
            u64::MAX,
        ];
        let (key_base, num_keys) = (100, 8);
        for (width, &space) in spaces.iter().enumerate() {
            let mut rng = sunbfs_common::SplitMix64::new(width as u64);
            let mut pairs: Vec<(u64, u64)> = (0..3000)
                .map(|_| {
                    // Half the draws from a small pool, so `dedup` has
                    // duplicates to collapse at every width.
                    let t = match rng.next_below(2) {
                        0 => space - 1 - rng.next_below(40.min(space)),
                        _ => rng.next_below(space),
                    };
                    (key_base + rng.next_below(num_keys), t)
                })
                .collect();
            if space == u64::MAX {
                pairs.push((key_base, u64::MAX));
            }
            for dedup in [false, true] {
                let csr = Csr::from_pairs(key_base, num_keys, pairs.iter().copied(), dedup);
                let want = naive(key_base, num_keys, &pairs, dedup);
                for (k, list) in want.iter().enumerate() {
                    assert_eq!(
                        csr.neighbors(key_base + k as u64),
                        list.as_slice(),
                        "{} target byte(s), dedup {dedup}, key {k}",
                        width + 1
                    );
                }
                // The transposed orientation off the same buffer.
                if space <= 1 << 15 {
                    let flipped: Vec<(u64, u64)> = pairs.iter().map(|&(k, t)| (t, k)).collect();
                    let csr = Csr::from_pairs(0, space, pairs.iter().map(|&(k, t)| (t, k)), dedup);
                    let want = naive(0, space, &flipped, dedup);
                    assert!((0..space).all(|k| csr.neighbors(k) == want[k as usize]));
                }
            }
        }
        let empty = Csr::from_pairs(key_base, num_keys, std::iter::empty(), true);
        assert_eq!(empty.num_edges(), 0);
        assert_eq!(empty.offsets(), &[0u64; 9]);
    }

    #[test]
    fn empty_component() {
        let csr = Csr::from_pairs(5, 3, vec![], true);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.neighbors(6), &[] as &[u64]);
    }

    #[test]
    fn nonempty_marks_exactly_the_keys_with_neighbors() {
        // Key 0's duplicates collapse to one target and stay set; keys
        // 1 and 3 have no pairs and stay clear.
        let pairs = vec![(10, 7), (10, 7), (12, 1), (12, 5)];
        let csr = Csr::from_pairs(10, 4, pairs, true);
        assert_eq!(csr.nonempty().len(), 4);
        assert_eq!(csr.nonempty().iter_ones().collect::<Vec<_>>(), vec![0, 2]);

        // The store's decode path derives the same mask from raw arrays.
        let raw = Csr::from_raw(10, csr.offsets().to_vec(), csr.targets().to_vec());
        assert_eq!(raw.nonempty(), csr.nonempty());
        let raw = Csr::from_raw(0, vec![0, 0, 2, 2, 3], vec![4, 5, 6]);
        assert_eq!(raw.nonempty().iter_ones().collect::<Vec<_>>(), vec![1, 3]);

        let empty = Csr::from_pairs(5, 3, vec![], true);
        assert_eq!(empty.nonempty().len(), 3);
        assert!(empty.nonempty().is_zero());
        assert_eq!(Csr::from_pairs(0, 0, vec![], false).nonempty().len(), 0);
    }

    #[test]
    fn iter_edges_roundtrips() {
        let pairs = vec![(2, 9), (0, 4), (2, 1)];
        let csr = Csr::from_pairs(0, 3, pairs.clone(), false);
        let mut got: Vec<(u64, u64)> = csr.iter_edges().collect();
        let mut want = pairs;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic]
    fn out_of_range_key_panics() {
        Csr::from_pairs(0, 2, vec![(2, 0)], false);
    }
}
