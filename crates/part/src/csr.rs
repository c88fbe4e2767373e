//! Compressed sparse row storage over a dense key range.
//!
//! Every subgraph component is stored as one or two [`Csr`] indexes
//! (by source for push, by destination for pull). Keys are dense ids in
//! a half-open range (hub ids, or a rank's owned vertex interval);
//! targets are whatever the component's other endpoint space is: hub
//! ids (`u32` already in the directory) or vertex ids below `n`. Each
//! target is stored in four bytes, so a partition holds at most
//! `2^`[`MAX_SCALE`] vertices; offsets stay `u64`, because they count a
//! rank's stored edges, which `2^32` does not bound.
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

/// The largest Graph 500 SCALE a partition holds: every vertex id is
/// below `2^SCALE` and must fit a stored `u32` target.
pub const MAX_SCALE: u64 = 32;

/// Whether `n` vertices fit the `u32` targets: `n <= 2^`[`MAX_SCALE`].
pub fn targets_fit(n: u64) -> bool {
    n <= 1 << MAX_SCALE
}

/// CSR adjacency over keys `key_base .. key_base + num_keys`.
#[derive(Clone, Debug)]
pub struct Csr {
    key_base: u64,
    offsets: Vec<u64>,
    targets: Vec<u32>,
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
    /// Build from `(key, target)` pairs. Keys outside the range panic,
    /// and so does a target that does not fit a `u32`.
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
        let mut targets = vec![0u32; offsets[nk] as usize];
        let mut cursor = offsets.clone();
        let mut max_target = 0u32;
        for (k, t) in pairs {
            let idx = (k - key_base) as usize;
            let t = u32::try_from(t).unwrap_or_else(|_| {
                panic!("target {t} exceeds u32::MAX, the stored target limit (SCALE {MAX_SCALE})")
            });
            targets[cursor[idx] as usize] = t;
            cursor[idx] += 1;
            max_target = max_target.max(t);
        }
        // ...then in-place PARADIS radix sort per adjacency list, over
        // the bytes the largest target has.
        let key_bytes = (u32::BITS - max_target.leading_zeros()).div_ceil(8).max(1);
        let mut csr = Csr {
            key_base,
            offsets,
            targets,
            nonempty: Bitmap::new(0),
        };
        for k in 0..nk {
            let lo = csr.offsets[k] as usize;
            let hi = csr.offsets[k + 1] as usize;
            let list = &mut csr.targets[lo..hi];
            sunbfs_sort::radix_sort_in_place(list, &|t: &u32| u64::from(*t), 1, key_bytes);
        }
        if dedup {
            csr.dedup_targets();
        }
        csr.nonempty = nonempty_keys(&csr.offsets);
        csr
    }

    /// Collapse runs of equal targets in every sorted list, in place: a
    /// write cursor trails the read cursor over `targets`, and the
    /// array is cut to what was written (its tail returned to the
    /// allocator, not kept resident as spare capacity).
    fn dedup_targets(&mut self) {
        let mut write = 0usize;
        let mut lo = 0usize;
        for k in 0..self.num_keys() {
            let hi = self.offsets[k + 1] as usize;
            for read in lo..hi {
                let t = self.targets[read];
                if read == lo || t != self.targets[write - 1] {
                    self.targets[write] = t;
                    write += 1;
                }
            }
            lo = hi;
            self.offsets[k + 1] = write as u64;
        }
        self.targets.truncate(write);
        self.targets.shrink_to_fit();
    }

    /// Rebuild a CSR from its raw arrays (the persistent-store decode
    /// path). The arrays must already satisfy the CSR invariants —
    /// `offsets` non-empty, starting at 0, non-decreasing, and ending
    /// at `targets.len()`; callers deserializing untrusted bytes must
    /// validate *before* constructing (the store does), because a
    /// violated invariant here is a panic, not a typed error.
    pub fn from_raw(key_base: u64, offsets: Vec<u64>, targets: Vec<u32>) -> Csr {
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
    pub fn targets(&self) -> &[u32] {
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
    pub fn neighbors(&self, key: u64) -> &[u32] {
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
            self.neighbors(key)
                .iter()
                .map(move |&t| (key, u64::from(t)))
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
        assert_eq!(csr.neighbors(11), &[] as &[u32]);
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
    fn naive(key_base: u64, num_keys: u64, pairs: &[(u64, u64)], dedup: bool) -> Vec<Vec<u32>> {
        let mut sorted = pairs.to_vec();
        sorted.sort_unstable();
        if dedup {
            sorted.dedup();
        }
        let mut lists = vec![Vec::new(); num_keys as usize];
        for (k, t) in sorted {
            lists[(k - key_base) as usize].push(u32::try_from(t).unwrap());
        }
        lists
    }

    #[test]
    fn every_target_width_matches_the_naive_reference() {
        // One target space per PARADIS key width 1..=4 (the largest
        // target decides it), the whole `u32` space with `u32::MAX`
        // itself, and no input at all. 3000 pairs over 8 keys: lists
        // long enough to leave the comparison-sort fallback and take
        // the radix levels.
        let spaces = [1u64 << 7, 1 << 15, 1 << 23, 1 << 31, 1 << 32];
        let (key_base, num_keys) = (100, 8);
        for (seed, &space) in spaces.iter().enumerate() {
            let mut rng = sunbfs_common::SplitMix64::new(seed as u64);
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
            if space == 1 << 32 {
                pairs.push((key_base, u64::from(u32::MAX)));
            }
            for dedup in [false, true] {
                let csr = Csr::from_pairs(key_base, num_keys, pairs.iter().copied(), dedup);
                let want = naive(key_base, num_keys, &pairs, dedup);
                for (k, list) in want.iter().enumerate() {
                    assert_eq!(
                        csr.neighbors(key_base + k as u64),
                        list.as_slice(),
                        "target space {space}, dedup {dedup}, key {k}"
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

    /// The first-written dedup, kept as the oracle: walk each sorted
    /// list and push every target that differs from its predecessor
    /// into a second array.
    fn copy_dedup(offsets: &[u64], targets: &[u32]) -> (Vec<u64>, Vec<u32>) {
        let mut new_targets = Vec::with_capacity(targets.len());
        let mut new_offsets = vec![0u64; offsets.len()];
        for k in 0..offsets.len() - 1 {
            let mut prev: Option<u32> = None;
            for &t in &targets[offsets[k] as usize..offsets[k + 1] as usize] {
                if prev != Some(t) {
                    new_targets.push(t);
                    prev = Some(t);
                }
            }
            new_offsets[k + 1] = new_targets.len() as u64;
        }
        (new_offsets, new_targets)
    }

    #[test]
    fn dedup_equals_the_copying_oracle_on_random_multigraphs() {
        // Per seed: 16 keys, some with no pairs, some whose every pair
        // is the same target, the rest drawn from a small target pool
        // so runs of duplicates are common; plus no pairs at all.
        for seed in 0..64u64 {
            let mut rng = sunbfs_common::SplitMix64::new(seed);
            let num_keys = 16u64;
            let mut pairs = Vec::new();
            for k in 0..num_keys {
                let len = rng.next_below(40);
                match k % 4 {
                    0 => {}
                    1 => pairs.extend((0..len).map(|_| (k, 5))),
                    _ => pairs.extend((0..len).map(|_| (k, rng.next_below(1 + seed)))),
                }
            }
            // Interleave the keys, as a received buffer does.
            let mut order: Vec<usize> = (0..pairs.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let pairs: Vec<(u64, u64)> = order.iter().map(|&i| pairs[i]).collect();
            let raw = Csr::from_pairs(0, num_keys, pairs.iter().copied(), false);
            let (offsets, targets) = copy_dedup(raw.offsets(), raw.targets());
            let csr = Csr::from_pairs(0, num_keys, pairs.iter().copied(), true);
            assert_eq!(csr.offsets(), offsets.as_slice(), "seed {seed}");
            assert_eq!(csr.targets(), targets.as_slice(), "seed {seed}");
        }
        let empty = Csr::from_pairs(0, 4, std::iter::empty(), true);
        assert_eq!(
            (empty.offsets().to_vec(), empty.targets().to_vec()),
            copy_dedup(&[0; 5], &[])
        );
    }

    #[test]
    fn empty_component() {
        let csr = Csr::from_pairs(5, 3, vec![], true);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.neighbors(6), &[] as &[u32]);
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

    #[test]
    #[should_panic(expected = "target 4294967296 exceeds u32::MAX")]
    fn a_target_past_u32_panics() {
        Csr::from_pairs(0, 2, vec![(0, 1), (1, 1 << 32)], false);
    }

    #[test]
    fn targets_fit_up_to_max_scale() {
        assert!(targets_fit(1));
        assert!(targets_fit(1 << MAX_SCALE));
        assert!(!targets_fit((1 << MAX_SCALE) + 1));
        assert!(!targets_fit(1 << 40));
        assert!(!targets_fit(u64::MAX));
    }
}
