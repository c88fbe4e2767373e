//! What a frontier element is.
//!
//! The traversal schedule in [`crate::engine`] is one program. Whether
//! it carries one root or sixty-four is only the element type of its
//! frontier vectors — 1D/2D BFS is a sparse-matrix × sparse-vector
//! product over a semiring, and single- vs multi-source changes nothing
//! but the vector's element (Buluç & Madduri). A [`Lane`] fixes that
//! element and everything that follows from it:
//!
//! | | [`Bit`] (single source) | [`Word`] (batch of 1..=64) |
//! |---|---|---|
//! | set storage | one bit per vertex | one `u64` per vertex, bit `b` = root `b` |
//! | mask of an element | `()` | the `u64` itself |
//! | message | `(dest, parent)` | `(dest, parent, mask)` |
//! | hub-sync payload | `nh` bits | `nh` words |
//! | active walk | `wide::for_each_one` | `wide::for_each_nonzero_word` |
//! | wanting walk | `!(seen \| update) & live` per 64 vertices | `full & !seen & !update` at each set bit of `live` |
//! | push chunks | 4-word blocks of the bitmap | 256 vertices |
//! | result slots | parent per vertex | parent + depth per `(vertex, root)` |
//!
//! Both lanes keep their sets in a [`Bitmap`] whose word vector *is*
//! the storage: vertex `i` occupies bits `i * STRIDE .. (i + 1) *
//! STRIDE`, so word-level operations (popcounts, the hub-sync
//! OR-allreduce, the `next |= global & !seen` advance, checkpoints) are
//! the schedule's and only element-level access is the lane's.

use sunbfs_common::bitmap::wide;
use sunbfs_common::Bitmap;

use crate::batch::{MAX_BATCH_ROOTS, UNREACHED_DEPTH};
use crate::engine::EngineScratch;

/// Vertices per pool chunk of the pull scans (and of the [`Word`]
/// lane's push scans).
pub(crate) const SCAN_GRAIN_ITEMS: u64 = 256;

/// Bitmap words per pool chunk of the [`Bit`] lane's push scans: workers
/// claim blocks of at least this many words (64 vertices each), the
/// CPE-block analogue.
pub(crate) const SCAN_GRAIN_WORDS: u64 = 4;

/// The frontier element type of one traversal (see the module docs).
pub(crate) trait Lane: Copy + Send + Sync {
    /// Which of the traversal's roots an element carries.
    type Mask: Copy + Send + Sync;
    /// Wire form of a `(dest, parent, mask)` message.
    type Msg: sunbfs_net::Wire;
    /// Bits one vertex occupies in a set.
    const STRIDE: u64;
    /// Vertices per chunking unit of a push scan.
    const PUSH_UNIT: u64;
    /// Units per pool chunk of a push scan.
    const PUSH_GRAIN: u64;

    /// Roots this traversal carries.
    fn width(&self) -> usize;

    /// The mask of every root.
    fn all(&self) -> Self::Mask;

    /// The mask of root `b` alone.
    fn root(b: usize) -> Self::Mask;

    /// Roots in `m` — the `(vertex, root)` pairs an element stands for.
    fn weight(m: Self::Mask) -> u64;

    /// An empty set over `n` vertices.
    fn new_set(n: u64) -> Bitmap {
        Bitmap::new(n * Self::STRIDE)
    }

    /// The part of `m` that vertex `i` has in neither `seen` nor
    /// `update`; `None` when nothing is left.
    fn fresh(m: Self::Mask, seen: &Bitmap, update: Option<&Bitmap>, i: u64) -> Option<Self::Mask>;

    /// Add `m` to vertex `i` of `set`.
    fn insert(set: &mut Bitmap, i: u64, m: Self::Mask);

    /// Probe source `s` for the roots still in `want`: the roots it
    /// supplies (removed from `want`) and whether `want` is now
    /// exhausted — the pull scans' early exit.
    fn hit(src: &Bitmap, s: u64, want: &mut Self::Mask) -> Option<(Self::Mask, bool)>;

    /// Visit `(vertex, mask)` of every active vertex of `set` in
    /// `[start, end)`, ascending.
    fn for_each_active(set: &Bitmap, start: u64, end: u64, f: impl FnMut(u64, Self::Mask));

    /// Visit `(vertex, wanted mask)` of every vertex in `[start, end)`
    /// that is set in `live` (one bit per vertex: the keys with an
    /// adjacency to pull through, [`sunbfs_part::Csr::nonempty`]) and
    /// still lacks some root in `seen` (and `update`), ascending.
    fn for_each_wanting(
        &self,
        seen: &Bitmap,
        update: Option<&Bitmap>,
        live: &Bitmap,
        start: u64,
        end: u64,
        mut f: impl FnMut(u64, Self::Mask),
    ) {
        // The mask is a single-source set: walk its ones and test the
        // element there — a vertex outside it costs nothing.
        Bit::for_each_active(live, start, end, |i, ()| {
            if let Some(want) = Self::fresh(self.all(), seen, update, i) {
                f(i, want);
            }
        });
    }

    /// Visit `(vertex, mask)` of every active vertex of `set` in
    /// `[start, end)` that is not set in `without` (one bit per
    /// vertex), ascending.
    fn for_each_active_outside(
        &self,
        set: &Bitmap,
        without: &Bitmap,
        start: u64,
        end: u64,
        mut f: impl FnMut(u64, Self::Mask),
    ) {
        Self::for_each_active(set, start, end, |i, m| {
            if !without.get(i) {
                f(i, m);
            }
        });
    }

    /// Copy a row member's gathered set (`words`, `len` vertices) into
    /// the row-wide set at vertex offset `base`.
    fn splice(row: &mut Bitmap, base: u64, words: &[u64], len: u64);

    /// Pack a message.
    fn pack(dest: u64, parent: u64, m: Self::Mask) -> Self::Msg;

    /// Unpack a message into `(dest, parent, mask)`.
    fn unpack(msg: Self::Msg) -> (u64, u64, Self::Mask);

    /// Fresh depth slots for `n` vertices (none when the lane derives
    /// depths from its single parent tree instead).
    fn new_depths(&self, n: usize) -> Vec<u32>;

    /// Record `parent` and `depth` for every root of `m` at vertex `i`.
    fn stamp(
        &self,
        parents: &mut [u64],
        depths: &mut [u32],
        i: u64,
        m: Self::Mask,
        parent: u64,
        depth: u32,
    );

    /// Record `depth` for every `(hub, root)` pair a hub sync delivered
    /// (`global`) that was not yet in `seen`. Every rank runs this at
    /// the same iteration, so hub depths stay replicated without a
    /// reduction of their own.
    fn stamp_hub_depths(&self, depths: &mut [u32], global: &[u64], seen: &Bitmap, depth: u32);

    /// This lane's spare message buffers in a rank's scratch.
    fn spares(scratch: &mut EngineScratch) -> &mut Vec<Vec<Self::Msg>>;
}

/// Single-source lane: packed bit sets, `(dest, parent)` messages.
#[derive(Clone, Copy)]
pub(crate) struct Bit;

impl Lane for Bit {
    type Mask = ();
    type Msg = (u64, u64);

    const STRIDE: u64 = 1;
    const PUSH_UNIT: u64 = 64;
    const PUSH_GRAIN: u64 = SCAN_GRAIN_WORDS;

    #[inline]
    fn width(&self) -> usize {
        1
    }

    #[inline]
    fn all(&self) {}

    #[inline]
    fn root(_: usize) {}

    #[inline]
    fn weight(_: ()) -> u64 {
        1
    }

    #[inline]
    fn fresh(_: (), seen: &Bitmap, update: Option<&Bitmap>, i: u64) -> Option<()> {
        (!seen.get(i) && !update.is_some_and(|u| u.get(i))).then_some(())
    }

    #[inline]
    fn insert(set: &mut Bitmap, i: u64, _: ()) {
        set.set(i);
    }

    #[inline]
    fn hit(src: &Bitmap, s: u64, _: &mut ()) -> Option<((), bool)> {
        src.get(s).then_some(((), true))
    }

    #[inline]
    fn for_each_active(set: &Bitmap, start: u64, end: u64, mut f: impl FnMut(u64, ())) {
        // Whole words from `start`'s word on; the head word's bits
        // below `start` are filtered, the tail is clamped by `end`.
        let (ws, we) = ((start / 64) as usize, end.div_ceil(64) as usize);
        wide::for_each_one(set.words(), end, ws, we, |i| {
            if i >= start {
                f(i, ());
            }
        });
    }

    #[inline]
    fn for_each_wanting(
        &self,
        seen: &Bitmap,
        update: Option<&Bitmap>,
        live: &Bitmap,
        start: u64,
        end: u64,
        mut f: impl FnMut(u64, ()),
    ) {
        // One inverted word walk, `!(seen | update) & live`: only
        // unvisited vertices with an adjacency are examined. Without an
        // update set `seen` stands in for it (`!a & !a`), so the scan
        // body `f` has a single call site and inlines into the word
        // loop.
        let end = end.min(live.len());
        if start >= end {
            return;
        }
        let update = update.unwrap_or(seen).words();
        let (seen, live) = (seen.words(), live.words());
        assert_eq!(seen.len(), update.len(), "word slice length mismatch");
        assert_eq!(seen.len(), live.len(), "word slice length mismatch");
        let (ws, we) = ((start / 64) as usize, ((end - 1) / 64) as usize);
        for wi in ws..=we {
            let mut want = !(seen[wi] | update[wi]) & live[wi];
            if wi == ws {
                want &= u64::MAX << (start % 64);
            }
            if wi == we {
                let top = end - wi as u64 * 64;
                if top < 64 {
                    want &= (1u64 << top) - 1;
                }
            }
            while want != 0 {
                let i = wi as u64 * 64 + want.trailing_zeros() as u64;
                want &= want - 1;
                f(i, ());
            }
        }
    }

    #[inline]
    fn for_each_active_outside(
        &self,
        set: &Bitmap,
        without: &Bitmap,
        start: u64,
        end: u64,
        f: impl FnMut(u64, ()),
    ) {
        // `!without & set`, 64 vertices a step: the wanting walk with
        // the frontier as its mask.
        self.for_each_wanting(without, None, set, start, end, f);
    }

    fn splice(row: &mut Bitmap, base: u64, words: &[u64], len: u64) {
        // A member's base is word-aligned on a power-of-two mesh and
        // anywhere on the others.
        wide::or_shifted(row.words_mut(), base, words, len);
    }

    #[inline]
    fn pack(dest: u64, parent: u64, _: ()) -> (u64, u64) {
        (dest, parent)
    }

    #[inline]
    fn unpack((dest, parent): (u64, u64)) -> (u64, u64, ()) {
        (dest, parent, ())
    }

    fn new_depths(&self, _: usize) -> Vec<u32> {
        Vec::new()
    }

    #[inline]
    fn stamp(&self, parents: &mut [u64], _: &mut [u32], i: u64, _: (), parent: u64, _: u32) {
        parents[i as usize] = parent;
    }

    fn stamp_hub_depths(&self, _: &mut [u32], _: &[u64], _: &Bitmap, _: u32) {}

    fn spares(scratch: &mut EngineScratch) -> &mut Vec<Vec<Self::Msg>> {
        &mut scratch.bit
    }
}

/// Batch lane: one frontier word per vertex, bit `b` = root `b`;
/// `(dest, parent, mask)` messages; per-`(vertex, root)` parent and
/// depth slots, vertex-major (`i * width + b`).
#[derive(Clone, Copy)]
pub(crate) struct Word {
    nb: usize,
    full: u64,
}

impl Word {
    /// Lane of an `nb`-root batch (`1..=MAX_BATCH_ROOTS`).
    pub(crate) fn new(nb: usize) -> Self {
        let full = if nb == MAX_BATCH_ROOTS {
            u64::MAX
        } else {
            (1u64 << nb) - 1
        };
        Word { nb, full }
    }
}

/// Root indices of a batch mask, ascending.
#[inline]
fn roots_of(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            b
        })
    })
}

impl Lane for Word {
    type Mask = u64;
    type Msg = (u64, u64, u64);

    const STRIDE: u64 = 64;
    const PUSH_UNIT: u64 = 1;
    const PUSH_GRAIN: u64 = SCAN_GRAIN_ITEMS;

    #[inline]
    fn width(&self) -> usize {
        self.nb
    }

    #[inline]
    fn all(&self) -> u64 {
        self.full
    }

    #[inline]
    fn root(b: usize) -> u64 {
        1 << b
    }

    #[inline]
    fn weight(m: u64) -> u64 {
        m.count_ones() as u64
    }

    #[inline]
    fn fresh(m: u64, seen: &Bitmap, update: Option<&Bitmap>, i: u64) -> Option<u64> {
        let i = i as usize;
        let new = m & !seen.words()[i] & !update.map_or(0, |u| u.words()[i]);
        (new != 0).then_some(new)
    }

    #[inline]
    fn insert(set: &mut Bitmap, i: u64, m: u64) {
        set.words_mut()[i as usize] |= m;
    }

    #[inline]
    fn hit(src: &Bitmap, s: u64, want: &mut u64) -> Option<(u64, bool)> {
        let got = src.words()[s as usize] & *want;
        (got != 0).then(|| {
            *want &= !got;
            (got, *want == 0)
        })
    }

    #[inline]
    fn for_each_active(set: &Bitmap, start: u64, end: u64, mut f: impl FnMut(u64, u64)) {
        wide::for_each_nonzero_word(set.words(), start as usize, end as usize, |i, w| {
            f(i as u64, w)
        });
    }

    fn splice(row: &mut Bitmap, base: u64, words: &[u64], _: u64) {
        let base = base as usize;
        row.words_mut()[base..base + words.len()].copy_from_slice(words);
    }

    #[inline]
    fn pack(dest: u64, parent: u64, m: u64) -> (u64, u64, u64) {
        (dest, parent, m)
    }

    #[inline]
    fn unpack(msg: (u64, u64, u64)) -> (u64, u64, u64) {
        msg
    }

    fn new_depths(&self, n: usize) -> Vec<u32> {
        vec![UNREACHED_DEPTH; n * self.nb]
    }

    #[inline]
    fn stamp(
        &self,
        parents: &mut [u64],
        depths: &mut [u32],
        i: u64,
        m: u64,
        parent: u64,
        depth: u32,
    ) {
        let base = i as usize * self.nb;
        for b in roots_of(m) {
            parents[base + b] = parent;
            depths[base + b] = depth;
        }
    }

    fn stamp_hub_depths(&self, depths: &mut [u32], global: &[u64], seen: &Bitmap, depth: u32) {
        // Block-skips all-stale 4-word regions; only hubs with fresh
        // bits pay the per-bit stamping.
        wide::for_each_and_not(global, seen.words(), 0, global.len(), |h, newly| {
            for b in roots_of(newly) {
                depths[h * self.nb + b] = depth;
            }
        });
    }

    fn spares(scratch: &mut EngineScratch) -> &mut Vec<Vec<Self::Msg>> {
        &mut scratch.word
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunbfs_common::SplitMix64;

    #[test]
    fn bit_active_walk_honors_unaligned_windows() {
        let mut set = Bit::new_set(200);
        for i in [0, 63, 64, 70, 127, 128, 199] {
            set.set(i);
        }
        let walk = |start, end| {
            let mut seen = Vec::new();
            Bit::for_each_active(&set, start, end, |i, ()| seen.push(i));
            seen
        };
        assert_eq!(walk(0, 200), vec![0, 63, 64, 70, 127, 128, 199]);
        assert_eq!(walk(70, 128), vec![70, 127]);
        assert_eq!(walk(65, 70), Vec::<u64>::new());
        assert_eq!(walk(128, 199), vec![128]);
    }

    #[test]
    fn word_wanting_walk_masks_to_the_batch_width() {
        let lane = Word::new(3);
        let mut seen = Word::new_set(4);
        let mut update = Word::new_set(4);
        Word::insert(&mut seen, 0, 0b111);
        Word::insert(&mut seen, 1, 0b001);
        Word::insert(&mut update, 1, 0b010);
        let mut live = Bit::new_set(4);
        for i in [0, 1, 3] {
            live.set(i);
        }
        let mut got = Vec::new();
        lane.for_each_wanting(&seen, Some(&update), &live, 0, 4, |i, want| {
            got.push((i, want))
        });
        // Vertex 2 wants every root but has nothing to pull through.
        assert_eq!(got, vec![(1, 0b100), (3, 0b111)]);
        assert_eq!(Word::new(64).all(), u64::MAX);
    }

    /// The wanting walk by definition: one vertex of the window at a
    /// time, mask bit first.
    fn naive_wanting<L: Lane>(
        lane: &L,
        (seen, update, live): (&Bitmap, Option<&Bitmap>, &Bitmap),
        (start, end): (u64, u64),
    ) -> Vec<(u64, L::Mask)> {
        let mut out = Vec::new();
        for i in start..end {
            if !live.get(i) {
                continue;
            }
            if let Some(want) = L::fresh(lane.all(), seen, update, i) {
                out.push((i, want));
            }
        }
        out
    }

    /// Every `[start, end)` window over `n` vertices — unaligned heads,
    /// a ragged tail word, empty windows — with and without an update
    /// set, against [`naive_wanting`]. `element` draws the roots a
    /// vertex already has in a set.
    fn check_masked_walk<L: Lane>(lane: L, n: u64, mut element: impl FnMut() -> Option<L::Mask>)
    where
        L::Mask: PartialEq + std::fmt::Debug,
    {
        let mut rng = SplitMix64::new(n);
        let (mut seen, mut update) = (L::new_set(n), L::new_set(n));
        let mut live = Bit::new_set(n);
        for i in 0..n {
            for set in [&mut seen, &mut update] {
                if let Some(m) = element() {
                    L::insert(set, i, m);
                }
            }
            if rng.next_below(2) == 0 {
                live.set(i);
            }
        }
        let mut skipped_live = false;
        for start in 0..=n {
            for end in start..=n {
                for update in [None, Some(&update)] {
                    let mut got = Vec::new();
                    lane.for_each_wanting(&seen, update, &live, start, end, |i, want| {
                        got.push((i, want))
                    });
                    let want = naive_wanting(&lane, (&seen, update, &live), (start, end));
                    assert_eq!(got, want, "window [{start}, {end})");
                    skipped_live |= (got.len() as u64) < live.count_ones_range(start, end);
                }
            }
        }
        assert!(skipped_live, "some live vertex must already be covered");
    }

    #[test]
    fn masked_wanting_walks_match_the_per_vertex_loop() {
        // 140 vertices: two full words and a 12-bit tail word, so mask
        // bits sit below `start`, in the tail, and under `seen`/`update`.
        let mut rng = SplitMix64::new(7);
        check_masked_walk(Bit, 140, || (rng.next_below(3) == 0).then_some(()));
        for width in [3, 64] {
            let lane = Word::new(width);
            // A third of the vertices have every root, a third some.
            check_masked_walk(lane, 140, || match rng.next_below(3) {
                0 => Some(lane.all()),
                1 => Some(rng.next_u64() & lane.all()).filter(|&m| m != 0),
                _ => None,
            });
        }
    }

    #[test]
    fn hit_reports_exhaustion() {
        let mut src = Word::new_set(2);
        Word::insert(&mut src, 1, 0b0110);
        let mut want = 0b0111;
        assert_eq!(Word::hit(&src, 0, &mut want), None);
        assert_eq!(Word::hit(&src, 1, &mut want), Some((0b0110, false)));
        assert_eq!(want, 0b0001);
        let mut want = 0b0100;
        assert_eq!(Word::hit(&src, 1, &mut want), Some((0b0100, true)));

        let mut bits = Bit::new_set(2);
        bits.set(1);
        assert_eq!(Bit::hit(&bits, 0, &mut ()), None);
        assert_eq!(Bit::hit(&bits, 1, &mut ()), Some(((), true)));
    }

    #[test]
    fn splice_places_members_at_their_row_offset() {
        let mut member = Bit::new_set(70);
        member.set(0);
        member.set(69);
        let mut row = Bit::new_set(200);
        Bit::splice(&mut row, 100, member.words(), 70);
        assert_eq!(row.iter_ones().collect::<Vec<_>>(), vec![100, 169]);

        let mut row = Word::new_set(5);
        Word::splice(&mut row, 2, &[7, 9], 2);
        assert_eq!(row.words(), &[0, 0, 7, 9, 0]);
    }

    /// [`Bit::splice`] by definition: one `row.set` per member bit below
    /// `len`.
    fn splice_bit_by_bit(row: &mut Bitmap, base: u64, words: &[u64], len: u64) {
        for bit in 0..len {
            if (words[(bit / 64) as usize] >> (bit % 64)) & 1 == 1 {
                row.set(base + bit);
            }
        }
    }

    #[test]
    fn bit_splice_is_the_bit_by_bit_or_at_every_alignment() {
        let mut rng = SplitMix64::new(24);
        let mut draw = |words: usize| -> Vec<u64> {
            // A third of the words empty, a third full: carries across
            // word boundaries and no-op words both occur.
            let word = |rng: &mut SplitMix64| match rng.next_below(3) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.next_u64(),
            };
            (0..words).map(|_| word(&mut rng)).collect()
        };
        for base in [0, 1, 63, 64, 65, 64 * 5 + 17] {
            for len in [1, 17, 63, 64, 65, 127, 128, 200, 1000] {
                // The row ends with the member, so a word written past
                // the member's last one is out of bounds; it already
                // holds bits the splice must keep; the member's final
                // word carries junk above `len` that must not arrive.
                let mut want = Bit::new_set(base + len);
                let held = draw(want.num_words());
                splice_bit_by_bit(&mut want, 0, &held, base + len);
                let mut got = want.clone();
                let member = draw(len.div_ceil(64) as usize);
                splice_bit_by_bit(&mut want, base, &member, len);
                Bit::splice(&mut got, base, &member, len);
                assert_eq!(got, want, "base {base}, len {len}");
            }
        }
    }

    #[test]
    fn bit_splice_tiles_a_row_from_unaligned_members() {
        // A 2x3 mesh's row: three members of ⌈n/6⌉ = 43 vertices, then
        // a row whose members end on word boundaries.
        let mut rng = SplitMix64::new(25);
        for member_len in [43u64, 64, 683] {
            let members: Vec<Vec<u64>> = (0..3)
                .map(|_| {
                    let mut set = Bit::new_set(member_len);
                    for i in 0..member_len {
                        if rng.next_below(2) == 0 {
                            set.set(i);
                        }
                    }
                    set.words().to_vec()
                })
                .collect();
            let (mut got, mut want) = (Bit::new_set(3 * member_len), Bit::new_set(3 * member_len));
            for (pos, words) in members.iter().enumerate() {
                Bit::splice(&mut got, pos as u64 * member_len, words, member_len);
                splice_bit_by_bit(&mut want, pos as u64 * member_len, words, member_len);
            }
            assert_eq!(got, want, "members of {member_len}");
            let ones: u64 = members.iter().map(|w| wide::count_ones(w)).sum();
            assert_eq!(got.count_ones(), ones);
        }
    }

    #[test]
    fn word_stamps_every_root_of_the_mask() {
        let lane = Word::new(4);
        let mut parents = vec![u64::MAX; 8];
        let mut depths = lane.new_depths(2);
        lane.stamp(&mut parents, &mut depths, 1, 0b1010, 42, 3);
        assert_eq!(&parents[4..], &[u64::MAX, 42, u64::MAX, 42]);
        assert_eq!(&depths[4..], &[UNREACHED_DEPTH, 3, UNREACHED_DEPTH, 3]);

        let mut seen = Word::new_set(2);
        Word::insert(&mut seen, 0, 0b0001);
        lane.stamp_hub_depths(&mut depths, &[0b0011, 0], &seen, 5);
        assert_eq!(
            &depths[..4],
            &[UNREACHED_DEPTH, 5, UNREACHED_DEPTH, UNREACHED_DEPTH]
        );
    }
}
