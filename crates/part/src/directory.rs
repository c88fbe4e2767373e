//! Hub directory: the 3-level degree classification of §4.1.
//!
//! Vertices split by degree into **E** (extremely heavy, `deg ≥ e`
//! threshold), **H** (heavy, `h ≤ deg < e`), and **L** (the rest).
//! E and H vertices — the *hubs* — are "selected out of all vertices,
//! sorted per node by the degree, and given a new ID among the higher
//! degree vertices"; L vertices keep their original ids.
//!
//! The directory (hub id ↔ original vertex, degrees, class boundaries)
//! is replicated on every rank: hub counts are tiny by construction
//! (that is the whole point of the thresholds), so replication is the
//! cheap, communication-free choice the paper's delegates imply.
//!
//! Hub ids are ordered E-first, by descending degree: `hub < num_e` ⇔
//! class E. For the 2D partitioning of the EH2EH component, the hub id
//! space is block-split into `R` destination ranges and `C` source
//! ranges.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use sunbfs_common::{json_record, VertexId};

/// Hash of a vertex id for the reverse index: one multiply by an odd
/// constant (every input bit reaches the product's high bits) and one
/// rotate that brings those high bits down to where the table takes
/// its bucket index — ids that differ only in their high bits
/// (multiples of a large power of two) still spread. A commit probes
/// the index for both endpoints of every edge it adds (`mutate`'s
/// delta); the build's routing, which looks up every endpoint of a
/// chunk twice, reads [`HubDirectory::hub_id_table`] instead. SipHash's
/// flood resistance buys nothing here, because the keys are the hub
/// table (vertices the degree census selected), not strings a peer
/// chooses.
///
/// **Invariant:** the map is only ever probed (`get`), never iterated,
/// so its internal order — the one thing a hasher could change about a
/// directory — cannot reach any output.
#[derive(Clone, Copy, Default)]
struct VertexIdHasher(u64);

impl Hasher for VertexIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    /// Total over any byte string (eight bytes per round), though
    /// `VertexId` keys only ever take [`Self::write_u64`].
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type HubIndex = HashMap<VertexId, u32, BuildHasherDefault<VertexIdHasher>>;

/// The reverse index of a hub table in hub-id order.
fn index_hubs(hubs: &[(VertexId, u32)]) -> HubIndex {
    hubs.iter()
        .enumerate()
        .map(|(i, (v, _))| (*v, i as u32))
        .collect()
}

json_record! {
    /// Degree thresholds selecting the three classes. `u32::MAX` disables a
    /// class (no vertex reaches it).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Thresholds {
        /// Degree at or above which a vertex is Extremely heavy.
        pub e: u32,
        /// Degree at or above which a vertex is Heavy (must be ≤ `e`).
        pub h: u32,
    }
}

impl Thresholds {
    /// New thresholds; `h ≤ e` is required.
    pub fn new(e: u32, h: u32) -> Self {
        assert!(h <= e, "H threshold {h} must not exceed E threshold {e}");
        Thresholds { e, h }
    }

    /// Degenerate configuration with no hubs at all (vanilla 1D).
    pub fn none() -> Self {
        Thresholds {
            e: u32::MAX,
            h: u32::MAX,
        }
    }

    /// 1D-with-heavy-delegates degeneration (`|H| = 0`): one delegate
    /// class only.
    pub fn heavy_only(e: u32) -> Self {
        Thresholds { e, h: e }
    }

    /// 2D degeneration (`|L| = 0` for every connected vertex): every
    /// vertex with an edge becomes a hub.
    pub fn all_hubs(e: u32) -> Self {
        Thresholds { e, h: 1 }
    }

    /// The class of a vertex of degree `deg`: the one definition the
    /// build's hub filter, [`HubDirectory::build`] and the update
    /// path's promotion check share.
    #[inline]
    pub fn class_of_degree(self, deg: u64) -> VertexClass {
        if deg >= u64::from(self.e) {
            VertexClass::E
        } else if deg >= u64::from(self.h) {
            VertexClass::H
        } else {
            VertexClass::L
        }
    }
}

/// Vertex class under a [`Thresholds`] setting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VertexClass {
    /// Extremely heavy: delegated on every rank.
    E,
    /// Heavy: delegated on mesh rows and columns.
    H,
    /// Light: owner-only state, per-edge messaging.
    L,
}

/// Replicated hub directory.
#[derive(Clone, Debug)]
pub struct HubDirectory {
    num_e: u32,
    hubs: Vec<(VertexId, u32)>, // (original vertex, degree), indexed by hub id
    /// Probed, never iterated (see [`VertexIdHasher`]).
    hub_of: HubIndex,
}

impl HubDirectory {
    /// Build from the global `(vertex, degree)` list of all vertices
    /// with `degree ≥ thresholds.h`. Every rank must pass the same list
    /// (it is produced by an allgather); ordering here is canonical so
    /// all ranks derive identical hub ids.
    pub fn build(mut heavy: Vec<(VertexId, u32)>, thresholds: Thresholds) -> Self {
        // E-first, then by (degree desc, vertex asc) — deterministic.
        let is_e = |d: u32| thresholds.class_of_degree(u64::from(d)) == VertexClass::E;
        heavy.sort_unstable_by(|a, b| {
            is_e(b.1)
                .cmp(&is_e(a.1))
                .then(b.1.cmp(&a.1))
                .then(a.0.cmp(&b.0))
        });
        let num_e = heavy.iter().take_while(|(_, d)| is_e(*d)).count() as u32;
        HubDirectory {
            num_e,
            hub_of: index_hubs(&heavy),
            hubs: heavy,
        }
    }

    /// Rebuild a directory from its serialized parts: the hub table in
    /// its canonical (already sorted) order plus the E-class count.
    /// The reverse index is rederived, so a round-tripped directory is
    /// structurally identical to the one that was saved. `num_e` must
    /// not exceed the table length.
    pub fn from_parts(num_e: u32, hubs: Vec<(VertexId, u32)>) -> Self {
        assert!(
            (num_e as usize) <= hubs.len(),
            "num_e {num_e} exceeds hub count {}",
            hubs.len()
        );
        HubDirectory {
            num_e,
            hub_of: index_hubs(&hubs),
            hubs,
        }
    }

    /// The hub table in hub-id order (`(original vertex, degree)`).
    /// Exposed for serialization.
    #[inline]
    pub fn hubs(&self) -> &[(VertexId, u32)] {
        &self.hubs
    }

    /// An empty directory (no hubs; pure 1D partitioning).
    pub fn empty() -> Self {
        HubDirectory {
            num_e: 0,
            hubs: Vec::new(),
            hub_of: HubIndex::default(),
        }
    }

    /// Number of E hubs.
    #[inline]
    pub fn num_e(&self) -> u32 {
        self.num_e
    }

    /// Number of H hubs.
    #[inline]
    pub fn num_h(&self) -> u32 {
        self.hubs.len() as u32 - self.num_e
    }

    /// Total hubs (`|E| + |H|`).
    #[inline]
    pub fn num_hubs(&self) -> u32 {
        self.hubs.len() as u32
    }

    /// Hub id of `v`, if `v` is a hub.
    #[inline]
    pub fn hub_id(&self, v: VertexId) -> Option<u32> {
        self.hub_of.get(&v).copied()
    }

    /// [`Self::hub_id`] of every vertex in `0..n` as one dense table:
    /// entry `v` is `v`'s hub id, or `u32::MAX` if `v` is L. The build's
    /// routing passes look every endpoint up twice, where an array load
    /// beats a hash probe; at 4 bytes a vertex the table is too large to
    /// keep, so the build drops it before its exchanges. Every hub must
    /// be below `n`.
    pub fn hub_id_table(&self, n: u64) -> Vec<u32> {
        let mut table = vec![u32::MAX; n as usize];
        for (h, &(v, _)) in self.hubs.iter().enumerate() {
            table[v as usize] = h as u32;
        }
        table
    }

    /// Class of vertex `v`.
    #[inline]
    pub fn class_of(&self, v: VertexId) -> VertexClass {
        match self.hub_id(v) {
            Some(h) if h < self.num_e => VertexClass::E,
            Some(_) => VertexClass::H,
            None => VertexClass::L,
        }
    }

    /// Original vertex of hub `h`.
    #[inline]
    pub fn vertex_of(&self, hub: u32) -> VertexId {
        self.hubs[hub as usize].0
    }

    /// True when hub id `h` is in class E.
    #[inline]
    pub fn is_e(&self, hub: u32) -> bool {
        hub < self.num_e
    }

    /// Mesh row holding destination state of hub `h`.
    ///
    /// **Cyclic** placement: hub ids are degree-sorted, so a contiguous
    /// block split would concentrate all the heavy hubs on one mesh
    /// row/column; the cyclic ("block-cyclic flavor", §2.1.1) mapping
    /// interleaves them, which is what makes Figure 13's EH2EH balance
    /// possible.
    #[inline]
    pub fn dest_row(&self, hub: u32, rows: usize) -> usize {
        hub as usize % rows
    }

    /// Mesh column holding source state of hub `h` (cyclic, see
    /// [`Self::dest_row`]).
    #[inline]
    pub fn src_col(&self, hub: u32, cols: usize) -> usize {
        hub as usize % cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_directory() -> HubDirectory {
        // Degrees: 100/90 are E (threshold 50), 40/30/20 are H (threshold 10).
        let heavy = vec![(7u64, 40u32), (3, 100), (11, 20), (5, 90), (9, 30)];
        HubDirectory::build(heavy, Thresholds::new(50, 10))
    }

    #[test]
    fn hub_ids_are_e_first_by_degree() {
        let d = sample_directory();
        assert_eq!(d.num_e(), 2);
        assert_eq!(d.num_h(), 3);
        assert_eq!(d.vertex_of(0), 3); // deg 100
        assert_eq!(d.vertex_of(1), 5); // deg 90
        assert_eq!(d.vertex_of(2), 7); // deg 40
        assert_eq!(d.vertex_of(4), 11); // deg 20
    }

    #[test]
    fn classes_resolve() {
        let d = sample_directory();
        assert_eq!(d.class_of(3), VertexClass::E);
        assert_eq!(d.class_of(9), VertexClass::H);
        assert_eq!(d.class_of(1000), VertexClass::L);
        assert!(d.is_e(0) && d.is_e(1) && !d.is_e(2));
    }

    #[test]
    fn hub_id_lookup_roundtrips() {
        let d = sample_directory();
        for h in 0..d.num_hubs() {
            assert_eq!(d.hub_id(d.vertex_of(h)), Some(h));
        }
        assert_eq!(d.hub_id(42), None);
    }

    #[test]
    fn lookup_roundtrips_on_ids_that_differ_only_in_high_bits() {
        // Multiples of 2^20 (every low bit equal), the two ends of the
        // id space, and a dense run: each hub resolves to itself, every
        // neighbour of a hub that is not one misses.
        let mut ids: Vec<u64> = (1..=2000u64).map(|i| i << 20).collect();
        ids.extend([0, u64::MAX]);
        ids.extend(5000..5200);
        let heavy: Vec<(u64, u32)> = ids.iter().map(|&v| (v, 100)).collect();
        for d in [
            HubDirectory::build(heavy.clone(), Thresholds::new(1000, 10)),
            HubDirectory::from_parts(0, heavy.clone()),
        ] {
            assert_eq!(d.num_hubs() as usize, ids.len());
            for h in 0..d.num_hubs() {
                assert_eq!(d.hub_id(d.vertex_of(h)), Some(h));
            }
            for &v in &ids {
                for miss in [v.wrapping_add(1), v.wrapping_sub(1), v ^ (1 << 19)] {
                    if !ids.contains(&miss) {
                        assert_eq!(d.hub_id(miss), None, "{miss} is not a hub");
                    }
                }
            }
        }
    }

    #[test]
    fn hasher_spreads_high_bit_ids_and_takes_any_bytes() {
        use std::hash::Hash;
        let hash = |v: u64| {
            let mut h = VertexIdHasher::default();
            v.hash(&mut h);
            h.finish()
        };
        // The table indexes by the low bits and tags by the top seven:
        // 4096 multiples of 2^20 must not pile into a few buckets.
        let low: std::collections::HashSet<u64> =
            (0..4096u64).map(|i| hash(i << 20) & 0xfff).collect();
        assert!(
            low.len() > 2000,
            "only {} of 4096 low-bit buckets",
            low.len()
        );
        // `write` is total: strings of any length hash, and differ.
        let bytes = |b: &[u8]| {
            let mut h = VertexIdHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(bytes(b"abc"), bytes(b"abd"));
        assert_ne!(bytes(b"0123456789"), bytes(b"0123456780"));
        assert_eq!(bytes(&7u64.to_le_bytes()), hash(7));
        let _ = bytes(b"");
    }

    #[test]
    fn degree_ties_break_by_vertex_id() {
        let heavy = vec![(9u64, 50u32), (2, 50), (5, 50)];
        let d = HubDirectory::build(heavy, Thresholds::new(100, 10));
        assert_eq!(d.vertex_of(0), 2);
        assert_eq!(d.vertex_of(1), 5);
        assert_eq!(d.vertex_of(2), 9);
    }

    #[test]
    fn cyclic_hub_placement_partitions_hub_space() {
        // Hub ids whose destination state mesh row `row` owns, ascending.
        let dest_hubs = |d: &HubDirectory, row: usize, rows: usize| {
            (row as u64..d.num_hubs() as u64).step_by(rows)
        };
        let d = sample_directory();
        for parts in 1..=6 {
            let mut seen = vec![false; d.num_hubs() as usize];
            for i in 0..parts {
                for h in dest_hubs(&d, i, parts) {
                    assert_eq!(d.dest_row(h as u32, parts), i);
                    assert!(!seen[h as usize], "hub {h} assigned twice");
                    seen[h as usize] = true;
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "some hub unassigned at parts={parts}"
            );
        }
    }

    #[test]
    fn cyclic_placement_spreads_heavy_hubs() {
        // The top-`parts` heaviest hubs (lowest ids) must land on
        // distinct rows — the point of cyclic placement.
        let d = sample_directory();
        let rows: Vec<usize> = (0..4u32).map(|h| d.dest_row(h, 4)).collect();
        let mut dedup = rows.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
    }

    #[test]
    fn empty_directory_is_all_l() {
        let d = HubDirectory::empty();
        assert_eq!(d.num_hubs(), 0);
        assert_eq!(d.class_of(0), VertexClass::L);
    }

    #[test]
    fn degenerate_threshold_constructors() {
        assert_eq!(
            Thresholds::none(),
            Thresholds {
                e: u32::MAX,
                h: u32::MAX
            }
        );
        assert_eq!(Thresholds::heavy_only(32), Thresholds { e: 32, h: 32 });
        assert_eq!(Thresholds::all_hubs(1024), Thresholds { e: 1024, h: 1 });
    }

    #[test]
    #[should_panic]
    fn inverted_thresholds_rejected() {
        Thresholds::new(10, 20);
    }
}
