//! A session's committed-but-uncompacted inserts, as one adjacency.
//!
//! A [`Delta`] holds the canonical, loop-free commit log and the
//! sorted, deduplicated undirected adjacency that log adds, keyed by
//! global vertex id. It does not follow the 1.5D layout: no SPMD code
//! reads it (the engine traverses the base CSRs only), and its one
//! reader, [`crate::UnionAdjacency`], runs sequentially over every
//! rank's partition in one address space, so a vertex's inserted
//! neighbors are one lookup whatever its class.
//!
//! Two numbers still follow the base layout. [`Delta::entries`] weighs
//! each insert by the component entries a build stores for it: one for
//! an E–L edge (kept once, at the light endpoint's owner), two for any
//! other pairing (both orientations). And [`Delta::insert`] reports a
//! **promotion** when an endpoint's degree, owned plus added, now falls
//! in another class than the hub directory holds: hub ids are assigned
//! in degree order at build time, so the session compacts to give the
//! base the hub layout of the real degrees.

use std::collections::BTreeMap;

use sunbfs_common::Edge;
use sunbfs_part::{RankPartition, Thresholds, VertexClass};

/// Inserts committed since the last compaction.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    log: Vec<Edge>,
    adjacency: BTreeMap<u64, Vec<u64>>,
    added_degree: BTreeMap<u64, u32>,
    entries: u64,
}

impl Delta {
    /// True when nothing was committed since the last compaction.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Component entries a build would store for the inserts: 1 per
    /// E–L edge, 2 per other class pairing, duplicates included.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// The inserts, canonical and loop-free, in commit order.
    pub fn log(&self) -> &[Edge] {
        &self.log
    }

    /// The distinct inserted neighbors of `v`, ascending.
    pub fn neighbors(&self, v: u64) -> &[u64] {
        self.adjacency.get(&v).map_or(&[], Vec::as_slice)
    }

    /// Fold `batch` in, self loops skipped. Returns true when an
    /// endpoint's degree class under `thresholds` (owned degree in
    /// `parts` plus every insert, duplicates counted) now differs from
    /// the class `parts`' hub directory holds for it.
    pub fn insert(
        &mut self,
        batch: &[Edge],
        parts: &[RankPartition],
        thresholds: Thresholds,
    ) -> bool {
        let dir = &parts[0].directory;
        let mut promoted = false;
        for e in batch.iter().filter(|e| !e.is_self_loop()) {
            let e = e.canonical();
            self.entries += match (dir.class_of(e.u), dir.class_of(e.v)) {
                (VertexClass::E, VertexClass::L) | (VertexClass::L, VertexClass::E) => 1,
                _ => 2,
            };
            for (v, w) in [(e.u, e.v), (e.v, e.u)] {
                let list = self.adjacency.entry(v).or_default();
                if let Err(pos) = list.binary_search(&w) {
                    list.insert(pos, w);
                }
                let added = self.added_degree.entry(v).or_insert(0);
                *added += 1;
                let owner = &parts[parts[0].dist.owner(v)];
                let owned = owner.owned_degrees[(v - owner.owned_range().start) as usize];
                let degree = u64::from(owned) + u64::from(*added);
                promoted |= thresholds.class_of_degree(degree) != dir.class_of(v);
            }
            self.log.push(e);
        }
        promoted
    }
}

/// The canonical undirected edge set of a session, as the sorted array
/// a set would iterate: `(min, max)` pairs from every rank's EH, E↔L,
/// L→H and L↔L components (H→L copies are duplicates of L→H and are
/// skipped) plus the committed-but-uncompacted `delta_log`, sorted
/// ascending with duplicates removed — strictly increasing.
///
/// This is the compaction input: a fresh `build_1p5d` over it, chunked
/// rank-strided, must be byte-identical to the compacted partition. The
/// base components already hold each undirected edge at most twice (EH
/// and L↔L store both orientations), so one `sort_unstable` + `dedup`
/// over a flat array replaces a node-per-edge ordered set.
pub fn canonical_edge_set(parts: &[RankPartition], delta_log: &[Edge]) -> Vec<(u64, u64)> {
    let dir = &parts[0].directory;
    let canon = |a: u64, b: u64| if a <= b { (a, b) } else { (b, a) };
    let stored = |p: &RankPartition| {
        p.eh_by_src.num_edges()
            + p.el_by_hub.num_edges()
            + p.lh_by_hub.num_edges()
            + p.l2l.num_edges()
    };
    let capacity = parts.iter().map(stored).sum::<u64>() as usize + delta_log.len();
    let mut out = Vec::with_capacity(capacity);
    for p in parts {
        out.extend(
            p.eh_by_src
                .iter_edges()
                .map(|(hs, hd)| canon(dir.vertex_of(hs as u32), dir.vertex_of(hd as u32))),
        );
        let hub_side = p.el_by_hub.iter_edges().chain(p.lh_by_hub.iter_edges());
        out.extend(hub_side.map(|(h, l)| canon(dir.vertex_of(h as u32), l)));
        out.extend(p.l2l.iter_edges().map(|(u, v)| canon(u, v)));
    }
    out.extend(delta_log.iter().map(|e| canon(e.u, e.v)));
    out.sort_unstable();
    out.dedup();
    out
}
