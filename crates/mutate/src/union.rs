//! Read-only adjacency over base CSRs plus a session's [`Delta`].
//!
//! The simulated cluster keeps every rank's partition resident in one
//! address space, so a sequential pass can read any rank's components
//! directly. [`UnionAdjacency`] exploits that to answer "all neighbors
//! of `v` in the *mutated* graph" without materializing anything:
//!
//! * a **hub** vertex's base neighbors live scattered across the mesh —
//!   its EH entries on the 2D grid, its E↔L entries at each local's
//!   owner, its L→H copies likewise — so every rank's `_by_hub` sides
//!   are scanned;
//! * a **light** vertex's base neighbors all live at its owner: the
//!   E↔L, L→H, and L↔L `_by_local` sides of that one rank;
//! * either way, its inserted neighbors are one [`Delta::neighbors`]
//!   lookup.
//!
//! H→L copies are skipped — they duplicate the L→H entries (same edges,
//! routed to the intermediate rank for the pull direction).
//!
//! Neighbor lists come back sorted and deduplicated, so every consumer
//! (the reference traversal, the repair pass) is deterministic
//! regardless of internal scan order.

use sunbfs_part::RankPartition;

use crate::delta::Delta;

/// Unreached sentinel in depth arrays (mirrors the engine's global
/// convention: `u64::MAX` depth, `INVALID_VERTEX` parent).
pub const UNREACHED: u64 = u64::MAX;

/// Adjacency view over `parts` with `delta`'s inserts applied.
pub struct UnionAdjacency<'a> {
    parts: &'a [RankPartition],
    delta: &'a Delta,
}

impl<'a> UnionAdjacency<'a> {
    /// View over base partitions plus the inserts in `delta` (pass
    /// `&Delta::default()` for the base graph alone).
    ///
    /// # Panics
    /// When `parts` is empty.
    pub fn new(parts: &'a [RankPartition], delta: &'a Delta) -> Self {
        assert!(!parts.is_empty(), "union adjacency over zero ranks");
        UnionAdjacency { parts, delta }
    }

    /// Global vertex count.
    pub fn num_vertices(&self) -> u64 {
        self.parts[0].dist.num_vertices()
    }

    /// Collect the sorted, deduplicated neighbors of `v` into `out`
    /// (cleared first). Returns the number of entries scanned, counting
    /// duplicates — the repair pass reports it as work done.
    pub fn neighbors_into(&self, v: u64, out: &mut Vec<u64>) -> u64 {
        out.clear();
        let dir = &self.parts[0].directory;
        let mut scanned = 0u64;
        match dir.hub_id(v) {
            Some(h) => {
                let h = h as u64;
                for p in self.parts {
                    for &d in p.eh_by_src.neighbors(h) {
                        out.push(dir.vertex_of(d as u32));
                    }
                    out.extend_from_slice(p.el_by_hub.neighbors(h));
                    out.extend_from_slice(p.lh_by_hub.neighbors(h));
                    scanned +=
                        p.eh_by_src.degree(h) + p.el_by_hub.degree(h) + p.lh_by_hub.degree(h);
                }
            }
            None => {
                let p = &self.parts[self.parts[0].dist.owner(v)];
                for &h in p.el_by_local.neighbors(v) {
                    out.push(dir.vertex_of(h as u32));
                }
                for &h in p.lh_by_local.neighbors(v) {
                    out.push(dir.vertex_of(h as u32));
                }
                out.extend_from_slice(p.l2l.neighbors(v));
                scanned += p.el_by_local.degree(v) + p.lh_by_local.degree(v) + p.l2l.degree(v);
            }
        }
        let inserted = self.delta.neighbors(v);
        out.extend_from_slice(inserted);
        scanned += inserted.len() as u64;
        out.sort_unstable();
        out.dedup();
        scanned
    }

    /// Sequential reference BFS over the union graph: `(parents,
    /// depths)`, with `INVALID_VERTEX` / [`UNREACHED`] for unreached
    /// vertices and the root its own parent. Deterministic: neighbors
    /// expand in ascending vertex order.
    pub fn full_bfs(&self, root: u64) -> (Vec<u64>, Vec<u64>) {
        let n = self.num_vertices() as usize;
        let mut parents = vec![sunbfs_common::INVALID_VERTEX; n];
        let mut depths = vec![UNREACHED; n];
        if (root as usize) >= n {
            return (parents, depths);
        }
        parents[root as usize] = root;
        depths[root as usize] = 0;
        let mut queue = std::collections::VecDeque::from([root]);
        let mut nbrs = Vec::new();
        while let Some(v) = queue.pop_front() {
            self.neighbors_into(v, &mut nbrs);
            for &w in &nbrs {
                if depths[w as usize] == UNREACHED {
                    depths[w as usize] = depths[v as usize] + 1;
                    parents[w as usize] = v;
                    queue.push_back(w);
                }
            }
        }
        (parents, depths)
    }
}
