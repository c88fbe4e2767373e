//! The serial oracle every output is checked against.
//!
//! Built by the harness from the generated edge list alone — it shares
//! no code with the engines: a deduplicated, loop-free, symmetric CSR,
//! its connected components, and a plain queue BFS that can also walk
//! edges inserted after the build (the union graph at an epoch).

use std::collections::{BTreeMap, VecDeque};

use sunbfs::common::Edge;

/// What a correct BFS from one root reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Vertices reached, the root included.
    pub visited: u64,
    /// `depth_histogram[d]` vertices at depth `d`.
    pub depth_histogram: Vec<u64>,
    /// Distinct undirected edges inside the reached component — the
    /// Graph 500 traversed-edge count.
    pub edges: u64,
}

pub struct Oracle {
    offsets: Vec<u64>,
    targets: Vec<u32>,
    component: Vec<u32>,
    component_vertices: Vec<u64>,
    component_edges: Vec<u64>,
}

/// Depth of an unreached vertex in [`Oracle::depths`].
pub const UNREACHED: u32 = u32::MAX;

impl Oracle {
    /// Build from `n` vertices and an edge multiset (self loops and
    /// duplicates are dropped). `n` must fit `u32`.
    pub fn build(n: u64, edges: &[Edge]) -> Oracle {
        assert!(
            n < u64::from(u32::MAX),
            "the oracle indexes vertices with u32"
        );
        let mut keys: Vec<u64> = edges
            .iter()
            .filter(|e| !e.is_self_loop())
            .map(|e| {
                let c = e.canonical();
                (c.u << 32) | c.v
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let n = n as usize;
        let mut offsets = vec![0u64; n + 1];
        for &k in &keys {
            offsets[(k >> 32) as usize + 1] += 1;
            offsets[(k & 0xffff_ffff) as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; keys.len() * 2];
        for &k in &keys {
            let (u, v) = ((k >> 32) as usize, (k & 0xffff_ffff) as usize);
            targets[cursor[u] as usize] = v as u32;
            cursor[u] += 1;
            targets[cursor[v] as usize] = u as u32;
            cursor[v] += 1;
        }
        let mut oracle = Oracle {
            offsets,
            targets,
            component: vec![u32::MAX; n],
            component_vertices: Vec::new(),
            component_edges: Vec::new(),
        };
        oracle.label_components();
        oracle
    }

    fn label_components(&mut self) {
        let mut queue = VecDeque::new();
        for start in 0..self.component.len() {
            if self.component[start] != u32::MAX {
                continue;
            }
            let label = self.component_vertices.len() as u32;
            let (mut vertices, mut degree_sum) = (0u64, 0u64);
            self.component[start] = label;
            queue.push_back(start as u32);
            while let Some(u) = queue.pop_front() {
                vertices += 1;
                degree_sum += self.neighbors(u).len() as u64;
                let (lo, hi) = self.bounds(u);
                for i in lo..hi {
                    let v = self.targets[i] as usize;
                    if self.component[v] == u32::MAX {
                        self.component[v] = label;
                        queue.push_back(v as u32);
                    }
                }
            }
            self.component_vertices.push(vertices);
            self.component_edges.push(degree_sum / 2);
        }
    }

    fn bounds(&self, v: u32) -> (usize, usize) {
        (
            self.offsets[v as usize] as usize,
            self.offsets[v as usize + 1] as usize,
        )
    }

    fn neighbors(&self, v: u32) -> &[u32] {
        let (lo, hi) = self.bounds(v);
        &self.targets[lo..hi]
    }

    pub fn num_vertices(&self) -> u64 {
        self.component.len() as u64
    }

    /// Degree in the deduplicated graph.
    pub fn degree(&self, v: u64) -> u64 {
        self.neighbors(v as u32).len() as u64
    }

    /// Vertices in `root`'s component of the base graph.
    pub fn reach(&self, root: u64) -> u64 {
        self.component_vertices[self.component[root as usize] as usize]
    }

    /// Distinct edges in `root`'s component of the base graph — the
    /// Graph 500 `m` of a traversal from it.
    pub fn reach_edges(&self, root: u64) -> u64 {
        self.component_edges[self.component[root as usize] as usize]
    }

    /// BFS depths over the base graph ([`UNREACHED`] where not reached).
    pub fn depths(&self, root: u64) -> Vec<u32> {
        self.walk(root, &BTreeMap::new()).0
    }

    /// Are `levels` (one per vertex, `u64::MAX` where unreached — the
    /// convention of `core::validate`) the BFS depths from `root`?
    pub fn agrees_with_levels(&self, root: u64, levels: &[u64]) -> bool {
        let want = self.depths(root);
        levels.len() == want.len()
            && levels.iter().zip(&want).all(|(&got, &want)| {
                if want == UNREACHED {
                    got == u64::MAX
                } else {
                    got == u64::from(want)
                }
            })
    }

    /// The correct answer for `root` on the base graph plus `inserted`
    /// (adjacency lists of edges committed since the build, both
    /// orientations present; see [`insert_edge`]).
    pub fn answer(&self, root: u64, inserted: &BTreeMap<u32, Vec<u32>>) -> Answer {
        let (depths, order) = self.walk(root, inserted);
        let mut depth_histogram = Vec::new();
        let mut degree_sum = 0u64;
        for &v in &order {
            let d = depths[v as usize] as usize;
            if depth_histogram.len() <= d {
                depth_histogram.resize(d + 1, 0);
            }
            depth_histogram[d] += 1;
            let base = self.neighbors(v);
            degree_sum += base.len() as u64;
            if let Some(extra) = inserted.get(&v) {
                // An inserted edge the base graph already has is the
                // same edge, and `insert_edge` keeps lists duplicate-free.
                degree_sum += extra
                    .iter()
                    .filter(|&w| base.binary_search(w).is_err())
                    .count() as u64;
            }
        }
        Answer {
            visited: order.len() as u64,
            depth_histogram,
            edges: degree_sum / 2,
        }
    }

    /// Queue BFS; returns depths and the visit order.
    fn walk(&self, root: u64, inserted: &BTreeMap<u32, Vec<u32>>) -> (Vec<u32>, Vec<u32>) {
        let mut depths = vec![UNREACHED; self.component.len()];
        let mut order = vec![root as u32];
        depths[root as usize] = 0;
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            let next = depths[u as usize] + 1;
            let extra = inserted.get(&u).map_or(&[][..], Vec::as_slice);
            for &v in self.neighbors(u).iter().chain(extra) {
                if depths[v as usize] == UNREACHED {
                    depths[v as usize] = next;
                    order.push(v);
                }
            }
        }
        (depths, order)
    }
}

/// Add one committed edge to an inserted-edge adjacency (both
/// orientations; self loops and repeats are dropped, as the engine's
/// commit path drops them).
pub fn insert_edge(inserted: &mut BTreeMap<u32, Vec<u32>>, e: Edge) {
    if e.is_self_loop() {
        return;
    }
    for (a, b) in [(e.u as u32, e.v as u32), (e.v as u32, e.u as u32)] {
        let list = inserted.entry(a).or_default();
        if !list.contains(&b) {
            list.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0-1-2 path with a duplicate and a loop, 3-4 apart, 5 isolated.
    fn graph() -> Oracle {
        let e = |u, v| Edge::new(u, v);
        Oracle::build(6, &[e(0, 1), e(1, 0), e(1, 2), e(2, 2), e(3, 4)])
    }

    #[test]
    fn components_count_distinct_edges() {
        let o = graph();
        assert_eq!((o.reach(0), o.reach_edges(0)), (3, 2));
        assert_eq!((o.reach(4), o.reach_edges(4)), (2, 1));
        assert_eq!((o.reach(5), o.reach_edges(5)), (1, 0));
        assert_eq!(o.degree(1), 2);
        assert_eq!(o.degree(2), 1);
    }

    #[test]
    fn answer_matches_a_hand_bfs() {
        let o = graph();
        let a = o.answer(0, &BTreeMap::new());
        assert_eq!(a.visited, 3);
        assert_eq!(a.depth_histogram, vec![1, 1, 1]);
        assert_eq!(a.edges, 2);
        assert_eq!(o.depths(0), vec![0, 1, 2, UNREACHED, UNREACHED, UNREACHED]);
        let max = u64::MAX;
        assert!(o.agrees_with_levels(0, &[0, 1, 2, max, max, max]));
        assert!(!o.agrees_with_levels(0, &[0, 1, 3, max, max, max]));
        assert!(!o.agrees_with_levels(0, &[0, 1, 2, 3, max, max]));
    }

    #[test]
    fn inserted_edges_join_components_and_are_not_double_counted() {
        let o = graph();
        let mut ins = BTreeMap::new();
        insert_edge(&mut ins, Edge::new(2, 3));
        insert_edge(&mut ins, Edge::new(3, 2));
        insert_edge(&mut ins, Edge::new(0, 1)); // already a base edge
        insert_edge(&mut ins, Edge::new(4, 4));
        let a = o.answer(0, &ins);
        assert_eq!(a.visited, 5);
        assert_eq!(a.depth_histogram, vec![1, 1, 1, 1, 1]);
        assert_eq!(a.edges, 4);
    }
}
