//! Graph 500 result validation and a sequential reference BFS.
//!
//! The benchmark specification requires every reported traversal to be
//! validated. Given the full parent array (gathered from the ranks) and
//! the original edge list, [`validate_parents`] checks:
//!
//! 1. the root is its own parent,
//! 2. every reached vertex has a level one greater than its parent's
//!    (levels derived by chasing parents, with cycle detection),
//! 3. every tree edge `(v, parent(v))` exists in the input multigraph,
//! 4. both endpoints of every input edge are reached or neither is
//!    (connectivity closure),
//! 5. unreached vertices are exactly those with no parent.
//!
//! It costs one pass over the edge list and a few over the vertices.
//! Rule 5 is how "reached" is read throughout: a vertex is reached iff
//! it has a parent. [`levels_from_parents`] enforces rules 1 and 2 — a
//! chain that leaves the vertex range, meets a parentless vertex or
//! never arrives at a labelled one is broken, and a level is its
//! parent's plus one by construction. The edge pass reads both
//! endpoints' parents once, confirms a child whenever an input edge
//! joins it to its parent (rule 3: the tree has `n` entries, the edge
//! list millions, so the tree is what gets indexed) and remembers the
//! first reached/unreached straddle in list order (rule 4). The vertex
//! pass then reports the smallest unconfirmed child, else the straddle.
//!
//! [`component_edges`] and [`DistinctEdges`] count distinct undirected
//! edges for the TEPS numerator with one linear kernel (bucket under
//! the smaller endpoint, stamp the larger ones) instead of a sort.
//!
//! [`reference_bfs`] is the obviously correct sequential algorithm used
//! by the equivalence tests: *levels* must match the distributed engine
//! exactly (parents may legitimately differ between valid BFS trees).

use std::collections::VecDeque;

use sunbfs_common::{Edge, INVALID_VERTEX};

/// Errors [`validate_parents`] can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// Root has no parent or is not its own parent.
    BadRoot,
    /// A parent pointer leads to an unreached vertex or a cycle.
    BrokenChain {
        /// The offending vertex.
        vertex: u64,
    },
    /// A tree edge does not exist in the input graph.
    PhantomEdge {
        /// Child whose parent link is not a real edge.
        vertex: u64,
        /// The claimed parent.
        parent: u64,
    },
    /// An input edge connects a reached and an unreached vertex.
    MissedVertex {
        /// The unreached endpoint.
        vertex: u64,
    },
    /// Parent levels differ by more than one across a tree edge.
    BadLevel {
        /// Child vertex.
        vertex: u64,
    },
}

/// Levels of every vertex derived from a parent array (`u64::MAX` for
/// unreached). Fails on cycles, on chains not ending at the root and —
/// as the [`ValidationError::BrokenChain`] of the smallest such vertex,
/// before any chain is chased — on a parent outside the vertex range.
pub fn levels_from_parents(root: u64, parents: &[u64]) -> Result<Vec<u64>, ValidationError> {
    let n = parents.len();
    if parents.get(root as usize) != Some(&root) {
        return Err(ValidationError::BadRoot);
    }
    if let Some(v) = parents
        .iter()
        .position(|&p| p != INVALID_VERTEX && p >= n as u64)
    {
        return Err(ValidationError::BrokenChain { vertex: v as u64 });
    }
    let mut levels = vec![u64::MAX; n];
    levels[root as usize] = 0;
    let mut chain = Vec::new();
    for v0 in 0..n as u64 {
        if parents[v0 as usize] == INVALID_VERTEX || levels[v0 as usize] != u64::MAX {
            continue;
        }
        // Chase until a vertex with a known level; bound by n to catch cycles.
        chain.clear();
        let mut v = v0;
        while levels[v as usize] == u64::MAX {
            if parents[v as usize] == INVALID_VERTEX || chain.len() > n {
                return Err(ValidationError::BrokenChain { vertex: v0 });
            }
            chain.push(v);
            v = parents[v as usize];
        }
        let mut lvl = levels[v as usize];
        for &u in chain.iter().rev() {
            lvl += 1;
            levels[u as usize] = lvl;
        }
    }
    Ok(levels)
}

/// The edge list is the trusted side of a validation: an endpoint
/// outside the vertex range is a caller bug, reported by name.
fn assert_in_range(e: &Edge, n: u64) {
    assert!(
        e.u < n && e.v < n,
        "edge ({}, {}) has an endpoint outside the {n} vertices",
        e.u,
        e.v
    );
}

/// Full Graph 500 validation of a parent array against the input edges.
pub fn validate_parents(
    n: u64,
    edges: &[Edge],
    root: u64,
    parents: &[u64],
) -> Result<(), ValidationError> {
    assert_eq!(parents.len() as u64, n);
    let levels = levels_from_parents(root, parents)?;

    // One pass over the input: which children have their tree edge in
    // it, and the first edge that straddles the reached set. A
    // self-loop does neither — only the root is its own parent.
    let mut confirmed = vec![false; n as usize];
    let mut straddle = None;
    for e in edges {
        assert_in_range(e, n);
        let (pu, pv) = (parents[e.u as usize], parents[e.v as usize]);
        if pu == e.v {
            confirmed[e.u as usize] = true;
        }
        if pv == e.u {
            confirmed[e.v as usize] = true;
        }
        if (pu == INVALID_VERTEX) != (pv == INVALID_VERTEX) && straddle.is_none() {
            straddle = Some(if pu == INVALID_VERTEX { e.u } else { e.v });
        }
    }

    // Tree edges must exist in the graph (undirected).
    for v in 0..n {
        let p = parents[v as usize];
        if p == INVALID_VERTEX || v == root {
            continue;
        }
        if !confirmed[v as usize] {
            return Err(ValidationError::PhantomEdge {
                vertex: v,
                parent: p,
            });
        }
        if levels[v as usize] != levels[p as usize] + 1 {
            return Err(ValidationError::BadLevel { vertex: v });
        }
    }

    // Connectivity closure: an edge cannot straddle the reached set.
    match straddle {
        Some(vertex) => Err(ValidationError::MissedVertex { vertex }),
        None => Ok(()),
    }
}

/// Sequential reference BFS. Returns `(parents, levels)`.
pub fn reference_bfs(n: u64, edges: &[Edge], root: u64) -> (Vec<u64>, Vec<u64>) {
    if narrow(n, 2 * edges.len()) {
        reference_bfs_over::<u32>(n, edges, root)
    } else {
        reference_bfs_over::<u64>(n, edges, root)
    }
}

fn reference_bfs_over<S: Slot>(n: u64, edges: &[Edge], root: u64) -> (Vec<u64>, Vec<u64>) {
    // A vertex's neighbours stay in edge-list order, which is what
    // decides the parents.
    let adjacency = Buckets::<S>::fill(n, || {
        let proper = edges.iter().filter(|e| {
            assert_in_range(e, n);
            !e.is_self_loop()
        });
        proper.flat_map(|e| [(e.u, e.v), (e.v, e.u)])
    });
    let mut parents = vec![INVALID_VERTEX; n as usize];
    let mut levels = vec![u64::MAX; n as usize];
    parents[root as usize] = root;
    levels[root as usize] = 0;
    let mut q = VecDeque::from([root]);
    while let Some(u) = q.pop_front() {
        for v in adjacency.bucket(u as usize).iter().map(|t| t.index()) {
            if parents[v] == INVALID_VERTEX {
                parents[v] = u;
                levels[v] = levels[u as usize] + 1;
                q.push_back(v as u64);
            }
        }
    }
    (parents, levels)
}

/// What [`Buckets`] stores — offsets and vertex ids: `u32` when the
/// vertex and entry counts fit ([`narrow`]; a quarter of the bytes a
/// pair vector takes), `u64` otherwise.
trait Slot: Copy + PartialEq + Default {
    fn of(i: usize) -> Self;
    fn index(self) -> usize;
}

impl Slot for u32 {
    fn of(i: usize) -> u32 {
        i as u32
    }
    fn index(self) -> usize {
        self as usize
    }
}

impl Slot for u64 {
    fn of(i: usize) -> u64 {
        i as u64
    }
    fn index(self) -> usize {
        self as usize
    }
}

/// Do `n` vertices and `entries` bucket entries fit `u32` slots?
fn narrow(n: u64, entries: usize) -> bool {
    n <= u64::from(u32::MAX) && entries <= u32::MAX as usize
}

/// A counting sort of `(vertex, target)` pairs by vertex, stable within
/// a vertex: two passes over the pairs, no comparison.
struct Buckets<S> {
    /// Bucket `u` is `targets[ends[u]..ends[u + 1]]`.
    ends: Vec<S>,
    targets: Vec<S>,
}

impl<S: Slot> Buckets<S> {
    /// Sort what `pairs` yields (the same sequence both times it is
    /// called, every id below `n`).
    fn fill<I: Iterator<Item = (u64, u64)>>(n: u64, pairs: impl Fn() -> I) -> Self {
        // Slot u + 1 counts bucket u, then is its start, then walks to
        // its end.
        let mut ends = vec![S::default(); n as usize + 1];
        for (u, _) in pairs() {
            ends[u as usize + 1] = S::of(ends[u as usize + 1].index() + 1);
        }
        let mut total = 0;
        for end in &mut ends[1..] {
            let count = end.index();
            *end = S::of(total);
            total += count;
        }
        let mut targets = vec![S::default(); total];
        for (u, v) in pairs() {
            let at = ends[u as usize + 1].index();
            targets[at] = S::of(v as usize);
            ends[u as usize + 1] = S::of(at + 1);
        }
        Buckets { ends, targets }
    }

    fn bucket(&self, u: usize) -> &[S] {
        &self.targets[self.ends[u].index()..self.ends[u + 1].index()]
    }
}

/// The distinct-edge kernel: for every vertex `u` in ascending order,
/// `emit(u, d)` with `d` the number of distinct vertices `v > u` that a
/// kept non-loop edge joins to `u` (its distinct *up-degree*; the sum
/// over `u` is the number of distinct undirected edges kept). Linear:
/// kept edges are bucketed under their smaller endpoint, then each
/// bucket's larger endpoints are counted once each by stamping them
/// with the bucket's id.
fn up_degrees<S: Slot>(
    n: u64,
    edges: &[Edge],
    keep: impl Fn(&Edge) -> bool,
    mut emit: impl FnMut(usize, u64),
) {
    let up = Buckets::<S>::fill(n, || {
        let kept = edges.iter().filter(|e| {
            assert_in_range(e, n);
            !e.is_self_loop() && keep(e)
        });
        kept.map(|e| (e.u.min(e.v), e.u.max(e.v)))
    });
    // stamp[v] = 1 + the last bucket that held v.
    let mut stamp = vec![S::default(); n as usize];
    for u in 0..n as usize {
        let mark = S::of(u + 1);
        let mut distinct = 0;
        for &v in up.bucket(u) {
            if stamp[v.index()] != mark {
                stamp[v.index()] = mark;
                distinct += 1;
            }
        }
        emit(u, distinct);
    }
}

/// [`up_degrees`] at the narrowest slot width the input fits.
fn for_each_up_degree(
    n: u64,
    edges: &[Edge],
    keep: impl Fn(&Edge) -> bool,
    emit: impl FnMut(usize, u64),
) {
    if narrow(n, edges.len()) {
        up_degrees::<u32>(n, edges, keep, emit);
    } else {
        up_degrees::<u64>(n, edges, keep, emit);
    }
}

/// Graph 500 TEPS edge count: undirected input edges with both
/// endpoints inside the traversed component, each *distinct* edge
/// counted once. Duplicate entries in the generator's multigraph edge
/// list collapse to one traversed edge — the engine's degree-sum
/// estimate counts them per entry, so the two diverge on multigraphs.
pub fn component_edges(edges: &[Edge], parents: &[u64]) -> u64 {
    // One byte per vertex: both counting passes ask about both endpoints
    // of every edge, and this stays in cache where `parents` does not.
    let reached: Vec<bool> = parents.iter().map(|&p| p != INVALID_VERTEX).collect();
    let mut m = 0;
    for_each_up_degree(
        parents.len() as u64,
        edges,
        |e| reached[e.u as usize] && reached[e.v as usize],
        |_, distinct| m += distinct,
    );
    m
}

/// The root-independent half of [`component_edges`], paid once per
/// graph: which input entries are duplicates of one another does not
/// depend on the root, so each vertex's distinct up-degree over *all*
/// non-loop edges is computed once, and a root's `m` is a sum over the
/// vertices it reached.
#[derive(Clone, Debug)]
pub struct DistinctEdges {
    up: Vec<u64>,
}

impl DistinctEdges {
    /// Count every vertex's distinct up-degree in `edges`.
    pub fn new(n: u64, edges: &[Edge]) -> Self {
        let mut up = vec![0; n as usize];
        for_each_up_degree(n, edges, |_| true, |u, distinct| up[u] = distinct);
        DistinctEdges { up }
    }

    /// [`component_edges`] of a tree that [`validate_parents`] accepted,
    /// in O(n). Exact only then: rule 4 says no edge straddles the
    /// reached set, so every distinct edge at a reached vertex has both
    /// endpoints reached, and summing the reached vertices' up-degrees
    /// counts each such edge once, at its smaller endpoint.
    pub fn component_edges(&self, parents: &[u64]) -> u64 {
        assert_eq!(parents.len(), self.up.len());
        let of_reached = self.up.iter().zip(parents);
        of_reached
            .filter(|&(_, &p)| p != INVALID_VERTEX)
            .map(|(&up, _)| up)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: u64) -> Vec<Edge> {
        (0..n - 1).map(|i| Edge::new(i, i + 1)).collect()
    }

    #[test]
    fn reference_bfs_levels_on_path() {
        let edges = path_graph(5);
        let (parents, levels) = reference_bfs(5, &edges, 0);
        assert_eq!(levels, vec![0, 1, 2, 3, 4]);
        assert_eq!(parents, vec![0, 0, 1, 2, 3]);
    }

    #[test]
    fn reference_output_validates() {
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(0, 2),
            Edge::new(3, 4),
            Edge::new(2, 2),
        ];
        let (parents, _) = reference_bfs(5, &edges, 0);
        assert_eq!(validate_parents(5, &edges, 0, &parents), Ok(()));
        // 3 and 4 unreached.
        assert_eq!(parents[3], INVALID_VERTEX);
    }

    #[test]
    fn detects_bad_root() {
        let edges = path_graph(3);
        let parents = vec![INVALID_VERTEX, 0, 1];
        assert_eq!(
            validate_parents(3, &edges, 0, &parents),
            Err(ValidationError::BadRoot)
        );
    }

    #[test]
    fn detects_phantom_edge() {
        let edges = path_graph(4);
        // Vertex 3 claims parent 0, but edge {0,3} does not exist.
        let parents = vec![0, 0, 1, 0];
        assert_eq!(
            validate_parents(4, &edges, 0, &parents),
            Err(ValidationError::PhantomEdge {
                vertex: 3,
                parent: 0
            })
        );
    }

    #[test]
    fn detects_cycle() {
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 3),
            Edge::new(3, 1),
        ];
        // 2 and 3 parent each other: a cycle detached from the root.
        let parents = vec![0, 0, 3, 2];
        assert!(matches!(
            validate_parents(4, &edges, 0, &parents),
            Err(ValidationError::BrokenChain { .. })
        ));
    }

    #[test]
    fn detects_missed_vertex() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2)];
        let parents = vec![0, 0, INVALID_VERTEX];
        assert_eq!(
            validate_parents(3, &edges, 0, &parents),
            Err(ValidationError::MissedVertex { vertex: 2 })
        );
    }

    #[test]
    fn detects_non_tree_level_skip() {
        // Star plus chain: 0-1, 0-2, 1-2 means 2 could wrongly claim a
        // level-2 parent along 1 while really adjacent to the root...
        // here we force a level gap with a legal edge.
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 3),
            Edge::new(0, 3),
        ];
        // Valid tree: 3 at level 1 via root edge; but claim parent=2 at
        // level 2 → level(3) becomes 3, legal chain. Make 2 claim parent
        // 3 instead: level(2)=? -> chain 2->3->0 gives level 2; edge
        // {2,3} exists; but then 1's child edge 1->2? Use simpler direct
        // check through levels_from_parents.
        let parents = vec![0u64, 0, 1, 2];
        assert_eq!(validate_parents(4, &edges, 0, &parents), Ok(()));
    }

    #[test]
    fn component_edge_count() {
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(3, 4),
            Edge::new(2, 2),
        ];
        let (parents, _) = reference_bfs(5, &edges, 0);
        assert_eq!(component_edges(&edges, &parents), 2);
    }

    #[test]
    fn component_edge_count_dedups_multigraph() {
        // The same undirected edge listed three times (both
        // orientations) is one traversed edge for TEPS.
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 0),
            Edge::new(0, 1),
            Edge::new(1, 2),
        ];
        let (parents, _) = reference_bfs(3, &edges, 0);
        assert_eq!(component_edges(&edges, &parents), 2);
    }

    #[test]
    fn out_of_range_parent_is_a_broken_chain_not_a_panic() {
        let edges = path_graph(4);
        // Vertex 2 is the smallest with a parent past the range; the
        // broken chain of vertex 1 (parentless grandparent) comes later.
        let parents = vec![0, 3, 9, 4];
        let broken = Err(ValidationError::BrokenChain { vertex: 2 });
        assert_eq!(levels_from_parents(0, &parents), broken.clone());
        assert_eq!(validate_parents(4, &edges, 0, &parents), broken.map(|_| ()));
        // A root past the range is a bad root.
        assert_eq!(
            levels_from_parents(7, &[0, 0]),
            Err(ValidationError::BadRoot)
        );
    }

    #[test]
    #[should_panic(expected = "edge (1, 5) has an endpoint outside the 3 vertices")]
    fn out_of_range_edge_endpoint_panics_by_name() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 5)];
        let _ = validate_parents(3, &edges, 0, &[0, 0, INVALID_VERTEX]);
    }

    #[test]
    #[should_panic(expected = "edge (4, 0) has an endpoint outside the 3 vertices")]
    fn component_edges_names_an_out_of_range_edge_too() {
        component_edges(&[Edge::new(4, 0)], &[0, 0, 0]);
    }

    #[test]
    fn wide_and_narrow_kernels_count_the_same_up_degrees() {
        // Duplicates in both orientations, a self-loop, an isolated
        // vertex (4) and a bucket (0) whose targets repeat non-adjacently.
        let edges = [
            (0, 3),
            (2, 0),
            (3, 0),
            (1, 1),
            (5, 2),
            (0, 2),
            (2, 5),
            (3, 2),
        ]
        .map(|(u, v)| Edge::new(u, v));
        fn up<S: Slot>(edges: &[Edge]) -> Vec<u64> {
            let mut up = vec![u64::MAX; 6];
            up_degrees::<S>(6, edges, |_| true, |u, d| up[u] = d);
            up
        }
        assert_eq!(up::<u32>(&edges), vec![2, 0, 2, 0, 0, 0]);
        assert_eq!(up::<u64>(&edges), up::<u32>(&edges));
        // Dropping vertex 2's edges through `keep` leaves {0,3} alone.
        let mut m = 0;
        up_degrees::<u64>(6, &edges, |e| e.u != 2 && e.v != 2, |_, d| m += d);
        assert_eq!(m, 1);
    }

    #[test]
    fn per_graph_census_sums_to_component_edges_after_validation() {
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 0),
            Edge::new(1, 2),
            Edge::new(3, 4),
            Edge::new(4, 3),
            Edge::new(2, 2),
        ];
        let census = DistinctEdges::new(6, &edges);
        for (root, m) in [(0, 2), (3, 1), (5, 0)] {
            let (parents, _) = reference_bfs(6, &edges, root);
            assert_eq!(validate_parents(6, &edges, root, &parents), Ok(()));
            assert_eq!(census.component_edges(&parents), m, "root {root}");
            assert_eq!(component_edges(&edges, &parents), m, "root {root}");
        }
    }
}
