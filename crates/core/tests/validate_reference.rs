//! Pins `sunbfs_core::validate` to its original definitions.
//!
//! The functions below are the validator as it was first written — a
//! `HashSet` of every canonical edge, a filtered pair vector sorted and
//! deduplicated, a `Vec<Vec<u64>>` adjacency — kept here, literally, as
//! oracles. The public functions must return the same `Result` / `u64` /
//! arrays for the same input, first error included, on R-MAT multigraphs
//! with duplicate edges in both orientations, self-loops and isolated
//! vertices, for valid trees and for corrupted ones.

use std::collections::{HashSet, VecDeque};

use proptest::prelude::*;
use sunbfs_common::{Edge, INVALID_VERTEX};
use sunbfs_core::validate::{self, ValidationError};
use sunbfs_rmat::RmatParams;

fn old_levels_from_parents(root: u64, parents: &[u64]) -> Result<Vec<u64>, ValidationError> {
    let n = parents.len();
    let mut levels = vec![u64::MAX; n];
    if parents[root as usize] != root {
        return Err(ValidationError::BadRoot);
    }
    levels[root as usize] = 0;
    for v0 in 0..n as u64 {
        if parents[v0 as usize] == INVALID_VERTEX || levels[v0 as usize] != u64::MAX {
            continue;
        }
        let mut chain = Vec::new();
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

fn old_validate_parents(
    n: u64,
    edges: &[Edge],
    root: u64,
    parents: &[u64],
) -> Result<(), ValidationError> {
    assert_eq!(parents.len() as u64, n);
    let levels = old_levels_from_parents(root, parents)?;
    let edge_set: HashSet<(u64, u64)> = edges
        .iter()
        .filter(|e| !e.is_self_loop())
        .map(|e| {
            let c = e.canonical();
            (c.u, c.v)
        })
        .collect();
    for v in 0..n {
        let p = parents[v as usize];
        if p == INVALID_VERTEX || v == root {
            continue;
        }
        let key = if v <= p { (v, p) } else { (p, v) };
        if !edge_set.contains(&key) {
            return Err(ValidationError::PhantomEdge {
                vertex: v,
                parent: p,
            });
        }
        if levels[v as usize] != levels[p as usize] + 1 {
            return Err(ValidationError::BadLevel { vertex: v });
        }
    }
    for e in edges {
        if e.is_self_loop() {
            continue;
        }
        let ru = parents[e.u as usize] != INVALID_VERTEX;
        let rv = parents[e.v as usize] != INVALID_VERTEX;
        if ru != rv {
            let vertex = if ru { e.v } else { e.u };
            return Err(ValidationError::MissedVertex { vertex });
        }
    }
    Ok(())
}

fn old_reference_bfs(n: u64, edges: &[Edge], root: u64) -> (Vec<u64>, Vec<u64>) {
    let mut adj: Vec<Vec<u64>> = vec![Vec::new(); n as usize];
    for e in edges {
        if e.is_self_loop() {
            continue;
        }
        adj[e.u as usize].push(e.v);
        adj[e.v as usize].push(e.u);
    }
    let mut parents = vec![INVALID_VERTEX; n as usize];
    let mut levels = vec![u64::MAX; n as usize];
    parents[root as usize] = root;
    levels[root as usize] = 0;
    let mut q = VecDeque::from([root]);
    while let Some(u) = q.pop_front() {
        for &v in &adj[u as usize] {
            if parents[v as usize] == INVALID_VERTEX {
                parents[v as usize] = u;
                levels[v as usize] = levels[u as usize] + 1;
                q.push_back(v);
            }
        }
    }
    (parents, levels)
}

fn old_component_edges(edges: &[Edge], parents: &[u64]) -> u64 {
    let mut seen: Vec<(u64, u64)> = edges
        .iter()
        .filter(|e| !e.is_self_loop())
        .filter(|e| {
            parents[e.u as usize] != INVALID_VERTEX && parents[e.v as usize] != INVALID_VERTEX
        })
        .map(|e| {
            let c = e.canonical();
            (c.u, c.v)
        })
        .collect();
    seen.sort_unstable();
    seen.dedup();
    seen.len() as u64
}

/// An R-MAT multigraph on `2^scale + 4` vertices: the generator's own
/// duplicates, self-loops and isolated vertices, every third edge
/// repeated in the other orientation, and past the generator's range a
/// two-vertex component (`base`, `base + 1`, listed both ways), a vertex
/// whose only edge is a self-loop and one with no edge at all.
struct Graph {
    n: u64,
    base: u64,
    edges: Vec<Edge>,
}

fn graph(scale: u32, seed: u64) -> Graph {
    let params = RmatParams::graph500(scale, seed);
    let base = params.num_vertices();
    let mut edges = Vec::new();
    for (i, e) in sunbfs_rmat::generate_edges(&params).into_iter().enumerate() {
        edges.push(e);
        if i % 3 == 0 {
            edges.push(e.reversed());
        }
        if i == 100 {
            edges.push(Edge::new(base + 1, base));
            edges.push(Edge::new(base + 2, base + 2));
        }
    }
    edges.push(Edge::new(base, base + 1));
    Graph {
        n: base + 4,
        base,
        edges,
    }
}

/// Every public function against its old definition, on one tree.
fn check(g: &Graph, root: u64, parents: &[u64]) -> Result<(), ValidationError> {
    let want = old_validate_parents(g.n, &g.edges, root, parents);
    assert_eq!(
        validate::validate_parents(g.n, &g.edges, root, parents),
        want,
        "validate_parents, root {root}"
    );
    assert_eq!(
        validate::levels_from_parents(root, parents),
        old_levels_from_parents(root, parents),
        "levels_from_parents, root {root}"
    );
    assert_eq!(
        validate::component_edges(&g.edges, parents),
        old_component_edges(&g.edges, parents),
        "component_edges, root {root}"
    );
    want
}

/// The reference tree of `root`, checked against the old reference.
fn tree(g: &Graph, root: u64) -> (Vec<u64>, Vec<u64>) {
    let got = validate::reference_bfs(g.n, &g.edges, root);
    assert_eq!(got, old_reference_bfs(g.n, &g.edges, root), "root {root}");
    assert_eq!(check(g, root, &got.0), Ok(()), "root {root}");
    got
}

/// The non-root reached vertices no other vertex names as its parent.
fn leaves(root: u64, parents: &[u64]) -> Vec<u64> {
    let mut leaf: Vec<bool> = parents.iter().map(|&p| p != INVALID_VERTEX).collect();
    for &p in parents {
        if p != INVALID_VERTEX {
            leaf[p as usize] = false;
        }
    }
    (0..parents.len() as u64)
        .filter(|&v| leaf[v as usize] && v != root)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn public_functions_equal_the_old_definitions(
        scale in 6u32..11,
        seed in 0u64..1_000_000,
        picks in prop::collection::vec(any::<u64>(), 6..7),
    ) {
        let g = graph(scale, seed);
        let pick = |k: usize, from: &[u64]| from[(picks[k] % from.len() as u64) as usize];

        // Valid trees: the two-vertex component from either end, and a
        // root in the giant component (any endpoint of a non-loop edge
        // whose tree reaches more than two vertices).
        for root in [g.base, g.base + 1] {
            let (parents, _) = tree(&g, root);
            prop_assert_eq!(validate::component_edges(&g.edges, &parents), 1);
        }
        let endpoints: Vec<u64> = g
            .edges
            .iter()
            .filter(|e| !e.is_self_loop() && e.u < g.base)
            .map(|e| e.u)
            .collect();
        let root = pick(0, &endpoints);
        let (parents, levels) = tree(&g, root);
        let reached: Vec<u64> = (0..g.n).filter(|&v| levels[v as usize] != u64::MAX).collect();
        prop_assume!(reached.len() > 8);

        // The vertices two or more levels down: no edge to the root.
        let deep: Vec<u64> = reached.iter().copied().filter(|&v| levels[v as usize] >= 2).collect();
        prop_assume!(!deep.is_empty());

        // Bad root: unreached, or hanging off another vertex.
        for bad in [INVALID_VERTEX, pick(1, &deep)] {
            let mut p = parents.clone();
            p[root as usize] = bad;
            prop_assert_eq!(check(&g, root, &p), Err(ValidationError::BadRoot));
        }

        // A non-neighbour parent: a deep vertex claims the root.
        let phantom = pick(2, &deep);
        let mut p = parents.clone();
        p[phantom as usize] = root;
        prop_assert_eq!(
            check(&g, root, &p),
            Err(ValidationError::PhantomEdge { vertex: phantom, parent: root })
        );

        // A parent one level too deep: a real edge to a vertex of the
        // child's own level. The chain is sound and the edge exists, so
        // this validator accepts it — whatever it says, both say it.
        let level_edge = g.edges.iter().find(|e| {
            !e.is_self_loop()
                && levels[e.u as usize] != u64::MAX
                && levels[e.u as usize] == levels[e.v as usize]
        });
        if let Some(e) = level_edge {
            let mut p = parents.clone();
            p[e.u as usize] = e.v;
            prop_assert_eq!(check(&g, root, &p), Ok(()));
        }

        // A detached 2-cycle: in the unreached two-vertex component, and
        // between a reached vertex and its parent.
        let mut p = parents.clone();
        p[g.base as usize] = g.base + 1;
        p[g.base as usize + 1] = g.base;
        prop_assert_eq!(check(&g, root, &p), Err(ValidationError::BrokenChain { vertex: g.base }));
        let child = pick(3, &deep);
        let mut p = parents.clone();
        p[parents[child as usize] as usize] = child;
        prop_assert!(matches!(check(&g, root, &p), Err(ValidationError::BrokenChain { .. })));

        // An un-reached endpoint of a reached vertex: a leaf loses its
        // parent (only its own edges straddle), then any vertex does
        // (its children's chains break first, if it has children).
        let leaf = pick(4, &leaves(root, &parents));
        let mut p = parents.clone();
        p[leaf as usize] = INVALID_VERTEX;
        prop_assert_eq!(check(&g, root, &p), Err(ValidationError::MissedVertex { vertex: leaf }));
        let inner = pick(5, &deep);
        let mut p = parents.clone();
        p[inner as usize] = INVALID_VERTEX;
        prop_assert!(check(&g, root, &p).is_err());

        // Two corruptions at once report the same first error: a
        // phantom edge comes before a missed vertex whatever their
        // order in the arrays, and of two phantoms the smaller vertex.
        if leaf != phantom {
            let mut p = parents.clone();
            p[leaf as usize] = INVALID_VERTEX;
            p[phantom as usize] = root;
            prop_assert_eq!(
                check(&g, root, &p),
                Err(ValidationError::PhantomEdge { vertex: phantom, parent: root })
            );
        }
        let mut p = parents.clone();
        for &v in &deep {
            p[v as usize] = root;
        }
        prop_assert_eq!(
            check(&g, root, &p),
            Err(ValidationError::PhantomEdge { vertex: deep[0], parent: root })
        );

        // `component_edges` takes any `parents`, tree or not: a random
        // reached set.
        let scattered: Vec<u64> = (0..g.n)
            .map(|v| if (v ^ picks[0]).count_ones() % 3 == 0 { INVALID_VERTEX } else { 0 })
            .collect();
        prop_assert_eq!(
            validate::component_edges(&g.edges, &scattered),
            old_component_edges(&g.edges, &scattered)
        );
    }
}

/// The per-graph census: for every root of two SCALE-10 graphs — every
/// vertex, isolated ones and the two-vertex component included — the
/// O(n) sum over a validated tree is `component_edges` of that tree.
#[test]
fn per_graph_census_equals_component_edges_for_every_root() {
    for seed in [1, 2] {
        let g = graph(10, seed);
        let census = validate::DistinctEdges::new(g.n, &g.edges);
        // Trees differ by root, reached sets only by component: one
        // full comparison per component, the sum for every root.
        let mut m_of_component: Vec<Option<u64>> = vec![None; g.n as usize];
        for root in 0..g.n {
            let (parents, _) = validate::reference_bfs(g.n, &g.edges, root);
            let m = census.component_edges(&parents);
            let smallest = parents.iter().position(|&p| p != INVALID_VERTEX).unwrap();
            let want = *m_of_component[smallest].get_or_insert_with(|| {
                assert_eq!(check(&g, root, &parents), Ok(()), "seed {seed} root {root}");
                old_component_edges(&g.edges, &parents)
            });
            assert_eq!(m, want, "seed {seed} root {root}");
        }
    }
}

#[test]
fn out_of_range_parent_is_reported_as_a_broken_chain() {
    let g = graph(6, 3);
    let (mut parents, _) = validate::reference_bfs(g.n, &g.edges, g.base);
    parents[5] = g.n;
    parents[9] = g.n + 7;
    let broken = ValidationError::BrokenChain { vertex: 5 };
    assert_eq!(
        validate::validate_parents(g.n, &g.edges, g.base, &parents),
        Err(broken.clone())
    );
    assert_eq!(validate::levels_from_parents(g.base, &parents), Err(broken));
}
