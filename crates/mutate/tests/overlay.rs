//! Delta correctness on small deterministic graphs: the union
//! adjacency sees exactly base ∪ delta, the delta weighs each insert by
//! what a build stores for it, incremental repair is depth-identical to
//! a full recompute, and crossing a degree threshold is reported as a
//! promotion.

use std::collections::BTreeSet;

use sunbfs_common::{Edge, MachineConfig, SplitMix64};
use sunbfs_mutate::{canonical_edge_set, repair_in_place, Delta, UnionAdjacency};
use sunbfs_net::{Cluster, MeshShape};
use sunbfs_part::{build_1p5d, RankPartition, Thresholds, VertexClass};

fn skewed_edges(n: u64, m: usize, seed: u64) -> Vec<Edge> {
    let mut rng = SplitMix64::new(seed);
    (0..m)
        .map(|_| {
            let u = match rng.next_below(10) {
                0..=3 => 0,
                4..=6 => 1 + rng.next_below(4),
                _ => rng.next_below(n),
            };
            Edge::new(u, rng.next_below(n))
        })
        .collect()
}

fn build(rows: usize, cols: usize, n: u64, edges: &[Edge], th: Thresholds) -> Vec<RankPartition> {
    let cluster = Cluster::new(MeshShape::new(rows, cols), MachineConfig::new_sunway());
    let p = rows * cols;
    cluster.run(|ctx| {
        let chunk: Vec<Edge> = edges
            .iter()
            .enumerate()
            .filter(|(i, _)| i % p == ctx.rank())
            .map(|(_, e)| *e)
            .collect();
        build_1p5d(ctx, n, &chunk, th)
    })
}

/// `batch` committed into a fresh delta over `parts`.
fn delta_of(parts: &[RankPartition], th: Thresholds, batch: &[Edge]) -> Delta {
    let mut delta = Delta::default();
    delta.insert(batch, parts, th);
    delta
}

fn sequential_depths(n: u64, edges: &[Edge], root: u64) -> Vec<u64> {
    let mut adj = vec![Vec::new(); n as usize];
    for e in edges.iter().filter(|e| !e.is_self_loop()) {
        adj[e.u as usize].push(e.v);
        adj[e.v as usize].push(e.u);
    }
    let mut depths = vec![u64::MAX; n as usize];
    depths[root as usize] = 0;
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        for &w in &adj[v as usize] {
            if depths[w as usize] == u64::MAX {
                depths[w as usize] = depths[v as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    depths
}

#[test]
fn union_adjacency_sees_exactly_base_plus_delta() {
    let n = 256;
    let th = Thresholds::new(100, 12);
    let base = skewed_edges(n, 1500, 1);
    let parts = build(2, 2, n, &base, th);
    let dir = &parts[0].directory;
    let of_class = |c: VertexClass| (0..n).filter(move |&v| dir.class_of(v) == c);
    let e: Vec<u64> = of_class(VertexClass::E).take(2).collect();
    let h: Vec<u64> = of_class(VertexClass::H).take(2).collect();
    let l: Vec<u64> = of_class(VertexClass::L).skip(50).take(3).collect();
    assert!(
        e.len() == 2 && h.len() == 2 && l.len() == 3,
        "every class present"
    );
    // Every class pairing, a repeat of one, and a self loop that must
    // be ignored; only the E–L edges weigh one entry.
    let batch = vec![
        Edge::new(e[0], e[1]),
        Edge::new(e[0], h[0]),
        Edge::new(l[0], e[1]),
        Edge::new(h[0], h[1]),
        Edge::new(h[1], l[1]),
        Edge::new(l[1], l[2]),
        Edge::new(l[2], l[1]),
        Edge::new(l[0], l[0]),
    ];
    let delta = delta_of(&parts, th, &batch);
    assert_eq!(delta.entries(), 2 + 2 + 1 + 2 + 2 + 2 + 2);
    assert_eq!(delta.log().len(), 7, "the self loop is not logged");
    assert_eq!(delta.neighbors(l[1]), &[h[1].min(l[2]), h[1].max(l[2])]);
    let adj = UnionAdjacency::new(&parts, &delta);

    let mut union_edges: Vec<Edge> = base.clone();
    union_edges.extend_from_slice(&batch);
    let mut reference = vec![BTreeSet::new(); n as usize];
    for e in union_edges.iter().filter(|e| !e.is_self_loop()) {
        reference[e.u as usize].insert(e.v);
        reference[e.v as usize].insert(e.u);
    }
    let mut nbrs = Vec::new();
    for v in 0..n {
        adj.neighbors_into(v, &mut nbrs);
        assert!(nbrs.iter().eq(&reference[v as usize]), "neighbors of {v}");
    }
    for root in [e[0], h[1], l[2], 77] {
        let (_, depths) = adj.full_bfs(root);
        assert_eq!(
            depths,
            sequential_depths(n, &union_edges, root),
            "union BFS from {root} diverges from the sequential reference"
        );
    }
}

#[test]
fn repair_is_depth_identical_to_full_recompute() {
    let n = 512;
    let th = Thresholds::new(100, 20);
    let base = skewed_edges(n, 1200, 3);
    let parts = build(2, 3, n, &base, th);
    let mut rng = SplitMix64::new(99);
    let batch: Vec<Edge> = (0..64)
        .map(|_| Edge::new(rng.next_below(n), rng.next_below(n)))
        .collect();
    let delta = delta_of(&parts, th, &batch);
    let adj = UnionAdjacency::new(&parts, &delta);
    let empty = Delta::default();
    let base_adj = UnionAdjacency::new(&parts, &empty);

    for root in [0, 5, 300, 499] {
        let (mut parents, mut depths) = base_adj.full_bfs(root);
        let stats = repair_in_place(&adj, &batch, &mut parents, &mut depths);
        let (_, fresh) = adj.full_bfs(root);
        assert_eq!(depths, fresh, "repair from {root} diverges from recompute");
        // Repaired parents must still form a valid BFS tree: every
        // reached vertex's parent sits exactly one level shallower.
        for v in 0..n as usize {
            if depths[v] != u64::MAX && v as u64 != root {
                let p = parents[v] as usize;
                assert_eq!(depths[p] + 1, depths[v], "broken tree edge at {v}");
            }
        }
        assert!(stats.improved >= stats.seeds);
    }
}

#[test]
fn repair_of_an_irrelevant_insert_touches_nothing() {
    let n = 128;
    let th = Thresholds::new(60, 12);
    let base = skewed_edges(n, 800, 5);
    let parts = build(1, 2, n, &base, th);
    // An edge between two vertices already adjacent: no depth improves.
    let already = base
        .iter()
        .find(|e| !e.is_self_loop())
        .copied()
        .expect("some edge");
    let delta = delta_of(&parts, th, &[already]);
    let adj = UnionAdjacency::new(&parts, &delta);
    let empty = Delta::default();
    let (mut parents, mut depths) = UnionAdjacency::new(&parts, &empty).full_bfs(0);
    let before = depths.clone();
    let stats = repair_in_place(&adj, &[already], &mut parents, &mut depths);
    assert_eq!(stats.seeds, 0);
    assert_eq!(stats.improved, 0);
    assert_eq!(depths, before);
}

#[test]
fn crossing_a_threshold_is_reported_as_a_promotion() {
    let n = 64;
    let th = Thresholds::new(16, 8);
    // A near-regular graph: vertex 7 one edge short of the H threshold,
    // vertex 6 two short, vertex 5 one short of the E threshold.
    let mut base = Vec::new();
    for i in 0..7u64 {
        base.push(Edge::new(7, 32 + i));
    }
    for i in 0..6u64 {
        base.push(Edge::new(6, 32 + i));
    }
    for i in 0..15u64 {
        base.push(Edge::new(5, 40 + i));
    }
    for i in 0..40u64 {
        base.push(Edge::new(8 + (i % 20), 40 + (i % 20)));
    }
    let parts = build(2, 2, n, &base, th);
    let dir = &parts[0].directory;
    assert_eq!(
        [7, 6, 5].map(|v| dir.class_of(v)),
        [VertexClass::L, VertexClass::L, VertexClass::H],
        "the promotions must start below their thresholds"
    );
    let promotes = |batch: &[Edge]| Delta::default().insert(batch, &parts, th);
    assert!(
        promotes(&[Edge::new(7, 60)]),
        "vertex 7 crossed h_threshold"
    );
    assert!(
        promotes(&[Edge::new(5, 61)]),
        "vertex 5 crossed e_threshold"
    );
    // A batch that does not cross any boundary reports none.
    assert!(!promotes(&[Edge::new(50, 51)]));

    // Added degree counts duplicates, across commits: the same edge
    // twice takes vertex 6 from 6 to 8, though it adds one neighbor.
    let mut delta = Delta::default();
    assert!(!delta.insert(&[Edge::new(6, 60)], &parts, th), "6 is at 7");
    assert!(delta.insert(&[Edge::new(60, 6)], &parts, th), "6 is at 8");
    assert_eq!(delta.neighbors(6), &[60]);
    assert_eq!(delta.entries(), 4);
}

/// The ordered-set construction `canonical_edge_set` replaced, kept as
/// its reference: insert every component edge, then the log.
fn canonical_edge_set_reference(
    parts: &[RankPartition],
    delta_log: &[Edge],
) -> BTreeSet<(u64, u64)> {
    let mut out = BTreeSet::new();
    let dir = &parts[0].directory;
    let canon = |a: u64, b: u64| if a <= b { (a, b) } else { (b, a) };
    for p in parts {
        for (hs, hd) in p.eh_by_src.iter_edges() {
            out.insert(canon(dir.vertex_of(hs as u32), dir.vertex_of(hd as u32)));
        }
        for (h, l) in p.el_by_hub.iter_edges() {
            out.insert(canon(dir.vertex_of(h as u32), l));
        }
        for (h, l) in p.lh_by_hub.iter_edges() {
            out.insert(canon(dir.vertex_of(h as u32), l));
        }
        for (u, v) in p.l2l.iter_edges() {
            out.insert(canon(u, v));
        }
    }
    out.extend(delta_log.iter().map(|e| (e.u, e.v)));
    out
}

#[test]
fn canonical_edge_set_matches_the_deduplicated_input() {
    let n = 256;
    let edges = skewed_edges(n, 2000, 8);
    let parts = build(2, 2, n, &edges, Thresholds::new(100, 20));
    let expect: BTreeSet<(u64, u64)> = edges
        .iter()
        .filter(|e| !e.is_self_loop())
        .map(|e| {
            let c = e.canonical();
            (c.u, c.v)
        })
        .collect();
    let got = canonical_edge_set(&parts, &[]);
    assert!(got.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    assert!(got.iter().copied().eq(expect.iter().copied()));
    assert!(got
        .iter()
        .copied()
        .eq(canonical_edge_set_reference(&parts, &[])));

    // With a delta log (canonical and loop-free, as the session keeps
    // it) holding new edges, edges the base already has and repeats:
    // the same sequence the ordered set iterates, in every regime.
    let log: Vec<Edge> = skewed_edges(n, 300, 9)
        .iter()
        .chain(&edges[..50])
        .filter(|e| !e.is_self_loop())
        .map(|e| e.canonical())
        .collect();
    for th in [
        Thresholds::new(100, 20),
        Thresholds::none(),
        Thresholds::all_hubs(100),
    ] {
        let parts = build(2, 3, n, &edges, th);
        let got = canonical_edge_set(&parts, &log);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        assert!(got
            .iter()
            .copied()
            .eq(canonical_edge_set_reference(&parts, &log)));
    }
}
