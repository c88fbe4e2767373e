//! Delta-overlay correctness on small deterministic graphs: routed
//! inserts land in the right components, the union adjacency sees
//! exactly base ∪ delta, incremental repair is depth-identical to a
//! full recompute, and crossing a degree threshold is reported as a
//! promotion.

use std::collections::BTreeSet;

use sunbfs_common::{Edge, MachineConfig, SplitMix64};
use sunbfs_mutate::{
    canonical_edge_set, repair_in_place, route_update_batch, DeltaPartition, UnionAdjacency,
};
use sunbfs_net::{Cluster, MeshShape};
use sunbfs_part::{build_1p5d, RankPartition, Thresholds};

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

/// Route `batch` over a fresh cluster of the same mesh and merge into
/// per-rank overlays, returning the overlays and any promotions.
fn route(
    rows: usize,
    cols: usize,
    parts: &[RankPartition],
    th: Thresholds,
    batch: &[Edge],
) -> (Vec<DeltaPartition>, Vec<u64>) {
    let cluster = Cluster::new(MeshShape::new(rows, cols), MachineConfig::new_sunway());
    let mut deltas: Vec<DeltaPartition> = (0..parts.len()).map(DeltaPartition::new).collect();
    let updates = {
        let deltas = &deltas;
        cluster
            .run(|ctx| route_update_batch(ctx, &parts[ctx.rank()], &deltas[ctx.rank()], th, batch))
    };
    let mut promoted = Vec::new();
    for upd in &updates {
        promoted.extend_from_slice(&upd.promoted);
        deltas[upd.rank].merge(upd);
    }
    (deltas, promoted)
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
    let th = Thresholds::new(100, 20);
    let base = skewed_edges(n, 1500, 1);
    let parts = build(2, 2, n, &base, th);
    // Inserts spanning every component pairing: hub-hub, hub-light,
    // light-light, plus a self loop that must be ignored.
    let batch = vec![
        Edge::new(0, 1),
        Edge::new(0, 200),
        Edge::new(1, 201),
        Edge::new(202, 203),
        Edge::new(204, 204),
        Edge::new(205, 0),
    ];
    let (deltas, _) = route(2, 2, &parts, th, &batch);
    let adj = UnionAdjacency::new(&parts, &deltas);

    let mut union_edges: Vec<Edge> = base.clone();
    union_edges.extend_from_slice(&batch);
    for root in [0, 200, 203, 77] {
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
    let (deltas, _) = route(2, 3, &parts, th, &batch);
    let adj = UnionAdjacency::new(&parts, &deltas);
    let base_adj = UnionAdjacency::base(&parts);

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
    let (deltas, _) = route(1, 2, &parts, th, &[already]);
    let adj = UnionAdjacency::new(&parts, &deltas);
    let (mut parents, mut depths) = UnionAdjacency::base(&parts).full_bfs(0);
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
    // A near-regular graph: vertex 7 one edge short of the H threshold.
    let mut base = Vec::new();
    for i in 0..7u64 {
        base.push(Edge::new(7, 32 + i));
    }
    for i in 0..40u64 {
        base.push(Edge::new(8 + (i % 20), 40 + (i % 20)));
    }
    let parts = build(2, 2, n, &base, th);
    assert!(
        parts[0].directory.hub_id(7).is_none(),
        "vertex 7 must start light for the promotion to be observable"
    );
    let (_, promoted) = route(2, 2, &parts, th, &[Edge::new(7, 60)]);
    assert_eq!(promoted, vec![7], "vertex 7 crossed h_threshold");
    // A batch that does not cross any boundary reports none.
    let (_, quiet) = route(2, 2, &parts, th, &[Edge::new(50, 51)]);
    assert!(quiet.is_empty());
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
