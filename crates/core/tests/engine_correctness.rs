//! End-to-end correctness of the distributed engine: for any mesh
//! shape, any thresholds (including both degenerate baselines), and any
//! engine configuration, the traversal must produce a valid Graph 500
//! parent tree whose levels match the sequential reference exactly.

use sunbfs_common::{Edge, MachineConfig, SplitMix64};
use sunbfs_core::validate::{
    component_edges, levels_from_parents, reference_bfs, validate_parents,
};
use sunbfs_core::{EngineConfig, EngineScratch};
use sunbfs_net::{Cluster, MeshShape};
use sunbfs_part::{build_1p5d, Thresholds};

/// Deterministic skewed multigraph (R-MAT-like hubs) with self loops
/// and duplicates sprinkled in.
fn skewed_graph(n: u64, m: usize, seed: u64) -> Vec<Edge> {
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let u = match rng.next_below(16) {
            0..=4 => rng.next_below(4),      // super-hubs
            5..=8 => 4 + rng.next_below(12), // medium hubs
            _ => rng.next_below(n),
        };
        let v = match rng.next_below(16) {
            0..=2 => rng.next_below(4),
            _ => rng.next_below(n),
        };
        edges.push(Edge::new(u, v));
    }
    // Some explicit duplicates and self loops.
    edges.push(Edge::new(1, 1));
    if m > 2 {
        let d = edges[0];
        edges.push(d);
    }
    edges
}

fn pick_root(n: u64, edges: &[Edge], salt: u64) -> u64 {
    // Any endpoint with degree > 0.
    edges[(salt as usize * 7919) % edges.len()].u.min(n - 1)
}

/// Run the full pipeline and cross-check against the reference.
fn check(
    rows: usize,
    cols: usize,
    n: u64,
    edges: &[Edge],
    th: Thresholds,
    cfg: &EngineConfig,
    root: u64,
) {
    let cluster = Cluster::new(MeshShape::new(rows, cols), MachineConfig::new_sunway());
    let p = rows * cols;
    let outputs = cluster.run(|ctx| {
        let chunk: Vec<Edge> = edges
            .iter()
            .enumerate()
            .filter(|(i, _)| i % p == ctx.rank())
            .map(|(_, e)| *e)
            .collect();
        let part = build_1p5d(ctx, n, &chunk, th);
        EngineScratch::default()
            .run_bfs(ctx, &part, root, cfg, None)
            .expect("BFS must terminate")
    });

    // Stitch the global parent array in rank order.
    let parents: Vec<u64> = outputs
        .iter()
        .flat_map(|o| o.parents.iter().copied())
        .collect();
    assert_eq!(parents.len() as u64, n);

    validate_parents(n, edges, root, &parents)
        .unwrap_or_else(|e| panic!("validation failed for mesh {rows}x{cols}, th {th:?}: {e:?}"));
    let levels = levels_from_parents(root, &parents).unwrap();
    let (_, ref_levels) = reference_bfs(n, edges, root);
    assert_eq!(
        levels, ref_levels,
        "level mismatch for mesh {rows}x{cols}, th {th:?}"
    );

    // Engine's TEPS edge count must match the specification count.
    let expect_m = component_edges(edges, &parents);
    let got_m = outputs[0].stats.traversed_edges;
    // The engine counts via degree sums over the multigraph (duplicates
    // included); the spec count dedups. Allow the multigraph inflation.
    assert!(
        got_m >= expect_m,
        "engine edge count {got_m} below component edges {expect_m}"
    );

    // Simulated time advanced and stats exist on every rank.
    for o in &outputs {
        assert!(o.stats.sim_seconds > 0.0);
        assert!(!o.stats.iterations.is_empty());
        assert_eq!(o.stats.visited_vertices, outputs[0].stats.visited_vertices);
    }
}

#[test]
fn full_pipeline_2x2_default_config() {
    let n = 256;
    let edges = skewed_graph(n, 3000, 1);
    let root = pick_root(n, &edges, 1);
    check(
        2,
        2,
        n,
        &edges,
        Thresholds::new(200, 40),
        &EngineConfig::default(),
        root,
    );
}

#[test]
fn full_pipeline_non_square_mesh() {
    let n = 300;
    let edges = skewed_graph(n, 2500, 2);
    let root = pick_root(n, &edges, 2);
    check(
        2,
        3,
        n,
        &edges,
        Thresholds::new(150, 30),
        &EngineConfig::default(),
        root,
    );
}

#[test]
fn full_pipeline_single_rank() {
    let n = 128;
    let edges = skewed_graph(n, 1000, 3);
    let root = pick_root(n, &edges, 3);
    check(
        1,
        1,
        n,
        &edges,
        Thresholds::new(100, 20),
        &EngineConfig::default(),
        root,
    );
}

#[test]
fn degenerate_1d_with_heavy_delegates() {
    // |H| = 0 on a single-row mesh: 1D partitioning with heavy delegates.
    let n = 200;
    let edges = skewed_graph(n, 2000, 4);
    let root = pick_root(n, &edges, 4);
    check(
        1,
        4,
        n,
        &edges,
        Thresholds::heavy_only(60),
        &EngineConfig::default(),
        root,
    );
}

#[test]
fn degenerate_2d_all_hubs() {
    // |L| = 0: pure 2D partitioning with vertex reordering.
    let n = 128;
    let edges = skewed_graph(n, 1200, 5);
    let root = pick_root(n, &edges, 5);
    check(
        2,
        2,
        n,
        &edges,
        Thresholds::all_hubs(1 << 20),
        &EngineConfig::default(),
        root,
    );
}

#[test]
fn vanilla_1d_no_hubs() {
    let n = 160;
    let edges = skewed_graph(n, 1500, 6);
    let root = pick_root(n, &edges, 6);
    check(
        2,
        2,
        n,
        &edges,
        Thresholds::none(),
        &EngineConfig::default(),
        root,
    );
}

#[test]
fn ablation_configs_agree_on_levels() {
    let n = 256;
    let edges = skewed_graph(n, 3000, 7);
    let root = pick_root(n, &edges, 7);
    for cfg in [
        EngineConfig::baseline(),
        EngineConfig::with_sub_iteration(),
        EngineConfig::default(),
    ] {
        check(2, 2, n, &edges, Thresholds::new(200, 40), &cfg, root);
    }
}

#[test]
fn hub_root_and_l_root() {
    let n = 200;
    let edges = skewed_graph(n, 2000, 8);
    // Vertex 0 is a super-hub by construction; n-1 is almost surely L.
    check(
        2,
        2,
        n,
        &edges,
        Thresholds::new(200, 40),
        &EngineConfig::default(),
        0,
    );
    let l_root = edges.iter().map(|e| e.u.max(e.v)).max().unwrap();
    check(
        2,
        2,
        n,
        &edges,
        Thresholds::new(200, 40),
        &EngineConfig::default(),
        l_root,
    );
}

#[test]
fn isolated_root_terminates_immediately() {
    // A root with no edges: traversal visits only the root.
    let n = 64;
    let mut edges = skewed_graph(n, 300, 9);
    edges.retain(|e| e.u != 63 && e.v != 63);
    let cluster = Cluster::new(MeshShape::new(2, 2), MachineConfig::new_sunway());
    let outputs = cluster.run(|ctx| {
        let chunk: Vec<Edge> = edges
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 4 == ctx.rank())
            .map(|(_, e)| *e)
            .collect();
        let part = build_1p5d(ctx, n, &chunk, Thresholds::new(100, 20));
        EngineScratch::default()
            .run_bfs(ctx, &part, 63, &EngineConfig::default(), None)
            .expect("BFS must terminate")
    });
    assert_eq!(outputs[0].stats.visited_vertices, 1);
    let parents: Vec<u64> = outputs
        .iter()
        .flat_map(|o| o.parents.iter().copied())
        .collect();
    assert_eq!(parents[63], 63);
}

#[test]
fn many_roots_many_seeds_sweep() {
    for seed in 10..14 {
        let n = 192;
        let edges = skewed_graph(n, 1800, seed);
        for salt in 0..3 {
            let root = pick_root(n, &edges, seed * 10 + salt);
            check(
                2,
                2,
                n,
                &edges,
                Thresholds::new(120, 24),
                &EngineConfig::default(),
                root,
            );
        }
    }
}

/// Run the engine on `edges` and return (engine degree-sum TEPS count,
/// spec-conformant `component_edges` count).
fn teps_counts(n: u64, edges: &[Edge], root: u64) -> (u64, u64) {
    let cluster = Cluster::new(MeshShape::new(2, 2), MachineConfig::new_sunway());
    let outputs = cluster.run(|ctx| {
        let chunk: Vec<Edge> = edges
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 4 == ctx.rank())
            .map(|(_, e)| *e)
            .collect();
        let part = build_1p5d(ctx, n, &chunk, Thresholds::new(64, 16));
        EngineScratch::default()
            .run_bfs(ctx, &part, root, &EngineConfig::default(), None)
            .expect("BFS must terminate")
    });
    let parents: Vec<u64> = outputs
        .iter()
        .flat_map(|o| o.parents.iter().copied())
        .collect();
    (
        outputs[0].stats.traversed_edges,
        component_edges(edges, &parents),
    )
}

#[test]
fn engine_teps_matches_spec_on_simple_graph_and_diverges_on_multigraph() {
    // A deduplicated simple graph (no self loops, no duplicates): the
    // engine's degree-sum estimate and the spec count agree exactly.
    let n = 96u64;
    let mut rng = SplitMix64::new(21);
    let mut simple: Vec<Edge> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    while simple.len() < 600 {
        let e = Edge::new(rng.next_below(n), rng.next_below(n)).canonical();
        if !e.is_self_loop() && seen.insert((e.u, e.v)) {
            simple.push(e);
        }
    }
    let (engine_m, spec_m) = teps_counts(n, &simple, simple[0].u);
    assert_eq!(
        engine_m, spec_m,
        "counts must agree on a deduplicated graph"
    );

    // Duplicate every edge: the spec count is unchanged (distinct edges
    // count once) while the degree-sum estimate doubles.
    let mut multi = simple.clone();
    multi.extend(simple.iter().copied());
    let (engine_m2, spec_m2) = teps_counts(n, &multi, simple[0].u);
    assert_eq!(spec_m2, spec_m, "spec count must dedup duplicate edges");
    assert_eq!(
        engine_m2,
        2 * engine_m,
        "degree-sum estimate counts each entry"
    );
    assert!(engine_m2 > spec_m2, "the two must diverge on a multigraph");
}

#[test]
fn small_spans_exercise_l_range_bucketing_end_to_end() {
    // With 64 vertices on a 2x2 mesh each rank owns a span of 16 —
    // far below the 32 fixed L-message ranges — and `Thresholds::none`
    // forces every edge through the L2L path and `apply_l_messages`.
    let n = 64u64;
    let edges = skewed_graph(n, 900, 31);
    let root = pick_root(n, &edges, 3);
    check(
        2,
        2,
        n,
        &edges,
        Thresholds::none(),
        &EngineConfig::default(),
        root,
    );
    // A 1x3 mesh gives a non-power-of-two span (22) as well.
    check(
        1,
        3,
        n,
        &edges,
        Thresholds::none(),
        &EngineConfig::default(),
        root,
    );
}
