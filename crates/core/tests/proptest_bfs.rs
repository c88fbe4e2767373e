//! The central correctness property of the whole reproduction: for ANY
//! random multigraph, mesh shape, threshold setting, engine
//! configuration, and root, the distributed 1.5D BFS produces a valid
//! Graph 500 parent tree whose level array equals the sequential
//! reference exactly.

use proptest::prelude::*;
use sunbfs_common::{Edge, MachineConfig};
use sunbfs_core::validate::{levels_from_parents, reference_bfs, validate_parents};
use sunbfs_core::{EngineConfig, EngineScratch};
use sunbfs_net::{Cluster, MeshShape};
use sunbfs_part::{build_1p5d, Thresholds};

fn bfs_levels(
    rows: usize,
    cols: usize,
    n: u64,
    edges: &[Edge],
    th: Thresholds,
    cfg: &EngineConfig,
    root: u64,
) -> Vec<u64> {
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
    let parents: Vec<u64> = outputs
        .iter()
        .flat_map(|o| o.parents.iter().copied())
        .collect();
    validate_parents(n, edges, root, &parents).expect("Graph 500 validation failed");
    levels_from_parents(root, &parents).expect("level derivation failed")
}

proptest! {
    // Each case spins up a thread-per-rank cluster; keep counts modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn distributed_bfs_equals_reference(
        rows in 1usize..3,
        cols in 1usize..4,
        n in 8u64..128,
        raw_edges in prop::collection::vec((0u64..128, 0u64..128), 1..400),
        e_th in 1u32..60,
        h_div in 1u32..8,
        sub_iteration in any::<bool>(),
        segmenting in any::<bool>(),
        root_pick in 0usize..100,
    ) {
        let edges: Vec<Edge> =
            raw_edges.iter().map(|&(u, v)| Edge::new(u % n, v % n)).collect();
        // Root must have at least one edge (Graph 500 requirement).
        let candidates: Vec<u64> = edges
            .iter()
            .filter(|e| !e.is_self_loop())
            .flat_map(|e| [e.u, e.v])
            .collect();
        prop_assume!(!candidates.is_empty());
        let root = candidates[root_pick % candidates.len()];

        let th = Thresholds::new(e_th, (e_th / h_div).max(1));
        let cfg = EngineConfig { sub_iteration, segmenting, ..Default::default() };
        let levels = bfs_levels(rows, cols, n, &edges, th, &cfg, root);
        let (_, expect) = reference_bfs(n, &edges, root);
        prop_assert_eq!(levels, expect);
    }

    /// The two degenerate partitionings traverse identically too.
    #[test]
    fn degenerate_modes_equal_reference(
        n in 8u64..100,
        raw_edges in prop::collection::vec((0u64..100, 0u64..100), 1..300),
        use_2d in any::<bool>(),
        root_pick in 0usize..50,
    ) {
        let edges: Vec<Edge> =
            raw_edges.iter().map(|&(u, v)| Edge::new(u % n, v % n)).collect();
        let candidates: Vec<u64> = edges
            .iter()
            .filter(|e| !e.is_self_loop())
            .flat_map(|e| [e.u, e.v])
            .collect();
        prop_assume!(!candidates.is_empty());
        let root = candidates[root_pick % candidates.len()];
        let th = if use_2d { Thresholds::all_hubs(1 << 20) } else { Thresholds::heavy_only(16) };
        let levels = bfs_levels(2, 2, n, &edges, th, &EngineConfig::default(), root);
        let (_, expect) = reference_bfs(n, &edges, root);
        prop_assert_eq!(levels, expect);
    }
}
