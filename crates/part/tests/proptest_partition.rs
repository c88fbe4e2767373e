//! Property-based tests of the 1.5D partition builder: for any random
//! multigraph, mesh shape, and threshold setting, the six components
//! must exactly cover the input's undirected edge set, land on the
//! storage ranks §4.1 prescribes, and agree across ranks on the hub
//! directory, whose dense hub-id table the routing reads.

use proptest::prelude::*;
use std::collections::BTreeSet;
use sunbfs_common::{Edge, MachineConfig};
use sunbfs_net::{Cluster, MeshShape, Topology};
use sunbfs_part::{build_1p5d, HubDirectory, RankPartition, Thresholds, VertexClass};

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

fn canonical(edges: &[Edge]) -> BTreeSet<(u64, u64)> {
    edges
        .iter()
        .filter(|e| !e.is_self_loop())
        .map(|e| {
            let c = e.canonical();
            (c.u, c.v)
        })
        .collect()
}

fn reassemble(parts: &[RankPartition]) -> BTreeSet<(u64, u64)> {
    let dir = &parts[0].directory;
    let canon = |a: u64, b: u64| if a <= b { (a, b) } else { (b, a) };
    let mut out = BTreeSet::new();
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
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Coverage: every input edge appears in exactly the right component
    /// set, for arbitrary graphs / meshes / thresholds.
    #[test]
    fn components_cover_input(
        rows in 1usize..3,
        cols in 1usize..4,
        n in 16u64..200,
        raw_edges in prop::collection::vec((0u64..200, 0u64..200), 1..600),
        e_th in 1u32..100,
        h_div in 1u32..10,
    ) {
        let edges: Vec<Edge> =
            raw_edges.iter().map(|&(u, v)| Edge::new(u % n, v % n)).collect();
        let h_th = (e_th / h_div).max(1);
        let th = Thresholds::new(e_th, h_th);
        let parts = build(rows, cols, n, &edges, th);
        prop_assert_eq!(reassemble(&parts), canonical(&edges));

        // The H2L copy mirrors the L2H copy globally.
        let h2l_total: u64 = parts.iter().map(|p| p.stats.h2l).sum();
        let l2h_total: u64 = parts.iter().map(|p| p.stats.l2h).sum();
        prop_assert_eq!(h2l_total, l2h_total);
        // E2L and L2E views index the same undirected edges.
        let e2l: u64 = parts.iter().map(|p| p.stats.e2l).sum();
        let l2e: u64 = parts.iter().map(|p| p.stats.l2e).sum();
        prop_assert_eq!(e2l, l2e);
    }

    /// Storage-location invariants: each component's keys live where
    /// §4.1 says they live.
    #[test]
    fn storage_locations_respected(
        rows in 1usize..3,
        cols in 1usize..3,
        n in 16u64..150,
        raw_edges in prop::collection::vec((0u64..150, 0u64..150), 1..400),
    ) {
        let edges: Vec<Edge> =
            raw_edges.iter().map(|&(u, v)| Edge::new(u % n, v % n)).collect();
        let th = Thresholds::new(40, 8);
        let parts = build(rows, cols, n, &edges, th);
        let topo = Topology::new(MeshShape::new(rows, cols));
        let dir = &parts[0].directory;
        for p in &parts {
            let my_range = p.owned_range();
            let (my_row, my_col) = (topo.row_of(p.rank), topo.col_of(p.rank));
            for (hs, hd) in p.eh_by_src.iter_edges() {
                prop_assert_eq!(dir.src_col(hs as u32, cols), my_col);
                prop_assert_eq!(dir.dest_row(hd as u32, rows), my_row);
            }
            for (l, _) in p.el_by_local.iter_edges() {
                prop_assert!(my_range.contains(&l));
            }
            for (h, l) in p.h2l_by_hub.iter_edges() {
                let hv = dir.vertex_of(h as u32);
                prop_assert_eq!(topo.row_of(p.dist.owner(l)), my_row);
                prop_assert_eq!(topo.col_of(p.dist.owner(hv)), my_col);
            }
            for (l, _) in p.lh_by_local.iter_edges() {
                prop_assert!(my_range.contains(&l));
            }
            for (u, _) in p.l2l.iter_edges() {
                prop_assert!(my_range.contains(&u));
            }
        }
    }

    /// The directory is identical on all ranks and classifies by the
    /// exact degree thresholds.
    #[test]
    fn directory_consistency(
        n in 16u64..150,
        raw_edges in prop::collection::vec((0u64..150, 0u64..150), 1..500),
        e_th in 2u32..60,
    ) {
        let edges: Vec<Edge> =
            raw_edges.iter().map(|&(u, v)| Edge::new(u % n, v % n)).collect();
        let th = Thresholds::new(e_th, e_th / 2 + 1);
        let parts = build(2, 2, n, &edges, th);
        // Sequential ground-truth degrees.
        let mut deg = vec![0u32; n as usize];
        for e in &edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        let d0 = &parts[0].directory;
        for v in 0..n {
            use sunbfs_part::VertexClass::*;
            let expect = if deg[v as usize] >= th.e { E } else if deg[v as usize] >= th.h { H } else { L };
            prop_assert_eq!(d0.class_of(v), expect, "class mismatch at v={}", v);
        }
        for p in &parts[1..] {
            prop_assert_eq!(p.directory.num_hubs(), d0.num_hubs());
            for h in 0..d0.num_hubs() {
                prop_assert_eq!(p.directory.vertex_of(h), d0.vertex_of(h));
            }
        }
    }

    /// The dense hub-id table the build routes by answers exactly what
    /// the directory's hash index answers, for every vertex: with no
    /// hubs, with E hubs only and with E and H hubs.
    #[test]
    fn dense_hub_table_matches_the_directory(
        n in 1u64..400,
        raw_heavy in prop::collection::vec((0u64..400, 1u32..200), 0..120),
        e_th in 1u32..200,
        h_div in 1u32..10,
    ) {
        // One degree per vertex, as the census produces.
        let mut degrees = std::collections::BTreeMap::new();
        for &(v, d) in &raw_heavy {
            degrees.insert(v % n, d);
        }
        for th in [
            Thresholds::none(),
            Thresholds::heavy_only(e_th),
            Thresholds::new(e_th, (e_th / h_div).max(1)),
        ] {
            let heavy: Vec<(u64, u32)> = degrees
                .iter()
                .map(|(&v, &d)| (v, d))
                .filter(|&(_, d)| th.class_of_degree(u64::from(d)) != VertexClass::L)
                .collect();
            let dir = HubDirectory::build(heavy, th);
            if th == Thresholds::none() {
                prop_assert_eq!(dir.num_hubs(), 0);
            } else if th.h == th.e {
                prop_assert_eq!(dir.num_h(), 0);
            }
            let table = dir.hub_id_table(n);
            prop_assert_eq!(table.len() as u64, n);
            for v in 0..n {
                let dense = Some(table[v as usize]).filter(|&h| h != u32::MAX);
                prop_assert_eq!(dense, dir.hub_id(v), "v={}", v);
            }
        }
    }
}
