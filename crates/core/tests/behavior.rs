//! Behavioral regression tests: beyond producing correct trees, the
//! engine must *behave* like the paper's — hubs pull early, light
//! vertices activate late, segmenting changes cost but not results,
//! and the delayed parent reduction matches per-iteration semantics.

use sunbfs_common::{MachineConfig, SplitMix64};
use sunbfs_core::{Direction, EngineConfig, EngineScratch};
use sunbfs_net::{Cluster, MeshShape};
use sunbfs_part::{build_1p5d, Thresholds};
use sunbfs_rmat::RmatParams;

fn rmat_outputs(
    scale: u32,
    ranks: usize,
    th: Thresholds,
    cfg: EngineConfig,
) -> Vec<sunbfs_core::BfsOutput> {
    let params = RmatParams::graph500(scale, 42);
    let n = params.num_vertices();
    let root = sunbfs_rmat::generate_range(&params, 0, 64)
        .iter()
        .find(|e| !e.is_self_loop())
        .unwrap()
        .u;
    let cluster = Cluster::new(MeshShape::near_square(ranks), MachineConfig::new_sunway());
    cluster.run(|ctx| {
        let chunk = sunbfs_rmat::generate_chunk(&params, ctx.rank() as u64, ranks as u64);
        let part = build_1p5d(ctx, n, &chunk, th);
        EngineScratch::default()
            .run_bfs(ctx, &part, root, &cfg, None)
            .expect("BFS must terminate")
    })
}

#[test]
fn eh2eh_pulls_before_l2l_does() {
    // Sub-iteration direction optimization's raison d'être (§4.2): the
    // hub core subgraph flips to bottom-up strictly earlier than (or at
    // the same iteration as) the light-light component.
    let outs = rmat_outputs(14, 16, Thresholds::new(512, 64), EngineConfig::default());
    let iters = &outs[0].stats.iterations;
    let first_pull = |idx: usize| {
        iters
            .iter()
            .find(|it| it.directions[idx] == Direction::Pull)
            .map(|it| it.iter)
            .unwrap_or(u32::MAX)
    };
    let eh = first_pull(0);
    let l2l = first_pull(5);
    assert!(eh <= l2l, "EH2EH first pulled at {eh}, after L2L at {l2l}");
    assert!(
        eh != u32::MAX,
        "the dense R-MAT core must trigger an EH2EH pull"
    );
}

#[test]
fn hubs_activate_earlier_than_light_vertices() {
    let outs = rmat_outputs(14, 16, Thresholds::new(512, 64), EngineConfig::default());
    let iters = &outs[0].stats.iterations;
    let peak = |f: &dyn Fn(&sunbfs_core::IterationStats) -> u64| {
        iters.iter().max_by_key(|it| f(it)).unwrap().iter
    };
    assert!(peak(&|it| it.newly_e) <= peak(&|it| it.newly_l));
    assert!(peak(&|it| it.newly_h) <= peak(&|it| it.newly_l));
}

#[test]
fn iteration_stats_are_replicated_consistently() {
    let outs = rmat_outputs(12, 9, Thresholds::new(256, 32), EngineConfig::default());
    let first = &outs[0].stats.iterations;
    for o in &outs[1..] {
        assert_eq!(o.stats.iterations.len(), first.len());
        for (a, b) in o.stats.iterations.iter().zip(first) {
            assert_eq!(a.active_e, b.active_e);
            assert_eq!(a.active_h, b.active_h);
            assert_eq!(a.active_l, b.active_l);
            assert_eq!(a.newly_l, b.newly_l);
            assert_eq!(a.directions, b.directions);
        }
    }
}

#[test]
fn segmenting_changes_time_not_results() {
    let th = Thresholds::new(256, 32);
    let with = EngineConfig {
        segmenting: true,
        ..Default::default()
    };
    let without = EngineConfig {
        segmenting: false,
        ..Default::default()
    };

    let a = rmat_outputs(13, 9, th, with);
    let b = rmat_outputs(13, 9, th, without);
    // Identical traversals...
    let pa: Vec<u64> = a.iter().flat_map(|o| o.parents.iter().copied()).collect();
    let pb: Vec<u64> = b.iter().flat_map(|o| o.parents.iter().copied()).collect();
    assert_eq!(pa, pb, "segmenting is a cost-only technique");
    // ...but the segmented pull kernel must be cheaper whenever the
    // engine actually pulled EH2EH.
    let pull_time = |outs: &[sunbfs_core::BfsOutput]| -> f64 {
        outs.iter()
            .map(|o| o.stats.times.total_with_prefix("sub.EH2EH.pull").as_secs())
            .sum()
    };
    let (ta, tb) = (pull_time(&a), pull_time(&b));
    if tb > 0.0 {
        // The 9x RMA/GLD gap applies to the probe component; the
        // category also carries the (identical) adjacency streaming, so
        // the end-to-end factor is smaller at small scales. The strict
        // per-probe ratio is pinned in `costing`'s unit tests.
        assert!(ta < tb, "segmented pull {ta} should beat unsegmented {tb}");
    }
}

#[test]
fn gteps_counts_only_component_edges() {
    // Two disconnected halves: traversing one half must report roughly
    // half the edges.
    use sunbfs_common::Edge;
    let n = 128u64;
    let mut rng = SplitMix64::new(5);
    let mut edges = Vec::new();
    for _ in 0..400 {
        edges.push(Edge::new(rng.next_below(n / 2), rng.next_below(n / 2)));
        edges.push(Edge::new(
            n / 2 + rng.next_below(n / 2),
            n / 2 + rng.next_below(n / 2),
        ));
    }
    let cluster = Cluster::new(MeshShape::new(2, 2), MachineConfig::new_sunway());
    let outs = cluster.run(|ctx| {
        let chunk: Vec<Edge> = edges
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 4 == ctx.rank())
            .map(|(_, e)| *e)
            .collect();
        let part = build_1p5d(ctx, n, &chunk, Thresholds::new(64, 16));
        EngineScratch::default()
            .run_bfs(ctx, &part, 0, &EngineConfig::default(), None)
            .expect("BFS must terminate")
    });
    let traversed = outs[0].stats.traversed_edges;
    let total = edges.len() as u64;
    assert!(
        traversed < total * 3 / 4,
        "traversed {traversed} of {total} — the other component leaked into TEPS"
    );
}

#[test]
fn vanilla_mode_uses_one_direction_per_iteration() {
    let outs = rmat_outputs(13, 9, Thresholds::new(256, 32), EngineConfig::baseline());
    for it in &outs[0].stats.iterations {
        let d0 = it.directions[0];
        assert!(
            it.directions.iter().all(|&d| d == d0),
            "vanilla direction optimization must not mix directions: {:?}",
            it.directions
        );
    }
}

#[test]
fn deterministic_across_runs() {
    let a = rmat_outputs(12, 9, Thresholds::new(256, 32), EngineConfig::default());
    let b = rmat_outputs(12, 9, Thresholds::new(256, 32), EngineConfig::default());
    let pa: Vec<u64> = a.iter().flat_map(|o| o.parents.iter().copied()).collect();
    let pb: Vec<u64> = b.iter().flat_map(|o| o.parents.iter().copied()).collect();
    assert_eq!(pa, pb, "engine must be bit-deterministic");
    assert_eq!(a[0].stats.sim_seconds, b[0].stats.sim_seconds);
}
