//! Workspace-level integration tests: the public `sunbfs` facade, end
//! to end — generator → partitioner → engine → validator — across mesh
//! shapes, threshold regimes, technique toggles, and multiple roots.

mod common;

use common::Scenario;
use sunbfs::common::{Edge, MachineConfig, SplitMix64};
use sunbfs::core::EngineConfig;
use sunbfs::driver::{pick_roots, run_benchmark, RunConfig};
use sunbfs::net::MeshShape;
use sunbfs::part::Thresholds;
use sunbfs::rmat::{degrees, RmatParams};

fn base_config(scale: u32, ranks: usize) -> RunConfig {
    RunConfig {
        scale,
        mesh: MeshShape::near_square(ranks),
        thresholds: Thresholds::new(128, 32),
        seed: 4242,
        num_roots: 2,
        validate: true,
        ..RunConfig::default()
    }
}

#[test]
fn quickstart_pipeline_validates() {
    let report = run_benchmark(&base_config(11, 4)).expect("benchmark must pass");
    assert!(report.validated);
    assert!(report.mean_gteps() > 0.0);
    // All roots traverse the same giant component of the R-MAT graph.
    let visited: Vec<u64> = report.runs.iter().map(|r| r.visited_vertices).collect();
    assert!(visited.iter().all(|&v| v == visited[0]));
}

#[test]
fn every_roots_end_op_counts_from_its_own_first_collective() {
    // `IterationStats::end_op` is an index a fault plan can use
    // (`panic@<rank>:<end_op>`), and a plan addresses one traversal's
    // collectives — so the series must restart at every root instead
    // of accumulating over the build and the earlier roots.
    let mut cfg = base_config(10, 4);
    cfg.num_roots = 3;
    let report = run_benchmark(&cfg).expect("benchmark must pass");
    assert_eq!(report.runs.len(), 3);
    let last_of_root0 = report.runs[0].iterations.last().expect("iterations").end_op;
    for run in &report.runs {
        let first = run.iterations.first().expect("iterations").end_op;
        assert!(
            first <= last_of_root0,
            "root {}: first-iteration end_op {first} is past root 0's last ({last_of_root0}) — \
             the series is cumulative",
            run.root
        );
        assert!(
            run.iterations.windows(2).all(|w| w[0].end_op < w[1].end_op),
            "end_op must still grow within one traversal"
        );
    }
}

/// One root through the per-root loop and `run_benchmark` on
/// `base_config`'s graph: thresholds 128/32, seed 4242.
fn scenario(scale: u32, mesh: (usize, usize)) -> Scenario {
    Scenario::pinned(scale, mesh, Thresholds::new(128, 32), 4242)
}

#[test]
fn every_mesh_shape_validates() {
    common::run(&[(1, 1), (1, 6), (6, 1), (2, 3), (3, 3)].map(|mesh| scenario(10, mesh)));
}

/// Every combination visits the reference census of one root, so they
/// agree on reachability.
#[test]
fn all_technique_combinations_validate_and_agree() {
    let toggles = [(false, false), (false, true), (true, false), (true, true)];
    common::run(&toggles.map(|(sub_iteration, segmenting)| Scenario {
        sub_iteration,
        segmenting,
        ..scenario(11, (2, 2))
    }));
}

#[test]
fn threshold_regimes_all_validate() {
    let base = scenario(10, (2, 2));
    let regimes = [
        Thresholds::none(),
        Thresholds::heavy_only(64),
        Thresholds::new(256, 16),
        Thresholds::all_hubs(1 << 20),
    ];
    common::run(&regimes.map(|thresholds| Scenario { thresholds, ..base }));
}

#[test]
fn seeds_change_the_graph_but_not_correctness() {
    let base = scenario(10, (2, 2));
    common::run(&[1, 99, 123456789].map(|graph_seed| Scenario { graph_seed, ..base }));
}

#[test]
fn partition_stats_cover_all_edges() {
    let cfg = base_config(12, 9);
    let report = run_benchmark(&cfg).expect("benchmark must pass");
    let total: u64 = report.partition_stats.iter().map(|s| s.total()).sum();
    // Every undirected edge is stored at least twice (both orientations
    // of EH2EH/L2L) or once with two indexes (E-L, plus the duplicated
    // H-L copy); after dedup the total directed storage is bounded by
    // 3x the generated count and must be at least the deduplicated
    // undirected count.
    let m = (16u64) << 12;
    assert!(total >= m / 4, "suspiciously few stored edges: {total}");
    assert!(total <= 3 * m, "suspiciously many stored edges: {total}");
}

#[test]
fn simulated_times_scale_with_problem_size() {
    let small = run_benchmark(&RunConfig {
        validate: false,
        num_roots: 1,
        ..base_config(10, 4)
    })
    .expect("benchmark must pass");
    let large = run_benchmark(&RunConfig {
        validate: false,
        num_roots: 1,
        ..base_config(14, 4)
    })
    .expect("benchmark must pass");
    assert!(
        large.runs[0].sim_seconds > small.runs[0].sim_seconds,
        "16x more edges must cost more simulated time"
    );
}

/// A preferential-attachment multigraph (§8: the partitioning targets
/// any skew-heavy graph, not just R-MAT): each of `n` vertices after
/// the first two attaches `m` times to targets drawn in proportion to
/// their current degree, by sampling the endpoint list. Sequential by
/// nature, so ranks take slices of the full list.
fn generate_social(n: u64, m: u64, seed: u64) -> Vec<Edge> {
    let mut rng = SplitMix64::new(seed ^ 0x50c1a1);
    let mut edges = Vec::with_capacity((n * m) as usize);
    // Endpoint pool: every occurrence is one unit of degree.
    let mut pool: Vec<u64> = vec![0, 1];
    edges.push(Edge::new(0, 1));
    for t in 2..n {
        for _ in 0..m {
            let target = pool[rng.next_below(pool.len() as u64) as usize];
            edges.push(Edge::new(t, target));
            pool.push(target);
            pool.push(t);
        }
    }
    edges
}

#[test]
fn social_generator_is_deterministic_connected_and_heavy_tailed() {
    assert_eq!(generate_social(1000, 4, 7).len(), 1 + (1000 - 2) * 4);
    assert_eq!(generate_social(500, 4, 7), generate_social(500, 4, 7));
    let edges = generate_social(2000, 4, 7);
    assert!(edges.iter().all(|e| e.u < 2000 && e.v < 2000));
    // One connected component: every vertex has degree ≥ 1.
    let deg = degrees(2000, &edges);
    assert!(
        deg.iter().all(|&d| d > 0),
        "PA graphs have no isolated vertices"
    );
    let deg = degrees(5000, &generate_social(5000, 4, 7));
    let max = *deg.iter().max().unwrap() as f64;
    let mean = deg.iter().map(|&d| d as f64).sum::<f64>() / deg.len() as f64;
    assert!(max / mean > 20.0, "max/mean {} too flat", max / mean);
    // Early vertices dominate (the rich get richer).
    let early: u64 = deg[..50].iter().map(|&d| d as u64).sum();
    let late: u64 = deg[deg.len() - 50..].iter().map(|&d| d as u64).sum();
    assert!(early > late * 5, "early {early} vs late {late}");
}

#[test]
fn social_graph_traverses_and_validates() {
    // Run the whole pipeline on a preferential-attachment graph.
    use sunbfs::core::{validate_parents, EngineScratch};
    use sunbfs::net::Cluster;
    use sunbfs::part::build_1p5d;

    let n = 4096;
    let edges = generate_social(n, 8, 11);
    let cluster = Cluster::new(MeshShape::new(3, 3), MachineConfig::new_sunway());
    let outputs = cluster.run(|ctx| {
        let chunk: Vec<Edge> = edges
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 9 == ctx.rank())
            .map(|(_, e)| *e)
            .collect();
        let part = build_1p5d(ctx, n, &chunk, Thresholds::new(512, 64));
        EngineScratch::default()
            .run_bfs(ctx, &part, 0, &EngineConfig::default(), None)
            .expect("BFS must terminate")
    });
    let parents: Vec<u64> = outputs
        .iter()
        .flat_map(|o| o.parents.iter().copied())
        .collect();
    validate_parents(n, &edges, 0, &parents).expect("social graph traversal invalid");
    // Preferential-attachment graphs are connected: everything reached.
    assert_eq!(outputs[0].stats.visited_vertices, n);
}

#[test]
fn pick_roots_is_deterministic_and_valid() {
    let params = RmatParams::graph500(12, 7);
    let a = pick_roots(&params, 6).expect("connected roots");
    let b = pick_roots(&params, 6).expect("connected roots");
    assert_eq!(a, b);
    assert_eq!(a.len(), 6);
}

#[test]
fn gteps_improves_with_full_techniques_at_scale() {
    // At a bandwidth-dominated size, the full engine must beat the
    // baseline configuration (the Figure 15 end-to-end claim).
    let mut baseline = base_config(14, 16);
    baseline.validate = false;
    baseline.num_roots = 2;
    baseline.thresholds = Thresholds::new(512, 64);
    baseline.engine = EngineConfig::baseline();
    let mut full = baseline.clone();
    full.engine = EngineConfig::default();
    let b = run_benchmark(&baseline)
        .expect("baseline run")
        .harmonic_mean_gteps();
    let f = run_benchmark(&full)
        .expect("full run")
        .harmonic_mean_gteps();
    assert!(
        f >= b * 0.95,
        "full techniques ({f:.3} GTEPS) should not lose to baseline ({b:.3} GTEPS)"
    );
}
