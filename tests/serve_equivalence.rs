//! Batch-vs-sequential equivalence sweep: across mesh shapes and
//! threshold regimes, every root served by the bit-parallel
//! multi-source batch must report exactly the depths the sequential
//! single-source engine (and the host-side reference BFS) computes,
//! and its parent tree must pass Graph 500 validation. With committed
//! inserts still in the delta overlay, every served tree must be the
//! union graph's.

mod common;

use sunbfs::common::MachineConfig;
use sunbfs::core::{validate, EngineConfig};
use sunbfs::driver::pick_roots;
use sunbfs::net::{FaultPlan, MeshShape};
use sunbfs::part::Thresholds;
use sunbfs::serve::{BfsService, GraphSession, QueryStatus, ServeConfig, SessionConfig};

use common::census;

fn sweep_case(scale: u32, ranks: usize, thresholds: Thresholds, num_roots: usize) {
    let label = format!("scale {scale}, {ranks} ranks, {thresholds:?}");
    let cfg = SessionConfig {
        scale,
        edge_factor: 16,
        mesh: MeshShape::near_square(ranks),
        thresholds,
        engine: EngineConfig::default(),
        machine: MachineConfig::new_sunway(),
        seed: 42,
        max_load_attempts: 1,
    };
    let params = cfg.rmat();
    let n = params.num_vertices();
    let roots = pick_roots(&params, num_roots).expect("connected roots");
    let edges = sunbfs::rmat::generate_edges(&params);

    let session = GraphSession::load(cfg, FaultPlan::none()).expect("clean load");
    let mut svc = BfsService::new(session, ServeConfig::default());
    for &root in &roots {
        svc.submit(root).expect("admit");
    }
    let mut results = svc.drain();
    results.sort_by_key(|r| r.id);
    assert_eq!(results.len(), roots.len(), "{label}: every root completes");

    for r in &results {
        assert!(
            matches!(r.status, QueryStatus::Served),
            "{label}: root {} not served",
            r.root
        );
        assert!(!r.via_fallback, "{label}: fault-free run must stay batched");
        let parents = &r
            .parents
            .as_ref()
            .expect("served result carries a tree")
            .to_vec();

        // Graph 500 validation of the batch-produced tree.
        validate::validate_parents(n, &edges, r.root, parents)
            .unwrap_or_else(|e| panic!("{label}: root {} tree invalid: {e:?}", r.root));

        // Depth equivalence against the host-side reference BFS...
        let (_, ref_levels) = validate::reference_bfs(n, &edges, r.root);
        let batch_levels =
            validate::levels_from_parents(r.root, parents).expect("validated tree has levels");
        assert_eq!(
            batch_levels, ref_levels,
            "{label}: root {} batch depths differ from reference",
            r.root
        );

        // ...and against the sequential single-source engine on the
        // same resident partition.
        let seq_parents: Vec<u64> = svc
            .session()
            .run_single(r.root)
            .into_iter()
            .map(|rank| rank.expect("no rank failure").expect("terminates"))
            .flat_map(|o| o.parents)
            .collect();
        let seq_levels =
            validate::levels_from_parents(r.root, &seq_parents).expect("sequential tree is valid");
        assert_eq!(
            batch_levels, seq_levels,
            "{label}: root {} batch depths differ from sequential engine",
            r.root
        );

        // The histogram the service reports is the depth census.
        let want_hist = census(&ref_levels);
        assert_eq!(
            r.depth_histogram, want_hist,
            "{label}: root {} histogram mismatch",
            r.root
        );
        assert_eq!(
            r.visited,
            want_hist.iter().sum::<u64>(),
            "{label}: root {} visited mismatch",
            r.root
        );
    }
}

#[test]
fn batch_matches_sequential_on_the_standard_mesh() {
    sweep_case(9, 4, Thresholds::new(256, 64), 6);
}

#[test]
fn batch_matches_sequential_on_a_wide_mesh() {
    sweep_case(9, 9, Thresholds::new(128, 32), 5);
}

#[test]
fn batch_matches_sequential_with_no_hubs() {
    sweep_case(8, 4, Thresholds::none(), 4);
}

#[test]
fn batch_matches_sequential_with_all_hubs() {
    sweep_case(8, 6, Thresholds::all_hubs(1 << 20), 4);
}

/// The repair path: a committed, un-compacted update batch is resident,
/// so every rider's arrays are materialised, repaired and counted.
#[test]
fn batches_over_a_resident_delta_serve_the_union_graph() {
    let mut session =
        GraphSession::load(SessionConfig::small(9, 4), FaultPlan::none()).expect("clean load");
    let n = session.num_vertices();
    let inserts = sunbfs::mutate::generate_batch(7, 0, 48, n);
    session.apply_updates(&inserts).expect("commit");
    assert!(session.has_delta(), "the inserts must stay in the overlay");
    let mut svc = BfsService::new(session, ServeConfig::default());

    let mut riders = 0u64;
    for width in [1u64, 2, 64] {
        for i in 0..width {
            svc.submit((i * 37 + width) % n).expect("admit");
        }
        let results = svc.drain();
        assert_eq!(results.len() as u64, width, "one batch of width {width}");
        riders += width;
        for r in &results {
            let label = format!("width {width}, root {}", r.root);
            assert!(matches!(r.status, QueryStatus::Served), "{label}");
            assert!(!r.via_fallback, "{label}: fault-free run stays batched");
            assert_eq!(r.epoch, 1, "{label}");
            let parents = r.parents.as_ref().expect("served tree").to_vec();
            let (_, union_levels) = svc.session().union_bfs(r.root);
            assert_eq!(
                validate::levels_from_parents(r.root, &parents).expect("a tree"),
                union_levels,
                "{label}: repaired tree is not the union graph's"
            );
            let want_hist = census(&union_levels);
            assert_eq!(r.depth_histogram, want_hist, "{label}");
            assert_eq!(r.visited, want_hist.iter().sum::<u64>(), "{label}");
        }
    }
    assert!(svc.session().has_delta(), "nothing compacted meanwhile");
    assert_eq!(svc.report().repaired_queries, riders);
}
