//! Mutation equivalence: a session that has accepted live edge-insert
//! batches must answer BFS queries exactly as a graph freshly built
//! from the union edge list would — before compaction (results served
//! off base CSRs + delta overlay), after a promotion-forced compaction,
//! and across mesh shapes and worker counts. Compaction itself must be
//! byte-identical to a fresh `build_1p5d` pass over the same
//! deduplicated canonical union, pinned through `encode_store`.

use sunbfs::common::{pool, Edge};
use sunbfs::core::validate_parents;
use sunbfs::mutate::{canonical_edge_set, generate_batch};
use sunbfs::net::{Cluster, FaultPlan};
use sunbfs::part::build_1p5d;
use sunbfs::serve::{GraphSession, SessionConfig};
use sunbfs::store::encode_store;

/// The session's resident edge multiset as one deduplicated canonical
/// list: base CSR edges plus whatever still sits in the delta log.
/// Valid in every overlay state — after a compaction the log is empty
/// and the base already holds the union.
fn union_edges(session: &GraphSession) -> Vec<Edge> {
    canonical_edge_set(session.partitions(), session.delta_log())
        .into_iter()
        .map(|(u, v)| Edge::new(u, v))
        .collect()
}

/// Sequential reference BFS depths over an explicit edge list.
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

/// Depth identity and full Graph 500 validation of the session's
/// union-view BFS against the sequential reference, for several roots.
fn assert_session_matches_reference(session: &GraphSession, label: &str) {
    let n = session.num_vertices();
    let edges = union_edges(session);
    for root in [0, n / 2, n - 1] {
        let (parents, depths) = session.union_bfs(root);
        assert_eq!(
            depths,
            sequential_depths(n, &edges, root),
            "{label}: depths from root {root} diverge from the fresh union reference"
        );
        validate_parents(n, &edges, root, &parents)
            .unwrap_or_else(|e| panic!("{label}: Graph 500 validation from {root}: {e:?}"));
    }
}

/// A fan of inserts onto the lightest vertex that is guaranteed to push
/// it across `h_threshold`, whatever its starting degree below it was.
fn promotion_fan(session: &GraphSession) -> (u64, Vec<Edge>) {
    let n = session.num_vertices();
    let mut degree = vec![0u64; n as usize];
    for (u, v) in canonical_edge_set(session.partitions(), &[]) {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    let hub = (0..n)
        .find(|&v| degree[v as usize] >= 1 && degree[v as usize] < 32)
        .expect("some light vertex below half the H threshold");
    let fan = (0..80)
        .map(|i| Edge::new(hub, (hub + 1 + i * 3) % n))
        .filter(|e| !e.is_self_loop())
        .collect();
    (hub, fan)
}

#[test]
fn mutated_bfs_is_depth_identical_across_meshes_and_workers() {
    // 2x2 and 2x3 meshes (near_square(4) / near_square(6)), each under
    // a serial and a parallel worker pool: the update path must be
    // worker-count invariant like the build it reuses.
    for ranks in [4usize, 6] {
        for workers in [1usize, 4] {
            pool::set_workers(workers);
            let label = format!("ranks {ranks} workers {workers}");
            let cfg = SessionConfig::small(10, ranks);
            let mut session = GraphSession::load(cfg, FaultPlan::none()).expect("session builds");
            let n = session.num_vertices();

            // Round 1: a seeded random batch, normally staying in the
            // overlay (pre-compaction serving path).
            let batch = generate_batch(7, 0, 48, n);
            let epoch = session.apply_updates(&batch).expect("commit");
            assert_eq!(epoch, 1, "{label}: first commit is epoch 1");
            assert_session_matches_reference(&session, &format!("{label} pre-compaction"));

            // Round 2: a promotion-forcing fan — the commit must
            // compact immediately and still stay depth-identical.
            let (hub, fan) = promotion_fan(&session);
            let compactions_before = session.compactions();
            session.apply_updates(&fan).expect("promoting commit");
            assert!(
                session.compactions() > compactions_before,
                "{label}: the fan onto {hub} must promote and force a compaction"
            );
            assert!(
                !session.has_delta(),
                "{label}: compaction drains the overlay"
            );
            assert_session_matches_reference(&session, &format!("{label} post-compaction"));
            assert_eq!(session.epoch(), 2, "{label}: epochs survive compaction");
        }
    }
    pool::set_workers(0); // restore the default (auto) pool
}

#[test]
fn compaction_is_byte_identical_to_a_fresh_build_from_the_union() {
    pool::set_workers(0);
    let cfg = SessionConfig::small(9, 4);
    let mut session = GraphSession::load(cfg, FaultPlan::none()).expect("session builds");
    let n = session.num_vertices();
    let base = canonical_edge_set(session.partitions(), &[]);

    let batch = generate_batch(11, 0, 40, n);
    session.apply_updates(&batch).expect("commit");
    if session.has_delta() {
        session.compact().expect("explicit compaction");
    }

    // The same deduplicated canonical union, in the same sorted order
    // compaction derives it, through the same rank-strided chunking.
    let mut expected = base;
    expected.extend(batch.iter().filter(|e| !e.is_self_loop()).map(|e| {
        let c = e.canonical();
        (c.u, c.v)
    }));
    expected.sort_unstable();
    expected.dedup();
    let union: Vec<Edge> = expected.into_iter().map(|(u, v)| Edge::new(u, v)).collect();
    let p = cfg.mesh.num_ranks();
    let cluster = Cluster::new(cfg.mesh, cfg.machine);
    let fresh = cluster.run(|ctx| {
        let chunk: Vec<Edge> = union
            .iter()
            .enumerate()
            .filter(|(i, _)| i % p == ctx.rank())
            .map(|(_, e)| *e)
            .collect();
        build_1p5d(ctx, n, &chunk, cfg.thresholds)
    });

    let header = cfg.store_header();
    assert_eq!(
        encode_store(&header, session.partitions()),
        encode_store(&header, &fresh),
        "compacted partitions must serialize byte-identical to a fresh union build"
    );
}
