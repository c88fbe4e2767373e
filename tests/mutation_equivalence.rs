//! Mutation equivalence: a session that has accepted live edge-insert
//! batches must answer BFS queries exactly as a graph freshly built
//! from the union edge list would — before compaction (results served
//! off base CSRs + delta overlay), after a promotion-forced compaction,
//! and across mesh shapes and worker counts. Compaction itself must be
//! byte-identical to a fresh `build_1p5d` pass over the same
//! deduplicated canonical union, pinned through `encode_store`.

mod common;

use common::{Commit, Scenario};
use sunbfs::common::{pool, Edge};
use sunbfs::mutate::{canonical_edge_set, generate_batch};
use sunbfs::net::{fnv1a, Cluster, FaultPlan};
use sunbfs::part::{build_1p5d, Thresholds};
use sunbfs::serve::{GraphSession, SessionConfig};
use sunbfs::store::encode_store;

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

/// A quiet batch that stays in the overlay, then a promoting fan whose
/// commit compacts: epochs 1 then 2, `union_bfs` and every served tree
/// against the generator's edges plus both batches, on 2x2 and 2x3
/// meshes, each under a serial and a parallel worker pool — the update
/// path must be worker-count invariant like the build it reuses.
#[test]
fn mutated_bfs_is_depth_identical_across_meshes_and_workers() {
    let meshes = [(2, 2), (2, 3)].map(|mesh| Scenario {
        seed: 7,
        roots: 3,
        updates: &[Commit::Quiet, Commit::Fan],
        ..Scenario::pinned(10, mesh, Thresholds::new(256, 64), 42)
    });
    let scenarios = meshes.map(|s| [1, 4].map(|workers| Scenario { workers, ..s }));
    common::run(scenarios.as_flattened());
}

#[test]
fn compaction_is_byte_identical_to_a_fresh_build_from_the_union() {
    let _pool = common::pool_lock();
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

/// One commit's observable outcome, in commit order per session:
/// `(session, epoch, delta_entries, compactions, has_delta,
/// delta_log_len, repairs, union_bfs)`. Each repair is `(seeds,
/// improved, scanned_edges, fingerprint of the repaired arrays)` for a
/// result cached before the first commit; `union_bfs` is the
/// fingerprint of a fresh union-view BFS from the same two roots.
type Pin = (
    &'static str,
    u64,
    u64,
    u64,
    bool,
    usize,
    [(u64, u64, u64, u64); 2],
    [u64; 2],
);

/// FNV-1a over a BFS result's parents then depths, little-endian.
fn fingerprint(parents: &[u64], depths: &[u64]) -> u64 {
    let bytes: Vec<u8> = parents
        .iter()
        .chain(depths)
        .flat_map(|x| x.to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// Every vertex's degree in the session's union graph as the degree
/// classes see it: the base's owned degree plus each logged insert.
fn union_degrees(session: &GraphSession) -> Vec<u64> {
    let mut degree = vec![0u64; session.num_vertices() as usize];
    for p in session.partitions() {
        let start = p.owned_range().start as usize;
        for (i, &d) in p.owned_degrees.iter().enumerate() {
            degree[start + i] = u64::from(d);
        }
    }
    for e in session.delta_log() {
        degree[e.u as usize] += 1;
        degree[e.v as usize] += 1;
    }
    degree
}

/// `want` loop-free edges drawn from `generate_batch(seed, index, ..)`
/// that leave every endpoint in its degree class, so committing them
/// can never promote a vertex.
fn quiet_batch(session: &GraphSession, seed: u64, index: u64, want: usize) -> Vec<Edge> {
    let th = session.config().thresholds;
    let (e, h) = (u64::from(th.e), u64::from(th.h));
    let mut room: Vec<u64> = union_degrees(session)
        .into_iter()
        .map(|d| match d {
            d if d >= e => u64::MAX,
            d if d >= h => e - 1 - d,
            d => h - 1 - d,
        })
        .collect();
    let n = session.num_vertices();
    let batch: Vec<Edge> = generate_batch(seed, index, want as u64 * 8, n)
        .into_iter()
        .filter(|e| {
            let (u, v) = (e.u as usize, e.v as usize);
            let fits = u != v && room[u] > 0 && room[v] > 0;
            if fits {
                room[u] -= 1;
                room[v] -= 1;
            }
            fits
        })
        .take(want)
        .collect();
    assert_eq!(batch.len(), want, "not enough class-preserving edges");
    batch
}

/// The observable state of every commit in one seeded schedule: three
/// small class-preserving batches that stay in the overlay, one
/// `promotion_fan`, one class-preserving batch large enough to cross
/// `DELTA_COMPACT_THRESHOLD` on its own, and one small batch after it.
fn pin_schedule(label: &'static str, ranks: usize, thresholds: Thresholds) -> Vec<Pin> {
    let mut cfg = SessionConfig::small(10, ranks);
    cfg.thresholds = thresholds;
    let mut session = GraphSession::load(cfg, FaultPlan::none()).expect("session builds");
    let degree = union_degrees(&session);
    let hub = (0..degree.len()).max_by_key(|&v| (degree[v], v)).unwrap() as u64;
    let light = (0..degree.len()).find(|&v| degree[v] == 1).unwrap() as u64;
    let roots = [hub, light];
    let cached = roots.map(|r| session.union_bfs(r));

    let mut pins = Vec::new();
    for step in 0..6u64 {
        let batch = match step {
            3 => promotion_fan(&session).1,
            4 => quiet_batch(&session, 5, step, 4096),
            _ => quiet_batch(&session, 5, step, 16),
        };
        session.apply_updates(&batch).expect("commit");
        let repairs = [0, 1].map(|i| {
            let (mut parents, mut depths) = cached[i].clone();
            let s = session.repair_result(&mut parents, &mut depths);
            (
                s.seeds,
                s.improved,
                s.scanned_edges,
                fingerprint(&parents, &depths),
            )
        });
        let fresh = roots.map(|r| {
            let (parents, depths) = session.union_bfs(r);
            fingerprint(&parents, &depths)
        });
        pins.push((
            label,
            session.epoch(),
            session.delta_entries(),
            session.compactions(),
            session.has_delta(),
            session.delta_log().len(),
            repairs,
            fresh,
        ));
    }
    pins
}

/// What every commit of the pinned schedule left behind, captured from
/// the per-rank routed overlay. The delta's entry weights (1 per E–L
/// edge, 2 per other pairing), when a promotion or the threshold
/// compacts, and what repair scans are all fixed by it.
#[rustfmt::skip]
const PINNED: &[Pin] = &[
    ("4 ranks (256,64)", 1, 31, 0, true, 16, [(1, 1, 1, 0x27df46ede3a7b78d), (1, 1, 1, 0x0340284e04c3e91c)], [0xe93c8c9dbbbb4daa, 0x0340284e04c3e91c]),
    ("4 ranks (256,64)", 2, 61, 0, true, 32, [(4, 4, 4, 0xd8b1b1281ea21e9b), (4, 4, 4, 0x1d91399367b70980)], [0xa65ef2578eb2dafc, 0x1d91399367b70980]),
    ("4 ranks (256,64)", 3, 92, 0, true, 48, [(4, 4, 4, 0xd8b1b1281ea21e9b), (4, 4, 4, 0x1d91399367b70980)], [0xa65ef2578eb2dafc, 0x1d91399367b70980]),
    ("4 ranks (256,64)", 4, 0, 1, false, 0, [(0, 0, 0, 0x91011a349bfc96e4), (0, 0, 0, 0x3e1b9cbf1fe2e9f7)], [0xe7f33f0078848d6b, 0x4d5625974e47ff70]),
    ("4 ranks (256,64)", 5, 0, 2, false, 0, [(0, 0, 0, 0x91011a349bfc96e4), (0, 0, 0, 0x3e1b9cbf1fe2e9f7)], [0x69db11bdadbaaacf, 0x014d5fa1ea42c31e]),
    ("4 ranks (256,64)", 6, 31, 2, true, 16, [(4, 36, 321, 0x9edf1d2b38c8a3c7), (4, 36, 321, 0x1e6bea1da689cd34)], [0x3d301151331a30b1, 0x5d09892730055f69]),
    ("4 ranks none", 1, 32, 0, true, 16, [(1, 1, 1, 0x27df46ede3a7b78d), (1, 1, 1, 0x0340284e04c3e91c)], [0xe93c8c9dbbbb4daa, 0x0340284e04c3e91c]),
    ("4 ranks none", 2, 64, 0, true, 32, [(4, 4, 4, 0xd8b1b1281ea21e9b), (4, 4, 4, 0x1d91399367b70980)], [0xa65ef2578eb2dafc, 0x1d91399367b70980]),
    ("4 ranks none", 3, 96, 0, true, 48, [(4, 4, 4, 0xd8b1b1281ea21e9b), (4, 4, 4, 0x1d91399367b70980)], [0xa65ef2578eb2dafc, 0x1d91399367b70980]),
    ("4 ranks none", 4, 256, 0, true, 128, [(10, 10, 90, 0x5c0e723c64a1b35b), (84, 821, 19459, 0x8aa6a127eb518591)], [0xe7f33f0078848d6b, 0x4d5625974e47ff70]),
    ("4 ranks none", 5, 0, 1, false, 0, [(0, 0, 0, 0x91011a349bfc96e4), (0, 0, 0, 0x3e1b9cbf1fe2e9f7)], [0x34c42f3ab6047e8d, 0xfac75006f5f2dc41]),
    ("4 ranks none", 6, 32, 1, true, 16, [(4, 36, 321, 0x9edf1d2b38c8a3c7), (4, 36, 321, 0x1e6bea1da689cd34)], [0xa7967d3338fa1362, 0xcd949663f54374ee]),
    ("4 ranks all_hubs(256)", 1, 32, 0, true, 16, [(0, 0, 0, 0x91011a349bfc96e4), (0, 0, 0, 0x3e1b9cbf1fe2e9f7)], [0xa7596158e98e3353, 0x3e1b9cbf1fe2e9f7]),
    ("4 ranks all_hubs(256)", 2, 64, 0, true, 32, [(0, 0, 0, 0x91011a349bfc96e4), (0, 0, 0, 0x3e1b9cbf1fe2e9f7)], [0xa7596158e98e3353, 0x3e1b9cbf1fe2e9f7]),
    ("4 ranks all_hubs(256)", 3, 96, 0, true, 48, [(0, 0, 0, 0x91011a349bfc96e4), (0, 0, 0, 0x3e1b9cbf1fe2e9f7)], [0xa7596158e98e3353, 0x3e1b9cbf1fe2e9f7]),
    ("4 ranks all_hubs(256)", 4, 0, 1, false, 0, [(0, 0, 0, 0x91011a349bfc96e4), (0, 0, 0, 0x3e1b9cbf1fe2e9f7)], [0x0dc2bac4392aed04, 0x470fa7067b820ae4]),
    ("4 ranks all_hubs(256)", 5, 0, 2, false, 0, [(0, 0, 0, 0x91011a349bfc96e4), (0, 0, 0, 0x3e1b9cbf1fe2e9f7)], [0xeacdd1ff73d95739, 0xc26925ee5957cc76]),
    ("4 ranks all_hubs(256)", 6, 32, 2, true, 16, [(1, 1, 14, 0xb59c24c8c6e1db00), (1, 1, 14, 0xee7bc1f0ce92543d)], [0x02caec4b19900447, 0xbdbe284418db9ed4]),
    ("6 ranks (256,64)", 1, 31, 0, true, 16, [(1, 1, 1, 0x27df46ede3a7b78d), (1, 1, 1, 0x0340284e04c3e91c)], [0xe93c8c9dbbbb4daa, 0x0340284e04c3e91c]),
    ("6 ranks (256,64)", 2, 61, 0, true, 32, [(4, 4, 4, 0xd8b1b1281ea21e9b), (4, 4, 4, 0x1d91399367b70980)], [0xa65ef2578eb2dafc, 0x1d91399367b70980]),
    ("6 ranks (256,64)", 3, 92, 0, true, 48, [(4, 4, 4, 0xd8b1b1281ea21e9b), (4, 4, 4, 0x1d91399367b70980)], [0xa65ef2578eb2dafc, 0x1d91399367b70980]),
    ("6 ranks (256,64)", 4, 0, 1, false, 0, [(0, 0, 0, 0x91011a349bfc96e4), (0, 0, 0, 0x3e1b9cbf1fe2e9f7)], [0xe7f33f0078848d6b, 0x4d5625974e47ff70]),
    ("6 ranks (256,64)", 5, 0, 2, false, 0, [(0, 0, 0, 0x91011a349bfc96e4), (0, 0, 0, 0x3e1b9cbf1fe2e9f7)], [0x69db11bdadbaaacf, 0x014d5fa1ea42c31e]),
    ("6 ranks (256,64)", 6, 31, 2, true, 16, [(4, 36, 321, 0x9edf1d2b38c8a3c7), (4, 36, 321, 0x1e6bea1da689cd34)], [0x3d301151331a30b1, 0x5d09892730055f69]),
    ("6 ranks none", 1, 32, 0, true, 16, [(1, 1, 1, 0x27df46ede3a7b78d), (1, 1, 1, 0x0340284e04c3e91c)], [0xe93c8c9dbbbb4daa, 0x0340284e04c3e91c]),
    ("6 ranks none", 2, 64, 0, true, 32, [(4, 4, 4, 0xd8b1b1281ea21e9b), (4, 4, 4, 0x1d91399367b70980)], [0xa65ef2578eb2dafc, 0x1d91399367b70980]),
    ("6 ranks none", 3, 96, 0, true, 48, [(4, 4, 4, 0xd8b1b1281ea21e9b), (4, 4, 4, 0x1d91399367b70980)], [0xa65ef2578eb2dafc, 0x1d91399367b70980]),
    ("6 ranks none", 4, 256, 0, true, 128, [(10, 10, 90, 0x5c0e723c64a1b35b), (84, 821, 19459, 0x8aa6a127eb518591)], [0xe7f33f0078848d6b, 0x4d5625974e47ff70]),
    ("6 ranks none", 5, 0, 1, false, 0, [(0, 0, 0, 0x91011a349bfc96e4), (0, 0, 0, 0x3e1b9cbf1fe2e9f7)], [0x34c42f3ab6047e8d, 0xfac75006f5f2dc41]),
    ("6 ranks none", 6, 32, 1, true, 16, [(4, 36, 321, 0x9edf1d2b38c8a3c7), (4, 36, 321, 0x1e6bea1da689cd34)], [0xa7967d3338fa1362, 0xcd949663f54374ee]),
    ("6 ranks all_hubs(256)", 1, 32, 0, true, 16, [(0, 0, 0, 0x91011a349bfc96e4), (0, 0, 0, 0x3e1b9cbf1fe2e9f7)], [0xa7596158e98e3353, 0x3e1b9cbf1fe2e9f7]),
    ("6 ranks all_hubs(256)", 2, 64, 0, true, 32, [(0, 0, 0, 0x91011a349bfc96e4), (0, 0, 0, 0x3e1b9cbf1fe2e9f7)], [0xa7596158e98e3353, 0x3e1b9cbf1fe2e9f7]),
    ("6 ranks all_hubs(256)", 3, 96, 0, true, 48, [(0, 0, 0, 0x91011a349bfc96e4), (0, 0, 0, 0x3e1b9cbf1fe2e9f7)], [0xa7596158e98e3353, 0x3e1b9cbf1fe2e9f7]),
    ("6 ranks all_hubs(256)", 4, 0, 1, false, 0, [(0, 0, 0, 0x91011a349bfc96e4), (0, 0, 0, 0x3e1b9cbf1fe2e9f7)], [0x0dc2bac4392aed04, 0x470fa7067b820ae4]),
    ("6 ranks all_hubs(256)", 5, 0, 2, false, 0, [(0, 0, 0, 0x91011a349bfc96e4), (0, 0, 0, 0x3e1b9cbf1fe2e9f7)], [0xeacdd1ff73d95739, 0xc26925ee5957cc76]),
    ("6 ranks all_hubs(256)", 6, 32, 2, true, 16, [(1, 1, 14, 0xb59c24c8c6e1db00), (1, 1, 14, 0xee7bc1f0ce92543d)], [0x02caec4b19900447, 0xbdbe284418db9ed4]),
];

#[test]
fn commit_schedule_outcomes_are_pinned() {
    let _pool = common::pool_lock();
    pool::set_workers(0);
    let mut got = Vec::new();
    for ranks in [4usize, 6] {
        for (name, th) in [
            ("(256,64)", Thresholds::new(256, 64)),
            ("none", Thresholds::none()),
            ("all_hubs(256)", Thresholds::all_hubs(256)),
        ] {
            let label: &'static str = Box::leak(format!("{ranks} ranks {name}").into_boxed_str());
            got.extend(pin_schedule(label, ranks, th));
        }
    }
    if got != PINNED {
        for (l, ep, en, c, d, len, r, f) in &got {
            let rep =
                |x: &(u64, u64, u64, u64)| format!("({}, {}, {}, {:#018x})", x.0, x.1, x.2, x.3);
            println!(
                "    ({l:?}, {ep}, {en}, {c}, {d}, {len}, [{}, {}], [{:#018x}, {:#018x}]),",
                rep(&r[0]),
                rep(&r[1]),
                f[0],
                f[1]
            );
        }
        panic!("commit outcomes diverge from the pinned table (actual rows above)");
    }
}
