//! Delivery reference for `RankCtx::alltoallv`.
//!
//! Every member of a scope gets, from every member in scope order,
//! exactly the buffer that member put in its send set for it — the
//! clone-based definition: receiver `d`'s part from sender `s` is a copy
//! of `s`'s `send[d]`. The test checks that over World, Row and Col
//! scopes on 2x2 and 2x3 meshes, fault-free and with one deposit
//! corrupted (bit flip or truncation) and healed by a retransmit. Each
//! rank's `CommStats` must equal the bytes its send sets hold, and the
//! simulated clocks every rank reaches after every collective are
//! pinned per case, so a change in how parts travel cannot move the
//! cost model.

use sunbfs_common::MachineConfig;
use sunbfs_net::{
    fnv1a, Cluster, CommStats, CorruptMode, FaultEvent, FaultKind, FaultPlan, MeshShape, RankCtx,
    Scope,
};

/// Collectives per program run: three `alltoallv`s of two element
/// types with a barrier between the second and third.
const ROUNDS: u64 = 3;

/// What sender `s` ships to receiver `d` in round `k`: zero to three
/// elements, so some destinations are empty.
fn part(k: u64, s: usize, d: usize) -> Vec<(u64, u64)> {
    let len = (s as u64 + 2 * d as u64 + k) % 4;
    (0..len)
        .map(|i| (k * 1000 + s as u64 * 10 + d as u64, i))
        .collect()
}

/// The scope members of `rank`, in scope position order.
fn members(ctx: &RankCtx, scope: Scope) -> Vec<usize> {
    let topo = ctx.topology();
    let (rows, cols) = (topo.shape().rows, topo.shape().cols);
    match scope {
        Scope::World => (0..rows * cols).collect(),
        Scope::Row => (0..cols).map(|c| topo.rank_at(ctx.row(), c)).collect(),
        Scope::Col => (0..rows).map(|r| topo.rank_at(r, ctx.col())).collect(),
    }
}

/// What one rank received, per round and sender (the `u64` round
/// widened to pairs with a zero second field).
type Received = Vec<Vec<Vec<(u64, u64)>>>;

/// One rank's view of a run: what it received, its counters, and its
/// clock after every collective.
type RankRun = (Received, CommStats, Vec<u64>);

fn program(ctx: &mut RankCtx, scope: Scope) -> RankRun {
    let me = ctx.rank();
    let members = members(ctx, scope);
    let mut received = Vec::new();
    let mut clocks = Vec::new();
    for k in 0..ROUNDS {
        let send: Vec<Vec<(u64, u64)>> = members.iter().map(|&d| part(k, me, d)).collect();
        let got = if k == 1 {
            // A flat element type: the first field only.
            let send = send
                .into_iter()
                .map(|v| v.into_iter().map(|(a, _)| a).collect())
                .collect();
            let got: Vec<Vec<u64>> = ctx.alltoallv(scope, "ref.flat", send);
            got.into_iter()
                .map(|v| v.into_iter().map(|a| (a, 0)).collect())
                .collect()
        } else {
            ctx.alltoallv(scope, "ref.pairs", send)
        };
        received.push(got);
        clocks.push(ctx.now().as_secs().to_bits());
        if k == 1 {
            ctx.barrier(scope);
            clocks.push(ctx.now().as_secs().to_bits());
        }
    }
    (received, ctx.take_comm_stats(), clocks)
}

/// The clone-based reference for one rank: every sender's part for it,
/// and the counters its own send sets account for.
fn reference(ctx: &RankCtx, scope: Scope) -> (Received, CommStats) {
    let me = ctx.rank();
    let members = members(ctx, scope);
    let mut stats = CommStats::new();
    let received = (0..ROUNDS)
        .map(|k| {
            let (op, item) = if k == 1 {
                ("ref.flat", 8)
            } else {
                ("ref.pairs", 16)
            };
            let sent: usize = members.iter().map(|&d| part(k, me, d).len()).sum();
            stats.record(scope, op, (sent * item) as u64);
            if k == 1 {
                stats.record(scope, "barrier", 0);
            }
            members
                .iter()
                .map(|&s| {
                    let p = part(k, s, me);
                    if k == 1 {
                        p.into_iter().map(|(a, _)| (a, 0)).collect()
                    } else {
                        p
                    }
                })
                .collect()
        })
        .collect();
    (received, stats)
}

/// The faults a case runs under: none, or one corruption of the last
/// rank's second `alltoallv` (op index 1, a non-empty send set).
fn plans(ranks: usize) -> [(&'static str, FaultPlan); 3] {
    let corrupt = |mode| {
        FaultPlan::from_events(vec![FaultEvent {
            rank: ranks - 1,
            op_index: 1,
            kind: FaultKind::Corrupt { mode },
        }])
    };
    [
        ("clean", FaultPlan::none()),
        ("bitflip", corrupt(CorruptMode::BitFlip)),
        ("truncate", corrupt(CorruptMode::Truncate)),
    ]
}

/// FNV-1a over every rank's clock bits, in rank order.
fn clock_digest(runs: &[RankRun]) -> u64 {
    let bytes: Vec<u8> = runs
        .iter()
        .flat_map(|(_, _, clocks)| clocks.iter().flat_map(|c| c.to_le_bytes()))
        .collect();
    fnv1a(&bytes)
}

/// Pinned clock digests: mesh, scope, plan label, digest.
const CLOCKS: [((usize, usize), Scope, &str, u64); 18] = [
    ((2, 2), Scope::World, "clean", 0xa53778c7f40393e5),
    ((2, 2), Scope::World, "bitflip", 0xa96306a88478e665),
    ((2, 2), Scope::World, "truncate", 0xa96306a88478e665),
    ((2, 2), Scope::Row, "clean", 0xa26b66f19f72fcb1),
    ((2, 2), Scope::Row, "bitflip", 0xbc0faca4f0e85e5d),
    ((2, 2), Scope::Row, "truncate", 0xbc0faca4f0e85e5d),
    ((2, 2), Scope::Col, "clean", 0xaa46bf996e04b049),
    ((2, 2), Scope::Col, "bitflip", 0xe776f7767cf5e05d),
    ((2, 2), Scope::Col, "truncate", 0xe776f7767cf5e05d),
    ((2, 3), Scope::World, "clean", 0xec0d585b7335c525),
    ((2, 3), Scope::World, "bitflip", 0xddb1b5fc96d80879),
    ((2, 3), Scope::World, "truncate", 0xddb1b5fc96d80879),
    ((2, 3), Scope::Row, "clean", 0xeddbba2950757036),
    ((2, 3), Scope::Row, "bitflip", 0x0519b2aca287d1c2),
    ((2, 3), Scope::Row, "truncate", 0x0519b2aca287d1c2),
    ((2, 3), Scope::Col, "clean", 0xcdc268179ca8a80d),
    ((2, 3), Scope::Col, "bitflip", 0x9ed829ae36693ac1),
    ((2, 3), Scope::Col, "truncate", 0x9ed829ae36693ac1),
];

#[test]
fn alltoallv_delivers_what_a_clone_of_each_send_set_delivers() {
    let (mut moved, mut rows_now) = (false, Vec::new());
    for ((rows, cols), scope, label, want_clocks) in CLOCKS {
        let mesh = MeshShape::new(rows, cols);
        let plan = plans(rows * cols)
            .into_iter()
            .find(|(l, _)| *l == label)
            .expect("a known plan")
            .1;
        let faulty = !plan.is_empty();
        let cluster = Cluster::with_faults(mesh, MachineConfig::new_sunway(), plan);
        let runs = cluster.run(|ctx| {
            let want = reference(ctx, scope);
            (program(ctx, scope), want)
        });
        let case = format!("{rows}x{cols} {scope:?} {label}");
        for (rank, (got, (want_parts, want_stats))) in runs.iter().enumerate() {
            assert_eq!(&got.0, want_parts, "{case}: rank {rank} parts");
            assert_eq!(&got.1, want_stats, "{case}: rank {rank} counters");
        }
        if faulty {
            let log = cluster.fault_log();
            assert_eq!(log.len(), 1, "{case}");
            assert!(log[0].applied, "{case}: the deposit must be corruptible");
            let retrans: Vec<_> = cluster
                .retransmit_log()
                .iter()
                .map(|r| (r.from, r.op_index, r.attempt))
                .collect();
            assert_eq!(retrans, vec![(rows * cols - 1, 1, 1)], "{case}");
        }
        let runs: Vec<RankRun> = runs.into_iter().map(|(got, _)| got).collect();
        let digest = clock_digest(&runs);
        moved |= digest != want_clocks;
        rows_now.push(format!(
            "    (({rows}, {cols}), Scope::{scope:?}, \"{label}\", {digest:#018x}),"
        ));
    }
    assert!(
        !moved,
        "simulated clocks moved; rows now\n{}",
        rows_now.join("\n")
    );
}
