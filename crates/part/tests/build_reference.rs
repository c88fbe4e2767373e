//! Byte-identity reference for the partition build path.
//!
//! `generate_chunk` + `build_1p5d` are pinned per rank — an FNV-1a
//! fingerprint over `owned_degrees`, the hub table and the `offsets` +
//! `targets` of all nine CSRs, the rank's `prep.*` collective calls and
//! bytes, and the simulated build seconds as bits — at SCALE 12 on 2x2
//! and 2x3 meshes for the standard thresholds and both degenerate
//! corners (1D: no hubs; 2D: every connected vertex a hub). A host-time
//! optimisation of the generator, the CSR construction or the routing
//! loop must leave every row as it is; regenerate only for a deliberate
//! model or layout change (the failure message prints the rows).

use sunbfs_common::{Edge, MachineConfig};
use sunbfs_net::{fnv1a, Cluster, FaultPlan, MeshShape, RankCtx};
use sunbfs_part::{build_1p5d, Csr, RankPartition, Thresholds};
use sunbfs_rmat::{generate_chunk, RmatParams};

/// What one rank's build is pinned to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RankPin {
    /// FNV-1a over the partition's arrays.
    fingerprint: u64,
    /// `prep.*` collective calls on this rank.
    prep_calls: u64,
    /// Bytes this rank contributed to them.
    prep_bytes: u64,
    /// Simulated seconds from before generation to after the build,
    /// `f64::to_bits` (what a session's `build_sim_seconds` is the
    /// rank maximum of).
    sim_bits: u64,
}

fn fingerprint(part: &RankPartition) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    let mut feed = |slice: &[u64]| {
        words.push(slice.len() as u64);
        words.extend_from_slice(slice);
    };
    let degrees: Vec<u64> = part.owned_degrees.iter().map(|&d| d as u64).collect();
    feed(&degrees);
    let hubs: Vec<u64> = part
        .directory
        .hubs()
        .iter()
        .flat_map(|&(v, d)| [v, d as u64])
        .collect();
    feed(&hubs);
    feed(&[part.directory.num_e() as u64]);
    let csrs: [&Csr; 9] = [
        &part.eh_by_src,
        &part.eh_by_dst,
        &part.el_by_hub,
        &part.el_by_local,
        &part.h2l_by_hub,
        &part.h2l_by_local,
        &part.lh_by_hub,
        &part.lh_by_local,
        &part.l2l,
    ];
    for csr in csrs {
        feed(&[csr.key_base()]);
        feed(csr.offsets());
        feed(csr.targets());
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// How a rank hands its generated chunk to the build.
#[derive(Clone, Copy, Debug)]
enum Handover {
    /// `build_1p5d(ctx, n, &chunk, t)`: the caller keeps the chunk.
    Borrowed,
    /// The chunk is given away with the call.
    Owned,
}

fn build(
    ctx: &mut RankCtx,
    n: u64,
    chunk: Vec<Edge>,
    thresholds: Thresholds,
    handover: Handover,
) -> RankPartition {
    match handover {
        Handover::Borrowed => build_1p5d(ctx, n, &chunk, thresholds),
        Handover::Owned => build_1p5d(ctx, n, chunk, thresholds),
    }
}

fn build_pins(
    rows: usize,
    cols: usize,
    thresholds: Thresholds,
    handover: Handover,
) -> Vec<RankPin> {
    let params = RmatParams::graph500(12, 1);
    let n = params.num_vertices();
    let p = (rows * cols) as u64;
    let cluster = Cluster::new(MeshShape::new(rows, cols), MachineConfig::new_sunway());
    cluster.run(|ctx| {
        let t0 = ctx.now();
        let chunk = generate_chunk(&params, ctx.rank() as u64, p);
        let part = build(ctx, n, chunk, thresholds, handover);
        let sim_bits = (ctx.now() - t0).as_secs().to_bits();
        let prep = ctx.comm_stats().total_with_prefix("world/prep.");
        RankPin {
            fingerprint: fingerprint(&part),
            prep_calls: prep.count,
            prep_bytes: prep.bytes,
            sim_bits,
        }
    })
}

fn pin(fingerprint: u64, prep_calls: u64, prep_bytes: u64, sim_bits: u64) -> RankPin {
    RankPin {
        fingerprint,
        prep_calls,
        prep_bytes,
        sim_bits,
    }
}

/// The pinned builds: label, mesh, thresholds, one row per rank.
fn reference() -> Vec<(&'static str, usize, usize, Thresholds, Vec<RankPin>)> {
    vec![
        (
            "2x2 256/64",
            2,
            2,
            Thresholds::new(256, 64),
            vec![
                pin(0xf5f0fb6839c8caed, 7, 712176, 0x3f30d4c10f62ca29),
                pin(0x5b6c0b82336cb7ba, 7, 713104, 0x3f30d4c10f62ca29),
                pin(0x6cd45d78d63cdc8a, 7, 713376, 0x3f30d4c10f62ca29),
                pin(0x949f64cf8542f11c, 7, 713440, 0x3f30d4c10f62ca29),
            ],
        ),
        (
            "2x3 256/64",
            2,
            3,
            Thresholds::new(256, 64),
            vec![
                pin(0xf189c4fa08469f5a, 7, 475856, 0x3f29913c966235a7),
                pin(0x04107235b32499ef, 7, 474800, 0x3f29913c966235a7),
                pin(0xb0acaa27937d9a09, 7, 474624, 0x3f29913c966235a7),
                pin(0xd41e53c89bee7a0b, 7, 475968, 0x3f29913c966235a7),
                pin(0xa805fa09b30b3074, 7, 474928, 0x3f29913c966235a7),
                pin(0x90eea618f85eef8c, 7, 475920, 0x3f29913c966235a7),
            ],
        ),
        (
            "2x2 1D",
            2,
            2,
            Thresholds::none(),
            vec![
                pin(0xd99891f9bd9f32c8, 7, 784320, 0x3f324fdef3948480),
                pin(0xcb25b9d47949acd8, 7, 784768, 0x3f324fdef3948480),
                pin(0x862203155e2fd52a, 7, 784480, 0x3f324fdef3948480),
                pin(0x995667ebb90c7666, 7, 784480, 0x3f324fdef3948480),
            ],
        ),
        (
            "2x3 1D",
            2,
            3,
            Thresholds::none(),
            vec![
                pin(0x67633a0854ee34e3, 7, 522976, 0x3f2b796e68bc854e),
                pin(0x2960974823f00b02, 7, 523024, 0x3f2b796e68bc854e),
                pin(0xefb3f1ab637bbccb, 7, 523088, 0x3f2b796e68bc854e),
                pin(0xc25d7ad48a7e4fa3, 7, 522784, 0x3f2b796e68bc854e),
                pin(0x5ce7cb5cf8b8988b, 7, 523280, 0x3f2b796e68bc854e),
                pin(0x7fb4e2e6778a5eb5, 7, 522896, 0x3f2b796e68bc854e),
            ],
        ),
        (
            "2x2 all hubs",
            2,
            2,
            Thresholds::all_hubs(256),
            vec![
                pin(0x1a1cb15936ff2f70, 7, 797568, 0x3f332b8ef8a38ebe),
                pin(0x46c57ab234bdccf4, 7, 798128, 0x3f332b8ef8a38ebe),
                pin(0x3cb385a8647bcbf0, 7, 797824, 0x3f332b8ef8a38ebe),
                pin(0xaa67c63267a00be7, 7, 797728, 0x3f332b8ef8a38ebe),
            ],
        ),
        (
            "2x3 all hubs",
            2,
            3,
            Thresholds::all_hubs(256),
            vec![
                pin(0x80a072ad051ba340, 7, 531792, 0x3f2d5e21f61bae59),
                pin(0x0f6f424fdbad3380, 7, 531840, 0x3f2d5e21f61bae59),
                pin(0xc5d8fe5223fa4317, 7, 532080, 0x3f2d5e21f61bae59),
                pin(0x7fad80532e70c5eb, 7, 531728, 0x3f2d5e21f61bae59),
                pin(0x93886b573cb594e8, 7, 532208, 0x3f2d5e21f61bae59),
                pin(0xe23888013b7da79b, 7, 531600, 0x3f2d5e21f61bae59),
            ],
        ),
    ]
}

#[test]
fn every_pinned_build_is_byte_identical() {
    let mut moved = Vec::new();
    for (label, rows, cols, thresholds, want) in reference() {
        let got = build_pins(rows, cols, thresholds, Handover::Borrowed);
        if got != want {
            let rendered: Vec<String> = got
                .iter()
                .map(|r| {
                    format!(
                        "    pin({:#018x}, {}, {}, {:#018x}),",
                        r.fingerprint, r.prep_calls, r.prep_bytes, r.sim_bits
                    )
                })
                .collect();
            moved.push(format!("{label}: rows now\n{}", rendered.join("\n")));
        }
    }
    assert!(moved.is_empty(), "the build moved.\n{}", moved.join("\n"));
}

/// A build that is given its chunk equals one that borrows it, in every
/// pinned configuration: arrays, `prep.*` traffic and simulated time.
#[test]
fn an_owned_chunk_builds_what_a_borrowed_chunk_builds() {
    for (label, rows, cols, thresholds, want) in reference() {
        let owned = build_pins(rows, cols, thresholds, Handover::Owned);
        assert_eq!(owned, want, "{label}: owned chunk");
        assert_eq!(
            owned,
            build_pins(rows, cols, thresholds, Handover::Borrowed),
            "{label}"
        );
    }
}

/// The hub-degree gather (`prep.allgather`, collective 1 of every
/// build) ships `(vertex, degree)` pairs. A corruption aimed at a rank
/// that owns a hub — so its share of the gather is not empty — is
/// applied, caught by the frame, healed by one retransmit, and every
/// rank builds the fault-free partition.
#[test]
fn a_corrupted_hub_degree_gather_is_healed() {
    let params = RmatParams::graph500(12, 1);
    let (n, thresholds) = (params.num_vertices(), Thresholds::new(256, 64));
    let mesh = MeshShape::new(2, 2);
    // Per rank: the partition's fingerprint and the owner of every hub.
    let build = |cluster: &Cluster| -> Vec<(u64, Vec<usize>)> {
        cluster.run(|ctx| {
            let chunk = generate_chunk(&params, ctx.rank() as u64, 4);
            let part = build_1p5d(ctx, n, &chunk, thresholds);
            let hubs = part.directory.hubs();
            let owners = hubs.iter().map(|&(v, _)| part.dist.owner(v)).collect();
            (fingerprint(&part), owners)
        })
    };
    let clean = build(&Cluster::new(mesh, MachineConfig::new_sunway()));
    let fingerprints =
        |ranks: &[(u64, Vec<usize>)]| -> Vec<u64> { ranks.iter().map(|(f, _)| *f).collect() };
    let target = *clean[0].1.iter().max().expect("the graph has hubs");
    for mode in ["bitflip", "truncate"] {
        let label = format!("corrupt@{target}:1:{mode}");
        let plan = FaultPlan::from_events(FaultPlan::parse(&label).expect("a valid plan"));
        let cluster = Cluster::with_faults(mesh, MachineConfig::new_sunway(), plan);
        let healed = build(&cluster);
        let log = cluster.fault_log();
        assert_eq!(log.len(), 1, "{label}");
        assert_eq!(log[0].op, "prep.allgather", "{label}");
        assert!(
            log[0].applied,
            "{label}: the gathered pairs must be corruptible"
        );
        assert_eq!(cluster.retransmit_log().len(), 1, "{label}");
        assert_eq!(fingerprints(&healed), fingerprints(&clean), "{label}");
    }
}
