//! Direction-heuristic equivalence, lane goldens and wide-kernel
//! correctness.
//!
//! Six contracts (docs/KERNELS.md):
//!
//! 1. `DirectionHeuristic::Fixed` reproduces the pre-vectorization
//!    engine exactly — parents and the per-iteration direction schedule
//!    are pinned to a golden fingerprint captured from the scalar
//!    fixed-threshold engine.
//! 2. `DirectionHeuristic::Measured` (the default) stays Graph 500
//!    valid with canonical depths on every mesh shape, and its parents
//!    are byte-identical across worker counts within a mesh.
//! 3. The wide-word primitives (`sunbfs::common::bitmap::wide`) agree
//!    with the scalar loops they replaced on arbitrary word blocks,
//!    including ragged (non-multiple-of-4-word) tails.
//! 4. Both frontier lanes are pinned byte for byte: single-source
//!    `Measured` and batch widths 1, 8 and 64 under `Fixed` and
//!    `Measured` reproduce golden fingerprints of parents, depths, the
//!    direction trace, simulated seconds and collective volume.
//! 5. A width-1 batch *is* the single-source traversal: same parents,
//!    same per-iteration directions, same scanned edges, on every
//!    mesh × threshold × heuristic corner.
//! 6. The vanilla schedule (`sub_iteration: false`, the Figure 15
//!    baseline: one direction per iteration) is pinned under `Fixed`
//!    and `Measured` — parents and the direction trace.

mod common;

use std::borrow::Cow;

use common::{fingerprint, fnv1a, trace, Outcome, Scenario};
use proptest::prelude::*;
use sunbfs::common::bitmap::wide;
use sunbfs::common::MachineConfig;
use sunbfs::core::validate::levels_from_parents;
use sunbfs::core::{
    BatchOutput, BfsOutput, DirectionHeuristic, EngineConfig, EngineError, EngineScratch,
    UNREACHED_DEPTH,
};
use sunbfs::net::{Cluster, CommStats, MeshShape, RankCtx, RankFailure};
use sunbfs::part::{build_1p5d, RankPartition, Thresholds};
use sunbfs::rmat::{generate_chunk, RmatParams};

use DirectionHeuristic::{Fixed, Measured};

const SCALE: u32 = 10;
const SEED: u64 = 42;

/// The SCALE-10, seed-42 graph on `mesh` under `thresholds` and
/// `heuristic`, serving its `roots` lowest connected vertices: the
/// roots every golden here was captured at.
fn scenario(
    mesh: (usize, usize),
    thresholds: Thresholds,
    heuristic: DirectionHeuristic,
    roots: usize,
) -> Scenario {
    Scenario {
        heuristic,
        roots,
        lowest_roots: true,
        ..Scenario::pinned(SCALE, mesh, thresholds, SEED)
    }
}

/// Every rank's output of a session traversal that lost no rank.
fn all_ok<T>(outs: Vec<Result<Result<T, EngineError>, RankFailure>>) -> Vec<T> {
    let ok = |out: Result<Result<T, _>, _>| out.expect("no rank lost").expect("terminates");
    outs.into_iter().map(ok).collect()
}

/// Contract 1: the `fixed` heuristic is the pre-v10 engine, bit for
/// bit. The fingerprint and direction trace below were captured from
/// the scalar fixed-threshold engine at this exact configuration
/// (SCALE 10, seed 42, 2x2 mesh, thresholds 128/32); the vectorized
/// scans must keep reproducing them. The harness validates the tree
/// and checks that fixed mode reports no edge masses, so fixed-mode
/// reports stay shape-compatible with v9 ones.
#[test]
fn fixed_heuristic_matches_pre_vectorization_golden() {
    let fixed = scenario((2, 2), Thresholds::new(128, 32), Fixed, 1);
    let want = Outcome {
        parents: 0xc5fd30036b33b73b,
        trace: "pppppp.PPPPPP.ppPPPP.ppppPP".into(),
    };
    assert_eq!(
        common::run(&[fixed])[0],
        [want],
        "parent and schedule golden"
    );
}

/// Contract 6: the vanilla schedule. `EngineConfig::baseline()` turns
/// sub-iteration direction optimization off, so every iteration takes
/// one direction for all six components: the global density threshold
/// decides it under `Fixed`, the summed measured masses under
/// `Measured`. Pinned at the contract-1 configuration (SCALE 10, seed
/// 42, 2x2 mesh, thresholds 128/32).
#[test]
fn vanilla_schedule_matches_its_golden() {
    let rows = [
        (Fixed, 0xc5fd30036b33b73b, "pppppp.PPPPPP.PPPPPP.pppppp"),
        (Measured, 0xc5fd30036b33b73b, "pppppp.PPPPPP.PPPPPP.pppppp"),
    ];
    let baseline = EngineConfig::baseline();
    let scenarios = rows.map(|(heuristic, ..)| Scenario {
        sub_iteration: baseline.sub_iteration,
        segmenting: baseline.segmenting,
        ..scenario((2, 2), Thresholds::new(128, 32), heuristic, 1)
    });
    for ((heuristic, parents, trace), got) in rows.into_iter().zip(common::run(&scenarios)) {
        let want = Outcome {
            parents,
            trace: trace.into(),
        };
        assert_eq!(got, [want], "{heuristic:?}: parent and schedule golden");
    }
}

/// Contract 2: the measured heuristic (the default) is Graph 500 valid
/// on both mesh shapes with the reference BFS's depths on each (so
/// depths agree across meshes), surfaces its edge masses, and serves
/// parents and direction trace byte-identical across worker counts
/// {1, 4} within a mesh.
#[test]
fn measured_heuristic_validates_across_meshes_and_workers() {
    // `pinned` runs the default engine, whose heuristic is `Measured`.
    let meshes =
        [(2, 2), (2, 3)].map(|mesh| Scenario::pinned(SCALE, mesh, Thresholds::new(128, 32), SEED));
    let scenarios = meshes.map(|s| [1, 4].map(|workers| Scenario { workers, ..s }));
    common::run(scenarios.as_flattened());
}

/// What contract 4 pins of one traversal: everything a lane refactor
/// could move. Fingerprints fold all ranks in rank order.
#[derive(Debug, PartialEq, Eq)]
struct LanePrint {
    /// [`fingerprint`] of the per-rank parent slots.
    parents: u64,
    /// [`fnv1a`] of the per-rank depth slots (batch only; 0 for single).
    depths: u64,
    /// [`trace`] of the first rank's iterations.
    trace: Cow<'static, str>,
    /// [`fingerprint`] of every rank's `sim_seconds.to_bits()`.
    sim: u64,
    /// Collective calls, summed over ranks.
    collectives: u64,
    /// Collective bytes, summed over ranks.
    bytes: u64,
}

fn lane_print(
    parents: Vec<u64>,
    depths: Vec<u32>,
    trace: String,
    sims: Vec<f64>,
    comms: Vec<&CommStats>,
) -> LanePrint {
    let ops = || comms.iter().flat_map(|c| c.entries().map(|(_, op)| op));
    LanePrint {
        parents: fingerprint(&parents),
        depths: match depths.is_empty() {
            true => 0,
            false => fnv1a(depths.iter().flat_map(|d| d.to_le_bytes())),
        },
        trace: Cow::Owned(trace),
        sim: fingerprint(&sims.iter().map(|s| s.to_bits()).collect::<Vec<u64>>()),
        collectives: ops().map(|op| op.count).sum(),
        bytes: ops().map(|op| op.bytes).sum(),
    }
}

fn single_print(outs: &[BfsOutput]) -> LanePrint {
    lane_print(
        outs.iter()
            .flat_map(|o| o.parents.iter().copied())
            .collect(),
        Vec::new(),
        trace(outs[0].stats.iterations.iter().map(|it| it.directions)),
        outs.iter().map(|o| o.stats.sim_seconds).collect(),
        outs.iter().map(|o| &o.stats.comm).collect(),
    )
}

fn batch_print(outs: &[BatchOutput]) -> LanePrint {
    lane_print(
        outs.iter()
            .flat_map(|o| o.parents.iter().copied())
            .collect(),
        outs.iter().flat_map(|o| o.depths.iter().copied()).collect(),
        trace(outs[0].stats.iterations.iter().map(|it| it.directions)),
        outs.iter().map(|o| o.stats.sim_seconds).collect(),
        outs.iter().map(|o| &o.stats.comm).collect(),
    )
}

/// Contract 4: both lanes, byte for byte. Captured at the last commit
/// that carried two engines (`engine.rs` 1-bit, `batch.rs` 64-bit word)
/// at SCALE 10, seed 42, thresholds 128/32; rows are single-source
/// `Measured`, then batch widths 1, 8, 64 under `Fixed`, then under
/// `Measured`, per mesh.
///
/// Each row runs twice. Its own loop builds the partition on a fresh
/// cluster and calls the engine's entry point, so the traversal starts
/// its rank clocks where the build left them — where the `sim` column
/// was captured. A session's traversal starts them at zero, so the same
/// row served through `GraphSession::run_single` / `run_batch` must
/// match every column but `sim`: the session path is the engine path on
/// both lanes.
#[test]
fn lane_goldens_pin_single_source_and_batch_bytes() {
    let thresholds = Thresholds::new(128, 32);
    let roots = scenario((2, 2), thresholds, Measured, 64).roots();
    let (mut got, mut served) = (Vec::new(), Vec::new());
    for mesh in [(2, 2), (2, 3)] {
        let [fixed, measured] =
            [Fixed, Measured].map(|h| scenario(mesh, thresholds, h, roots.len()).load());
        // Batch widths per heuristic, in row order; 0 is the single source.
        let rows = [
            (&measured, &[0][..]),
            (&fixed, &[1, 8, 64]),
            (&measured, &[1, 8, 64]),
        ];
        for (session, widths) in rows {
            let cfg = session.config().engine;
            for &width in widths {
                if width == 0 {
                    got.push(single_print(&own_loop(mesh, thresholds, |ctx, part| {
                        EngineScratch::default().run_bfs(ctx, part, roots[0], &cfg, None)
                    })));
                    served.push(single_print(&all_ok(session.run_single(roots[0]))));
                } else {
                    let batch = &roots[..width];
                    got.push(batch_print(&own_loop(mesh, thresholds, |ctx, part| {
                        EngineScratch::default().run_batch(ctx, part, batch, &cfg)
                    })));
                    served.push(batch_print(&all_ok(session.run_batch(batch))));
                }
            }
        }
    }
    for (i, (got, want)) in got.iter().zip(LANE_GOLDENS).enumerate() {
        assert_eq!(got, want, "lane golden row {i}");
    }
    assert_eq!(got.len(), LANE_GOLDENS.len());
    for (i, (mut through_session, want)) in served.into_iter().zip(LANE_GOLDENS).enumerate() {
        through_session.sim = want.sim;
        assert_eq!(
            &through_session, want,
            "lane golden row {i} through a session"
        );
    }
}

/// Contract 4's own loop: build the SCALE-10 partition on a fresh
/// `mesh` cluster and run `lane` over it on every rank.
fn own_loop<T: Send>(
    mesh: (usize, usize),
    thresholds: Thresholds,
    lane: impl Fn(&mut RankCtx, &RankPartition) -> Result<T, EngineError> + Sync,
) -> Vec<T> {
    let params = RmatParams::graph500(SCALE, SEED);
    let (n, p) = (params.num_vertices(), (mesh.0 * mesh.1) as u64);
    let cluster = Cluster::new(MeshShape::new(mesh.0, mesh.1), MachineConfig::new_sunway());
    cluster.run(|ctx| {
        let chunk = generate_chunk(&params, ctx.rank() as u64, p);
        let part = build_1p5d(ctx, n, &chunk, thresholds);
        lane(ctx, &part).expect("terminates")
    })
}

const LANE_GOLDENS: &[LanePrint] = &[
    LanePrint {
        parents: 0xc5fd30036b33b73b,
        depths: 0x0000000000000000,
        trace: Cow::Borrowed("pppppp.PPPPPP.ppPpPP.pppppp"),
        sim: 0x22359f24ea283a3d,
        collectives: 172,
        bytes: 11904,
    },
    LanePrint {
        parents: 0xc5fd30036b33b73b,
        depths: 0xcf4700da8ff65a77,
        trace: Cow::Borrowed("pppppp.PPPPPP.ppPPPP.ppppPP"),
        sim: 0x9fa74529d6c44b3d,
        collectives: 176,
        bytes: 162616,
    },
    LanePrint {
        parents: 0xf51ea78654837abf,
        depths: 0xfa40462327912c63,
        trace: Cow::Borrowed("pppppp.PPPppp.PPPPPP.PPPPPP.ppPPPP.ppppPP"),
        sim: 0x613265d0881e4e6d,
        collectives: 260,
        bytes: 367720,
    },
    LanePrint {
        parents: 0x36177a0f763e3d9b,
        depths: 0x9d8a61694221e611,
        trace: Cow::Borrowed("pppppp.PPpppp.PPPPPP.PPPPPP.ppPPPP.ppppPP"),
        sim: 0xd690027a3dbefe65,
        collectives: 260,
        bytes: 709184,
    },
    LanePrint {
        parents: 0xc5fd30036b33b73b,
        depths: 0xcf4700da8ff65a77,
        trace: Cow::Borrowed("pppppp.PPPPPP.ppPpPP.pppppp"),
        sim: 0x43f745c3ed9d533d,
        collectives: 172,
        bytes: 156144,
    },
    LanePrint {
        parents: 0xf51ea78654837abf,
        depths: 0xfa40462327912c63,
        trace: Cow::Borrowed("pppppp.PPpPpp.PPPPPP.PpPPPP.pppppp.ppppPP"),
        sim: 0x3542ebf912e89e8d,
        collectives: 260,
        bytes: 370264,
    },
    LanePrint {
        parents: 0x36177a0f763e3d9b,
        depths: 0x9d8a61694221e611,
        trace: Cow::Borrowed("pppppp.pPpppp.PPPPPP.ppPpPP.pppPpp.pppppP"),
        sim: 0xae987280e12dc1f5,
        collectives: 256,
        bytes: 771840,
    },
    LanePrint {
        parents: 0x6836faf66ecd7527,
        depths: 0x0000000000000000,
        trace: Cow::Borrowed("pppppp.PPPPPP.ppPpPP.pppppp"),
        sim: 0xbdb2cc20d562d929,
        collectives: 258,
        bytes: 16800,
    },
    LanePrint {
        parents: 0x6836faf66ecd7527,
        depths: 0xcf4700da8ff65a77,
        trace: Cow::Borrowed("pppppp.PPPPPP.ppPPPP.ppppPP"),
        sim: 0x0010e34e1b474209,
        collectives: 264,
        bytes: 234760,
    },
    LanePrint {
        parents: 0xd4171068aa434b62,
        depths: 0xfa40462327912c63,
        trace: Cow::Borrowed("pppppp.PPPppp.PPPPPP.PPPPPP.ppPPPP.ppppPP"),
        sim: 0xda40a046c6856bfd,
        collectives: 390,
        bytes: 494760,
    },
    LanePrint {
        parents: 0x8f8b4f62bda2cd99,
        depths: 0x9d8a61694221e611,
        trace: Cow::Borrowed("pppppp.PPpppp.PPPPPP.PPPPPP.ppPPPP.ppppPP"),
        sim: 0xbf1b4c3cee8b6915,
        collectives: 390,
        bytes: 998424,
    },
    LanePrint {
        parents: 0x6836faf66ecd7527,
        depths: 0xcf4700da8ff65a77,
        trace: Cow::Borrowed("pppppp.PPPPPP.ppPpPP.pppppp"),
        sim: 0xdaaa722568dac9a9,
        collectives: 258,
        bytes: 228608,
    },
    LanePrint {
        parents: 0xd4171068aa434b62,
        depths: 0xfa40462327912c63,
        trace: Cow::Borrowed("pppppp.PPpPpp.PPPPPP.PpPPPP.pppppp.ppppPP"),
        sim: 0xe760a03059267d61,
        collectives: 390,
        bytes: 497784,
    },
    LanePrint {
        parents: 0x8f8b4f62bda2cd99,
        depths: 0x9d8a61694221e611,
        trace: Cow::Borrowed("pppppp.pPpppp.PPPPPP.ppPpPP.pppPpp.pppppP"),
        sim: 0xa74da315631d2e35,
        collectives: 384,
        bytes: 1061560,
    },
];

/// Contract 5: a width-1 batch is the single-source traversal. Over
/// five mesh × threshold corners (including the no-hub and all-hub
/// degenerations and the 1×1 mesh) × both heuristics × six roots, the
/// two lanes of one session agree on every per-iteration direction
/// vector and every rank's per-iteration scanned edges, the batch's
/// depths are the levels of the single-source tree, and the parent
/// slots are equal — except where the lanes' message sizes reorder an
/// OCS bucket: the on-chip sort's buffer capacity is per message byte,
/// so under the heaviest L2L pull traffic (no hubs, `Fixed`, roots 2
/// and 3) 16-byte pairs and 24-byte triples flush in a different order
/// and first-writer-wins keeps a different — equally valid — parent.
#[test]
fn width_one_batch_is_the_single_source_traversal() {
    const NO_HUBS: usize = 3;
    let corners = [
        ((2, 2), Thresholds::new(128, 32)),
        ((2, 3), Thresholds::new(256, 64)),
        ((1, 1), Thresholds::new(128, 32)),
        ((2, 2), Thresholds::none()),
        ((2, 3), Thresholds::all_hubs(1 << 20)),
    ];
    let roots = scenario(corners[0].0, corners[0].1, Fixed, 6).roots();
    for (corner, (mesh, thresholds)) in corners.into_iter().enumerate() {
        for heuristic in [Fixed, Measured] {
            let session = scenario(mesh, thresholds, heuristic, roots.len()).load();
            for &root in &roots {
                let label = format!("{mesh:?} {thresholds:?} {heuristic:?} root {root}");
                let single = all_ok(session.run_single(root));
                let batch = all_ok(session.run_batch(&[root]));
                for (single, batch) in single.iter().zip(&batch) {
                    let single_iters = single.stats.iterations.iter();
                    let batch_iters = batch.stats.iterations.iter();
                    assert!(
                        single_iters
                            .map(|it| (it.directions, it.scanned_edges))
                            .eq(batch_iters.map(|it| (it.directions, it.scanned_edges))),
                        "{label}: per-iteration directions / scanned edges differ"
                    );
                }
                let single_parents: Vec<u64> = single
                    .iter()
                    .flat_map(|o| o.parents.iter().copied())
                    .collect();
                let batch_parents: Vec<u64> = batch
                    .iter()
                    .flat_map(|o| o.parents.iter().copied())
                    .collect();
                let depths: Vec<u64> = batch
                    .iter()
                    .flat_map(|o| o.depths.iter())
                    .map(|&d| match d {
                        UNREACHED_DEPTH => u64::MAX,
                        d => u64::from(d),
                    })
                    .collect();
                let levels = |parents| levels_from_parents(root, parents).ok();
                assert!(
                    levels(&single_parents) == Some(depths.clone()),
                    "{label}: batch depths are not the single-source levels"
                );
                let reordered = corner == NO_HUBS && heuristic == Fixed && (root == 2 || root == 3);
                assert_eq!(
                    single_parents != batch_parents,
                    reordered,
                    "{label}: parent slots (expected to differ: {reordered})"
                );
                assert!(
                    levels(&batch_parents) == Some(depths),
                    "{label}: batch depths are not the batch tree's levels"
                );
            }
        }
    }
}

/// Contract 3 (deterministic half): the block-chunked scans handle
/// every non-multiple-of-4 word count. Regression test for the ragged
/// tails — all-ones words at lengths 1..=9 must be fully visited and
/// fully counted by every primitive.
#[test]
fn wide_primitives_cover_ragged_tails_exhaustively() {
    for len in 1usize..=9 {
        let ones = vec![u64::MAX; len];
        let zeros = vec![0u64; len];
        assert_eq!(wide::count_ones(&ones), len as u64 * 64, "len={len}");

        let mut visited = Vec::new();
        wide::for_each_nonzero_word(&ones, 0, len, |wi, w| visited.push((wi, w)));
        assert_eq!(visited.len(), len, "every word visited at len={len}");

        let mut bits = 0u64;
        wide::for_each_one(&ones, len as u64 * 64, 0, len, |_| bits += 1);
        assert_eq!(bits, len as u64 * 64, "every bit visited at len={len}");

        let mut diff = Vec::new();
        wide::for_each_and_not(&ones, &zeros, 0, len, |wi, w| diff.push((wi, w)));
        assert_eq!(diff.len(), len, "every difference word at len={len}");

        let mut dst = zeros.clone();
        wide::or_and_not_assign(&mut dst, &ones, &zeros);
        assert_eq!(dst, ones, "fused discovery advance at len={len}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 3: every wide primitive agrees with the obvious scalar
    /// loop on random word blocks. Lengths 0..11 cover the empty slice,
    /// sub-block slices, exact blocks, and ragged tails.
    #[test]
    fn wide_counts_and_assigns_match_scalar(
        a in prop::collection::vec(any::<u64>(), 0..11),
        seed in any::<u64>(),
    ) {
        // Pair `a` with a derived block of equal length so the slices
        // always match (the shim has no same-length pair strategy).
        let b: Vec<u64> = a
            .iter()
            .enumerate()
            .map(|(i, &w)| w.rotate_left((i % 61) as u32) ^ seed)
            .collect();

        let scalar_count: u64 = a.iter().map(|w| w.count_ones() as u64).sum();
        prop_assert_eq!(wide::count_ones(&a), scalar_count);

        let mut or = a.clone();
        wide::or_assign(&mut or, &b);
        let scalar_or: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x | y).collect();
        prop_assert_eq!(or, scalar_or);

        let mut an = a.clone();
        wide::and_not_assign(&mut an, &b);
        let scalar_an: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & !y).collect();
        prop_assert_eq!(an, scalar_an);

        let mut fused = a.clone();
        wide::or_and_not_assign(&mut fused, &b, &a);
        let scalar_fused: Vec<u64> = a.iter().zip(&b).map(|(d, x)| d | (x & !d)).collect();
        prop_assert_eq!(fused, scalar_fused);
    }

    /// The iteration primitives visit exactly the scalar-loop index
    /// sequence — ascending, windowed, slack-masked — on random blocks
    /// and random (possibly inverted or out-of-range) windows.
    #[test]
    fn wide_iteration_matches_scalar_loops(
        words in prop::collection::vec(any::<u64>(), 0..11),
        seed in any::<u64>(),
        (raw_start, raw_end) in (any::<u64>(), any::<u64>()),
    ) {
        let other: Vec<u64> = words.iter().map(|&w| w.wrapping_mul(seed | 1)).collect();
        let nbits = words.len() as u64 * 64;
        let bits = nbits.saturating_sub(seed % 7); // ragged bit length
        let start = if nbits == 0 { 0 } else { raw_start % (nbits + 3) };
        let end = if nbits == 0 { 0 } else { raw_end % (nbits + 3) };

        let mut got = Vec::new();
        wide::for_each_nonzero_word(&words, start as usize, end as usize, |i, w| got.push((i, w)));
        let hi = (end as usize).min(words.len());
        let lo = (start as usize).min(hi);
        let expect: Vec<(usize, u64)> =
            (lo..hi).filter(|&i| words[i] != 0).map(|i| (i, words[i])).collect();
        prop_assert_eq!(got, expect);

        let mut got = Vec::new();
        wide::for_each_one(&words, bits, start as usize, end as usize, |i| got.push(i));
        let expect: Vec<u64> = (lo as u64 * 64..(hi as u64 * 64).min(bits))
            .filter(|&i| words[(i / 64) as usize] >> (i % 64) & 1 == 1)
            .collect();
        prop_assert_eq!(got, expect);

        let mut got = Vec::new();
        wide::for_each_and_not(&words, &other, start as usize, end as usize, |i, w| {
            got.push((i, w))
        });
        let expect: Vec<(usize, u64)> = (lo..hi)
            .filter_map(|i| {
                let n = words[i] & !other[i];
                (n != 0).then_some((i, n))
            })
            .collect();
        prop_assert_eq!(got, expect);
    }
}
