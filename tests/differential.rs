//! The differential sweep: scenarios of the harness in `tests/common`
//! drawn from seeds over every dimension it has — mesh, threshold
//! regime, heuristic, sub-iteration, segmenting, worker count, path
//! (the per-root loop or batches of width 1, 8 and 64), store, update
//! schedule (none, one quiet overlay batch, one promoting fan, or both
//! in turn) and fault (none, straggler, bitflip or a rank panic, on
//! either path).
//!
//! A scenario is a pure function of its seed. The sweep runs `CORPUS`
//! first, then the generated seeds; every scenario is printed before it
//! runs, so a failure shows the scenario and its seed, and adding that
//! seed to `CORPUS` keeps it in every later sweep.

mod common;

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;

use sunbfs::common::SplitMix64;
use sunbfs::core::DirectionHeuristic;
use sunbfs::part::Thresholds;

use common::{Commit, Fault, Scenario};

/// Regression corpus, run before the generated seeds. 48, 67 and 82
/// each caught pool chunks merged out of order, which only the worker
/// twin can see; 179 is the straggler on the per-root loop that no
/// generated seed draws.
const CORPUS: &[u64] = &[48, 67, 82, 179];

/// Generated seeds, run after the corpus.
const GENERATED: std::ops::Range<u64> = 1..25;

const MESHES: [(usize, usize); 6] = [(1, 1), (1, 6), (6, 1), (2, 2), (2, 3), (3, 3)];
const HEURISTICS: [DirectionHeuristic; 2] =
    [DirectionHeuristic::Fixed, DirectionHeuristic::Measured];
const WORKERS: [usize; 4] = [1, 2, 4, 7];
/// Batch width of a `BfsService` path; 0 is the per-root loop.
const WIDTHS: [usize; 4] = [0, 1, 8, 64];
const UPDATES: [&[Commit]; 4] = [
    &[],
    &[Commit::Quiet],
    &[Commit::Fan],
    &[Commit::Quiet, Commit::Fan],
];
const FAULTS: [Fault; 4] = [Fault::None, Fault::Straggler, Fault::Bitflip, Fault::Panic];

fn regimes() -> [Thresholds; 6] {
    [
        Thresholds::new(128, 32),
        Thresholds::new(256, 64),
        Thresholds::new(256, 16),
        Thresholds::none(),
        Thresholds::heavy_only(64),
        Thresholds::all_hubs(1 << 20),
    ]
}

/// Scenario `seed` of the sweep, a pure function of the seed.
fn generated(seed: u64) -> Scenario {
    let mut rng = SplitMix64::new(seed);
    let mut pick = |len: usize| rng.next_below(len as u64) as usize;
    let mesh = MESHES[pick(6)];
    let thresholds = regimes()[pick(6)];
    // Half the scenarios run serially; the others staff the pool,
    // which splits a scan only past 256 vertices per rank.
    let (workers, scale) = match pick(2) {
        0 => (1, 8 + pick(3) as u32),
        _ => {
            let split = (257 * mesh.0 * mesh.1).next_power_of_two();
            (WORKERS[1 + pick(3)], split.trailing_zeros().max(9))
        }
    };
    let width = WIDTHS[pick(4)];
    let mut updates = UPDATES[pick(4)];
    if thresholds == Thresholds::none() && updates.contains(&Commit::Fan) {
        updates = &[Commit::Quiet]; // no class to promote into
    }
    let fault = FAULTS[pick(4)];
    let graph_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    Scenario {
        seed,
        heuristic: HEURISTICS[pick(2)],
        sub_iteration: pick(2) == 1,
        segmenting: pick(2) == 1,
        workers,
        width,
        roots: width.max(4),
        store: pick(2) == 1,
        updates,
        fault,
        ..Scenario::pinned(scale, mesh, thresholds, graph_seed)
    }
}

/// Each dimension's value in `s` and how many values it has, for the
/// coverage assert. A fault counts once per path it lands on: the
/// per-root loop or a batch.
fn values(s: &Scenario) -> [(String, usize); 10] {
    let path = if s.width == 0 { "root" } else { "batch" };
    [
        (format!("{:?}", s.mesh), MESHES.len()),
        (format!("{:?}", s.thresholds), regimes().len()),
        (format!("{:?}", s.heuristic), HEURISTICS.len()),
        (format!("{}", s.sub_iteration), 2),
        (format!("{}", s.segmenting), 2),
        (format!("{}", s.workers), WORKERS.len()),
        (format!("{}", s.width), WIDTHS.len()),
        (format!("{}", s.store), 2),
        (format!("{:?}", s.updates), UPDATES.len()),
        (format!("{:?} per {path}", s.fault), 2 * FAULTS.len()),
    ]
}

/// One `#[test]` for the whole sweep: the scenarios run in order.
#[test]
fn every_path_matches_the_oracle() {
    let seeds = CORPUS.iter().copied().chain(GENERATED);
    let scenarios: Vec<Scenario> = seeds.map(generated).collect();
    common::run(&scenarios);
    let mut seen: [BTreeSet<String>; 10] = Default::default();
    for s in &scenarios {
        for (seen, (value, _)) in seen.iter_mut().zip(values(s)) {
            seen.insert(value);
        }
    }
    let sizes = values(&scenarios[0]).map(|(_, size)| size);
    for (seen, size) in seen.iter().zip(sizes) {
        assert_eq!(seen.len(), size, "a dimension missed a value: {seen:?}");
    }
    let split = common::SPLIT.load(Ordering::Relaxed);
    assert!(split, "no scenario split a scan into pool chunks");
}
