//! Batch-vs-sequential equivalence: across mesh shapes and threshold
//! regimes, every root served by the bit-parallel multi-source batch
//! and the same roots through the sequential single-source engine's
//! per-root loop must each pass the harness's oracle — Graph 500
//! validation, the host reference BFS's depths and its census — so the
//! batch reports exactly the sequential depths. With committed inserts
//! still in the delta overlay, every served tree must be the union
//! graph's.

mod common;

use common::{Commit, Scenario};
use sunbfs::part::Thresholds;

/// One graph (seed 42) served in one batch of `ServeConfig`'s default
/// width and through the per-root loop.
fn batch_and_per_root(scale: u32, mesh: (usize, usize), thresholds: Thresholds, roots: usize) {
    let per_root = Scenario {
        roots,
        ..Scenario::pinned(scale, mesh, thresholds, 42)
    };
    common::run(&[64, 0].map(|width| Scenario { width, ..per_root }));
}

#[test]
fn batch_matches_sequential_on_the_standard_mesh() {
    batch_and_per_root(9, (2, 2), Thresholds::new(256, 64), 6);
}

#[test]
fn batch_matches_sequential_on_a_wide_mesh() {
    batch_and_per_root(9, (3, 3), Thresholds::new(128, 32), 5);
}

#[test]
fn batch_matches_sequential_with_no_hubs() {
    batch_and_per_root(8, (2, 2), Thresholds::none(), 4);
}

#[test]
fn batch_matches_sequential_with_all_hubs() {
    batch_and_per_root(8, (2, 3), Thresholds::all_hubs(1 << 20), 4);
}

/// The repair path: a committed, un-compacted update batch is resident,
/// so every rider's arrays are materialised, repaired and counted — one
/// batch each of width 1, 2 and 64.
#[test]
fn batches_over_a_resident_delta_serve_the_union_graph() {
    let standard = Scenario::pinned(9, (2, 2), Thresholds::new(256, 64), 42);
    common::run(&[1, 2, 64].map(|width| Scenario {
        seed: 7,
        width,
        roots: width,
        updates: &[Commit::Quiet],
        ..standard
    }));
}
