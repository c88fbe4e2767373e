//! Acceptance: at SCALE 14 on 16 ranks, one bit-parallel batch of 64
//! roots must serve at least 2x the roots per simulated second of the
//! sequential single-source loop over the same roots on the same
//! resident partition.
//!
//! Both sides are timed the way the engine reports them — the max over
//! ranks of each traversal's simulated seconds — and the sequential
//! side sums its 64 traversals. The measured ratio is far above the
//! floor (the batch pays one traversal's fixed costs for 64 riders), so
//! the 2.0 assertion has ample slack against cost-model tweaks.

use sunbfs::core::EngineError;
use sunbfs::driver::pick_roots;
use sunbfs::net::{FaultPlan, RankFailure};
use sunbfs::serve::{GraphSession, SessionConfig};

/// Max over ranks of a traversal's simulated seconds; every rank must
/// have finished.
fn sim_seconds<T>(
    outs: Vec<Result<Result<T, EngineError>, RankFailure>>,
    secs: impl Fn(&T) -> f64,
) -> f64 {
    outs.into_iter()
        .map(|out| secs(&out.expect("no rank lost").expect("terminates")))
        .fold(0.0, f64::max)
}

#[test]
fn batched_serving_doubles_sequential_roots_per_sec_at_scale_14() {
    let cfg = SessionConfig::small(14, 16);
    let roots = pick_roots(&cfg.rmat(), 64).expect("scale-14 graph has connected roots");
    assert_eq!(roots.len(), 64, "one full batch");
    let session = GraphSession::load(cfg, FaultPlan::none()).expect("session loads");

    let batch = sim_seconds(session.run_batch(&roots), |o| o.stats.sim_seconds);
    let sequential: f64 = roots
        .iter()
        .map(|&root| sim_seconds(session.run_single(root), |o| o.stats.sim_seconds))
        .sum();
    let ratio = sequential / batch;
    println!(
        "64 roots: batch {:.3} ms sim, sequential {:.3} ms sim, {ratio:.1}x",
        batch * 1e3,
        sequential * 1e3
    );
    assert!(
        ratio >= 2.0,
        "batched path must at least double sequential roots/sec, got {ratio:.2}x"
    );
}
