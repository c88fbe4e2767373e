//! Acceptance: at SCALE 14 on 16 ranks, routing 64 roots through the
//! bit-parallel batch path must serve at least 2x the roots/sec
//! (simulated) of the sequential per-root loop over the same resident
//! partition, and the comparison must be recorded in the metrics JSON
//! `serve` section.
//!
//! The measured ratio is far above the floor (the batch pays one
//! traversal's fixed costs for 64 riders), so the 2.0 assertion has
//! ample slack against cost-model tweaks.

use sunbfs::driver::{run_benchmark, RunConfig};
use sunbfs::net::MeshShape;

#[test]
fn batched_serving_doubles_sequential_roots_per_sec_at_scale_14() {
    let cfg = RunConfig {
        scale: 14,
        mesh: MeshShape::near_square(16),
        num_roots: 64,
        serve_batch: true,
        serve_baseline: true,
        ..RunConfig::default()
    };
    let report = run_benchmark(&cfg).expect("serve benchmark must pass");
    assert_eq!(report.runs.len(), 64, "all 64 roots served");

    let serve = report.serve.as_ref().expect("serve section present");
    assert_eq!(serve.served, 64);
    assert_eq!(serve.quarantined, 0);
    // 64 roots fill exactly one full batch.
    assert_eq!(serve.batches.len(), 1);
    assert_eq!(serve.occupancy_histogram[6], 1, "one 64-wide batch");

    let speedup = serve
        .speedup()
        .expect("baseline measured, speedup computable");
    assert!(
        speedup >= 2.0,
        "batched path must at least double sequential roots/sec, got {speedup:.2}x \
         ({:.1} vs {:?} roots/sec)",
        serve.batch_roots_per_sec(),
        serve.sequential_roots_per_sec(),
    );

    // The comparison is part of the exported metrics JSON.
    let js = report.to_json().render();
    assert!(js.contains("\"schema_version\":11"));
    for key in [
        "\"serve\":",
        "\"batch_roots_per_sec\":",
        "\"sequential_roots_per_sec\":",
        "\"speedup\":",
        "\"occupancy_histogram\":",
    ] {
        assert!(js.contains(key), "metrics JSON missing {key}");
    }
}
