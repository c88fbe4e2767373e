//! End-to-end checkpoint/resume through the driver: a rank killed at a
//! known iteration boundary costs one retry that resumes from the
//! checkpoint instead of re-running the completed iterations.
//!
//! Kept as a single-test file: every `tests/*.rs` file is its own
//! process, so mutating the environment here cannot race the other
//! integration suites.

use sunbfs::driver::{run_benchmark, RunConfig};

#[test]
fn panic_at_an_iteration_boundary_resumes_and_salvages_completed_iterations() {
    let mut cfg = RunConfig::small_test(9, 4);
    cfg.max_root_retries = 2;

    // Fault-free reference run: learn the iteration boundaries and the
    // ground-truth traversal statistics.
    std::env::remove_var("SUNBFS_FAULT_PLAN");
    let clean = run_benchmark(&cfg).expect("clean run");
    assert!(clean.validated);
    let iters = &clean.runs[0].iterations;
    assert!(
        iters.len() >= 3,
        "need a multi-iteration traversal, got {}",
        iters.len()
    );
    // Kill rank 2 just after iteration k completed (k = all but the
    // last two, so the retry still has work left to do). `end_op`
    // counts from the traversal's first collective and so does the
    // plan's index: the fault fires in root 0's traversal, the first
    // to reach it.
    let k = iters.len() - 2;
    let boundary = iters[k - 1].end_op;

    std::env::set_var("SUNBFS_FAULT_PLAN", format!("panic@2:{boundary}"));
    let report = run_benchmark(&cfg).expect("fault is absorbed by resume");
    std::env::remove_var("SUNBFS_FAULT_PLAN");

    assert!(report.validated, "resumed run must still validate");
    assert!(!report.faults.degraded());
    assert_eq!(report.faults.total_retries, 1);
    let outcome = &report.faults.outcomes[0];
    assert_eq!(outcome.attempts, 2);
    assert_eq!(
        outcome.iterations_salvaged, k as u32,
        "the retry must inherit exactly the {k} checkpointed iterations"
    );
    assert_eq!(report.recovery.iterations_salvaged, k as u64);
    assert!(
        report.faults.outcomes[1..].iter().all(|o| o.attempts == 1),
        "fire-once: the later roots run clean on the healed cluster"
    );
    assert!(
        report.recovery.checkpoints_taken > 0,
        "both attempts checkpoint every completed iteration"
    );

    // The resumed traversal is the same traversal: identical coverage.
    assert_eq!(
        report.runs[0].traversed_edges,
        clean.runs[0].traversed_edges
    );
    assert_eq!(
        report.runs[0].visited_vertices,
        clean.runs[0].visited_vertices
    );

    // And the salvage is visible in the JSON artifact.
    let js = report.to_json().render();
    assert!(
        js.contains(&format!("\"iterations_salvaged\":{k}")),
        "missing salvage count in {js}"
    );
    assert!(js.contains("\"checkpoints_taken\":"));
}
