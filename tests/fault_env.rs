//! The `SUNBFS_FAULT_PLAN` environment override, exercised end to end.
//!
//! Kept as a single-test file: every `tests/*.rs` file is its own
//! process, so mutating the environment here cannot race the other
//! integration suites.

use sunbfs::driver::{run_benchmark, DriverError, RunConfig};

#[test]
fn env_var_overrides_the_config_campaign_and_rejects_garbage() {
    let mut cfg = RunConfig::small_test(9, 4);
    cfg.max_root_retries = 1;

    // A panic on rank 2 at the very first collective — of root 0's
    // traversal: the campaign is armed on the resident session, so op 0
    // is never a partition-build (`prep.*`) collective. One retry heals.
    std::env::set_var("SUNBFS_FAULT_PLAN", "panic@2:0");
    let report = run_benchmark(&cfg).expect("env-planned fault is absorbed");
    assert_eq!(report.faults.injected.len(), 1);
    assert_eq!(report.faults.injected[0].rank, 2);
    assert!(
        !report.faults.injected[0].op.starts_with("prep."),
        "campaigns address traversals, got op {:?}",
        report.faults.injected[0].op
    );
    assert_eq!(report.faults.total_retries, 1);
    assert!(!report.faults.degraded());
    assert!(report.validated);

    // Garbage in the variable is a typed driver error, not a panic.
    std::env::set_var("SUNBFS_FAULT_PLAN", "panic@nope");
    match run_benchmark(&cfg) {
        Err(DriverError::InvalidFaultPlan(msg)) => {
            assert!(!msg.is_empty());
        }
        other => panic!("expected InvalidFaultPlan, got {other:?}"),
    }

    // Unset: back to the (empty) config campaign.
    std::env::remove_var("SUNBFS_FAULT_PLAN");
    let report = run_benchmark(&cfg).expect("clean run");
    assert!(report.faults.injected.is_empty());
    assert!(report.validated);
}
