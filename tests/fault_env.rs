//! The `SUNBFS_FAULT_PLAN` environment override, exercised end to end.
//!
//! Every `tests/*.rs` file is its own process, so mutating the
//! environment here cannot race the other integration suites; the tests
//! of this file take [`ENV`] so they cannot race each other.

use std::sync::{Mutex, MutexGuard, PoisonError};

use sunbfs::driver::{run_benchmark, DriverError, RunConfig};

static ENV: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn env_var_overrides_the_config_campaign_and_rejects_garbage() {
    let _env = env_lock();
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

/// A plan the 2x2 mesh could only misread is refused before the load:
/// a straggler delay that is negative or not a number, and an event on
/// a rank the mesh does not have (its panic would never fire, yet it
/// would stop every run at its collective).
#[test]
fn plans_that_cannot_act_as_written_are_refused() {
    let _env = env_lock();
    let cfg = RunConfig::small_test(9, 4);
    for (plan, needle) in [
        ("straggle@0:0:-1", "finite seconds >= 0"),
        ("straggle@0:0:NaN", "finite seconds >= 0"),
        ("panic@9:0", "outside the 4-rank mesh"),
        ("straggle@3:0:0.001; corrupt@4:1:bitflip", "rank 4"),
    ] {
        std::env::set_var("SUNBFS_FAULT_PLAN", plan);
        let err = run_benchmark(&cfg).expect_err(plan);
        assert!(
            matches!(&err, DriverError::InvalidFaultPlan(msg) if msg.contains(needle)),
            "{plan}: {err:?}"
        );
        assert!(err.to_string().starts_with("invalid SUNBFS_FAULT_PLAN: "));
    }
    std::env::remove_var("SUNBFS_FAULT_PLAN");
}
