//! A session's rank threads live as long as the session, no longer.
//!
//! `GraphSession::load` starts a 2x2 cluster's three resident rank
//! threads, every `run_root` reuses them, and dropping the session joins
//! them. Thirty-two load → five roots → drop cycles must never hold
//! more than those three threads beyond the process's own, and each drop
//! must give all three back: a detached worker per session would leak
//! three threads a cycle.
//!
//! One test in its own binary, so no other test's threads move the
//! count; skipped where `/proc/self/status` does not exist.

use std::time::{Duration, Instant};

use sunbfs_net::{FaultPlan, MeshShape};
use sunbfs_serve::{GraphSession, SessionConfig};

/// `Threads:` of this process, if the kernel reports it.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))?
        .trim()
        .parse()
        .ok()
}

/// The thread count once it has fallen to `want` (a joined thread may
/// still be counted for a moment after the join returns), or whatever
/// it reads after a second.
fn settled_threads(want: usize) -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let now = threads()?;
        if now <= want || Instant::now() > deadline {
            return Some(now);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn sessions_join_their_rank_threads_when_dropped() {
    let Some(start) = threads() else {
        eprintln!("skipped: /proc/self/status has no Threads");
        return;
    };
    let mut cfg = SessionConfig::small(8, 4);
    cfg.mesh = MeshShape::new(2, 2);
    let mut most = start;
    for cycle in 0..32 {
        let session = GraphSession::load(cfg, FaultPlan::none()).expect("clean load");
        most = most.max(threads().unwrap_or(0));
        for root in 0..5 {
            let traversal = session.run_root(root, 0, &mut |_| {});
            assert!(traversal.result.is_ok(), "cycle {cycle}, root {root}");
            most = most.max(threads().unwrap_or(0));
        }
        drop(session);
        assert_eq!(settled_threads(start), Some(start), "after cycle {cycle}");
    }
    assert!(
        most <= start + 3,
        "{most} threads at most, {start} at start"
    );
    assert_eq!(threads(), Some(start));
}
