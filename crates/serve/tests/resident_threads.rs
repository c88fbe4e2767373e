//! A session's rank threads live as long as the session, no longer.
//!
//! `GraphSession::load` starts a 2x2 cluster's three resident rank
//! threads, every `run_root` and `run_batch` reuses them, and dropping
//! the session joins them. Thirty-two load → five roots → two 64-wide
//! batches → drop cycles must never hold more than those three threads
//! beyond the process's own, and each drop must give all three back: a
//! detached worker per session would leak three threads a cycle, and a
//! batch that spawned its own would show three more.
//!
//! A watcher thread reads the count throughout, so a thread that lives
//! only as long as one run is seen as well. One test in its own binary,
//! so no other test's threads move the count; skipped where
//! `/proc/self/status` does not exist.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
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
    if threads().is_none() {
        eprintln!("skipped: /proc/self/status has no Threads");
        return;
    }
    // A watcher reads the count all along, so threads that live only
    // while one run lasts are seen too; it is running before `start` is
    // read, so it counts in `start`.
    let (stop, most) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicUsize::new(0)),
    );
    let watcher = {
        let (stop, most) = (Arc::clone(&stop), Arc::clone(&most));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                most.fetch_max(threads().unwrap_or(0), Ordering::Relaxed);
                std::thread::yield_now();
            }
        })
    };
    let start = threads().expect("read once already");
    let mut cfg = SessionConfig::small(8, 4);
    cfg.mesh = MeshShape::new(2, 2);
    for cycle in 0..32 {
        let session = GraphSession::load(cfg, FaultPlan::none()).expect("clean load");
        for root in 0..5 {
            let traversal = session.run_root(root, 0, &mut |_| {});
            assert!(traversal.result.is_ok(), "cycle {cycle}, root {root}");
        }
        let n = session.num_vertices();
        for batch in 0..2 {
            let roots: Vec<u64> = (0..64).map(|i| (batch * 64 + i * 7) % n).collect();
            for rank in session.run_batch(&roots) {
                let output = rank.expect("no rank failure");
                assert!(output.is_ok(), "cycle {cycle}, batch {batch}");
            }
        }
        drop(session);
        assert_eq!(settled_threads(start), Some(start), "after cycle {cycle}");
    }
    stop.store(true, Ordering::Relaxed);
    watcher.join().expect("the watcher only reads");
    let most = most.load(Ordering::Relaxed);
    assert!(
        most <= start + 3,
        "{most} threads at most, {start} at start"
    );
    assert_eq!(settled_threads(start - 1), Some(start - 1));
}
