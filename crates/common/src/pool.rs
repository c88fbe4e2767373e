//! Intra-rank worker pool for the hot kernels (the CPE analogue).
//!
//! The paper's within-node speed comes from the 64 CPEs of each core
//! group scanning frontiers and bucketing messages in parallel while
//! the MPE orchestrates. This module reproduces that layer for the
//! *host* execution of the simulation: a bounded, work-chunked pool
//! that the pull/push scans ([`crate::Bitmap`] word blocks) and the
//! PARADIS permutation route through.
//!
//! Design constraints, in priority order:
//!
//! 1. **Determinism.** Parallel runs must produce byte-identical
//!    parents/depths to the serial run. Work is split into contiguous
//!    index *chunks*; each chunk computes an owned result from a
//!    read-only snapshot, and the caller merges results **in chunk
//!    order**, reproducing the serial iteration order exactly. Whether
//!    a helper thread actually ran a chunk can never change the output.
//! 2. **No oversubscription.** Every simulated rank is already an OS
//!    thread (spawned per run or resident, in the cluster runtime). Helper
//!    threads draw from one *process-global* permit budget of
//!    `SUNBFS_WORKERS - 1`, so the whole simulated cluster never runs
//!    more than `SUNBFS_WORKERS` kernel threads at once. Acquisition
//!    is non-blocking: when permits are exhausted a rank simply scans
//!    inline, exactly like the serial path.
//! 3. **Serial is the special case, not a separate code path.** With
//!    `SUNBFS_WORKERS=1` (the default) [`run_ranges`] degenerates to a
//!    single inline call covering the whole index range — the same
//!    loop body the parallel path runs per chunk — so fault injection
//!    and checkpoint semantics are untouched.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Upper bound on chunks handed out per configured worker: more chunks
/// than workers gives the pool slack to balance uneven ranges, while
/// the cap keeps per-chunk merge overhead bounded.
const CHUNKS_PER_WORKER: u64 = 4;

/// Process-wide override installed by [`set_workers`]; 0 means "unset,
/// fall back to the `SUNBFS_WORKERS` environment variable".
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Helper threads currently running across *all* ranks; bounded by
/// `workers() - 1`.
static HELPERS_IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

fn env_workers() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("SUNBFS_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    })
}

/// The configured worker count: an explicit [`set_workers`] override if
/// present, else `SUNBFS_WORKERS` (read once per process), else 1.
pub fn workers() -> usize {
    match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => env_workers(),
        n => n,
    }
}

/// Override the worker count for this process, taking precedence over
/// `SUNBFS_WORKERS`. Passing 0 clears the override. Intended for tests
/// (e.g. the `tests/differential.rs` sweep) and embedding
/// applications; the override applies to pool calls that *start* after
/// it is set.
pub fn set_workers(n: usize) {
    WORKER_OVERRIDE.store(n, Ordering::Relaxed);
}

crate::json_record! {
    /// Per-call accounting of how a kernel's work was split and staffed —
    /// the raw material for the per-kernel worker-scaling stats surfaced
    /// in `IterationStats` / JSON schema v5.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct PoolStats {
        /// Pool invocations (one per kernel scan routed through the pool).
        pub invocations: u64,
        /// Total chunks the invocations were split into (equals
        /// `invocations` when running serially).
        pub chunks: u64,
        /// Helper threads dispatched across the invocations; 0 means every
        /// chunk ran inline on the rank thread (the serial path).
        pub helpers: u64,
    }
}

impl PoolStats {
    /// Accumulate another call's stats into this one.
    pub fn merge(&mut self, other: &PoolStats) {
        self.invocations += other.invocations;
        self.chunks += other.chunks;
        self.helpers += other.helpers;
    }
}

/// Try to reserve up to `want` helper permits from the global budget.
/// Never blocks: returns however many permits were free (possibly 0).
fn acquire_helpers(want: usize) -> usize {
    if want == 0 {
        return 0;
    }
    let budget = workers().saturating_sub(1);
    loop {
        let in_flight = HELPERS_IN_FLIGHT.load(Ordering::Acquire);
        let take = want.min(budget.saturating_sub(in_flight));
        if take == 0 {
            return 0;
        }
        if HELPERS_IN_FLIGHT
            .compare_exchange(
                in_flight,
                in_flight + take,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            return take;
        }
    }
}

fn release_helpers(n: usize) {
    if n > 0 {
        HELPERS_IN_FLIGHT.fetch_sub(n, Ordering::AcqRel);
    }
}

/// Split `[0, len)` into contiguous chunks, run `f(chunk_idx, range)`
/// for each (in parallel when workers and permits allow), and return
/// the per-chunk results **in chunk order** plus the call's
/// [`PoolStats`].
///
/// `min_grain` is the smallest range worth a chunk of its own; ranges
/// shorter than one grain always run as a single inline call. With
/// `workers() == 1` the function makes exactly one call `f(0, 0..len)`
/// on the calling thread — the serial path.
///
/// Determinism contract: `f` must not mutate shared state (it receives
/// only its chunk index and range; captured borrows should be
/// read-only snapshots), and callers must merge the returned results
/// in vector order. Under those rules the merged outcome is identical
/// for every worker count and every chunk schedule.
pub fn run_ranges<T, F>(len: u64, min_grain: u64, f: F) -> (Vec<T>, PoolStats)
where
    T: Send,
    F: Fn(usize, Range<u64>) -> T + Sync,
{
    let min_grain = min_grain.max(1);
    let w = workers();
    if w <= 1 || len <= min_grain {
        let out = vec![f(0, 0..len)];
        return (
            out,
            PoolStats {
                invocations: 1,
                chunks: 1,
                helpers: 0,
            },
        );
    }

    let n_chunks = len
        .div_ceil(min_grain)
        .min(w as u64 * CHUNKS_PER_WORKER)
        .max(1) as usize;
    let helpers = acquire_helpers((w - 1).min(n_chunks - 1));

    // Per-chunk result slots. Mutex<Option<T>> rather than OnceLock so
    // `T: Send` suffices (each slot is written exactly once, uncontended).
    let slots: Vec<std::sync::Mutex<Option<T>>> =
        (0..n_chunks).map(|_| std::sync::Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let chunk_range = |c: usize| -> Range<u64> {
        let c = c as u64;
        let n = n_chunks as u64;
        (c * len / n)..((c + 1) * len / n)
    };
    let work = |_worker: usize| loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= n_chunks {
            break;
        }
        let value = f(c, chunk_range(c));
        let prev = slots[c].lock().expect("slot poisoned").replace(value);
        debug_assert!(prev.is_none(), "chunk {c} claimed twice");
    };

    if helpers == 0 {
        work(0);
    } else {
        std::thread::scope(|s| {
            for h in 0..helpers {
                let work = &work;
                s.spawn(move || work(h + 1));
            }
            work(0);
        });
        release_helpers(helpers);
    }

    let out = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every chunk ran")
        })
        .collect();
    (
        out,
        PoolStats {
            invocations: 1,
            chunks: n_chunks as u64,
            helpers: helpers as u64,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that touch the global override.
    fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = LOCK.lock().unwrap();
        set_workers(n);
        let r = f();
        set_workers(0);
        r
    }

    #[test]
    fn serial_is_one_inline_chunk() {
        with_workers(1, || {
            let (out, stats) = run_ranges(1000, 8, |c, r| (c, r));
            assert_eq!(out, vec![(0, 0..1000)]);
            assert_eq!(stats.chunks, 1);
            assert_eq!(stats.helpers, 0);
        });
    }

    #[test]
    fn chunks_tile_the_range_in_order() {
        with_workers(4, || {
            let (out, stats) = run_ranges(1003, 8, |c, r| (c, r));
            assert!(stats.chunks > 1);
            let mut expect_start = 0u64;
            for (i, (c, r)) in out.iter().enumerate() {
                assert_eq!(*c, i);
                assert_eq!(r.start, expect_start);
                expect_start = r.end;
            }
            assert_eq!(expect_start, 1003);
        });
    }

    #[test]
    fn short_ranges_run_inline() {
        with_workers(8, || {
            let (out, stats) = run_ranges(5, 64, |_, r| r);
            assert_eq!(out, vec![0..5]);
            assert_eq!(stats.helpers, 0);
        });
    }

    #[test]
    fn results_match_serial_for_every_worker_count() {
        let serial: u64 = (0..10_000u64).map(|i| i * i % 7919).sum();
        for w in [1usize, 2, 3, 4, 7, 16] {
            let got: u64 = with_workers(w, || {
                let (parts, _) =
                    run_ranges(10_000, 16, |_, r| r.map(|i| i * i % 7919).sum::<u64>());
                parts.into_iter().sum()
            });
            assert_eq!(got, serial, "workers={w}");
        }
    }

    #[test]
    fn permit_budget_is_bounded_and_restored() {
        with_workers(4, || {
            let before = HELPERS_IN_FLIGHT.load(Ordering::SeqCst);
            let (_, stats) = run_ranges(1 << 16, 8, |_, r| r.end - r.start);
            assert!(stats.helpers <= 3);
            assert_eq!(HELPERS_IN_FLIGHT.load(Ordering::SeqCst), before);
        });
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        with_workers(2, || {
            let (outer, _) = run_ranges(64, 4, |_, r| {
                let (inner, _) = run_ranges(32, 4, |_, q| q.end - q.start);
                (r.end - r.start) + inner.into_iter().sum::<u64>()
            });
            let total: u64 = outer.into_iter().sum();
            assert!(total > 0);
        });
    }

    #[test]
    fn pool_stats_merge_sums() {
        let mut a = PoolStats {
            invocations: 1,
            chunks: 4,
            helpers: 2,
        };
        a.merge(&PoolStats {
            invocations: 2,
            chunks: 3,
            helpers: 1,
        });
        assert_eq!(
            a,
            PoolStats {
                invocations: 3,
                chunks: 7,
                helpers: 3,
            }
        );
    }
}
