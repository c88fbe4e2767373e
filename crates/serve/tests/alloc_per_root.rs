//! A warmed session allocates no large buffer a root or a batch could
//! have reused.
//!
//! A 2x2 session at SCALE 12 is warmed with 8 roots, then 32 more
//! `run_root`s are counted; the same again with 64-wide `run_batch`es.
//! The counting allocator tallies allocations of at least 64 KiB and
//! `realloc`s that grow a block to at least 64 KiB. The scan message
//! buffers live in the session's per-rank engine scratch, so after the
//! warm-up no scan grows a message list (zero such `realloc`s), and the
//! large allocations left per root and per batch are made at their
//! final size, such as the batch's result slots. A single-source message list at SCALE 12
//! stays under 64 KiB, so the root path's growth is also counted from
//! 4 KiB: a root whose scans grew fresh lists made about 22 of those.
//!
//! It also counts every allocator call (`alloc`, `alloc_zeroed`,
//! `realloc`). A warmed root made 3,130 of them while each collective
//! keyed its accounting by `String`, cloned, diffed and merged the rank's
//! maps per root, copied every volume row to every member and allocated
//! its cost tallies; with static keys, maps handed over and shared rows
//! it makes 1,977, and a warmed 64-wide batch 5,357 → 3,896. What is
//! left is the collectives' payload vectors, the OCS buckets and the
//! engine's per-level buffers.
//!
//! One test in its own binary, so no other test moves the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sunbfs_net::{FaultPlan, MeshShape};
use sunbfs_serve::{GraphSession, SessionConfig};

/// Blocks this large are what a resident buffer should have saved.
const LARGE: usize = 64 << 10;

/// Where the root path's growth is counted from.
const SMALL: usize = 4 << 10;

/// Growth `realloc`s to at least [`SMALL`] one warmed root may make:
/// measured at 3.4 (21.8 when every scan grew a fresh list).
const MAX_SMALL_GROWS_PER_ROOT: f64 = 4.0;

/// Allocator calls one warmed root may make: measured at 1,976.2 to
/// 1,977.0, debug and release, plus a 2.5 % margin (the count moves by
/// a call or two between runs).
const MAX_CALLS_PER_ROOT: f64 = 2_025.0;

/// Allocator calls one warmed 64-wide batch may make: measured at
/// 3,895.6 on every run, plus the same margin in calls.
const MAX_CALLS_PER_BATCH: f64 = 3_945.0;

/// Large allocations one warmed root may make, as measured: none, its
/// bitmaps and result slots are smaller.
const MAX_LARGE_ALLOCS_PER_ROOT: f64 = 0.0;

/// Large allocations one warmed 64-wide batch may make, as measured;
/// each is allocated at its final size.
const MAX_LARGE_ALLOCS_PER_BATCH: f64 = 21.0;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);
static LARGE_GROWS: AtomicU64 = AtomicU64::new(0);
static SMALL_GROWS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting large blocks on the way through.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain relaxed atomics
// that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` contract is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        if new_size > layout.size() {
            if new_size >= SMALL {
                SMALL_GROWS.fetch_add(1, Ordering::Relaxed);
            }
            if new_size >= LARGE {
                LARGE_GROWS.fetch_add(1, Ordering::Relaxed);
            }
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `[allocator calls, large allocations, large growth reallocs, small
/// growth reallocs]` that `f` makes.
fn count(f: impl FnOnce()) -> [u64; 4] {
    let counters = [&CALLS, &LARGE_ALLOCS, &LARGE_GROWS, &SMALL_GROWS];
    let before = counters.map(|c| c.load(Ordering::Relaxed));
    f();
    let after = counters.map(|c| c.load(Ordering::Relaxed));
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn warmed_roots_and_batches_grow_no_message_list() {
    let mut cfg = SessionConfig::small(12, 4);
    cfg.mesh = MeshShape::new(2, 2);
    let session = GraphSession::load(cfg, FaultPlan::none()).expect("clean load");
    let n = session.num_vertices();
    // Roots spread over the vertex range, the same on every run.
    let root = |i: u64| (i * 2_654_435_761) % n;
    let run_root = |i: u64| {
        let traversal = session.run_root(root(i), 0, &mut |_| {});
        assert!(traversal.result.is_ok(), "root {}", root(i));
    };
    let batch = |b: u64| -> Vec<u64> { (0..64).map(|i| root(1_000 + b * 64 + i)).collect() };
    let run_batch = |b: u64| {
        for rank in session.run_batch(&batch(b)) {
            rank.expect("no rank failure").expect("batch terminates");
        }
    };

    (0..8).for_each(run_root);
    let [root_calls, root_allocs, root_grows, root_small_grows] =
        count(|| (8..40).for_each(run_root));
    (0..8).for_each(run_batch);
    let [batch_calls, batch_allocs, batch_grows, _] = count(|| (8..16).for_each(run_batch));

    let per_root = root_allocs as f64 / 32.0;
    let per_batch = batch_allocs as f64 / 8.0;
    let small_grows_per_root = root_small_grows as f64 / 32.0;
    let calls_per_root = root_calls as f64 / 32.0;
    let calls_per_batch = batch_calls as f64 / 8.0;
    eprintln!(
        "allocator calls: {calls_per_root:.1} per root, {calls_per_batch:.1} per batch; large allocations: {per_root:.2} per root, {per_batch:.2} per batch; \
         large growth reallocs: {root_grows} over 32 roots, {batch_grows} over 8 batches; \
         growth reallocs from 4 KiB: {small_grows_per_root:.2} per root"
    );
    assert_eq!(root_grows, 0, "a warmed root grew a message list");
    assert_eq!(batch_grows, 0, "a warmed batch grew a message list");
    assert!(
        small_grows_per_root <= MAX_SMALL_GROWS_PER_ROOT,
        "{small_grows_per_root} growth reallocs from 4 KiB per root"
    );
    assert!(
        calls_per_root <= MAX_CALLS_PER_ROOT,
        "{calls_per_root} allocator calls per root"
    );
    assert!(
        calls_per_batch <= MAX_CALLS_PER_BATCH,
        "{calls_per_batch} allocator calls per batch"
    );
    assert!(
        per_root <= MAX_LARGE_ALLOCS_PER_ROOT,
        "{per_root} large allocations per root"
    );
    assert!(
        per_batch <= MAX_LARGE_ALLOCS_PER_BATCH,
        "{per_batch} large allocations per batch"
    );
}
