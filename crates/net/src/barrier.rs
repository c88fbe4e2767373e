//! A poisonable rendezvous barrier.
//!
//! `std::sync::Barrier` deadlocks the whole cluster when one rank
//! panics mid-collective: the survivors wait forever. This barrier adds
//! *poisoning* — a panicking rank (or the runtime on its behalf) calls
//! [`PoisonBarrier::poison`], which wakes every waiter and makes every
//! subsequent `wait` panic, so a single rank failure tears the run down
//! deterministically instead of hanging the test suite.
//!
//! A rendezvous is the whole host cost of a small collective, so the
//! common case takes no lock. Arrival is one atomic increment and
//! release one atomic generation store; a waiter polls the generation
//! for `SPIN_POLLS` rounds of `yield_now` — rank threads outnumber
//! cores, so each poll hands the core to a rank that has yet to arrive —
//! and only then sleeps on the `Mutex` + `Condvar`. The releaser takes
//! that lock only when the sleeper count says someone is asleep.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Rounds of `yield_now` a waiter polls the generation for before it
/// sleeps. Sized on `sunbfs_bench` (four rank threads on two cores;
/// the sweep is in docs/PERF.md, "Where a root's host milliseconds
/// go"): any polling at all takes `net.rendezvous_us_p50` from the
/// condvar's 15–20 µs to 5–8 µs, `g500_s10` `op_ms_p50` keeps falling
/// up to here (a sleep costs a wake-up latency that most SCALE-10
/// waits are shorter than) and is flat beyond, and `g500_s18`
/// `op_ms_p90` — ranks waiting milliseconds for the slowest scan, where
/// polling could only take the core that scan needs — does not move
/// anywhere in the sweep.
const SPIN_POLLS: u32 = 256;

/// The typed unwind payload a poisoned [`PoisonBarrier::wait`] raises:
/// the cluster runtime downcasts it to classify the failure as
/// collateral teardown (some *other* rank was the root cause) rather
/// than a rank-local bug.
#[derive(Clone, Copy, Debug)]
pub struct BarrierPoisoned;

impl std::fmt::Display for BarrierPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cluster barrier poisoned: another rank failed")
    }
}

/// A reusable generation-counting barrier for a fixed number of
/// parties, with explicit poisoning.
#[derive(Debug)]
pub struct PoisonBarrier {
    parties: usize,
    /// Poll rounds before sleeping: `SPIN_POLLS`, except in tests
    /// that force one of the two waiting paths.
    polls: u32,
    /// Parties that have arrived in the open generation.
    arrived: AtomicUsize,
    /// Completed rendezvous; a waiter is released when it moves on.
    generation: AtomicU64,
    poisoned: AtomicBool,
    /// Waiters inside the condvar protocol (changed only under `lock`).
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl PoisonBarrier {
    /// Take the sleepers' lock, ignoring std mutex poisoning: it guards
    /// no data, and the barrier tracks failure through its own
    /// `poisoned` flag so teardown paths (which must not panic again)
    /// can still make progress.
    fn lock_sleepers(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Barrier for `parties` participants (must be ≥ 1).
    pub fn new(parties: usize) -> Self {
        Self::with_polls(parties, SPIN_POLLS)
    }

    fn with_polls(parties: usize, polls: u32) -> Self {
        assert!(parties >= 1);
        PoisonBarrier {
            parties,
            polls,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Number of participants.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Block until all parties arrive.
    ///
    /// # Panics
    /// Panics with a [`BarrierPoisoned`] payload if the barrier is (or
    /// becomes) poisoned.
    pub fn wait(&self) {
        if self.poisoned.load(SeqCst) {
            std::panic::panic_any(BarrierPoisoned);
        }
        // Read before arriving: the generation cannot complete until
        // this party has arrived too.
        let gen = self.generation.load(SeqCst);
        if self.arrived.fetch_add(1, SeqCst) + 1 == self.parties {
            // Last arriver. The counter reopens *before* the generation
            // is published: a released party arrives at the next
            // generation only after it has seen this one complete.
            self.arrived.store(0, SeqCst);
            self.generation.store(gen.wrapping_add(1), SeqCst);
            // A sleeper counts itself in and then re-reads the
            // generation; this side publishes the generation and then
            // reads the count. Under `SeqCst` one of the two sees the
            // other, so no sleeper misses its wake-up — and a
            // rendezvous nobody slept through takes no lock.
            if self.sleepers.load(SeqCst) > 0 {
                let _sleepers = self.lock_sleepers();
                self.cv.notify_all();
            }
            return;
        }
        let waiting = || self.generation.load(SeqCst) == gen && !self.poisoned.load(SeqCst);
        let mut polls = self.polls;
        while polls > 0 && waiting() {
            std::thread::yield_now();
            polls -= 1;
        }
        if waiting() {
            let mut guard = self.lock_sleepers();
            self.sleepers.fetch_add(1, SeqCst);
            while waiting() {
                guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
            }
            self.sleepers.fetch_sub(1, SeqCst);
        }
        // Poison only fails waiters whose generation did NOT complete.
        // If the generation advanced, this rendezvous succeeded — a
        // poison raised concurrently (or just after) belongs to the
        // *next* wait, which will observe it at entry. Failing here
        // would retroactively kill a rank whose collective finished,
        // e.g. before it can checkpoint the iteration it completed.
        if self.generation.load(SeqCst) == gen {
            std::panic::panic_any(BarrierPoisoned);
        }
    }

    /// Poison the barrier, waking and failing all current and future
    /// waiters. Idempotent.
    pub fn poison(&self) {
        self.poisoned.store(true, SeqCst);
        // Unconditionally through the lock: a sleeper checks the flag
        // under it, so the flag is either seen or the notify lands.
        let _sleepers = self.lock_sleepers();
        self.cv.notify_all();
    }

    /// True once poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(SeqCst)
    }

    /// Clear poison, arrivals and sleepers so the barrier can host a
    /// fresh run. Only sound when no thread is currently blocked in
    /// [`Self::wait`] — the cluster runtime calls it between runs,
    /// after every rank thread has been joined.
    pub fn reset(&self) {
        self.poisoned.store(false, SeqCst);
        self.arrived.store(0, SeqCst);
        self.sleepers.store(0, SeqCst);
        self.generation.fetch_add(1, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Polls no waiter ever exhausts: the sleep path is never taken.
    const POLL_ONLY: u32 = u32::MAX;
    /// No polls: every waiter goes straight to the condvar.
    const SLEEP_ONLY: u32 = 0;

    #[test]
    fn single_party_never_blocks() {
        let b = PoisonBarrier::new(1);
        for _ in 0..10 {
            b.wait();
        }
    }

    #[test]
    fn synchronizes_phases() {
        let b = Arc::new(PoisonBarrier::new(4));
        let phase = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let b = Arc::clone(&b);
                let phase = Arc::clone(&phase);
                s.spawn(move || {
                    for p in 0..50 {
                        // Everyone must observe the same phase inside a
                        // barrier-delimited window.
                        assert_eq!(phase.load(Ordering::SeqCst), p);
                        b.wait();
                        phase
                            .compare_exchange(p, p + 1, Ordering::SeqCst, Ordering::SeqCst)
                            .ok();
                        b.wait();
                    }
                });
            }
        });
        assert_eq!(phase.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn poison_wakes_waiters() {
        let b = Arc::new(PoisonBarrier::new(2));
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.wait()));
                r.is_err()
            })
        };
        // Give the waiter time to block, then poison instead of joining.
        std::thread::sleep(std::time::Duration::from_millis(50));
        b.poison();
        assert!(waiter.join().unwrap(), "poisoned wait must panic");
    }

    #[test]
    fn poison_after_release_does_not_kill_a_completed_waiter() {
        // The last arriver returns immediately and poisons before the
        // other party has woken from the condvar: that party's
        // generation completed, so it must return success — the poison
        // belongs to the next wait.
        for _ in 0..100 {
            let b = Arc::new(PoisonBarrier::new(2));
            let waiter = {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.wait())).is_ok()
                })
            };
            std::thread::sleep(std::time::Duration::from_millis(1));
            b.wait();
            b.poison();
            assert!(
                waiter.join().unwrap(),
                "a waiter whose generation completed must not see the poison"
            );
        }
    }

    #[test]
    fn wait_after_poison_panics_immediately() {
        let b = PoisonBarrier::new(2);
        b.poison();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.wait()))
            .expect_err("poisoned wait must panic");
        assert!(
            err.downcast_ref::<BarrierPoisoned>().is_some(),
            "poison panic must carry the typed BarrierPoisoned payload"
        );
    }

    #[test]
    fn reset_heals_a_poisoned_barrier() {
        let b = PoisonBarrier::new(1);
        b.poison();
        assert!(b.is_poisoned());
        b.reset();
        assert!(!b.is_poisoned());
        // Usable again after reset.
        b.wait();
        b.wait();
    }

    /// Four parties, 200 k generations, each party publishing its
    /// arrival count before every wait. Once a party is through
    /// generation `g`, every other party has arrived `g` times (an
    /// early release shows `g - 1`) and at most once more (it cannot
    /// pass `g + 1` without this party); a lost wake-up hangs.
    fn stress_generations(polls: u32) {
        const PARTIES: usize = 4;
        const GENERATIONS: u64 = 200_000;
        let b = PoisonBarrier::with_polls(PARTIES, polls);
        let arrivals: Vec<AtomicU64> = (0..PARTIES).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for mine in &arrivals {
                let (b, arrivals) = (&b, &arrivals);
                s.spawn(move || {
                    for g in 1..=GENERATIONS {
                        mine.store(g, SeqCst);
                        b.wait();
                        for other in arrivals {
                            let seen = other.load(SeqCst);
                            assert!(
                                seen == g || seen == g + 1,
                                "released from generation {g} beside a party at {seen}"
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn stress_200k_generations_with_the_shipped_polls() {
        stress_generations(SPIN_POLLS);
    }

    #[test]
    fn stress_200k_generations_on_the_sleep_path() {
        stress_generations(SLEEP_ONLY);
    }

    /// The two waiting paths, each with how a test sees that the one
    /// waiter of a 2-party barrier has got there.
    type Parked = fn(&PoisonBarrier) -> bool;
    const PATHS: [(u32, Parked); 2] = [
        (POLL_ONLY, |b| b.arrived.load(SeqCst) == 1),
        (SLEEP_ONLY, |b| b.sleepers.load(SeqCst) == 1),
    ];

    /// A 2-party barrier with one waiter on it, returned once `parked`
    /// says the waiter is where the test wants it.
    fn parked_waiter(
        polls: u32,
        parked: Parked,
    ) -> (
        Arc<PoisonBarrier>,
        std::thread::JoinHandle<std::thread::Result<()>>,
    ) {
        let b = Arc::new(PoisonBarrier::with_polls(2, polls));
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || catch_unwind(AssertUnwindSafe(|| b.wait())))
        };
        while !parked(&b) {
            std::thread::yield_now();
        }
        (b, waiter)
    }

    #[test]
    fn poison_fails_a_polling_and_a_sleeping_waiter_with_the_typed_payload() {
        for (polls, parked) in PATHS {
            let (b, waiter) = parked_waiter(polls, parked);
            b.poison();
            let err = waiter
                .join()
                .unwrap()
                .expect_err("a waiter whose generation never completed must fail");
            assert!(err.downcast_ref::<BarrierPoisoned>().is_some());
        }
    }

    #[test]
    fn poison_after_release_spares_a_completed_waiter_on_both_paths() {
        // As `poison_after_release_does_not_kill_a_completed_waiter`,
        // with the waiter pinned to one path and known to be on it.
        for (polls, parked) in PATHS {
            for _ in 0..100 {
                let (b, waiter) = parked_waiter(polls, parked);
                b.wait();
                b.poison();
                assert!(
                    waiter.join().unwrap().is_ok(),
                    "a waiter whose generation completed must not see the poison"
                );
            }
        }
    }
}
