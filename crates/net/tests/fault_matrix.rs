//! Fault-injection matrix: every fault kind × every collective
//! category × mesh shapes {1×1, 2×2, 4×2} must terminate cleanly —
//! a structured per-rank outcome within a watchdog timeout, never a
//! deadlocked barrier — and a failure must name the faulty rank.
//!
//! Each case also re-runs the same cluster afterwards to prove the
//! runtime healed (barriers unpoisoned, slots cleared) and that the
//! consumed fault does not re-fire — the property the driver's
//! retry-with-backoff loop is built on.

use std::sync::mpsc;
use std::time::Duration;

use sunbfs_common::MachineConfig;
use sunbfs_net::{
    Cluster, CorruptMode, FailureKind, FaultEvent, FaultKind, FaultPlan, MeshShape, RankCtx,
    RankFailure, Scope,
};

/// Per-case watchdog: a hung barrier fails the test instead of hanging
/// the suite (the spawned thread leaks, but the suite completes).
const CASE_TIMEOUT: Duration = Duration::from_secs(60);

const SHAPES: [(usize, usize); 3] = [(1, 1), (2, 2), (4, 2)];

/// The collective program every rank executes, one op per category.
/// Returns a value that depends on every exchanged payload so silent
/// corruption is observable.
fn collective_program(ctx: &mut RankCtx) -> u64 {
    let n = ctx.nranks() as u64;
    // op 0: barrier
    ctx.barrier(Scope::World);
    // op 1: allreduce (vector payload so truncation is detectable)
    let red = ctx.allreduce_with(
        Scope::World,
        "red",
        vec![ctx.rank() as u64, 1, 2],
        None,
        |a, b| *a += b,
    );
    // op 2: allgatherv
    let gathered = ctx.allgatherv(Scope::World, "gather", vec![ctx.rank() as u64; 2]);
    // op 3: alltoallv
    let send: Vec<Vec<u64>> = (0..n).map(|d| vec![ctx.rank() as u64 * 100 + d]).collect();
    let recv = ctx.alltoallv(Scope::World, "a2a", send);
    // op 4: scoped collectives so row/col barriers are exercised too
    let row_sum = ctx.allreduce_sum(Scope::Row, "rowsum", 1);
    let col_sum = ctx.allreduce_sum(Scope::Col, "colsum", 1);
    let mut acc = red.iter().sum::<u64>() + row_sum + col_sum;
    acc += gathered.iter().flatten().sum::<u64>();
    acc += recv.iter().flatten().sum::<u64>();
    acc
}

/// Number of ops in [`collective_program`]'s world-visible index space
/// (indices 0..=5; Row/Col ops share the same per-rank counter).
const CATEGORY_OPS: [(&str, u64); 6] = [
    ("barrier", 0),
    ("allreduce", 1),
    ("allgatherv", 2),
    ("alltoallv", 3),
    ("row_allreduce", 4),
    ("col_allreduce", 5),
];

/// Run `f` under the watchdog; panics if it neither returns nor panics
/// within [`CASE_TIMEOUT`] (i.e. a deadlocked barrier).
fn with_timeout<R: Send + 'static>(label: String, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(CASE_TIMEOUT) {
        Ok(r) => r,
        Err(_) => panic!("case '{label}' deadlocked or overran {CASE_TIMEOUT:?}"),
    }
}

fn run_case(
    shape: (usize, usize),
    kind: FaultKind,
    op_index: u64,
) -> (Cluster, Vec<Result<u64, RankFailure>>) {
    let (rows, cols) = shape;
    // Target the highest rank: exercises non-zero scope positions.
    let target = rows * cols - 1;
    let plan = FaultPlan::from_events(vec![FaultEvent {
        rank: target,
        op_index,
        kind,
    }]);
    let cluster = Cluster::with_faults(
        MeshShape::new(rows, cols),
        MachineConfig::new_sunway(),
        plan,
    );
    let results = cluster.run_fallible(collective_program);
    (cluster, results)
}

#[test]
fn injected_panic_matrix_terminates_and_names_rank() {
    for shape in SHAPES {
        for (category, op_index) in CATEGORY_OPS {
            let label = format!("panic/{category}/{}x{}", shape.0, shape.1);
            let target = shape.0 * shape.1 - 1;
            let (cluster, results) = with_timeout(label.clone(), move || {
                run_case(shape, FaultKind::Panic, op_index)
            });
            let failure = results[target].as_ref().expect_err("target rank must fail");
            assert_eq!(failure.rank, target, "{label}: failure names the rank");
            assert!(
                matches!(&failure.kind, FailureKind::Injected { op_index: oi, .. } if *oi == op_index),
                "{label}: expected a typed injected failure, got {failure}"
            );
            // Survivors either completed (they passed every collective
            // the victim reached) or were torn down via poisoning —
            // never left hanging.
            for (rank, r) in results.iter().enumerate() {
                if rank != target {
                    if let Err(f) = r {
                        assert!(
                            !f.is_root_cause(),
                            "{label}: rank {rank} must only fail as collateral, got {f}"
                        );
                    }
                }
            }
            // The log pins the event; the healed cluster retries clean.
            assert_eq!(cluster.fault_log().len(), 1, "{label}");
            let retry = cluster.run_fallible(collective_program);
            for r in retry {
                r.unwrap_or_else(|f| panic!("{label}: retry must succeed, got {f}"));
            }
        }
    }
}

#[test]
fn straggler_matrix_completes_with_imbalance_charged() {
    for shape in SHAPES {
        for (category, op_index) in CATEGORY_OPS {
            let label = format!("straggler/{category}/{}x{}", shape.0, shape.1);
            let (cluster, results) = with_timeout(label.clone(), move || {
                run_case(shape, FaultKind::Straggler { secs: 0.5 }, op_index)
            });
            let values: Vec<u64> = results
                .into_iter()
                .map(|r| r.unwrap_or_else(|f| panic!("{label}: stragglers must not fail: {f}")))
                .collect();
            assert!(!values.is_empty());
            let log = cluster.fault_log();
            assert_eq!(log.len(), 1, "{label}: event must be logged");
            assert!(log[0].applied, "{label}");
            assert_eq!(log[0].rank, shape.0 * shape.1 - 1, "{label}");
        }
    }
}

#[test]
fn corruption_matrix_heals_by_retransmit_with_correct_values() {
    for shape in SHAPES {
        // Fault-free reference values, once per shape: a healed run
        // must reproduce these exactly — corruption may cost time,
        // never correctness.
        let clean = Cluster::new(
            MeshShape::new(shape.0, shape.1),
            MachineConfig::new_sunway(),
        );
        let expected: Vec<u64> = clean
            .run_fallible(collective_program)
            .into_iter()
            .map(|r| r.expect("fault-free run cannot fail"))
            .collect();
        for mode in [CorruptMode::BitFlip, CorruptMode::Truncate] {
            for (category, op_index) in CATEGORY_OPS {
                let label = format!("corrupt-{mode:?}/{category}/{}x{}", shape.0, shape.1);
                let target = shape.0 * shape.1 - 1;
                let (cluster, results) = with_timeout(label.clone(), move || {
                    run_case(shape, FaultKind::Corrupt { mode }, op_index)
                });
                // The exchange layer detects the damage via payload
                // framing and heals it with a retransmit: every rank
                // completes with the fault-free value. No silent
                // corruption, no violation, no hang.
                for (rank, r) in results.iter().enumerate() {
                    let v = r
                        .as_ref()
                        .unwrap_or_else(|f| panic!("{label}: rank {rank} must heal, got {f}"));
                    assert_eq!(*v, expected[rank], "{label}: healed value must be clean");
                }
                // The event is always logged; it is `applied` unless
                // the payload was uncorruptible (a barrier's `()`).
                let log = cluster.fault_log();
                assert_eq!(log.len(), 1, "{label}");
                let retrans = cluster.retransmit_log();
                if log[0].applied {
                    assert_eq!(retrans.len(), 1, "{label}: one heal round suffices");
                    assert_eq!(
                        (retrans[0].from, retrans[0].op_index, retrans[0].attempt),
                        (target, op_index, 1),
                        "{label}: retransmit names the corrupt sender and op"
                    );
                } else {
                    assert!(
                        retrans.is_empty(),
                        "{label}: nothing to retransmit for an unapplied corruption"
                    );
                }
                // Healed cluster retries clean in every case.
                let retry = cluster.run_fallible(collective_program);
                for r in retry {
                    r.unwrap_or_else(|f| panic!("{label}: retry must succeed, got {f}"));
                }
            }
        }
    }
}

#[test]
fn multiple_simultaneous_faults_still_terminate() {
    // Two panics on different ranks in the same collective, plus a
    // straggler: the aggregate teardown must stay structured.
    for shape in [(2usize, 2usize), (4, 2)] {
        let label = format!("multi/{}x{}", shape.0, shape.1);
        let (cluster, results) = with_timeout(label.clone(), move || {
            let plan = FaultPlan::from_events(vec![
                FaultEvent {
                    rank: 0,
                    op_index: 1,
                    kind: FaultKind::Panic,
                },
                FaultEvent {
                    rank: 1,
                    op_index: 1,
                    kind: FaultKind::Panic,
                },
                FaultEvent {
                    rank: shape.0 * shape.1 - 1,
                    op_index: 0,
                    kind: FaultKind::Straggler { secs: 0.1 },
                },
            ]);
            let cluster = Cluster::with_faults(
                MeshShape::new(shape.0, shape.1),
                MachineConfig::new_sunway(),
                plan,
            );
            let results = cluster.run_fallible(collective_program);
            (cluster, results)
        });
        // The two victims race: whichever fires first poisons the
        // barriers, and the other may be torn down as collateral before
        // reaching its own injection point. At least one must fire as a
        // typed root cause, and both candidates are named victims only.
        let injected: Vec<usize> = results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .filter(|f| matches!(f.kind, FailureKind::Injected { .. }))
            .map(|f| f.rank)
            .collect();
        assert!(
            !injected.is_empty() && injected.iter().all(|r| *r < 2),
            "{label}: injected root causes must be among the victims, got {injected:?}"
        );
        // Fire-once semantics: bounded retries drain the remaining
        // unfired events one by one, then the cluster runs clean — the
        // exact property the driver's retry loop depends on.
        let mut healed = false;
        for _ in 0..3 {
            let retry = cluster.run_fallible(collective_program);
            if retry.iter().all(Result::is_ok) {
                healed = true;
                break;
            }
        }
        assert!(healed, "{label}: bounded retries must eventually succeed");
        assert_eq!(
            cluster.fault_log().len(),
            3,
            "{label}: every planned event fires exactly once across attempts"
        );
    }
}

/// The batch engine's `(dest, parent, mask)` triples are registered
/// with the frame/corruption registry like the single-source pairs: a
/// corruption aimed at an `alltoallv` send set of triples is applied,
/// caught by the frame, healed by one retransmit, and every rank
/// receives the fault-free values.
#[test]
fn batch_triples_through_alltoallv_are_framed_and_healed() {
    fn triple_exchange(ctx: &mut RankCtx) -> Vec<Vec<(u64, u64, u64)>> {
        let me = ctx.rank() as u64;
        let send = (0..ctx.nranks() as u64)
            .map(|d| vec![(me * 100 + d, me, 1 << d), (d, me + 7, u64::MAX)])
            .collect();
        ctx.alltoallv(Scope::World, "a2a.triples", send)
    }
    let mesh = MeshShape::new(2, 2);
    let expected: Vec<_> = Cluster::new(mesh, MachineConfig::new_sunway())
        .run_fallible(triple_exchange)
        .into_iter()
        .map(|r| r.expect("fault-free run cannot fail"))
        .collect();
    for mode in [CorruptMode::BitFlip, CorruptMode::Truncate] {
        let label = format!("triples/{mode:?}");
        let (cluster, results) = with_timeout(label.clone(), move || {
            let plan = FaultPlan::from_events(vec![FaultEvent {
                rank: 3,
                op_index: 0,
                kind: FaultKind::Corrupt { mode },
            }]);
            let cluster = Cluster::with_faults(mesh, MachineConfig::new_sunway(), plan);
            let results = cluster.run_fallible(triple_exchange);
            (cluster, results)
        });
        for (rank, r) in results.iter().enumerate() {
            let got = r
                .as_ref()
                .unwrap_or_else(|f| panic!("{label}: rank {rank} must heal, got {f}"));
            assert_eq!(*got, expected[rank], "{label}: healed values must be clean");
        }
        let log = cluster.fault_log();
        assert_eq!(log.len(), 1, "{label}");
        assert!(log[0].applied, "{label}: triples must be corruptible");
        let retrans = cluster.retransmit_log();
        assert_eq!(retrans.len(), 1, "{label}: one heal round suffices");
        assert_eq!((retrans[0].from, retrans[0].op_index), (3, 0), "{label}");
    }
}
