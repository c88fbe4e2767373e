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
                // the payload had nothing to damage (a barrier's `()`).
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

/// What one rank observed of a pinned collective: the values it
/// received (rendered) and its simulated clock right after, as bits.
type Observed = (String, u64);

fn observe<R: std::fmt::Debug>(
    ctx: &mut RankCtx,
    collective: impl FnOnce(&mut RankCtx, u64, u64) -> R,
) -> Observed {
    let (me, n) = (ctx.rank() as u64, ctx.nranks() as u64);
    let got = collective(ctx, me, n);
    (format!("{got:?}"), ctx.now().as_secs().to_bits())
}

/// One payload shape through the collective that ships it: a label,
/// the SPMD program, and the simulated clock (`f64::to_bits`) every rank
/// of a 2x2 mesh ends at when rank 3's deposit was corrupted and healed
/// by one retransmit — the same under both corrupt modes, since the
/// heal is charged on the deposit's declared bytes.
type ShapePin = (&'static str, fn(&mut RankCtx) -> Observed, u64);

/// Every payload shape the engine, the sort, the build and the updates
/// ship. Each rank's payload has two or more elements (and the nested
/// send sets a non-empty destination) so both corrupt modes bite.
const PAYLOAD_SHAPES: [ShapePin; 8] = [
    (
        "allgatherv Vec<u64>",
        |ctx: &mut RankCtx| {
            observe(ctx, |ctx, me, _| {
                ctx.allgatherv(Scope::World, "pin", vec![me * 10 + 1, me + 100])
            })
        },
        0x3ee0d1f660a6aa3f,
    ),
    (
        "allgatherv Vec<u32>",
        |ctx: &mut RankCtx| {
            observe(ctx, |ctx, me, _| {
                ctx.allgatherv(Scope::World, "pin", vec![me as u32 * 10 + 1, 7])
            })
        },
        0x3ee0cc7700ae4be6,
    ),
    (
        "allgatherv Vec<u8>",
        |ctx: &mut RankCtx| {
            observe(ctx, |ctx, me, _| {
                ctx.allgatherv(Scope::World, "pin", vec![me as u8 + 1, 9, 200])
            })
        },
        0x3ee0c90764b310ee,
    ),
    (
        "allgatherv Vec<(u64, u64)>",
        |ctx: &mut RankCtx| {
            observe(ctx, |ctx, me, _| {
                ctx.allgatherv(Scope::World, "pin", vec![(me, me + 1), (me * 7, 3)])
            })
        },
        0x3ee0dcf5209766f2,
    ),
    (
        "allgatherv Vec<(u64, u64, u64)>",
        |ctx: &mut RankCtx| {
            observe(ctx, |ctx, me, _| {
                ctx.allgatherv(Scope::World, "pin", vec![(me, 1, 2), (3, me, u64::MAX)])
            })
        },
        0x3ee0e7f3e08823a4,
    ),
    (
        "alltoallv Vec<Vec<u64>>",
        |ctx: &mut RankCtx| {
            observe(ctx, |ctx, me, n| {
                let send = (0..n).map(|d| vec![me * 100 + d, d]).collect();
                ctx.alltoallv(Scope::World, "pin", send)
            })
        },
        0x3ee0dcf5209766f2,
    ),
    (
        "alltoallv Vec<Vec<(u64, u64)>>",
        |ctx: &mut RankCtx| {
            observe(ctx, |ctx, me, n| {
                // Destination 0 gets nothing: the damage lands past a
                // boundary.
                let send = (0..n)
                    .map(|d| (0..d).map(|i| (me * 100 + d, i)).collect())
                    .collect();
                ctx.alltoallv(Scope::World, "pin", send)
            })
        },
        0x3ee0e7f3e08823a4,
    ),
    (
        // The batch engine's `(dest, parent, mask)` send sets.
        "alltoallv Vec<Vec<(u64, u64, u64)>>",
        |ctx: &mut RankCtx| {
            observe(ctx, |ctx, me, n| {
                let send = (0..n)
                    .map(|d| vec![(me * 100 + d, me, 1 << d), (d, me + 7, u64::MAX)])
                    .collect();
                ctx.alltoallv(Scope::World, "a2a.triples", send)
            })
        },
        0x3ee108f0205a59bb,
    ),
];

/// Every payload shape the collectives ship, under both corrupt modes,
/// aimed at rank 3's first collective on a 2x2 mesh: the corruption is
/// applied, caught by the frame, healed by exactly one retransmit, and
/// every rank receives the fault-free values at a pinned clock.
#[test]
fn every_payload_shape_is_framed_and_healed() {
    let mesh = MeshShape::new(2, 2);
    let target = 3;
    for (shape, program, clock_bits) in PAYLOAD_SHAPES {
        let expected = Cluster::new(mesh, MachineConfig::new_sunway()).run(program);
        for mode in [CorruptMode::BitFlip, CorruptMode::Truncate] {
            let label = format!("{shape}/{mode:?}");
            let (cluster, results) = with_timeout(label.clone(), move || {
                let plan = FaultPlan::from_events(vec![FaultEvent {
                    rank: target,
                    op_index: 0,
                    kind: FaultKind::Corrupt { mode },
                }]);
                let cluster = Cluster::with_faults(mesh, MachineConfig::new_sunway(), plan);
                let results = cluster.run_fallible(program);
                (cluster, results)
            });
            for (rank, r) in results.iter().enumerate() {
                let (values, clock) = r
                    .as_ref()
                    .unwrap_or_else(|f| panic!("{label}: rank {rank} must heal, got {f}"));
                assert_eq!(values, &expected[rank].0, "{label}: rank {rank} values");
                assert_eq!(
                    *clock, clock_bits,
                    "{label}: rank {rank} clock {clock:#018x}"
                );
            }
            let log = cluster.fault_log();
            assert_eq!(log.len(), 1, "{label}");
            assert!(log[0].applied, "{label}: the payload must be corruptible");
            let retrans: Vec<_> = cluster
                .retransmit_log()
                .iter()
                .map(|r| (r.from, r.op_index, r.attempt))
                .collect();
            assert_eq!(retrans, vec![(target, 0, 1)], "{label}");
        }
    }
}
