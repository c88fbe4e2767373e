//! Pins of the fault model's observable surface: the exact
//! `RankFailure` text and `FailureKind` every unwind source produces
//! through `Cluster::run_fallible`, and how one `FaultPlan` orders
//! planned and live-injected events that address the same
//! `(rank, op_index)`.

use sunbfs_common::MachineConfig;
use sunbfs_net::{
    Cluster, CorruptMode, FaultEvent, FaultKind, FaultPlan, MeshShape, RankCtx, RankFailure, Scope,
};

fn cluster(rows: usize, cols: usize, plan: FaultPlan) -> Cluster {
    Cluster::with_faults(
        MeshShape::new(rows, cols),
        MachineConfig::new_sunway(),
        plan,
    )
}

/// `(Display, Debug of the kind)` of one rank's failure.
fn pin(result: &Result<impl std::fmt::Debug, RankFailure>) -> (String, String) {
    let failure = result.as_ref().expect_err("the rank fails");
    (failure.to_string(), format!("{:?}", failure.kind))
}

fn pair(text: &str, kind: &str) -> (String, String) {
    (text.to_string(), kind.to_string())
}

const COLLATERAL: (&str, &str) = ("barrier poisoned (collateral)", "BarrierPoisoned");

fn collateral(rank: usize) -> (String, String) {
    pair(&format!("rank {rank}: {}", COLLATERAL.0), COLLATERAL.1)
}

#[test]
fn a_planned_panic_unwinds_as_injected_and_stops_the_others_as_collateral() {
    let c = cluster(
        2,
        2,
        FaultPlan::from_events(vec![FaultEvent {
            rank: 1,
            op_index: 1,
            kind: FaultKind::Panic,
        }]),
    );
    let results = c.run_fallible(|ctx: &mut RankCtx| {
        ctx.barrier(Scope::World);
        ctx.allreduce_sum(Scope::World, "sum", 1)
    });
    assert_eq!(
        pin(&results[1]),
        pair(
            "rank 1: injected panic at collective 1 ('sum')",
            r#"Injected { op_index: 1, op: "sum" }"#
        )
    );
    for rank in [0, 2, 3] {
        assert_eq!(pin(&results[rank]), collateral(rank), "rank {rank}");
    }
}

#[test]
fn a_tag_mismatch_unwinds_as_a_violation_on_every_detector() {
    let results = cluster(1, 2, FaultPlan::none()).run_fallible(|ctx| {
        if ctx.rank() == 0 {
            ctx.allreduce_sum(Scope::World, "op_a", 1)
        } else {
            ctx.allreduce_max(Scope::World, "op_b", 1)
        }
    });
    assert_eq!(
        pin(&results[0]),
        pair(
            "rank 0: SPMD violation (tag_mismatch) detected by rank 0 in op 'op_a' on world \
             scope (offending rank 1)",
            r#"Violation(SpmdViolation { rank: 0, offender: Some(1), scope: World, op: "op_a", kind: TagMismatch })"#
        )
    );
    assert_eq!(
        pin(&results[1]),
        pair(
            "rank 1: SPMD violation (tag_mismatch) detected by rank 1 in op 'op_b' on world \
             scope (offending rank 0)",
            r#"Violation(SpmdViolation { rank: 1, offender: Some(0), scope: World, op: "op_b", kind: TagMismatch })"#
        )
    );
}

#[test]
fn a_persistent_corruption_unwinds_every_member_blaming_the_sender() {
    let flip = FaultEvent {
        rank: 0,
        op_index: 0,
        kind: FaultKind::Corrupt {
            mode: CorruptMode::BitFlip,
        },
    };
    let c = cluster(1, 2, FaultPlan::from_events(vec![flip; 4]));
    let results = c.run_fallible(|ctx| ctx.allreduce_sum(Scope::World, "sum", 4));
    for (rank, result) in results.iter().enumerate() {
        assert_eq!(
            pin(result),
            pair(
                &format!(
                    "rank {rank}: persistent payload corruption from rank 0 at collective 0 \
                     ('sum', world scope) after 3 retransmits"
                ),
                r#"CorruptPayload { from: 0, scope: World, op: "sum", op_index: 0, attempts: 3 }"#
            )
        );
        assert!(result.as_ref().unwrap_err().is_root_cause());
    }
}

#[test]
fn a_dead_rank_tears_the_others_down_as_collateral() {
    let results = cluster(2, 2, FaultPlan::none()).run_fallible(|ctx| {
        if ctx.rank() == 2 {
            panic!("dead rank");
        }
        ctx.barrier(Scope::World);
    });
    assert_eq!(
        pin(&results[2]),
        pair(
            "rank 2: panic: dead rank",
            r#"Panic { message: "dead rank" }"#
        )
    );
    for rank in [0, 1, 3] {
        assert_eq!(pin(&results[rank]), collateral(rank), "rank {rank}");
        assert!(!results[rank].as_ref().unwrap_err().is_root_cause());
    }
}

#[test]
fn plain_panics_unwind_with_their_message_or_as_opaque() {
    let one = |f: &(dyn Fn() + Sync)| {
        let mut results = cluster(1, 1, FaultPlan::none()).run_fallible(|_| f());
        pin(&results.remove(0))
    };
    assert_eq!(
        one(&|| panic!("a str")),
        pair("rank 0: panic: a str", r#"Panic { message: "a str" }"#)
    );
    assert_eq!(
        one(&|| panic!("a {}", "String")),
        pair(
            "rank 0: panic: a String",
            r#"Panic { message: "a String" }"#
        )
    );
    assert_eq!(
        one(&|| std::panic::panic_any(7u32)),
        pair(
            "rank 0: panic: opaque panic payload",
            r#"Panic { message: "opaque panic payload" }"#
        )
    );
}

#[test]
fn planned_events_fire_ahead_of_injected_duplicates() {
    let at = |kind| FaultEvent {
        rank: 0,
        op_index: 3,
        kind,
    };
    let truncate = FaultKind::Corrupt {
        mode: CorruptMode::Truncate,
    };
    let flip = FaultKind::Corrupt {
        mode: CorruptMode::BitFlip,
    };
    let plan = FaultPlan::from_events(vec![at(truncate), at(FaultKind::Panic)]);
    plan.inject([at(FaultKind::Panic), at(flip)]);
    plan.inject([FaultEvent {
        rank: 1,
        op_index: 7,
        kind: FaultKind::Panic,
    }]);
    assert_eq!(
        plan.next_panic_op(),
        Some(7),
        "(0, 3) fires a truncate next"
    );
    let mut fired = Vec::new();
    let mut next = Vec::new();
    while let Some(kind) = plan.fire(0, 3) {
        fired.push(kind);
        next.push(plan.next_panic_op());
    }
    assert_eq!(
        fired,
        vec![truncate, FaultKind::Panic, FaultKind::Panic, flip]
    );
    assert_eq!(next, vec![Some(3), Some(3), Some(7), Some(7)]);
    assert_eq!(plan.fire(1, 7), Some(FaultKind::Panic));
    assert_eq!(plan.next_panic_op(), None);
    assert!(!plan.is_empty(), "a consumed plan stays live");
}

#[test]
fn is_empty_is_false_once_a_plan_has_held_or_may_hold_an_event() {
    assert!(FaultPlan::none().is_empty());
    assert!(FaultPlan::from_events(Vec::new()).is_empty());
    assert!(!FaultPlan::armed().is_empty());
    let plan = FaultPlan::none();
    plan.inject([]);
    assert!(plan.is_empty(), "an empty injection arms nothing");
    assert_eq!(plan.next_panic_op(), None);
    assert_eq!(plan.fire(0, 0), None);
    plan.inject([FaultEvent {
        rank: 0,
        op_index: 0,
        kind: FaultKind::Straggler { secs: 0.0 },
    }]);
    assert!(!plan.is_empty());
    assert_eq!(plan.fire(0, 0), Some(FaultKind::Straggler { secs: 0.0 }));
    assert!(!plan.is_empty());
}
