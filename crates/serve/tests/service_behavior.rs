//! Service-mechanics tests: admission control and backpressure, batch
//! formation (full flush vs deadline flush), and fault containment —
//! a rank panic mid-batch degrades only that batch's riders, never the
//! resident session.

use sunbfs_net::{FaultEvent, FaultKind, FaultPlan};
use sunbfs_serve::{
    BfsService, QueryStatus, RejectReason, ServeConfig, SessionConfig, QUERY_RECORDS_KEPT,
};

fn service(scale: u32, ranks: usize, cfg: ServeConfig) -> BfsService {
    let session =
        sunbfs_serve::GraphSession::load(SessionConfig::small(scale, ranks), FaultPlan::none())
            .expect("clean load");
    BfsService::new(session, cfg)
}

#[test]
fn queue_full_rejects_and_recovers_after_a_flush() {
    let mut svc = service(
        8,
        4,
        ServeConfig {
            queue_capacity: 2,
            batch_max: 2,
            flush_deadline: 1,
            ..ServeConfig::default()
        },
    );
    svc.submit(1).expect("first admit");
    svc.submit(2).expect("second admit");
    let err = svc.submit(3).expect_err("third must hit backpressure");
    // Two pending >= batch_max 2: the next tick flushes, so the hint is 1.
    assert_eq!(
        err,
        RejectReason::QueueFull {
            capacity: 2,
            retry_after_ticks: 1
        }
    );
    assert_eq!(err.label(), "queue_full");
    assert_eq!(err.retry_after_ticks(), Some(1));

    // A tick flushes the full batch; the queue then admits again.
    let done = svc.tick();
    assert_eq!(done.len(), 2);
    assert!(done.iter().all(|r| matches!(r.status, QueryStatus::Served)));
    svc.submit(3).expect("queue drained, admission resumes");

    let report = svc.report();
    assert_eq!(report.rejected_full, 1);
    assert_eq!(report.submitted, 3);
    assert_eq!(report.max_queue_depth, 2);
    assert_eq!(report.current_queue_depth, 1);
}

#[test]
fn out_of_range_roots_are_rejected_without_touching_the_queue() {
    let mut svc = service(8, 4, ServeConfig::default());
    let n = svc.session().num_vertices();
    let err = svc.submit(n).expect_err("root == n is out of range");
    assert_eq!(
        err,
        RejectReason::InvalidRoot {
            root: n,
            num_vertices: n
        }
    );
    assert_eq!(err.label(), "invalid_root");
    assert_eq!(svc.queue_depth(), 0);
    assert_eq!(svc.report().rejected_invalid, 1);
}

#[test]
fn a_full_batch_flushes_on_the_next_tick() {
    let mut svc = service(
        8,
        4,
        ServeConfig {
            batch_max: 4,
            flush_deadline: 100,
            ..ServeConfig::default()
        },
    );
    for root in [1u64, 2, 3, 4] {
        svc.submit(root).expect("admit");
    }
    // batch_max reached: the flush must not wait for the deadline.
    let done = svc.tick();
    assert_eq!(done.len(), 4);
    let batch_ids: Vec<u64> = done.iter().filter_map(|r| r.batch_id).collect();
    assert!(batch_ids.iter().all(|&b| b == batch_ids[0]));
    let report = svc.report();
    // Occupancy 4 lands in the "4-7" bucket (index 2).
    assert_eq!(report.occupancy_histogram[2], 1);
    assert_eq!(report.batches.len(), 1);
    assert!(!report.batches[0].fallback);
}

#[test]
fn a_partial_batch_waits_for_the_flush_deadline() {
    let mut svc = service(
        8,
        4,
        ServeConfig {
            batch_max: 64,
            flush_deadline: 3,
            ..ServeConfig::default()
        },
    );
    svc.submit(1).expect("admit");
    svc.submit(2).expect("admit");
    assert!(svc.tick().is_empty(), "tick 1: deadline not reached");
    assert!(svc.tick().is_empty(), "tick 2: deadline not reached");
    let done = svc.tick();
    assert_eq!(done.len(), 2, "tick 3: deadline flushes the partial batch");
    // Occupancy 2 lands in the "2-3" bucket (index 1).
    assert_eq!(svc.report().occupancy_histogram[1], 1);
}

#[test]
fn drain_flushes_everything_without_waiting() {
    let mut svc = service(
        8,
        4,
        ServeConfig {
            batch_max: 3,
            flush_deadline: 100,
            ..ServeConfig::default()
        },
    );
    for root in 1u64..=7 {
        svc.submit(root).expect("admit");
    }
    let done = svc.drain();
    assert_eq!(done.len(), 7);
    let report = svc.report();
    assert_eq!(report.current_queue_depth, 0);
    // 7 riders over batch_max 3: batches of 3, 3, 1.
    assert_eq!(report.batches.len(), 3);
    assert_eq!(
        report
            .batches
            .iter()
            .map(|b| b.occupancy)
            .collect::<Vec<_>>(),
        vec![3, 3, 1]
    );
    // A rider waited for its whole batch, result assembly included: its
    // wall latency is the batch record's wall, on the result and in the
    // report alike.
    for (r, record) in done.iter().zip(&report.queries) {
        let batch = &report.batches[r.batch_id.expect("rode a batch") as usize];
        assert_eq!(r.wall_latency_s, batch.wall_seconds);
        assert_eq!(record.wall_latency_s, batch.wall_seconds);
    }
}

#[test]
fn flush_deadline_zero_flushes_on_every_tick() {
    let mut svc = service(
        8,
        4,
        ServeConfig {
            batch_max: 64,
            flush_deadline: 0,
            ..ServeConfig::default()
        },
    );
    svc.submit(1).expect("admit");
    // Deadline 0: even a single-query partial batch must not wait.
    let done = svc.tick();
    assert_eq!(done.len(), 1);
    assert!(matches!(done[0].status, QueryStatus::Served));
    assert_eq!(svc.queue_depth(), 0);
    // An empty tick stays empty and doesn't fabricate batches.
    assert!(svc.tick().is_empty());
    assert_eq!(svc.report().batches.len(), 1);
    // The backoff hint can never be 0 ticks even at deadline 0.
    for root in 0..svc.config().queue_capacity as u64 {
        svc.submit(root).expect("fill");
    }
    let err = svc.submit(9).expect_err("full");
    assert_eq!(err.retry_after_ticks(), Some(1));
}

#[test]
fn batch_max_one_degenerates_to_sequential_batches() {
    let mut svc = service(
        8,
        4,
        ServeConfig {
            batch_max: 1,
            flush_deadline: 100,
            ..ServeConfig::default()
        },
    );
    for root in [3u64, 4, 5] {
        svc.submit(root).expect("admit");
    }
    // Every pending query is its own full batch: one tick flushes all
    // three as three single-occupancy batches, in submission order.
    let done = svc.tick();
    assert_eq!(done.len(), 3);
    assert_eq!(
        done.iter().map(|r| r.root).collect::<Vec<_>>(),
        vec![3, 4, 5]
    );
    let batch_ids: Vec<u64> = done.iter().filter_map(|r| r.batch_id).collect();
    assert_eq!(batch_ids.len(), 3);
    assert!(batch_ids.windows(2).all(|w| w[0] != w[1]));
    let report = svc.report();
    assert_eq!(report.batches.len(), 3);
    assert!(report.batches.iter().all(|b| b.occupancy == 1));
    // Occupancy 1 lands in the "1" bucket (index 0).
    assert_eq!(report.occupancy_histogram[0], 3);
}

#[test]
fn submit_at_capacity_then_drain_preserves_reply_order() {
    let mut svc = service(
        8,
        4,
        ServeConfig {
            queue_capacity: 5,
            batch_max: 2,
            flush_deadline: 100,
            ..ServeConfig::default()
        },
    );
    let mut admitted = Vec::new();
    for root in 1u64..=5 {
        admitted.push((svc.submit(root).expect("admit"), root));
    }
    svc.submit(6).expect_err("at capacity");
    // Drain flushes batches of 2, 2, 1 — and the results come back in
    // exactly the submission order with their original ids intact.
    let done = svc.drain();
    assert_eq!(done.len(), 5);
    assert_eq!(
        done.iter().map(|r| (r.id, r.root)).collect::<Vec<_>>(),
        admitted
    );
    assert!(done.iter().all(|r| matches!(r.status, QueryStatus::Served)));
    // The queue is empty again: admission resumes and the drained
    // rejection didn't leak into the pending count.
    assert_eq!(svc.queue_depth(), 0);
    svc.submit(6).expect("admission resumes after drain");
    let report = svc.report();
    assert_eq!(report.rejected_full, 1);
    assert_eq!(
        report
            .batches
            .iter()
            .map(|b| b.occupancy)
            .collect::<Vec<_>>(),
        vec![2, 2, 1]
    );
}

#[test]
fn a_rank_panic_mid_batch_degrades_only_that_batch() {
    // Probe the collective schedule for an op_index that clears the
    // partition build (otherwise the load retry consumes the fault)
    // but fires inside the batched traversal. The probe order is
    // deterministic, so the test pins one concrete schedule position.
    let roots: Vec<u64> = (1..=8).collect();
    for op_index in 1..400u64 {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            rank: 2,
            op_index,
            kind: FaultKind::Panic,
        }]);
        let session =
            sunbfs_serve::GraphSession::load(SessionConfig::small(8, 4), plan).expect("load heals");
        if session.load_attempts > 1 {
            // The fault fired during the build; try a later op.
            continue;
        }
        let mut svc = BfsService::new(
            session,
            ServeConfig {
                batch_max: 8,
                max_root_retries: 2,
                ..ServeConfig::default()
            },
        );
        for &root in &roots {
            svc.submit(root).expect("admit");
        }
        let done = svc.drain();
        if svc.session().cluster().fault_log().is_empty() {
            // The batch finished under the op_index; try a later op.
            continue;
        }

        // The fault fired mid-batch: every rider is accounted for, and
        // the served ones came through the per-root fallback.
        assert_eq!(done.len(), roots.len());
        let report = svc.report();
        assert_eq!(report.fallback_batches, 1);
        assert!(report.batches[0].fallback);
        for r in &done {
            match &r.status {
                QueryStatus::Served => {
                    assert!(r.via_fallback, "batched path died; service must fall back");
                    assert!(r.parents.is_some());
                }
                QueryStatus::Quarantined(q) => {
                    panic!("fire-once fault must be absorbed by fallback, got {q:?}")
                }
                QueryStatus::DeadlineExceeded { .. } => {
                    panic!("no deadlines were set on these queries")
                }
            }
        }

        // The resident session survived: the next batch runs on the
        // batched path with no new faults and no fallback.
        for &root in &roots {
            svc.submit(root).expect("admit round 2");
        }
        let done2 = svc.drain();
        assert_eq!(done2.len(), roots.len());
        assert!(done2
            .iter()
            .all(|r| { matches!(r.status, QueryStatus::Served) && !r.via_fallback }));
        assert_eq!(
            svc.session().cluster().fault_log().len(),
            1,
            "no further faults fired"
        );
        assert_eq!(svc.report().fallback_batches, 1);
        return;
    }
    panic!("no probed op_index fired during a batch — schedule changed?");
}

#[test]
fn per_query_records_stay_bounded_on_a_long_lived_service() {
    let mut svc = service(8, 4, ServeConfig::default());
    let n = svc.session().num_vertices();
    let total = 3 * QUERY_RECORDS_KEPT as u64;
    for q in 0..total {
        svc.submit(q % n).expect("admit");
        if svc.queue_depth() == 64 {
            assert_eq!(svc.drain().len(), 64);
        }
    }
    let report = svc.report();
    assert_eq!(report.submitted, total);
    assert_eq!(report.served, total, "the totals count every query");
    assert_eq!(report.batches.len() as u64, total / 64);
    let kept = report.queries.len();
    assert!(
        (QUERY_RECORDS_KEPT..=2 * QUERY_RECORDS_KEPT).contains(&kept),
        "{kept} records kept"
    );
    // The most recent ones, in completion order, up to the last query.
    let first = total - kept as u64;
    assert!(report.queries.iter().map(|q| q.id).eq(first..total));
}
