//! Soak and chaos-serving tests: every soak profile end to end at a
//! small scale, the `health` request over TCP, deadline budgets over
//! TCP, and the claim that honoring `retry_after_ticks` hints reduces
//! the terminal rejection rate under overload.

use std::time::Duration;

use sunbfs_common::JsonValue;
use sunbfs_serve::{
    recovery_episodes, run_loadgen, run_soak, ChaosConfig, LoadgenConfig, LoadgenReport, NetConfig,
    Profile, RepairRounds, ServeConfig, SessionConfig, SoakConfig, UpdatePlan,
};

mod common;
use common::{connect, start, str_field, target};

#[test]
fn health_request_over_tcp_reports_the_state_machine() {
    let server = start(8, 4, ServeConfig::default(), NetConfig::default());
    let mut c = connect(&server);

    c.send(r#"{"cmd":"health"}"#).unwrap();
    let h = c.recv().unwrap();
    assert_eq!(str_field(&h, "reply"), "health");
    assert_eq!(str_field(&h, "state"), "healthy");
    for key in [
        "ticks",
        "queue_depth",
        "served",
        "quarantined",
        "deadline_exceeded",
        "rejected_degraded",
    ] {
        assert!(
            h.get(key).and_then(JsonValue::as_u64).is_some(),
            "health reply must carry numeric {key}"
        );
    }
    assert!(
        matches!(h.get("transitions"), Some(JsonValue::Array(_))),
        "health reply must carry the transition log"
    );

    // Health is read-only: the service still serves afterwards.
    c.send(r#"{"cmd":"query","root":1}"#).unwrap();
    let acc = c.recv().unwrap();
    assert_eq!(str_field(&acc, "reply"), "accepted");
    let res = c.recv().unwrap();
    assert_eq!(str_field(&res, "reply"), "result");
    assert_eq!(str_field(&res, "status"), "served");

    server.shutdown();
    server.join().expect_clean();
}

#[test]
fn a_deadline_budget_expires_into_a_typed_eviction_over_tcp() {
    // No flush pressure: huge batch, long flush deadline — the only way
    // out for the query is its own deadline budget.
    let server = start(
        8,
        4,
        ServeConfig {
            batch_max: 64,
            flush_deadline: 10_000,
            ..ServeConfig::default()
        },
        NetConfig {
            tick_interval: Duration::from_millis(5),
            ..NetConfig::default()
        },
    );
    let mut c = connect(&server);
    c.send(r#"{"cmd":"query","root":3,"deadline_ticks":2}"#)
        .unwrap();
    let acc = c.recv().unwrap();
    assert_eq!(str_field(&acc, "reply"), "accepted");

    let res = c.recv().unwrap();
    assert_eq!(str_field(&res, "reply"), "result");
    assert_eq!(str_field(&res, "status"), "deadline_exceeded");
    assert_eq!(
        res.get("deadline_ticks").and_then(JsonValue::as_u64),
        Some(2)
    );
    assert!(
        res.get("waited_ticks")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            >= 2,
        "the eviction must report at least the budget's wait"
    );
    assert!(
        matches!(res.get("batch_id"), Some(JsonValue::Null)),
        "an evicted query never joined a batch"
    );

    server.shutdown();
    let outcome = server.join();
    let summary = outcome.expect_clean().1;
    assert_eq!(summary.results_deadline_exceeded, 1);
    assert_eq!(summary.results_served, 0);
    assert_eq!(summary.final_health, "healthy");
}

/// Every soak profile, miniaturized: the whole stack served in-process
/// under paced load, health observed over a side connection, and
/// exactly-once accounting for every accepted query — plus what each
/// profile arms on top (live chaos driven back to `healthy`; a scripted
/// update plan beside wire updates, with epochs that never regress).
#[test]
fn every_soak_profile_passes_its_gate_with_exactly_once_accounting() {
    let base = |profile, scale| SoakConfig {
        profile,
        session: SessionConfig::small(scale, 4),
        serve: ServeConfig::default(),
        net: NetConfig {
            tick_interval: Duration::from_millis(2),
            ..NetConfig::default()
        },
        load: LoadgenConfig {
            connections: 2,
            qps: 150,
            duration: Duration::from_secs(2),
            ..LoadgenConfig::default()
        },
        chaos: ChaosConfig {
            seed: 7,
            every_queries: 24,
            max_events: 3,
        },
        availability_gate: 0.90,
        recovery_gate_ticks: 5_000,
        update_plan: UpdatePlan::parse("insert@8:16;insert@40:16").expect("plan parses"),
        repair: RepairRounds {
            rounds: 2,
            batch: 16,
            roots: 2,
        },
    };
    let mut chaos = base(Profile::Chaos, 8);
    chaos.load.deadline_ticks = Some(200);
    chaos.load.retry_max = 2;
    let mut update = base(Profile::Update, 9);
    update.load.update_every = 8;

    for cfg in [base(Profile::Load, 8), chaos, update] {
        let profile = cfg.profile;
        let report = run_soak(&cfg).expect("soak runs");

        // The server never crashed or wedged.
        assert_eq!(report.join_error, None, "{profile:?}");
        assert_eq!(report.load.protocol_errors, 0, "{profile:?}");

        // Exactly-once: every accepted query got exactly one typed reply.
        assert_eq!(report.load.lost_replies, 0, "{profile:?}");
        assert_eq!(report.load.duplicate_replies, 0, "{profile:?}");
        assert_eq!(report.load.unacked, 0, "{profile:?}");
        assert_eq!(
            report.load.accepted,
            report.load.served + report.load.quarantined + report.load.deadline_exceeded,
            "{profile:?}: accepted queries must partition exactly into the completion classes"
        );
        assert!(report.clean_drain(), "{profile:?}");
        assert_eq!(report.net.results_dropped, 0, "{profile:?}");

        // The side poller watched the machine from healthy to healthy.
        let states: Vec<&str> = report.observed_states.iter().map(String::as_str).collect();
        assert_eq!(states.first(), Some(&"healthy"), "{profile:?}: {states:?}");
        assert_eq!(states.last(), Some(&"healthy"), "{profile:?}: {states:?}");
        assert!(report.recovered(), "{profile:?}: service must end healthy");
        assert_eq!(report.final_health, "healthy", "{profile:?}");
        assert!(
            report.passed(),
            "{profile:?}: the profile's verdict must hold"
        );

        let hops: Vec<(&str, &str)> = report
            .serve
            .health_transitions
            .iter()
            .map(|t| (t.from, t.to))
            .collect();
        match profile {
            Profile::Load => assert!(hops.is_empty(), "no fault, no transition: {hops:?}"),
            Profile::Chaos => {
                // Chaos actually fired, and the service healed from it:
                // the full required path is in its own transition log.
                assert!(report.serve.chaos_injected > 0, "no live fault injected");
                assert!(report.serve.availability() >= cfg.availability_gate);
                assert!(
                    hops.contains(&("healthy", "degraded")),
                    "no degradation recorded: {hops:?}"
                );
                assert!(
                    hops.last() == Some(&("recovering", "healthy")),
                    "the log must close back at healthy: {hops:?}"
                );
                let (episodes, max_ticks) = recovery_episodes(&report.serve.health_transitions);
                assert!(episodes > 0);
                assert!(max_ticks <= cfg.recovery_gate_ticks);
            }
            Profile::Update => {
                // Both update sources committed: the armed plan inside
                // the service and the wire batches the clients sent.
                assert!(report.load.updates_committed > 0, "no wire update");
                assert_eq!(report.load.updates_rejected, 0);
                assert_eq!(report.load.epoch_regressions, 0, "torn read");
                assert_eq!(
                    report.serve.updates_applied,
                    report.load.updates_committed + cfg.update_plan.events().len() as u64,
                    "plan events and wire batches must all commit"
                );
                assert_eq!(report.load.final_epoch, report.serve.epoch);
                assert_eq!(report.repair.equivalence_violations, 0);
                assert_eq!(report.repair.updates_applied, cfg.repair.rounds);
            }
        }
    }
}

/// The backoff claim, measured: with the same offered load against
/// the same overloaded server shape, clients that honor
/// `retry_after_ticks` end the run with a lower terminal rejection
/// rate than clients that treat every rejection as final.
#[test]
fn honoring_retry_hints_reduces_the_terminal_rejection_rate() {
    let net_cfg = NetConfig {
        tick_interval: Duration::from_millis(5),
        ..NetConfig::default()
    };
    // A slow flush cycle (40 ticks × 5 ms) with a 4-slot queue: offered
    // load far outruns admission, so most offers bounce off a full
    // queue with a retry hint pointing at the next flush.
    let overloaded = ServeConfig {
        queue_capacity: 4,
        batch_max: 64,
        flush_deadline: 40,
        ..ServeConfig::default()
    };
    let run = |retry_max: u32| {
        let server = start(8, 4, overloaded, net_cfg);
        let report = run_loadgen(
            &target(&server, 8, net_cfg),
            &LoadgenConfig {
                connections: 2,
                qps: 400,
                duration: Duration::from_millis(1500),
                retry_max,
                ..LoadgenConfig::default()
            },
        )
        .expect("load run");
        server.shutdown();
        server.join().expect_clean();
        report
    };
    let naive = run(0);
    let polite = run(3);

    // Both runs oversubscribed the queue and saw hinted rejections.
    assert!(naive.rejected_full > 0, "naive run must hit backpressure");
    assert!(naive.rejects_with_hint > 0);
    assert!(
        polite.rejections_seen > 0,
        "polite run must hit backpressure"
    );
    assert!(polite.retried > 0, "hints must actually be honored");
    assert!(
        polite.retry_successes > 0,
        "some retried offers must land once the queue drains"
    );

    // Terminal rejections per offered query: rejections retried into an
    // eventual accept don't count — this is the rate a hint-honoring
    // client actually experiences.
    let terminal_rate = |r: &LoadgenReport| {
        let terminal = r.rejected_full
            + r.rejected_backlog
            + r.rejected_shutdown
            + r.rejected_degraded
            + r.rejected_other
            + r.retries_abandoned;
        terminal as f64 / r.offered.max(1) as f64
    };
    let (naive_rate, polite_rate) = (terminal_rate(&naive), terminal_rate(&polite));
    assert!(
        polite_rate < naive_rate,
        "honoring hints must reduce terminal rejections: polite {polite_rate:.4} vs naive {naive_rate:.4}"
    );
    // And both runs keep the exactly-once accounting clean.
    assert!(naive.clean(), "naive accounting");
    assert!(polite.clean(), "polite accounting");
}
