//! End-to-end fault containment: an injected fault campaign must yield
//! a complete, schema-valid, explicitly-degraded benchmark report —
//! never an abort — and identical seeds must yield identical injection
//! schedules and byte-identical report JSON.

use std::time::Duration;

use proptest::prelude::*;
use sunbfs::core::{reference_bfs, BatchOutput, UNREACHED_DEPTH};
use sunbfs::driver::{run_benchmark, run_benchmark_with_sleeper, FaultSpec, RunConfig};
use sunbfs::part::Thresholds;
use sunbfs::rmat::{degrees, generate_edges};
use sunbfs::serve::{GraphSession, SessionConfig};
use sunbfs_net::{CorruptMode, FaultEvent, FaultKind, FaultPlan};

/// A campaign guaranteed to hit root 0's first attempt: one panic at
/// collective index 0 — the first collective of the first traversal
/// (campaigns are armed on the resident session, after the build).
fn one_panic_at_start(seed: u64) -> FaultSpec {
    FaultSpec {
        seed,
        panics: 1,
        stragglers: 0,
        corruptions: 0,
        straggler_secs: 0.0,
        horizon: 1,
    }
}

#[test]
fn quarantined_root_still_yields_schema_valid_degraded_json() {
    let mut cfg = RunConfig::small_test(9, 4);
    cfg.faults = one_panic_at_start(5);
    cfg.max_root_retries = 0; // no retry budget: root 0 must quarantine
    let report = run_benchmark(&cfg).expect("degraded completion, not abort");

    assert!(report.faults.degraded());
    assert!(!report.validated, "degraded reports are never validated");
    assert_eq!(report.runs.len(), 2, "the two surviving roots complete");
    assert_eq!(report.faults.quarantined.len(), 1);
    assert_eq!(report.faults.injected.len(), 1);
    assert_eq!(report.faults.total_retries, 0);
    assert_eq!(report.faults.outcomes.len(), 3);
    assert!(report.faults.outcomes[0].quarantined);
    assert_eq!(report.faults.outcomes[0].attempts, 1);
    for run in &report.runs {
        assert!(run.gteps > 0.0, "survivors carry full statistics");
    }

    // The JSON report is complete and carries the fault section.
    let js = report.to_json().render();
    assert!(js.contains("\"schema_version\":12"), "got {js}");
    assert!(js.contains("\"degraded\":true"));
    assert!(js.contains("\"total_retries\":0"));
    assert!(js.contains("\"reason\":\"rank_failure\""));
    assert!(js.contains("\"kind\":\"panic\""));
    assert!(js.contains("\"harmonic_mean_gteps\":"));
    // The quarantined root appears in outcomes but not in `roots`.
    let quarantined_root = report.faults.quarantined[0].root;
    assert!(!report.runs.iter().any(|r| r.root == quarantined_root));
}

#[test]
fn retry_budget_turns_the_same_campaign_into_a_clean_report() {
    // Same single-shot fault, but with retries available: the fault is
    // transient (fires once per cluster lifetime), so the report ends
    // clean and validated with exactly one retry spent.
    let mut cfg = RunConfig::small_test(9, 4);
    cfg.faults = one_panic_at_start(5);
    cfg.max_root_retries = 2;
    let report = run_benchmark(&cfg).expect("retry absorbs the fault");

    assert!(!report.faults.degraded());
    assert!(report.validated);
    assert_eq!(report.runs.len(), 3);
    assert_eq!(report.faults.total_retries, 1);
    assert_eq!(report.faults.injected.len(), 1);
    assert_eq!(report.faults.outcomes[0].attempts, 2);
    let js = report.to_json().render();
    assert!(js.contains("\"degraded\":false"));
    assert!(js.contains("\"total_retries\":1"));
}

#[test]
fn applied_corruption_is_healed_by_retransmit_without_any_retry() {
    // Probe campaign seeds until the planted corruption lands on a
    // corruptible payload (a corruption aimed at e.g. a barrier is
    // logged but not applied). The first applied one must be healed at
    // the exchange layer: the run completes clean and validated, with
    // the retransmit — not a root retry — as the only trace.
    for seed in 0..64 {
        let mut cfg = RunConfig::small_test(8, 4);
        cfg.num_roots = 1;
        cfg.faults = FaultSpec {
            seed,
            panics: 0,
            stragglers: 0,
            corruptions: 1,
            straggler_secs: 0.0,
            horizon: 30,
        };
        let report = run_benchmark(&cfg).expect("corruption is healed, not fatal");
        if !report.faults.injected.iter().any(|f| f.applied) {
            continue;
        }
        assert!(report.validated);
        assert!(!report.faults.degraded());
        assert_eq!(
            report.faults.total_retries, 0,
            "healing happens below the retry layer"
        );
        assert!(
            report.recovery.retransmits() >= 1,
            "an applied corruption must force at least one retransmit"
        );
        let rec = &report.recovery.retransmit_log[0];
        assert_eq!(rec.attempt, 1, "one retransmit round heals a single hit");
        let js = report.to_json().render();
        assert!(js.contains("\"retransmits\":"), "got {js}");
        assert!(js.contains("\"checkpoints_taken\":"));
        return;
    }
    panic!("no probed campaign seed produced an applied corruption");
}

#[test]
fn batch_traversal_heals_a_corrupted_triple_exchange() {
    // The batch engine ships `(dest, parent, mask)` triples; a bitflip
    // planted on one of its `alltoallv` send sets must be applied,
    // caught by the frame and healed by retransmit, leaving every depth
    // equal to the serial reference. Probe op indices of one session's
    // batch until the event lands on such an exchange (earlier indices
    // hit hub syncs or heuristic collectives and heal the same way,
    // unasserted).
    let cfg = SessionConfig {
        thresholds: Thresholds::new(64, 16),
        ..SessionConfig::small(7, 4)
    };
    let session = GraphSession::load(cfg, FaultPlan::none()).expect("load");
    let n = session.num_vertices();
    let edges = generate_edges(&cfg.rmat());
    let degs = degrees(n, &edges);
    let roots: Vec<u64> = (0..n).filter(|&v| degs[v as usize] > 0).take(3).collect();
    let batch = || -> Vec<BatchOutput> {
        let outs = session.run_batch(&roots).into_iter();
        outs.map(|o| o.expect("no rank lost").expect("terminates"))
            .collect()
    };
    // An event past the batch's last collective would never fire.
    let ops = batch()[3].stats.comm.total_with_prefix("").count;
    let cluster = session.cluster();
    for op_index in 0..ops {
        let retransmits = cluster.retransmit_log().len();
        cluster.fault_plan().inject([FaultEvent {
            rank: 3,
            op_index,
            kind: FaultKind::Corrupt {
                mode: CorruptMode::BitFlip,
            },
        }]);
        let outs = batch();
        let log = cluster.fault_log();
        let fired = log.iter().find(|f| f.op_index == op_index).expect("fired");
        if !(fired.applied && fired.op.starts_with("comm.alltoallv")) {
            continue;
        }
        assert_eq!(
            cluster.retransmit_log().len() - retransmits,
            1,
            "healed by one retransmit"
        );
        let depths: Vec<u32> = outs.iter().flat_map(|o| o.depths.iter().copied()).collect();
        for (b, &root) in roots.iter().enumerate() {
            let (_, want) = reference_bfs(n, &edges, root);
            for v in 0..n as usize {
                let got = match depths[v * roots.len() + b] {
                    UNREACHED_DEPTH => u64::MAX,
                    d => d as u64,
                };
                assert_eq!(got, want[v], "root {root} vertex {v} (op {op_index})");
            }
        }
        return;
    }
    panic!("no corruption landed on a batch alltoallv: the triples were never damaged");
}

#[test]
fn retry_backoff_follows_the_exponential_schedule() {
    // Several panics stacked on the first collective force repeated
    // retries; the injectable sleeper observes the exact backoff
    // sequence, which must match the documented 2^attempt schedule
    // reconstructed from the per-root attempt counts.
    for seed in 0..32 {
        let mut cfg = RunConfig::small_test(8, 4);
        cfg.faults = FaultSpec {
            seed,
            panics: 4,
            stragglers: 0,
            corruptions: 0,
            straggler_secs: 0.0,
            horizon: 1,
        };
        cfg.max_root_retries = 4;
        let mut sleeps: Vec<Duration> = Vec::new();
        let report = run_benchmark_with_sleeper(&cfg, &mut |d| sleeps.push(d))
            .expect("retries absorb the campaign");
        if !report.faults.outcomes.iter().any(|o| o.attempts >= 3) {
            continue; // need a root that backed off at least twice
        }
        let expected: Vec<Duration> = report
            .faults
            .outcomes
            .iter()
            .flat_map(|o| (1..o.attempts).map(|a| Duration::from_millis(1u64 << a.min(6))))
            .collect();
        assert_eq!(sleeps, expected, "backoff schedule (seed {seed})");
        assert_eq!(sleeps.len() as u64, report.faults.total_retries);
        return;
    }
    panic!("no probed campaign seed produced a doubly-retried root");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Determinism: the same `FaultSpec` seed produces the identical
    /// injection schedule, and two full benchmark runs under that
    /// campaign render byte-identical (possibly degraded) JSON.
    #[test]
    fn identical_seed_gives_identical_schedule_and_report_json(
        seed in 0u64..1_000,
        panics in 0u32..3,
        stragglers in 0u32..2,
    ) {
        let spec = FaultSpec {
            seed,
            panics,
            stragglers,
            corruptions: 1,
            straggler_secs: 0.25,
            horizon: 40,
        };
        let a = FaultPlan::generate(&spec, 4);
        let b = FaultPlan::generate(&spec, 4);
        prop_assert_eq!(a, b);

        let mut cfg = RunConfig::small_test(8, 4);
        cfg.faults = spec;
        cfg.max_root_retries = 1;
        let mut ra = run_benchmark(&cfg).expect("first run completes");
        let mut rb = run_benchmark(&cfg).expect("second run completes");
        prop_assert_eq!(
            ra.faults.injected.len(),
            rb.faults.injected.len()
        );
        // Everything but the host-measured parts — the `wall` section
        // (schema v5) and each root's `validate_seconds` (v11) — must be
        // byte-identical; wall-clock timings are the one part of the
        // report that legitimately varies between runs.
        ra.wall = Default::default();
        rb.wall = Default::default();
        for run in ra.runs.iter_mut().chain(&mut rb.runs) {
            run.validate_seconds = 0.0;
        }
        prop_assert_eq!(ra.to_json().render(), rb.to_json().render());
    }
}
