//! Golden-file tests pinning the JSON metrics schema at SCALE 9: the
//! BENCH report and the three soak artifact families.
//!
//! The golden file records the *skeleton* of the document — every field
//! path with its JSON type, arrays descended through their first
//! element — not the values, so perf changes don't churn it but any
//! schema change (added, removed, renamed, or retyped field) fails
//! loudly. Regenerate deliberately with
//! `SUNBFS_UPDATE_GOLDEN=1 cargo test --test metrics_json`.

use std::path::PathBuf;

use sunbfs::common::JsonValue;
use sunbfs::driver::{run_benchmark, FaultSpec, RunConfig};

fn skeleton(v: &JsonValue, path: &str, out: &mut Vec<String>) {
    match v {
        JsonValue::Null => out.push(format!("{path}: null")),
        JsonValue::Bool(_) => out.push(format!("{path}: bool")),
        JsonValue::UInt(_) | JsonValue::Int(_) => out.push(format!("{path}: int")),
        JsonValue::Float(_) => out.push(format!("{path}: float")),
        JsonValue::Str(_) => out.push(format!("{path}: string")),
        JsonValue::Array(items) => match items.first() {
            None => out.push(format!("{path}: array(empty)")),
            Some(first) => skeleton(first, &format!("{path}[]"), out),
        },
        JsonValue::Object(fields) => {
            for (k, v) in fields {
                skeleton(v, &format!("{path}.{k}"), out);
            }
        }
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}"))
}

fn check_against_golden(document: &JsonValue, name: &str) {
    let mut lines = Vec::new();
    skeleton(document, "$", &mut lines);
    let got = lines.join("\n") + "\n";

    let path = golden_path(name);
    if std::env::var_os("SUNBFS_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with SUNBFS_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    if got != want {
        let diff: Vec<String> = {
            let got_set: std::collections::BTreeSet<&str> = got.lines().collect();
            let want_set: std::collections::BTreeSet<&str> = want.lines().collect();
            want_set
                .difference(&got_set)
                .map(|l| format!("- {l}"))
                .chain(got_set.difference(&want_set).map(|l| format!("+ {l}")))
                .collect()
        };
        panic!(
            "JSON metrics schema changed relative to {} — if intentional, bump \
             SCHEMA_VERSION and regenerate with SUNBFS_UPDATE_GOLDEN=1.\n{}",
            path.display(),
            diff.join("\n")
        );
    }
}

#[test]
fn json_schema_matches_golden_at_scale_9() {
    let report = run_benchmark(&RunConfig::small_test(9, 4)).expect("benchmark must pass");
    check_against_golden(&report.to_json(), "bench_schema_scale9.txt");
}

#[test]
fn degraded_json_schema_matches_golden_at_scale_9() {
    // A campaign that quarantines root 0 (panic at collective 0, no
    // retry budget) and logs a straggler: the skeleton then pins the
    // `faults.injected[]` and `faults.quarantined[]` element schemas,
    // which a clean run leaves as empty arrays.
    let mut cfg = RunConfig::small_test(9, 4);
    cfg.faults = FaultSpec {
        seed: 5,
        panics: 1,
        stragglers: 1,
        corruptions: 0,
        straggler_secs: 0.5,
        horizon: 1,
    };
    cfg.max_root_retries = 0;
    let report = run_benchmark(&cfg).expect("degraded completion");
    assert!(report.faults.degraded(), "campaign must degrade the run");
    check_against_golden(&report.to_json(), "bench_schema_scale9_faults.txt");
}

#[test]
fn recovery_json_schema_matches_golden_at_scale_9() {
    // A campaign exercising both self-healing layers at once: probe
    // seeds (deterministically — the probe order never changes) until
    // one yields at least one healed retransmit AND at least one
    // iteration salvaged by checkpoint/resume, then pin that report's
    // skeleton, which includes the `recovery.retransmit_log[]` element
    // schema a clean run leaves empty.
    for seed in 0..32 {
        let mut cfg = RunConfig::small_test(9, 4);
        cfg.faults = FaultSpec {
            seed,
            panics: 1,
            stragglers: 0,
            corruptions: 2,
            straggler_secs: 0.0,
            horizon: 40,
        };
        cfg.max_root_retries = 2;
        let report = run_benchmark(&cfg).expect("campaign is absorbed or degraded, never fatal");
        if report.recovery.retransmits() >= 1 && report.recovery.iterations_salvaged >= 1 {
            check_against_golden(&report.to_json(), "bench_schema_scale9_resume.txt");
            return;
        }
    }
    panic!("no probed campaign seed exercised both recovery layers");
}

#[test]
fn store_json_schema_matches_golden_at_scale_9() {
    // A save → load round trip fills the schema-v6 `store` section;
    // the golden pins the *opened* shape (null cold-build seconds, a
    // measured warm-open wall) plus the `config.load_graph` string.
    let path =
        std::env::temp_dir().join(format!("sunbfs_store_golden_{}.sbfs", std::process::id()));
    let p = path.to_str().expect("utf-8 temp path");
    let base = RunConfig {
        num_roots: 2,
        ..RunConfig::small_test(9, 4)
    };
    run_benchmark(&RunConfig {
        save_graph: Some(p.to_string()),
        ..base.clone()
    })
    .expect("cold run must pass");
    let report = run_benchmark(&RunConfig {
        load_graph: Some(p.to_string()),
        ..base
    })
    .expect("warm run must pass");
    std::fs::remove_file(&path).ok();
    assert!(report.validated, "opened-session trees must validate");
    let store = report.store.as_ref().expect("store section present");
    assert!(store.opened, "second run must open the saved file");
    check_against_golden(&report.to_json(), "bench_schema_scale9_store.txt");
}

#[test]
fn classic_path_omits_the_serve_and_store_sections() {
    let report = run_benchmark(&RunConfig::small_test(9, 4)).expect("benchmark must pass");
    assert!(report.store.is_none());
    let js = report.to_json().render();
    assert!(!js.contains("\"serve\":"));
    assert!(!js.contains("\"store\":"));
    assert!(js.contains("\"schema_version\":12"));
    assert!(!js.contains("\"serve_batch\":"));
    assert!(!js.contains("\"serve_baseline\":"));
    assert!(js.contains("\"save_graph\":null"));
    assert!(js.contains("\"load_graph\":null"));
}

#[test]
fn report_contains_acceptance_fields() {
    let report = run_benchmark(&RunConfig::small_test(9, 4)).expect("benchmark must pass");
    let js = report.to_json().render();
    // Acceptance criteria: headline, per-iteration directions for all
    // six subgraphs, per-category time breakdown, OCS kernel
    // aggregates.
    assert!(js.contains("\"harmonic_mean_gteps\":"));
    for comp in ["EH2EH", "E2L", "L2E", "H2L", "L2H", "L2L"] {
        assert!(
            js.contains(&format!("\"{comp}\":")),
            "missing component {comp}"
        );
    }
    assert!(js.contains("\"direction\":\"push\"") || js.contains("\"direction\":\"pull\""));
    assert!(js.contains("\"time_breakdown\":"));
    assert!(js.contains("\"rma_ops\":"));
    assert!(js.contains("\"dma_bytes\":"));
    assert!(js.contains("\"atomic_ops\":"));
}

#[test]
fn soak_artifact_schemas_match_goldens_at_scale_9() {
    use std::time::Duration;
    use sunbfs::metrics::soak_artifact;
    use sunbfs::serve::{
        run_soak, ChaosConfig, LoadgenConfig, NetConfig, Profile, RepairRounds, ServeConfig,
        SessionConfig, SoakConfig, UpdatePlan,
    };

    // One-second windows; faults armed every 8 executed queries, so the
    // chaos run's transition log and state list are never empty.
    let mut cfg = SoakConfig {
        profile: Profile::Load,
        session: SessionConfig::small(9, 4),
        serve: ServeConfig::default(),
        net: NetConfig::default(),
        load: LoadgenConfig {
            connections: 2,
            qps: 100,
            duration: Duration::from_secs(1),
            ..LoadgenConfig::default()
        },
        chaos: ChaosConfig {
            every_queries: 8,
            max_events: 4,
            ..ChaosConfig::default()
        },
        availability_gate: 0.90,
        recovery_gate_ticks: 20_000,
        update_plan: UpdatePlan::parse("insert@8:32;insert@24:32").expect("plan parses"),
        repair: RepairRounds {
            rounds: 2,
            batch: 16,
            roots: 2,
        },
    };
    for (profile, golden) in [
        (Profile::Load, "soak_schema_load.txt"),
        (Profile::Chaos, "soak_schema_chaos.txt"),
        (Profile::Update, "soak_schema_update.txt"),
    ] {
        cfg.profile = profile;
        cfg.load.update_every = if profile == Profile::Update { 8 } else { 0 };
        let report = run_soak(&cfg).expect("soak runs");
        assert!(report.passed(), "{profile:?} failed its own gate");
        check_against_golden(&soak_artifact(&report), golden);
    }
}

/// Assert `value` renders as exactly `want`, and that parsing the render
/// gives `value` back — so a `usize` / `u32` counter that turned into a
/// signed or float number would fail even where the text agrees.
fn pin_render(name: &str, value: &JsonValue, want: &str) {
    let got = value.render();
    assert_eq!(got, want, "{name} renders differently");
    assert_eq!(
        JsonValue::parse(&got).as_ref(),
        Ok(value),
        "{name} does not round-trip with its number kinds"
    );
}

/// The byte-exact JSON of every plain record the reports are made of,
/// with distinct non-default values: `None` and `Some`, empty strings,
/// integral floats, `usize` / `u32` counters. The skeleton goldens above
/// pin keys and kinds; this pins the bytes.
#[test]
fn plain_records_render_byte_exact() {
    use sunbfs::common::{PoolStats, SimTime, ToJson};
    use sunbfs::core::{Direction, SubIterationStats};
    use sunbfs::driver::{
        BenchmarkReport, FaultReport, QuarantinedRoot, Quartiles, RecoveryReport, RootOutcome,
        WallClockReport,
    };
    use sunbfs::net::{FaultKind, FaultRecord, MeshShape, RetransmitRecord, Scope};
    use sunbfs::part::Thresholds;
    use sunbfs::serve::proto::health_reply;
    use sunbfs::serve::{
        BatchRecord, HealthSnapshot, HealthTransition, NetSummary, Quarantine, QueryRecord,
        ServeReport, StoreActivity,
    };
    use sunbfs::sunway::KernelReport;

    let pool = PoolStats {
        invocations: 3,
        chunks: 5,
        helpers: 2,
    };
    pin_render(
        "PoolStats",
        &pool.to_json(),
        r#"{"invocations":3,"chunks":5,"helpers":2}"#,
    );

    let pull = SubIterationStats {
        direction: Direction::Pull,
        refreshed: true,
        frontier_edges: 17,
        unexplored_edges: 99,
        scanned_edges: 42,
        kernel: KernelReport {
            time: SimTime::secs(2.0),
            dma_bytes: 4096,
            rma_bytes: 512,
            rma_ops: 7,
            gld_ops: 11,
            atomic_ops: 13,
            items: 600,
            pool,
        },
        pool: PoolStats {
            invocations: 1,
            chunks: 1,
            helpers: 0,
        },
    };
    pin_render(
        "SubIterationStats (pull)",
        &pull.to_json(),
        r#"{"direction":"pull","refreshed":true,"frontier_edges":17,"unexplored_edges":99,"scanned_edges":42,"kernel":{"time_s":2.0,"dma_bytes":4096,"rma_bytes":512,"rma_ops":7,"gld_ops":11,"atomic_ops":13,"items":600,"pool":{"invocations":3,"chunks":5,"helpers":2}},"pool":{"invocations":1,"chunks":1,"helpers":0}}"#,
    );
    let push = SubIterationStats {
        direction: Direction::Push,
        refreshed: false,
        scanned_edges: 8,
        ..pull
    };
    pin_render(
        "SubIterationStats (push)",
        &push.to_json(),
        r#"{"direction":"push","refreshed":false,"frontier_edges":17,"unexplored_edges":99,"scanned_edges":8,"kernel":{"time_s":2.0,"dma_bytes":4096,"rma_bytes":512,"rma_ops":7,"gld_ops":11,"atomic_ops":13,"items":600,"pool":{"invocations":3,"chunks":5,"helpers":2}},"pool":{"invocations":1,"chunks":1,"helpers":0}}"#,
    );

    let retransmits = vec![
        RetransmitRecord {
            from: 3,
            scope: Scope::Row,
            op: "hubsync.EH2EH".to_string(),
            op_index: 7,
            attempt: 2,
        },
        RetransmitRecord {
            from: 1,
            scope: Scope::Col,
            op: String::new(),
            op_index: 0,
            attempt: 1,
        },
        RetransmitRecord {
            from: 0,
            scope: Scope::World,
            op: "heur.totals".to_string(),
            op_index: 40,
            attempt: 3,
        },
    ];
    for (r, want) in retransmits.iter().zip([
        r#"{"from":3,"scope":"row","op":"hubsync.EH2EH","op_index":7,"attempt":2}"#,
        r#"{"from":1,"scope":"col","op":"","op_index":0,"attempt":1}"#,
        r#"{"from":0,"scope":"world","op":"heur.totals","op_index":40,"attempt":3}"#,
    ]) {
        pin_render("RetransmitRecord", &r.to_json(), want);
    }

    let transitions = vec![
        HealthTransition {
            from: "healthy",
            to: "degraded",
            at_tick: 12,
            reason: "2/4 window batches failed: \"rank 3\"".to_string(),
        },
        HealthTransition {
            from: "degraded",
            to: "healthy",
            at_tick: 30,
            reason: String::new(),
        },
    ];
    pin_render(
        "HealthTransition",
        &transitions[0].to_json(),
        r#"{"from":"healthy","to":"degraded","at_tick":12,"reason":"2/4 window batches failed: \"rank 3\""}"#,
    );
    pin_render(
        "HealthTransition (empty reason)",
        &transitions[1].to_json(),
        r#"{"from":"degraded","to":"healthy","at_tick":30,"reason":""}"#,
    );

    let batches = vec![
        BatchRecord {
            batch_id: 4,
            occupancy: 64,
            sim_seconds: 2.0,
            wall_seconds: 0.125,
            fallback: true,
            served: 63,
            quarantined: 1,
        },
        BatchRecord {
            batch_id: 5,
            occupancy: 3,
            sim_seconds: 0.5,
            wall_seconds: 1.0,
            fallback: false,
            served: 3,
            quarantined: 0,
        },
    ];
    pin_render(
        "BatchRecord (fallback)",
        &batches[0].to_json(),
        r#"{"batch_id":4,"occupancy":64,"sim_seconds":2.0,"wall_seconds":0.125,"fallback":true,"served":63,"quarantined":1}"#,
    );
    pin_render(
        "BatchRecord (batched)",
        &batches[1].to_json(),
        r#"{"batch_id":5,"occupancy":3,"sim_seconds":0.5,"wall_seconds":1.0,"fallback":false,"served":3,"quarantined":0}"#,
    );

    let queries = vec![
        QueryRecord {
            id: 9,
            root: 77,
            batch_id: Some(4),
            status: "served",
            sim_latency_s: 3.0,
            wall_latency_s: 0.25,
            via_fallback: true,
        },
        QueryRecord {
            id: 10,
            root: 0,
            batch_id: None,
            status: "deadline_exceeded",
            sim_latency_s: 0.0,
            wall_latency_s: 1.5,
            via_fallback: false,
        },
    ];
    pin_render(
        "QueryRecord (Some)",
        &queries[0].to_json(),
        r#"{"id":9,"root":77,"batch_id":4,"status":"served","sim_latency_s":3.0,"wall_latency_s":0.25,"via_fallback":true}"#,
    );
    pin_render(
        "QueryRecord (None)",
        &queries[1].to_json(),
        r#"{"id":10,"root":0,"batch_id":null,"status":"deadline_exceeded","sim_latency_s":0.0,"wall_latency_s":1.5,"via_fallback":false}"#,
    );

    let net = NetSummary {
        connections: 1,
        refused_connections: 2,
        requests: 3,
        protocol_errors: 4,
        accepted: 5,
        rejected: 6,
        rejected_backlog: 7,
        rejected_shutdown: 8,
        rejected_degraded: 9,
        results_delivered: 10,
        results_dropped: 11,
        results_served: 12,
        results_quarantined: 13,
        results_deadline_exceeded: 14,
        shutdown_drained: 15,
        health_transitions: 16,
        final_health: "degraded".to_string(),
        updates_committed: 17,
        update_edges: 18,
        updates_rejected: 19,
        final_epoch: 20,
    };
    pin_render(
        "NetSummary",
        &net.to_json(),
        r#"{"connections":1,"refused_connections":2,"requests":3,"protocol_errors":4,"accepted":5,"rejected":6,"rejected_backlog":7,"rejected_shutdown":8,"rejected_degraded":9,"results_delivered":10,"results_dropped":11,"results_served":12,"results_quarantined":13,"results_deadline_exceeded":14,"shutdown_drained":15,"health_transitions":16,"final_health":"degraded","updates_committed":17,"update_edges":18,"updates_rejected":19,"final_epoch":20}"#,
    );
    pin_render(
        "NetSummary (default)",
        &NetSummary::default().to_json(),
        r#"{"connections":0,"refused_connections":0,"requests":0,"protocol_errors":0,"accepted":0,"rejected":0,"rejected_backlog":0,"rejected_shutdown":0,"rejected_degraded":0,"results_delivered":0,"results_dropped":0,"results_served":0,"results_quarantined":0,"results_deadline_exceeded":0,"shutdown_drained":0,"health_transitions":0,"final_health":"","updates_committed":0,"update_edges":0,"updates_rejected":0,"final_epoch":0}"#,
    );

    let cold = StoreActivity {
        path: "/data/g \"14\".sbfs".to_string(),
        opened: false,
        saved: true,
        file_bytes: 1 << 20,
        pages: 256,
        cold_build_wall_seconds: Some(3.0),
        warm_open_wall_seconds: None,
    };
    let warm = StoreActivity {
        path: String::new(),
        opened: true,
        saved: false,
        cold_build_wall_seconds: None,
        warm_open_wall_seconds: Some(0.0625),
        ..cold.clone()
    };
    pin_render(
        "StoreActivity (cold)",
        &cold.to_json(),
        r#"{"path":"/data/g \"14\".sbfs","opened":false,"saved":true,"file_bytes":1048576,"pages":256,"cold_build_wall_seconds":3.0,"warm_open_wall_seconds":null}"#,
    );
    pin_render(
        "StoreActivity (warm)",
        &warm.to_json(),
        r#"{"path":"","opened":true,"saved":false,"file_bytes":1048576,"pages":256,"cold_build_wall_seconds":null,"warm_open_wall_seconds":0.0625}"#,
    );

    let health = HealthSnapshot {
        state: "recovering",
        ticks: 31,
        transitions: transitions.clone(),
        queue_depth: 6,
        served: 100,
        quarantined: 2,
        deadline_exceeded: 3,
        rejected_degraded: 4,
    };
    pin_render(
        "health_reply",
        &health_reply(&health),
        r#"{"reply":"health","state":"recovering","ticks":31,"queue_depth":6,"served":100,"quarantined":2,"deadline_exceeded":3,"rejected_degraded":4,"transitions":[{"from":"healthy","to":"degraded","at_tick":12,"reason":"2/4 window batches failed: \"rank 3\""},{"from":"degraded","to":"healthy","at_tick":30,"reason":""}]}"#,
    );
    let quiet = HealthSnapshot {
        state: "healthy",
        transitions: Vec::new(),
        ..health
    };
    pin_render(
        "health_reply (no transitions)",
        &health_reply(&quiet),
        r#"{"reply":"health","state":"healthy","ticks":31,"queue_depth":6,"served":100,"quarantined":2,"deadline_exceeded":3,"rejected_degraded":4,"transitions":[]}"#,
    );

    let serve = ServeReport {
        queue_capacity: 16,
        batch_max: 64,
        flush_deadline: 128,
        submitted: 70,
        served: 66,
        quarantined: 1,
        health: "degraded",
        health_transitions: transitions,
        occupancy_histogram: [1, 0, 0, 0, 0, 0, 1],
        batches,
        queries,
        batch_sim_seconds: 2.5,
        load_attempts: 1,
        ..ServeReport::default()
    };
    pin_render(
        "ServeReport",
        &serve.to_json(),
        r#"{"queue_capacity":16,"batch_max":64,"flush_deadline":128,"submitted":70,"served":66,"quarantined":1,"rejected_full":0,"rejected_invalid":0,"rejected_degraded":0,"deadline_exceeded":0,"availability":0.9850746268656716,"ticks":0,"health":"degraded","health_transitions":[{"from":"healthy","to":"degraded","at_tick":12,"reason":"2/4 window batches failed: \"rank 3\""},{"from":"degraded","to":"healthy","at_tick":30,"reason":""}],"chaos_injected":0,"chaos_panics":0,"chaos_stragglers":0,"chaos_corruptions":0,"max_queue_depth":0,"current_queue_depth":0,"fallback_batches":0,"occupancy_histogram":{"1":1,"2-3":0,"4-7":0,"8-15":0,"16-31":0,"32-63":0,"64":1},"batch_sim_seconds":2.5,"batch_roots_per_sec":26.4,"build_sim_seconds":0.0,"load_sim_seconds":0.0,"load_attempts":1,"updates_applied":0,"update_edges":0,"updates_failed":0,"epoch":0,"compactions":0,"repaired_queries":0,"repaired_vertices":0,"batches":[{"batch_id":4,"occupancy":64,"sim_seconds":2.0,"wall_seconds":0.125,"fallback":true,"served":63,"quarantined":1},{"batch_id":5,"occupancy":3,"sim_seconds":0.5,"wall_seconds":1.0,"fallback":false,"served":3,"quarantined":0}],"queries":[{"id":9,"root":77,"batch_id":4,"status":"served","sim_latency_s":3.0,"wall_latency_s":0.25,"via_fallback":true},{"id":10,"root":0,"batch_id":null,"status":"deadline_exceeded","sim_latency_s":0.0,"wall_latency_s":1.5,"via_fallback":false}]}"#,
    );

    // Records the BENCH report embeds: config's mesh / thresholds /
    // faults, the wall section, the per-root outcomes.
    let config = RunConfig {
        mesh: MeshShape::new(2, 3),
        thresholds: Thresholds::new(512, 32),
        faults: FaultSpec {
            seed: 5,
            panics: 1,
            stragglers: 2,
            corruptions: 3,
            straggler_secs: 2.0,
            horizon: 40,
        },
        save_graph: Some("g.sbfs".to_string()),
        ..RunConfig::default()
    };
    let report = BenchmarkReport {
        config,
        partition_stats: Vec::new(),
        runs: Vec::new(),
        validated: false,
        faults: FaultReport {
            injected: vec![FaultRecord {
                rank: 2,
                op_index: 9,
                scope: Scope::Row,
                op: "hubsync.EH2EH".to_string(),
                kind: FaultKind::Straggler { secs: 2.0 },
                sim_seconds: 0.5,
                applied: true,
            }],
            outcomes: vec![
                RootOutcome {
                    root: 12,
                    attempts: 1,
                    quarantined: false,
                    iterations_salvaged: 0,
                },
                RootOutcome {
                    root: 99,
                    attempts: 3,
                    quarantined: true,
                    iterations_salvaged: 4,
                },
            ],
            quarantined: vec![QuarantinedRoot {
                root: 99,
                reason: Quarantine {
                    label: "rank_failure",
                    detail: String::new(),
                },
            }],
            total_retries: 2,
        },
        recovery: RecoveryReport {
            retransmit_log: retransmits,
            checkpoints_taken: 6,
            iterations_salvaged: 4,
        },
        store: None,
        wall: WallClockReport {
            workers: 4,
            available_parallelism: 2,
            total_seconds: 3.0,
            bfs_seconds: 1.5,
            load_seconds: 1.0,
            traverse_seconds: 0.5,
            validate_seconds: 1.25,
            validate_root_seconds: Quartiles {
                min: 0.125,
                q1: 0.25,
                median: 1.0,
                q3: 2.0,
                max: 4.0,
            },
            traversed_edges: 3_000_000,
            edges_per_second: 2_000_000.0,
        },
    };
    let doc = report.to_json();
    let section = |path: &[&str]| {
        path.iter()
            .try_fold(&doc, |v, k| v.get(k))
            .unwrap_or_else(|| panic!("report has no {path:?}"))
            .clone()
    };
    for (path, want) in [
        (&["config", "mesh"][..], r#"{"rows":2,"cols":3}"#),
        (&["config", "thresholds"][..], r#"{"e":512,"h":32}"#),
        (
            &["config", "faults"][..],
            r#"{"seed":5,"panics":1,"stragglers":2,"corruptions":3,"straggler_secs":2.0,"horizon":40}"#,
        ),
        (
            &["config"][..],
            r#"{"scale":9,"edge_factor":16,"mesh":{"rows":2,"cols":3},"thresholds":{"e":512,"h":32},"engine":{"alpha_local":0.03,"beta_crossing":1.0,"sub_iteration":true,"vanilla_alpha":0.03,"segmenting":true,"direction_heuristic":"measured","alpha_measured":3.0,"beta_measured":6.0},"seed":42,"num_roots":3,"validate":false,"faults":{"seed":5,"panics":1,"stragglers":2,"corruptions":3,"straggler_secs":2.0,"horizon":40},"max_root_retries":2,"save_graph":"g.sbfs","load_graph":null}"#,
        ),
        (
            &["wall"][..],
            r#"{"workers":4,"available_parallelism":2,"total_seconds":3.0,"bfs_seconds":1.5,"load_seconds":1.0,"traverse_seconds":0.5,"validate_seconds":1.25,"validate_root_seconds":{"min":0.125,"q1":0.25,"median":1.0,"q3":2.0,"max":4.0},"traversed_edges":3000000,"edges_per_second":2000000.0}"#,
        ),
        (
            &["faults"][..],
            r#"{"degraded":true,"total_retries":2,"injected":[{"rank":2,"op_index":9,"scope":"row","op":"hubsync.EH2EH","kind":"straggler","secs":2.0,"applied":true,"sim_seconds":0.5}],"roots":[{"root":12,"attempts":1,"quarantined":false,"iterations_salvaged":0},{"root":99,"attempts":3,"quarantined":true,"iterations_salvaged":4}],"quarantined":[{"root":99,"reason":"rank_failure","detail":""}]}"#,
        ),
        (
            &["recovery"][..],
            r#"{"retransmits":3,"retransmit_log":[{"from":3,"scope":"row","op":"hubsync.EH2EH","op_index":7,"attempt":2},{"from":1,"scope":"col","op":"","op_index":0,"attempt":1},{"from":0,"scope":"world","op":"heur.totals","op_index":40,"attempt":3}],"checkpoints_taken":6,"iterations_salvaged":4}"#,
        ),
    ] {
        pin_render(&path.join("."), &section(path), want);
    }
}

/// Every committed artifact is exactly what the JSON layer writes for
/// what it reads: parsing one and pretty-rendering the value gives the
/// same bytes (number kinds, float digits, escapes, indentation and the
/// single trailing newline).
#[test]
fn committed_artifacts_are_fixed_points_of_parse_and_render() {
    for name in [
        "BENCH_14_2x2.json",
        "BENCH_16_2x2.json",
        "BENCH_18_2x2.json",
        "SERVE_LOAD_14.json",
        "SERVE_CHAOS_14.json",
        "UPDATE_14.json",
    ] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let value = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let again = value.render_pretty();
        let at = again
            .bytes()
            .zip(text.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(again.len().min(text.len()));
        assert!(
            again == text,
            "{name} differs from its parse → render_pretty at byte {at}"
        );
    }
}
