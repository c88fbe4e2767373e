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
fn serve_json_schema_matches_golden_at_scale_9() {
    // The serve path fills the schema-v4 `serve` section (occupancy
    // histogram, per-batch and per-query records, baseline comparison);
    // the golden pins its skeleton. Two batches (batch_max 2, 3 roots)
    // so the partial-flush shape is exercised too.
    let cfg = RunConfig {
        serve_batch: true,
        serve_baseline: true,
        ..RunConfig::small_test(9, 4)
    };
    let report = run_benchmark(&cfg).expect("serve benchmark must pass");
    assert!(report.validated, "served trees must validate");
    let serve = report.serve.as_ref().expect("serve section present");
    assert_eq!(serve.served, 3);
    assert!(serve.speedup().is_some(), "baseline requested");
    check_against_golden(&report.to_json(), "bench_schema_scale9_serve.txt");
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
    assert!(report.serve.is_none());
    assert!(report.store.is_none());
    let js = report.to_json().render();
    assert!(!js.contains("\"serve\":"));
    assert!(!js.contains("\"store\":"));
    assert!(js.contains("\"schema_version\":11"));
    assert!(js.contains("\"serve_batch\":false"));
    assert!(js.contains("\"serve_baseline\":false"));
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
