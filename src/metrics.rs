//! Structured JSON metrics for every benchmark run.
//!
//! Turns a [`BenchmarkReport`] into one machine-readable record —
//! the perf trajectory the roadmap regression-gates on — and writes it
//! to `BENCH_<scale>_<rows>x<cols>.json`. Field semantics and the
//! `sub.*` / `comm.*` / `hubsync.*` prefix convention are documented in
//! `docs/METRICS.md`; the schema itself is pinned by a golden-file test
//! (`tests/metrics_json.rs`).

use std::io::Write as _;
use std::path::Path;

use sunbfs_common::{JsonValue, TimeAccumulator, ToJson};
use sunbfs_core::{config, IterationStats};
use sunbfs_net::MeshShape;
use sunbfs_part::ComponentStats;
use sunbfs_sunway::KernelReport;

use sunbfs_serve::SoakReport;

use crate::driver::{
    BenchmarkReport, FaultReport, RecoveryReport, RootRun, RunConfig, EDGE_FACTOR,
};

/// Bump when the JSON layout changes shape (adding fields is a bump
/// too: the golden test pins the exact skeleton).
///
/// v2: added the `faults` section (fault injection, retry and
/// quarantine observability) and the `config.faults` /
/// `config.max_root_retries` knobs.
///
/// v3: added the `recovery` section (exchange-layer retransmits,
/// checkpoints taken, iterations salvaged by resume), the per-root
/// `iterations_salvaged` under `faults.roots`, and the per-iteration
/// `end_op` collective counter.
///
/// v4: added the `serve` section (query-service observability: batch
/// occupancy histogram, queue depths, per-query latencies, batched vs
/// sequential roots/sec — `null` on the classic per-root driver path)
/// and the `config.serve_batch` / `config.serve_baseline` knobs.
///
/// v5: added the `wall` section (host wall-clock time and real
/// traversed-edges/sec — the `SUNBFS_WORKERS` scaling surface, since
/// simulated metrics are worker-count invariant by contract) and the
/// per-kernel `pool` worker-scaling counters inside every
/// sub-iteration and `kernel_totals` record.
///
/// v6: added the `store` section (persistent partition-store activity:
/// file path, bytes, pages, opened-vs-built, cold-build vs warm-open
/// wall seconds — `null` when no store path was involved), the
/// `config.save_graph` / `config.load_graph` knobs, and the serve
/// section's `load_sim_seconds` (simulated seconds across all build
/// attempts, failed ones included).
///
/// v7: added the `serve_load` artifact family — the TCP saturation
/// record the `soak load` profile emits
/// (`{"schema_version":7,"serve_load":{...}}` at the time:
/// offered/accepted/rejected rates by rejection class,
/// `retry_after_ticks` hint coverage, p50/p99/p999 end-to-end latency,
/// and the lost/duplicate/unacked/protocol-error invariant counters).
/// The `BenchmarkReport` shape itself is unchanged from v6.
///
/// v8: chaos-hardened serving. The `serve` section gained the health
/// state machine (`health`, `health_transitions`, `rejected_degraded`,
/// `deadline_exceeded`, `ticks`, `availability`, and the `chaos_*`
/// injection counters); `serve_load` gained the retry/deadline client
/// counters (`rejected_degraded`, `rejections_seen`, `retried`,
/// `retry_successes`, `retries_abandoned`, `deadline_exceeded`,
/// `salvaged`); and the `serve_chaos` artifact family was added — the
/// availability record the `soak chaos` profile emits
/// (`{"schema_version":8,"serve_chaos":{...}}` at the time: availability vs gate,
/// recovery episodes and worst recovery time in ticks, the observed
/// health-state sequence, and the nested load/serve/net views).
/// The `BenchmarkReport` shape itself is unchanged from v6.
///
/// v9: live graph mutations. The `serve` section gained the update
/// counters (`updates_applied`, `update_edges`, `updates_failed`,
/// `epoch`, `compactions`, `repaired_queries`, `repaired_vertices`);
/// `serve_load` gained the client-side update view
/// (`updates_offered`, `updates_committed`, `update_edges`,
/// `updates_rejected`, `epoch_regressions`, `final_epoch`); the `net`
/// transport summary gained `updates_committed` / `update_edges` /
/// `updates_rejected` / `final_epoch`; and the `update_soak` artifact
/// family was added — the live-mutation record the `soak update`
/// profile emits (`{"schema_version":9,"update_soak":{...}}` at the
/// time: repair-vs-recompute
/// speedup, updates/sec, the equivalence verdict, and the nested
/// `serve_load` view of the mutating TCP phase).
/// The `BenchmarkReport` shape itself is unchanged from v6.
///
/// v10: measured-degree direction heuristics and vectorized bitmap
/// kernels. Every per-iteration `subs.<COMPONENT>` record gained
/// `frontier_edges` / `unexplored_edges` — the measured `m_f` / `m_u`
/// degree masses the component's push/pull decision saw (zeros under
/// the fixed heuristic); the `config.engine` object gained
/// `direction_heuristic` (`"fixed"` | `"measured"`), `alpha_measured`,
/// and `beta_measured`. Traversal results are byte-identical to v9
/// under `direction_heuristic: "fixed"`.
///
/// v11: a validated run's wall seconds, attributed. `wall` gained
/// `load_seconds` / `traverse_seconds` (their sum is still
/// `bfs_seconds`), `validate_seconds` and `validate_root_seconds`
/// (`min` / `q1` / `median` / `q3` / `max` over roots, as the Graph 500
/// output block prints them); every `roots[]` entry gained
/// `validate_seconds`; and the optional `serve` / `store` sections are
/// omitted when the run had none, where v10 rendered `null`.
pub const SCHEMA_VERSION: u64 = 11;

/// The one envelope every soak artifact is written in:
/// `{"schema_version":N,"<section>":{...}}`, the section named by the
/// run's profile (`serve_load` / `serve_chaos` / `update_soak`).
pub fn soak_artifact(report: &SoakReport) -> JsonValue {
    let (section, body) = report.section();
    JsonValue::object()
        .field("schema_version", SCHEMA_VERSION)
        .field(section, body)
        .build()
}

/// Ratio bin edges of the partition load-balance histogram: each rank's
/// `total / mean` storage falls into one bin; the last bin is open.
pub const LOAD_BALANCE_BIN_EDGES: [f64; 9] = [0.0, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0];

impl BenchmarkReport {
    /// The complete run as one JSON record.
    pub fn to_json(&self) -> JsonValue {
        let mut doc = JsonValue::object()
            .field("schema_version", SCHEMA_VERSION)
            .field("config", config_json(&self.config))
            .field("validated", self.validated)
            .field("harmonic_mean_gteps", self.harmonic_mean_gteps())
            .field("mean_gteps", self.mean_gteps())
            .field("time_breakdown", grouped_times(&self.total_times()))
            .field("partition", partition_json(&self.partition_stats))
            .field(
                "roots",
                JsonValue::Array(self.runs.iter().map(root_run_json).collect()),
            )
            .field("faults", faults_json(&self.faults))
            .field("recovery", recovery_json(&self.recovery));
        if let Some(serve) = &self.serve {
            doc = doc.field("serve", serve.to_json());
        }
        if let Some(store) = &self.store {
            doc = doc.field("store", store.to_json());
        }
        doc.field("wall", self.wall.to_json()).build()
    }
}

/// The self-healing section: what the exchange layer retransmitted and
/// what the checkpoint layer salvaged — the evidence that a fault was
/// absorbed below the retry loop instead of costing a whole root.
fn recovery_json(r: &RecoveryReport) -> JsonValue {
    JsonValue::object()
        .field("retransmits", r.retransmits())
        .field("retransmit_log", r.retransmit_log.to_json())
        .field("checkpoints_taken", r.checkpoints_taken)
        .field("iterations_salvaged", r.iterations_salvaged)
        .build()
}

/// The fault/retry/quarantine section: everything an operator needs to
/// decide whether a degraded run's numbers are still usable.
fn faults_json(f: &FaultReport) -> JsonValue {
    let quarantined = f
        .quarantined
        .iter()
        .map(|q| {
            JsonValue::object()
                .field("root", q.root)
                .field("reason", q.reason.label)
                .field("detail", q.reason.detail.as_str())
                .build()
        })
        .collect();
    JsonValue::object()
        .field("degraded", f.degraded())
        .field("total_retries", f.total_retries)
        .field("injected", f.injected.to_json())
        .field("roots", f.outcomes.to_json())
        .field("quarantined", JsonValue::Array(quarantined))
        .build()
}

fn config_json(c: &RunConfig) -> JsonValue {
    JsonValue::object()
        .field("scale", c.scale)
        .field("edge_factor", EDGE_FACTOR)
        .field("mesh", c.mesh.to_json())
        .field("thresholds", c.thresholds.to_json())
        .field(
            "engine",
            JsonValue::object()
                .field("alpha_local", config::ALPHA_LOCAL)
                .field("beta_crossing", config::BETA_CROSSING)
                .field("sub_iteration", c.engine.sub_iteration)
                .field("vanilla_alpha", config::VANILLA_ALPHA)
                .field("segmenting", c.engine.segmenting)
                .field("direction_heuristic", c.engine.heuristic.name())
                .field("alpha_measured", config::ALPHA_MEASURED)
                .field("beta_measured", config::BETA_MEASURED),
        )
        .field("seed", c.seed)
        .field("num_roots", c.num_roots)
        .field("validate", c.validate)
        .field("faults", c.faults.to_json())
        .field("max_root_retries", c.max_root_retries)
        .field("serve_batch", c.serve_batch)
        .field("serve_baseline", c.serve_baseline)
        .field("save_graph", c.save_graph.as_deref())
        .field("load_graph", c.load_graph.as_deref())
        .build()
}

/// Group flat time categories by their first dotted segment: the
/// existing `sub.*` / `comm.*` / `hubsync.*` / `reduce.*` prefixes
/// become one sub-object each, with a `total_s` per group and overall.
pub fn grouped_times(times: &TimeAccumulator) -> JsonValue {
    // (prefix, categories within it, group total seconds).
    type Group = (String, Vec<(String, JsonValue)>, f64);
    let mut groups: Vec<Group> = Vec::new();
    let mut overall = 0.0;
    for (cat, secs) in times.entries() {
        let cat = cat.to_string();
        let prefix = cat.split('.').next().unwrap_or("other").to_string();
        overall += secs;
        match groups.iter_mut().find(|(p, _, _)| *p == prefix) {
            Some((_, cats, total)) => {
                cats.push((cat, JsonValue::Float(secs)));
                *total += secs;
            }
            None => groups.push((prefix, vec![(cat, JsonValue::Float(secs))], secs)),
        }
    }
    let mut out = JsonValue::object().field("total_s", overall);
    for (prefix, cats, total) in groups {
        let body = JsonValue::Object(
            std::iter::once(("total_s".to_string(), JsonValue::Float(total)))
                .chain(cats)
                .collect(),
        );
        out = out.field(&prefix, body);
    }
    out.build()
}

fn partition_json(stats: &[ComponentStats]) -> JsonValue {
    JsonValue::object()
        .field("per_rank", stats.to_json())
        .field("load_balance", load_balance_histogram(stats))
        .build()
}

/// The Figure 13 raw data condensed: per-rank stored-edge totals binned
/// by their ratio to the mean.
pub fn load_balance_histogram(stats: &[ComponentStats]) -> JsonValue {
    let totals: Vec<u64> = stats.iter().map(ComponentStats::total).collect();
    let n = totals.len().max(1) as f64;
    let mean = totals.iter().sum::<u64>() as f64 / n;
    let min = totals.iter().copied().min().unwrap_or(0);
    let max = totals.iter().copied().max().unwrap_or(0);
    // One bucket per edge pair plus the open last bucket.
    let mut counts = vec![0u64; LOAD_BALANCE_BIN_EDGES.len()];
    for &t in &totals {
        let ratio = if mean > 0.0 { t as f64 / mean } else { 0.0 };
        let mut bin = 0;
        for (i, &lo) in LOAD_BALANCE_BIN_EDGES.iter().enumerate() {
            if ratio >= lo {
                bin = i;
            }
        }
        counts[bin] += 1;
    }
    let bins = LOAD_BALANCE_BIN_EDGES
        .iter()
        .enumerate()
        .map(|(i, &lo)| {
            JsonValue::object()
                .field("ratio_lo", lo)
                .field("ratio_hi", LOAD_BALANCE_BIN_EDGES.get(i + 1).copied())
                .field("ranks", counts[i])
                .build()
        })
        .collect();
    JsonValue::object()
        .field("mean_edges", mean)
        .field("min_edges", min)
        .field("max_edges", max)
        .field(
            "max_over_mean",
            if mean > 0.0 { max as f64 / mean } else { 0.0 },
        )
        .field("histogram", JsonValue::Array(bins))
        .build()
}

/// Sum each component's OCS kernel work over all iterations of a run.
pub fn kernel_totals(iterations: &[IterationStats]) -> [KernelReport; 6] {
    let mut totals = [KernelReport::default(); 6];
    for it in iterations {
        for (total, sub) in totals.iter_mut().zip(&it.subs) {
            total.join_serial(&sub.kernel);
        }
    }
    totals
}

fn root_run_json(run: &RootRun) -> JsonValue {
    let kernels = JsonValue::Object(
        sunbfs_core::Component::ALL
            .iter()
            .zip(kernel_totals(&run.iterations))
            .map(|(c, k)| (c.name().to_string(), k.to_json()))
            .collect(),
    );
    JsonValue::object()
        .field("root", run.root)
        .field("sim_seconds", run.sim_seconds)
        .field("traversed_edges", run.traversed_edges)
        .field("engine_traversed_edges", run.engine_traversed_edges)
        .field("visited_vertices", run.visited_vertices)
        .field("gteps", run.gteps)
        .field("validate_seconds", run.validate_seconds)
        .field("times", grouped_times(&run.times))
        .field("comm", run.comm.to_json())
        .field("kernel_totals", kernels)
        .field("iterations", run.iterations.to_json())
        .build()
}

/// The default report filename: `BENCH_<scale>_<rows>x<cols>.json`.
pub fn default_report_path(scale: u32, mesh: MeshShape) -> String {
    format!("BENCH_{scale}_{}x{}.json", mesh.rows, mesh.cols)
}

/// Pretty-render the report and write it to `path`.
pub fn write_report(report: &BenchmarkReport, path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(report.to_json().render_pretty().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_benchmark;

    #[test]
    fn grouped_times_split_by_prefix() {
        let mut t = TimeAccumulator::new();
        t.add("sub.EH2EH.pull", sunbfs_common::SimTime::secs(1.0));
        t.add("sub.L2L.push", sunbfs_common::SimTime::secs(0.5));
        t.add("comm.alltoallv.L2L", sunbfs_common::SimTime::secs(2.0));
        let js = grouped_times(&t).render();
        assert!(js.starts_with(r#"{"total_s":3.5"#), "got {js}");
        assert!(js.contains(r#""sub":{"total_s":1.5"#), "got {js}");
        assert!(js.contains(r#""comm":{"total_s":2.0"#), "got {js}");
    }

    #[test]
    fn load_balance_histogram_counts_every_rank() {
        let a = ComponentStats {
            l2l: 100,
            ..Default::default()
        };
        let b = ComponentStats {
            l2l: 300,
            ..Default::default()
        };
        let js = load_balance_histogram(&[a, b]).render();
        // mean 200: ratios 0.5 and 1.5 → both bins populated, max/mean 1.5.
        assert!(js.contains(r#""max_over_mean":1.5"#), "got {js}");
        assert!(
            js.contains(r#""ratio_lo":0.5,"ratio_hi":0.75,"ranks":1"#),
            "got {js}"
        );
        assert!(
            js.contains(r#""ratio_lo":1.5,"ratio_hi":2.0,"ranks":1"#),
            "got {js}"
        );
    }

    #[test]
    fn default_path_encodes_scale_and_mesh() {
        assert_eq!(
            default_report_path(14, MeshShape::new(2, 8)),
            "BENCH_14_2x8.json"
        );
    }

    #[test]
    fn report_json_contains_headline_and_directions() {
        let report = run_benchmark(&crate::driver::RunConfig::small_test(9, 4)).expect("benchmark");
        let js = report.to_json().render();
        assert!(js.contains("\"harmonic_mean_gteps\":"));
        assert!(js.contains("\"direction\":"));
        assert!(js.contains("\"EH2EH\":"));
        assert!(js.contains("\"rma_ops\":"));
        assert!(js.contains("\"load_balance\":"));
        // Fault observability is always present, even on clean runs.
        assert!(js.contains("\"faults\":{\"degraded\":false"));
        assert!(js.contains("\"total_retries\":0"));
        assert!(js.contains("\"max_root_retries\":2"));
    }
}
