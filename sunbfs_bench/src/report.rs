//! Metric names, units and the output formats.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json` (a test keeps them equal): an untraced run prints
//! exactly [`END_TO_END`], a traced run exactly [`PER_LAYER`], on every
//! workload.

use std::fmt::Write as _;

use sunbfs::common::JsonValue;

use crate::stats::Stat;

/// `(name, unit)` of every end-to-end metric. "op" is one BFS: a root
/// traversal in the Graph 500 workloads, a served query in the serving
/// ones.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("traverse_meps", "Medges/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric ([`EXACT`] lists the counts
/// among them that repeat exactly for a seed).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rmat.generate_s", "s"),
    ("rmat.medges_per_s", "Medges/s"),
    ("sort.paradis_mkeys_per_s", "Mkeys/s"),
    ("sort.psrs_s", "s"),
    ("part.build_s", "s"),
    ("part.bytes", "bytes"),
    ("part.eh2eh_edges", "count"),
    ("part.l2l_edges", "count"),
    ("net.rendezvous_us_p50", "us"),
    ("net.alltoallv_mb_per_s", "MB/s"),
    ("net.collectives_per_root", "count"),
    ("net.bytes_per_root", "bytes"),
    ("sunway.ocs_mitems_per_s", "Mitems/s"),
    ("sunway.ocs_sim_s", "s"),
    ("core.engine.levels_per_root", "count"),
    ("core.engine.scanned_edges_per_root", "count"),
    ("core.engine.push_share", "share"),
    ("core.engine.sim_s_per_root", "s"),
    ("core.engine.sim_gteps", "GTEPS"),
    ("core.engine.root_ms_p50", "ms"),
    ("core.engine.ms_per_level_p50", "ms"),
    ("core.engine.ns_per_scanned_edge", "ns"),
    ("core.engine.traverse_meps", "Medges/s"),
    ("core.batch.w1_ms_p50", "ms"),
    ("core.batch.w8_ms_p50", "ms"),
    ("core.batch.w64_ms_p50", "ms"),
    ("core.batch.w64_roots_per_s", "1/s"),
    ("core.validate.parents_ms_p50", "ms"),
    ("core.validate.component_edges_ms_p50", "ms"),
    ("core.validate.reference_bfs_ms", "ms"),
    ("store.encode_s", "s"),
    ("store.save_s", "s"),
    ("store.open_s", "s"),
    ("store.bytes", "bytes"),
    ("store.open_mb_per_s", "MB/s"),
    ("mutate.commit_ms_p50", "ms"),
    ("mutate.repair_us_p50", "us"),
    ("mutate.compact_s", "s"),
    ("mutate.compactions", "count"),
    ("mutate.delta_entries", "count"),
    ("serve.service.drain64_ms_p50", "ms"),
    ("serve.service.assemble_ms_p50", "ms"),
    ("serve.service.batch_width_mean", "count"),
    ("serve.service.batch_wall_ms_p50", "ms"),
    ("serve.service.batches", "count"),
    ("serve.proto.parse_us_p50", "us"),
    ("serve.proto.encode_us_p50", "us"),
    ("serve.proto.reply_bytes", "bytes"),
    ("serve.sat.qps", "1/s"),
    ("serve.sat.query_ms_p50", "ms"),
    ("serve.sat.query_ms_p90", "ms"),
    ("serve.mixed.query_ms_p50", "ms"),
    ("serve.mixed.query_ms_p90", "ms"),
    ("serve.mixed.late_share", "share"),
    ("serve.mixed.update_ms_p50", "ms"),
    ("serve.mixed.batch_width_mean", "count"),
    ("serve.net.ack_ms_p50", "ms"),
    ("serve.net.result_after_ack_ms_p50", "ms"),
    ("serve.net.rejected", "count"),
    ("gen.lag_ms_p99", "ms"),
    ("host.steal_share", "share"),
    ("host.windows_clean", "count"),
    ("host.noisy", "count"),
    ("host.calib_ms", "ms"),
    ("trace.op_ms_p50", "ms"),
    ("trace.spans", "count"),
    ("trace.setup_covered_share", "share"),
    ("trace.op_covered_share", "share"),
    ("self_s.harness", "s"),
    ("self_s.rmat", "s"),
    ("self_s.sort", "s"),
    ("self_s.part", "s"),
    ("self_s.net", "s"),
    ("self_s.sunway", "s"),
    ("self_s.core", "s"),
    ("self_s.store", "s"),
    ("self_s.mutate", "s"),
    ("self_s.serve", "s"),
    ("self_s.client", "s"),
];

/// Per-layer counts that must repeat exactly for a given seed, traced
/// or not, on any box (`run.sh --check-agree` compares them).
pub const EXACT: &[&str] = &[
    "part.bytes",
    "part.eh2eh_edges",
    "part.l2l_edges",
    "net.collectives_per_root",
    "net.bytes_per_root",
    "sunway.ocs_sim_s",
    "core.engine.levels_per_root",
    "core.engine.scanned_edges_per_root",
    "core.engine.push_share",
    "core.engine.sim_s_per_root",
    "core.engine.sim_gteps",
    "store.bytes",
    "serve.proto.reply_bytes",
];

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a single reading or a count).
    pub samples: usize,
}

/// The metrics of one run, checked against one of the tables.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Metric>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            table,
            values: Vec::new(),
        }
    }

    /// Record a metric of the table.
    ///
    /// # Panics
    /// On a name the table does not hold, a name set twice, or a
    /// non-finite value — harness bugs, caught before anything prints.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let &(name, unit) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.values.iter().all(|m| m.name != name),
            "metric {name} set twice"
        );
        self.values.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// [`Self::set`] for a `(value, samples)` pair.
    pub fn put(&mut self, name: &str, (value, samples): Stat) {
        self.set(name, value, samples);
    }

    /// What was set so far, for a run that fills only part of a table.
    pub fn into_partial(self) -> Vec<Metric> {
        self.values
    }

    /// The metrics in table order.
    ///
    /// # Panics
    /// If a metric of the table was never set.
    pub fn finish(self) -> Vec<Metric> {
        self.table
            .iter()
            .map(|(name, _)| {
                self.values
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("metric {name} was never set"))
                    .clone()
            })
            .collect()
    }
}

fn metrics_object(metrics: &[Metric]) -> JsonValue {
    JsonValue::Object(
        metrics
            .iter()
            .map(|m| {
                let v = JsonValue::object()
                    .field("value", m.value)
                    .field("unit", m.unit)
                    .build();
                (m.name.to_string(), v)
            })
            .collect(),
    )
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    JsonValue::object()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", metrics_object(metrics))
        .build()
        .render()
}

/// Everything a run knows, for `out/<workload>.trace<0|1>.json`.
pub struct RunRecord<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub noisy: bool,
    pub failures: &'a [String],
    pub metrics: &'a [Metric],
    /// Counts of this run that repeat exactly for the seed, traced or
    /// not (a subset of the per-layer metrics).
    pub exact: &'a [Metric],
}

impl RunRecord<'_> {
    pub fn to_json(&self) -> JsonValue {
        let samples = JsonValue::Object(
            self.metrics
                .iter()
                .map(|m| (m.name.to_string(), JsonValue::from(m.samples)))
                .collect(),
        );
        let failures: Vec<JsonValue> = self.failures.iter().map(|f| f.as_str().into()).collect();
        JsonValue::object()
            .field("workload", self.workload)
            .field("seed", self.seed)
            .field("seconds", self.seconds)
            .field("traced", self.traced)
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field(
                "fail_share",
                self.failed as f64 / self.attempted.max(1) as f64,
            )
            .field("noisy", self.noisy)
            .field("failures", failures)
            .field("metrics", metrics_object(self.metrics))
            .field("samples", samples)
            .field("exact", metrics_object(self.exact))
            .build()
    }
}

/// Every metric by name with its unit and sample count, for people.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let exact = if EXACT.contains(&m.name) { " =" } else { "" };
        let _ = writeln!(
            out,
            "{:<40} {:>18.6} {:<9} n={}{exact}",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc = JsonValue::parse(text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(JsonValue::as_array)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn tables_equal_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn exact_names_are_per_layer_metrics() {
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new(END_TO_END);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.25 + i as f64, 3);
        }
        let line = result_line(true, 10, 0, &m.finish());
        assert!(!line.contains('\n'));
        let v = JsonValue::parse(&line).unwrap();
        let JsonValue::Object(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(10));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));
        assert_eq!(setup.get("value"), Some(&JsonValue::Float(6.25)));
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn a_missing_metric_is_a_harness_bug() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 1.0, 1);
        m.finish();
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn an_unknown_metric_is_a_harness_bug() {
        Metrics::new(END_TO_END).set("latency", 1.0, 1);
    }
}
