//! Service observability: everything the metrics JSON `serve` section
//! (`docs/METRICS.md`) reports about one service lifetime.

use sunbfs_common::{json_record, JsonValue, ToJson};

json_record! {
    /// One health state change (`docs/FAULTS.md`), as the report and the
    /// `health` reply carry it.
    #[derive(Clone, Debug)]
    pub struct HealthTransition {
        /// State label left (`healthy`/`degraded`/`quarantined`/`recovering`).
        pub from: &'static str,
        /// State label entered.
        pub to: &'static str,
        /// Service tick when the transition happened.
        pub at_tick: u64,
        /// Why (human-readable, e.g. `"2/4 window batches failed"`).
        pub reason: String,
    }
}

/// Power-of-two occupancy buckets: 1, 2–3, 4–7, 8–15, 16–31, 32–63, 64.
pub const OCCUPANCY_BUCKETS: usize = 7;

/// Bucket index for a batch of `occ` riders (`occ ≥ 1`). Occupancies
/// past the last bucket's lower bound clamp into the last bucket — a
/// modulo here would wrap occ = 128 back to the `"1"` bucket.
pub fn occupancy_bucket(occ: usize) -> usize {
    debug_assert!(occ >= 1);
    ((usize::BITS - 1 - occ.max(1).leading_zeros()) as usize).min(OCCUPANCY_BUCKETS - 1)
}

/// Human-readable bucket labels, index-aligned with the histogram.
pub const OCCUPANCY_LABELS: [&str; OCCUPANCY_BUCKETS] =
    ["1", "2-3", "4-7", "8-15", "16-31", "32-63", "64"];

json_record! {
    /// One executed batch.
    #[derive(Clone, Debug)]
    pub struct BatchRecord {
        /// Sequence number (0-based, formation order).
        pub batch_id: u64,
        /// Queries that rode in this batch.
        pub occupancy: usize,
        /// Simulated seconds the batch took (max over ranks for the batched
        /// path; summed per-root times on the fallback path).
        pub sim_seconds: f64,
        /// Wall-clock seconds the execution took on the host.
        pub wall_seconds: f64,
        /// True when a lost rank degraded this batch to per-root recovery.
        pub fallback: bool,
        /// Riders served.
        pub served: u64,
        /// Riders quarantined.
        pub quarantined: u64,
        /// Simulated seconds the same roots took sequentially (present only
        /// when the service measures baselines).
        pub seq_sim_seconds: Option<f64>,
    }
}

/// Per-query records a report keeps: the most recent this many (up to
/// twice as many between trims). A server's report must not grow with
/// its lifetime; the totals are in the `submitted` / `served` /
/// `quarantined` / `deadline_exceeded` counters.
pub const QUERY_RECORDS_KEPT: usize = 4096;

json_record! {
    /// One completed query, as the report remembers it.
    #[derive(Clone, Debug)]
    pub struct QueryRecord {
        /// The query's ticket number.
        pub id: u64,
        /// The root vertex.
        pub root: u64,
        /// The batch it rode in (`None` for queries evicted before forming
        /// one, e.g. `deadline_exceeded`).
        pub batch_id: Option<u64>,
        /// `served`, `quarantined`, or `deadline_exceeded`.
        pub status: &'static str,
        /// Simulated seconds the serving traversal took.
        pub sim_latency_s: f64,
        /// Wall-clock seconds the execution took on the host.
        pub wall_latency_s: f64,
        /// True when served by per-root recovery instead of the batch.
        pub via_fallback: bool,
    }
}

/// Everything one service lifetime reports.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Configured queue capacity.
    pub queue_capacity: usize,
    /// Configured maximum batch width.
    pub batch_max: usize,
    /// Configured partial-batch flush deadline (ticks).
    pub flush_deadline: u32,
    /// Queries admitted.
    pub submitted: u64,
    /// Queries served (batched or fallback).
    pub served: u64,
    /// Queries quarantined after exhausting recovery.
    pub quarantined: u64,
    /// Submissions rejected because the queue was full.
    pub rejected_full: u64,
    /// Submissions rejected because the root was out of range.
    pub rejected_invalid: u64,
    /// Submissions shed by the health circuit breaker
    /// (`service_degraded` rejections).
    pub rejected_degraded: u64,
    /// Queries evicted past their deadline budget.
    pub deadline_exceeded: u64,
    /// Service ticks elapsed at report time.
    pub ticks: u64,
    /// Health state label at report time (empty before the service
    /// first reports; rendered as `healthy` then).
    pub health: &'static str,
    /// Every health transition, in order.
    pub health_transitions: Vec<HealthTransition>,
    /// Chaos fault events armed against the live cluster.
    pub chaos_injected: u64,
    /// Of those, rank panics.
    pub chaos_panics: u64,
    /// Of those, stragglers.
    pub chaos_stragglers: u64,
    /// Of those, payload corruptions.
    pub chaos_corruptions: u64,
    /// Deepest the pending queue ever got.
    pub max_queue_depth: usize,
    /// Pending queries at report time.
    pub current_queue_depth: usize,
    /// Batches that degraded to per-root recovery.
    pub fallback_batches: u64,
    /// Batches per occupancy bucket ([`OCCUPANCY_LABELS`] order).
    pub occupancy_histogram: [u64; OCCUPANCY_BUCKETS],
    /// Every executed batch, in order.
    pub batches: Vec<BatchRecord>,
    /// The most recent completed queries ([`QUERY_RECORDS_KEPT`]), in
    /// completion order.
    pub queries: Vec<QueryRecord>,
    /// Total simulated seconds spent executing batches.
    pub batch_sim_seconds: f64,
    /// Total simulated seconds the sequential baseline spent on the
    /// same roots (present only when baselines were measured).
    pub sequential_sim_seconds: Option<f64>,
    /// Simulated seconds the session's partition build took.
    pub build_sim_seconds: f64,
    /// Simulated seconds across *all* session build attempts, failed
    /// ones included (≥ `build_sim_seconds` when the load retried).
    pub load_sim_seconds: f64,
    /// SPMD attempts the session load spent (1 = clean, 0 = opened
    /// from a persistent store file).
    pub load_attempts: u32,
    /// Update batches committed (each bumped the epoch by one).
    pub updates_applied: u64,
    /// Edges across every committed update batch (pre-dedup).
    pub update_edges: u64,
    /// Update batches that failed to commit (lost ranks mid-routing);
    /// the session state is untouched by a failed commit.
    pub updates_failed: u64,
    /// Session epoch at report time (0 = never mutated).
    pub epoch: u64,
    /// Delta-into-base compactions the session performed.
    pub compactions: u64,
    /// Served queries whose result was patched by incremental repair
    /// (a non-empty delta was resident at execution time).
    pub repaired_queries: u64,
    /// Vertices whose depth the repair passes improved, summed over
    /// all repaired queries.
    pub repaired_vertices: u64,
}

impl ServeReport {
    /// Served roots per simulated second through the batch path.
    pub fn batch_roots_per_sec(&self) -> f64 {
        if self.batch_sim_seconds > 0.0 {
            self.served as f64 / self.batch_sim_seconds
        } else {
            0.0
        }
    }

    /// Roots per simulated second of the sequential baseline, when
    /// measured.
    pub fn sequential_roots_per_sec(&self) -> Option<f64> {
        let seq = self.sequential_sim_seconds?;
        if seq > 0.0 {
            Some(self.served as f64 / seq)
        } else {
            None
        }
    }

    /// Fraction of completed queries that were served: `served /
    /// (served + quarantined + deadline_exceeded)`. `1.0` when nothing
    /// completed yet. Rejections are *not* completions — a shed query
    /// never entered the service — so they sit outside this ratio (the
    /// soak harness accounts for them separately).
    pub fn availability(&self) -> f64 {
        let completed = self.served + self.quarantined + self.deadline_exceeded;
        if completed == 0 {
            1.0
        } else {
            self.served as f64 / completed as f64
        }
    }

    /// Batched-over-sequential throughput ratio, when the baseline was
    /// measured (> 1.0 means batching wins).
    pub fn speedup(&self) -> Option<f64> {
        let seq = self.sequential_sim_seconds?;
        if self.batch_sim_seconds > 0.0 {
            Some(seq / self.batch_sim_seconds)
        } else {
            None
        }
    }
}

impl ServeReport {
    /// The aggregate serve section without the per-batch and per-query
    /// arrays — what committed artifacts embed, since a multi-second
    /// soak records thousands of queries and the arrays would dwarf
    /// every other field.
    pub fn to_summary_json(&self) -> JsonValue {
        let occupancy = OCCUPANCY_LABELS
            .iter()
            .zip(self.occupancy_histogram.iter())
            .fold(JsonValue::object(), |o, (label, &count)| {
                o.field(label, count)
            })
            .build();
        JsonValue::object()
            .field("queue_capacity", self.queue_capacity as u64)
            .field("batch_max", self.batch_max as u64)
            .field("flush_deadline", u64::from(self.flush_deadline))
            .field("submitted", self.submitted)
            .field("served", self.served)
            .field("quarantined", self.quarantined)
            .field("rejected_full", self.rejected_full)
            .field("rejected_invalid", self.rejected_invalid)
            .field("rejected_degraded", self.rejected_degraded)
            .field("deadline_exceeded", self.deadline_exceeded)
            .field("availability", self.availability())
            .field("ticks", self.ticks)
            .field(
                "health",
                if self.health.is_empty() {
                    "healthy"
                } else {
                    self.health
                },
            )
            .field("health_transitions", self.health_transitions.to_json())
            .field("chaos_injected", self.chaos_injected)
            .field("chaos_panics", self.chaos_panics)
            .field("chaos_stragglers", self.chaos_stragglers)
            .field("chaos_corruptions", self.chaos_corruptions)
            .field("max_queue_depth", self.max_queue_depth as u64)
            .field("current_queue_depth", self.current_queue_depth as u64)
            .field("fallback_batches", self.fallback_batches)
            .field("occupancy_histogram", occupancy)
            .field("batch_sim_seconds", self.batch_sim_seconds)
            .field("sequential_sim_seconds", self.sequential_sim_seconds)
            .field("batch_roots_per_sec", self.batch_roots_per_sec())
            .field("sequential_roots_per_sec", self.sequential_roots_per_sec())
            .field("speedup", self.speedup())
            .field("build_sim_seconds", self.build_sim_seconds)
            .field("load_sim_seconds", self.load_sim_seconds)
            .field("load_attempts", u64::from(self.load_attempts))
            .field("updates_applied", self.updates_applied)
            .field("update_edges", self.update_edges)
            .field("updates_failed", self.updates_failed)
            .field("epoch", self.epoch)
            .field("compactions", self.compactions)
            .field("repaired_queries", self.repaired_queries)
            .field("repaired_vertices", self.repaired_vertices)
            .build()
    }
}

impl ToJson for ServeReport {
    fn to_json(&self) -> JsonValue {
        let JsonValue::Object(mut fields) = self.to_summary_json() else {
            unreachable!("summary is always an object");
        };
        fields.push(("batches".to_string(), self.batches.to_json()));
        fields.push(("queries".to_string(), self.queries.to_json()));
        JsonValue::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_buckets_are_power_of_two_ranges() {
        assert_eq!(occupancy_bucket(1), 0);
        assert_eq!(occupancy_bucket(2), 1);
        assert_eq!(occupancy_bucket(3), 1);
        assert_eq!(occupancy_bucket(4), 2);
        assert_eq!(occupancy_bucket(7), 2);
        assert_eq!(occupancy_bucket(8), 3);
        assert_eq!(occupancy_bucket(15), 3);
        assert_eq!(occupancy_bucket(16), 4);
        assert_eq!(occupancy_bucket(31), 4);
        assert_eq!(occupancy_bucket(32), 5);
        assert_eq!(occupancy_bucket(63), 5);
        assert_eq!(occupancy_bucket(64), 6);
    }

    #[test]
    fn occupancy_clamps_instead_of_wrapping() {
        // Regression: `% OCCUPANCY_BUCKETS` wrapped occ > 64 back to
        // bucket 0 ("1"); large batches must clamp to the last bucket.
        assert_eq!(occupancy_bucket(1), 0);
        assert_eq!(occupancy_bucket(2), 1);
        assert_eq!(occupancy_bucket(63), 5);
        assert_eq!(occupancy_bucket(64), 6);
        assert_eq!(occupancy_bucket(65), 6);
        assert_eq!(occupancy_bucket(128), 6);
    }

    #[test]
    fn speedup_requires_a_measured_baseline() {
        let mut r = ServeReport {
            served: 8,
            batch_sim_seconds: 2.0,
            ..ServeReport::default()
        };
        assert_eq!(r.speedup(), None);
        assert_eq!(r.sequential_roots_per_sec(), None);
        r.sequential_sim_seconds = Some(8.0);
        assert_eq!(r.speedup(), Some(4.0));
        assert_eq!(r.batch_roots_per_sec(), 4.0);
        assert_eq!(r.sequential_roots_per_sec(), Some(1.0));
    }

    #[test]
    fn report_json_carries_the_serve_section_fields() {
        let r = ServeReport::default();
        let js = r.to_json().render();
        for key in [
            "occupancy_histogram",
            "batch_roots_per_sec",
            "sequential_roots_per_sec",
            "speedup",
            "max_queue_depth",
            "batches",
            "queries",
            "rejected_degraded",
            "deadline_exceeded",
            "availability",
            "health",
            "health_transitions",
            "chaos_injected",
            "updates_applied",
            "update_edges",
            "updates_failed",
            "epoch",
            "compactions",
            "repaired_queries",
            "repaired_vertices",
        ] {
            assert!(js.contains(&format!("\"{key}\"")), "missing {key} in {js}");
        }
        assert!(
            js.contains("\"health\":\"healthy\""),
            "empty health label must render as healthy: {js}"
        );
    }

    #[test]
    fn availability_counts_only_completed_queries() {
        let mut r = ServeReport::default();
        assert_eq!(r.availability(), 1.0, "vacuously available");
        r.served = 9;
        r.quarantined = 1;
        assert_eq!(r.availability(), 0.9);
        r.deadline_exceeded = 10;
        assert_eq!(r.availability(), 0.45);
        // Rejections are not completions.
        r.rejected_degraded = 1000;
        r.rejected_full = 1000;
        assert_eq!(r.availability(), 0.45);
    }

    #[test]
    fn health_transitions_render_with_all_fields() {
        let t = HealthTransition {
            from: "healthy",
            to: "degraded",
            at_tick: 12,
            reason: "batch 3 fell back".to_string(),
        };
        let js = t.to_json().render();
        for key in ["from", "to", "at_tick", "reason"] {
            assert!(js.contains(&format!("\"{key}\"")), "missing {key} in {js}");
        }
        assert!(js.contains("\"at_tick\":12"));
    }
}
