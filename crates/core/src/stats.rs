//! Per-run statistics: everything the evaluation figures read.

use sunbfs_common::{json_record, JsonValue, PoolStats, TimeAccumulator, ToJson};
use sunbfs_net::CommStats;
use sunbfs_sunway::KernelReport;

use crate::config::{Component, Direction};

json_record! {
    /// Counters of one sub-iteration (one subgraph component's expansion
    /// inside one BFS iteration). The component itself is implied by the
    /// slot index in [`IterationStats::subs`] ([`Component::ALL`] order).
    #[derive(Clone, Copy, Debug, Default)]
    pub struct SubIterationStats {
        /// Direction this component actually executed.
        pub direction: Direction,
        /// True when the decision was refreshed mid-iteration from the
        /// piggybacked visited count (H2L/L2L under sub-iteration
        /// optimization), rather than taken from the iteration-start
        /// heuristics.
        pub refreshed: bool,
        /// Measured frontier edge mass `m_f` the direction decision saw:
        /// the global degree-sum of the deciding class's frontier. Zero
        /// under the fixed heuristic (schema v10;
        /// [`crate::config::DirectionHeuristic`]).
        pub frontier_edges: u64,
        /// Measured unexplored edge mass `m_u` the decision saw: the global
        /// degree-sum of the destination class's unvisited vertices. Zero
        /// under the fixed heuristic (schema v10).
        pub unexplored_edges: u64,
        /// Edges scanned by this component on this rank.
        pub scanned_edges: u64,
        /// Aggregated OCS on-chip kernel work (bucketing sorts) this
        /// component ran on this rank: times summed, counters summed.
        pub kernel: KernelReport,
        /// Worker-pool activity for this component's scans on this rank:
        /// how the scan was chunked and how many helper threads staffed it
        /// (the schema-v5 worker-scaling surface).
        pub pool: PoolStats,
    }
}

/// Counters of one BFS iteration (one frontier expansion).
#[derive(Clone, Copy, Debug, Default)]
pub struct IterationStats {
    /// Iteration number (1-based).
    pub iter: u32,
    /// Active (frontier) vertices per class at iteration start — the
    /// Figure 5 series.
    pub active_e: u64,
    /// Active H vertices.
    pub active_h: u64,
    /// Active L vertices (global).
    pub active_l: u64,
    /// Vertices discovered this iteration, per class.
    pub newly_e: u64,
    /// Newly discovered H vertices.
    pub newly_h: u64,
    /// Newly discovered L vertices (global).
    pub newly_l: u64,
    /// Direction chosen per component, in [`Component::ALL`] order.
    pub directions: [Direction; 6],
    /// Edges scanned across all sub-iterations (work metric).
    pub scanned_edges: u64,
    /// This rank's collective-call counter right after the iteration's
    /// closing allreduce — the op index of the first collective *after*
    /// the iteration completed (identical on every rank: the schedule
    /// is SPMD). Fault campaigns use it to aim injections at exact
    /// iteration boundaries.
    pub end_op: u64,
    /// Per-sub-iteration detail, in [`Component::ALL`] order.
    pub subs: [SubIterationStats; 6],
}

impl ToJson for IterationStats {
    fn to_json(&self) -> JsonValue {
        let subs = JsonValue::Object(
            Component::ALL
                .iter()
                .zip(&self.subs)
                .map(|(c, s)| (c.name().to_string(), s.to_json()))
                .collect(),
        );
        JsonValue::object()
            .field("iter", self.iter)
            .field("active_e", self.active_e)
            .field("active_h", self.active_h)
            .field("active_l", self.active_l)
            .field("newly_e", self.newly_e)
            .field("newly_h", self.newly_h)
            .field("newly_l", self.newly_l)
            .field("scanned_edges", self.scanned_edges)
            .field("end_op", self.end_op)
            .field("subs", subs)
            .build()
    }
}

/// Statistics of one complete BFS traversal on one rank.
#[derive(Clone, Debug, Default)]
pub struct BfsRunStats {
    /// Per-iteration counters (identical on every rank for the
    /// replicated fields; L counts are global sums).
    pub iterations: Vec<IterationStats>,
    /// Graph 500 `m`: undirected edges in the traversed component
    /// (global; used for TEPS). This is the engine's degree-sum
    /// estimate, which counts duplicate input edges — the driver
    /// replaces it with the spec-conformant deduplicated count when it
    /// validates (see `validate::component_edges`).
    pub traversed_edges: u64,
    /// Vertices reached (global, including the root).
    pub visited_vertices: u64,
    /// Simulated seconds the traversal took on this rank.
    pub sim_seconds: f64,
    /// Per-category simulated time on this rank (BFS phase only).
    pub times: TimeAccumulator,
    /// Per-scope collective call counts and byte volumes on this rank
    /// (BFS phase only).
    pub comm: CommStats,
}

impl BfsRunStats {
    /// Giga-traversed-edges-per-second on the simulated machine —
    /// the paper's headline metric.
    pub fn gteps(&self) -> f64 {
        if self.sim_seconds <= 0.0 {
            return 0.0;
        }
        self.traversed_edges as f64 / self.sim_seconds / 1e9
    }
}

impl ToJson for BfsRunStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("traversed_edges", self.traversed_edges)
            .field("visited_vertices", self.visited_vertices)
            .field("sim_seconds", self.sim_seconds)
            .field("gteps", self.gteps())
            .field("times", self.times.to_json())
            .field("comm", self.comm.to_json())
            .field("iterations", self.iterations.to_json())
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunbfs_common::SimTime;

    #[test]
    fn gteps_formula() {
        let s = BfsRunStats {
            traversed_edges: 2_000_000_000,
            sim_seconds: 2.0,
            ..Default::default()
        };
        assert!((s.gteps() - 1.0).abs() < 1e-12);
        let zero = BfsRunStats::default();
        assert_eq!(zero.gteps(), 0.0);
    }

    #[test]
    fn iteration_stats_serialize_all_six_components() {
        let mut st = IterationStats {
            iter: 3,
            ..Default::default()
        };
        st.subs[0].direction = Direction::Pull;
        st.subs[3].refreshed = true;
        st.subs[4].frontier_edges = 17;
        st.subs[4].unexplored_edges = 99;
        st.subs[5].scanned_edges = 42;
        let js = st.to_json().render();
        for c in Component::ALL {
            assert!(
                js.contains(&format!("\"{}\"", c.name())),
                "missing {} in {js}",
                c.name()
            );
        }
        assert!(js.contains("\"direction\":\"pull\""));
        assert!(js.contains("\"refreshed\":true"));
        assert!(js.contains("\"frontier_edges\":17"));
        assert!(js.contains("\"unexplored_edges\":99"));
        assert!(js.contains("\"scanned_edges\":42"));
    }

    #[test]
    fn run_stats_serialize_with_kernel_and_times() {
        let mut st = BfsRunStats {
            traversed_edges: 10,
            visited_vertices: 5,
            ..Default::default()
        };
        st.sim_seconds = 0.5;
        st.times.add("sub.EH2EH.push", SimTime::secs(0.25));
        let mut it = IterationStats {
            iter: 1,
            ..Default::default()
        };
        it.subs[0].kernel.rma_ops = 7;
        st.iterations.push(it);
        let js = st.to_json().render();
        assert!(js.contains("\"sub.EH2EH.push\":0.25"));
        assert!(js.contains("\"rma_ops\":7"));
        assert!(js.contains("\"gteps\":"));
    }
}
