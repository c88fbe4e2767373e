//! Shared harness utilities for the figure/table benches.
//!
//! Every bench target under `benches/` regenerates one table or figure
//! of the paper's evaluation section (§6). The helpers here standardize
//! the runs (so all figures share machine constants and seeds), the
//! category grouping that turns raw [`TimeAccumulator`] entries into
//! the paper's breakdowns, and the ASCII rendering of series.
//!
//! Absolute GTEPS are *simulated-machine* numbers at laptop scale; what
//! must (and does) match the paper is the shape: orderings, ratios, and
//! crossover positions. `EXPERIMENTS.md` records both sides.

use sunbfs::driver::{run_benchmark, BenchmarkReport, RunConfig};
use sunbfs_common::TimeAccumulator;
use sunbfs_core::EngineConfig;
use sunbfs_net::MeshShape;
use sunbfs_part::Thresholds;

/// The weak-scaling sweep shared by Figures 9–11: constant edges per
/// rank, fixed supernode width (8 ranks per row — the laptop analog of
/// the paper's 256-node supernodes), growing row count. The baseline is
/// one full supernode, exactly as the paper normalizes to one supernode
/// (256 nodes): a single rank would have *no* communication at all and
/// would make "ideal" meaningless.
pub fn weak_scaling_sweep() -> Vec<(MeshShape, u32)> {
    vec![
        (MeshShape::new(1, 8), 17),
        (MeshShape::new(2, 8), 18),
        (MeshShape::new(4, 8), 19),
        (MeshShape::new(8, 8), 20),
    ]
}

/// Degree thresholds that track the sweep's SCALE (hub degrees grow
/// roughly with sqrt of the graph size).
pub fn sweep_thresholds(scale: u32) -> Thresholds {
    let e = 1024u32 << ((scale.saturating_sub(17)) / 2);
    let h = 128u32 << ((scale.saturating_sub(17)) / 2);
    Thresholds::new(e, h)
}

/// Standard benchmark run used by the figure harnesses.
pub fn run_config(
    scale: u32,
    ranks: usize,
    thresholds: Thresholds,
    engine: EngineConfig,
    num_roots: usize,
) -> RunConfig {
    RunConfig {
        scale,
        mesh: MeshShape::near_square(ranks),
        thresholds,
        engine,
        num_roots,
        ..RunConfig::default()
    }
}

/// Run and return the report, printing a one-line summary.
///
/// When `SUNBFS_BENCH_JSON` is set in the environment, the run is also
/// exported through the driver's shared JSON record
/// (`sunbfs::metrics`) as `BENCH_<scale>_<rows>x<cols>.json` — the same
/// schema the `graph500_runner` `--json` flag writes, so figure
/// harnesses and the driver report through one format.
pub fn run_and_summarize(label: &str, cfg: &RunConfig) -> BenchmarkReport {
    let wall = std::time::Instant::now();
    let report = run_benchmark(cfg).unwrap_or_else(|e| panic!("[{label}] benchmark failed: {e}"));
    println!(
        "[{label}] SCALE {} on {} ranks: {:.3} GTEPS (harmonic over {} roots; wall {:.1?})",
        cfg.scale,
        cfg.mesh.num_ranks(),
        report.harmonic_mean_gteps(),
        report.runs.len(),
        wall.elapsed(),
    );
    if std::env::var_os("SUNBFS_BENCH_JSON").is_some() {
        let path = sunbfs::metrics::default_report_path(cfg.scale, cfg.mesh);
        match sunbfs::metrics::write_report(&report, std::path::Path::new(&path)) {
            Ok(()) => println!("[{label}] JSON report: {path}"),
            Err(e) => eprintln!("[{label}] could not write {path}: {e}"),
        }
    }
    report
}

/// The subgraph-attribution grouping of Figure 10: every category maps
/// to one of the six components, `reduce`, or `other`.
pub fn group_by_subgraph(times: &TimeAccumulator) -> Vec<(String, f64)> {
    let mut groups: std::collections::BTreeMap<&str, f64> = Default::default();
    for (cat, secs) in times.entries() {
        let cat = cat.to_string();
        let bucket = if cat.starts_with("reduce.") || cat.contains(".reduce.") {
            "reduce"
        } else if let Some(comp) = ["EH2EH", "E2L", "L2E", "H2L", "L2H", "L2L"]
            .iter()
            .find(|c| cat.contains(*c))
        {
            comp
        } else {
            "other"
        };
        *groups.entry(bucket).or_insert(0.0) += secs;
    }
    // Paper's stacking order.
    let order = [
        "EH2EH", "E2L", "L2E", "H2L", "L2H", "L2L", "reduce", "other",
    ];
    order
        .iter()
        .map(|&k| (k.to_string(), groups.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// The communication-type grouping of Figure 11.
pub fn group_by_commtype(times: &TimeAccumulator) -> Vec<(String, f64)> {
    let mut groups: std::collections::BTreeMap<&str, f64> = Default::default();
    for (cat, secs) in times.entries() {
        let bucket = if cat.starts_with("comm.alltoallv") {
            "alltoallv"
        } else if cat.starts_with("comm.allgather") {
            "allgather"
        } else if cat.starts_with("comm.reduce_scatter") {
            "reduce_scatter"
        } else if cat.starts_with("comm.imbalance") || cat.starts_with("comm.barrier") {
            "imbalance/latency"
        } else if cat.starts_with("sub.") {
            "compute"
        } else {
            "other"
        };
        *groups.entry(bucket).or_insert(0.0) += secs;
    }
    let order = [
        "reduce_scatter",
        "allgather",
        "alltoallv",
        "imbalance/latency",
        "compute",
        "other",
    ];
    order
        .iter()
        .map(|&k| (k.to_string(), groups.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// Push/pull split per phase for the ablation (Figure 15).
pub fn group_by_phase_direction(times: &TimeAccumulator) -> Vec<(String, f64)> {
    let mut eh_pull = 0.0;
    let mut eh_push = 0.0;
    let mut other_pull = 0.0;
    let mut other_push = 0.0;
    let mut other = 0.0;
    for (cat, secs) in times.entries() {
        let cat = cat.to_string();
        if cat.starts_with("sub.EH2EH.pull") {
            eh_pull += secs;
        } else if cat.starts_with("sub.EH2EH.push") {
            eh_push += secs;
        } else if cat.starts_with("sub.") && cat.ends_with(".pull") {
            other_pull += secs;
        } else if cat.starts_with("sub.") && cat.ends_with(".push") {
            other_push += secs;
        } else {
            other += secs;
        }
    }
    vec![
        ("EH2EH Pull".into(), eh_pull),
        ("Others Pull".into(), other_pull),
        ("EH2EH Push".into(), eh_push),
        ("Others Push".into(), other_push),
        ("Others".into(), other),
    ]
}

/// Print grouped times as a percentage table with ASCII bars.
pub fn print_percentages(title: &str, groups: &[(String, f64)]) {
    let total: f64 = groups.iter().map(|(_, s)| s).sum();
    println!("{title} (total {:.3} ms simulated):", total * 1e3);
    for (name, secs) in groups {
        let pct = if total > 0.0 {
            100.0 * secs / total
        } else {
            0.0
        };
        println!("  {name:<18} {pct:>6.1}%  {}", bar(pct, 50.0));
    }
}

/// An ASCII bar scaled so `full` percent fills 40 columns.
pub fn bar(value: f64, full: f64) -> String {
    let cols = ((value / full) * 40.0).round().max(0.0) as usize;
    "#".repeat(cols.min(80))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunbfs_common::SimTime;

    fn sample_times() -> TimeAccumulator {
        let mut t = TimeAccumulator::new();
        t.add("sub.EH2EH.pull", SimTime::secs(2.0));
        t.add("sub.L2L.push", SimTime::secs(1.0));
        t.add("comm.alltoallv.L2L", SimTime::secs(3.0));
        t.add("comm.allgather.hubsync.EH2EH", SimTime::secs(0.5));
        t.add("comm.reduce_scatter.hubsync.EH2EH", SimTime::secs(0.5));
        t.add("comm.imbalance", SimTime::secs(0.25));
        t.add("reduce.parent.compute", SimTime::secs(0.125));
        t
    }

    #[test]
    fn subgraph_grouping_attributes_comm_to_components() {
        let g = group_by_subgraph(&sample_times());
        let get = |k: &str| g.iter().find(|(n, _)| n == k).unwrap().1;
        assert_eq!(get("EH2EH"), 3.0); // pull + hubsync halves
        assert_eq!(get("L2L"), 4.0); // push + alltoallv
        assert_eq!(get("reduce"), 0.125);
        assert_eq!(get("other"), 0.25);
    }

    #[test]
    fn commtype_grouping_matches_figure11_buckets() {
        let g = group_by_commtype(&sample_times());
        let get = |k: &str| g.iter().find(|(n, _)| n == k).unwrap().1;
        assert_eq!(get("alltoallv"), 3.0);
        assert_eq!(get("allgather"), 0.5);
        assert_eq!(get("reduce_scatter"), 0.5);
        assert_eq!(get("compute"), 3.0);
        assert_eq!(get("imbalance/latency"), 0.25);
    }

    #[test]
    fn phase_direction_split() {
        let g = group_by_phase_direction(&sample_times());
        let get = |k: &str| g.iter().find(|(n, _)| n == k).unwrap().1;
        assert_eq!(get("EH2EH Pull"), 2.0);
        assert_eq!(get("Others Push"), 1.0);
        assert!(get("Others") > 4.0);
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(50.0, 50.0).len(), 40);
        assert_eq!(bar(0.0, 50.0).len(), 0);
        assert_eq!(bar(1000.0, 50.0).len(), 80);
    }
}
