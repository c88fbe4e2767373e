//! **Figure 11** — time breakdown by communication type.
//!
//! Paper (§6.1.2): the same scaling runs re-bucketed by operation:
//! alltoallv, allgather, reduce-scatter, compute, and imbalance/latency.
//! Communication share grows with scale (alltoallv and reduce-scatter
//! dominate it), while the imbalance+latency share stays roughly
//! constant — the load-balance claim of the 1.5D partitioning.
//!
//! This harness prints the same stacked percentages from the
//! communication-type accounting built into the cluster runtime.

use sunbfs::driver::{run_benchmark, RunConfig};
use sunbfs_bench::{group_by_commtype, print_percentages, sweep_thresholds, weak_scaling_sweep};

fn main() {
    let sweep = weak_scaling_sweep();
    let roots = 2;
    println!("=== Figure 11: time breakdown by communication type ===\n");

    let mut comm_shares = Vec::new();
    let mut imb_shares = Vec::new();
    for &(mesh, scale) in &sweep {
        let ranks = mesh.num_ranks();
        let cfg = RunConfig {
            scale,
            mesh,
            thresholds: sweep_thresholds(scale),
            num_roots: roots,
            ..RunConfig::default()
        };
        let report = run_benchmark(&cfg).expect("benchmark must pass");
        let groups = group_by_commtype(&report.total_times());
        println!("--- {ranks} ranks, SCALE {scale} ---");
        print_percentages("per-comm-type share", &groups);
        println!();
        let total: f64 = groups.iter().map(|(_, s)| s).sum();
        let share = |k: &str| groups.iter().find(|(n, _)| n == k).unwrap().1 / total;
        comm_shares.push(share("alltoallv") + share("allgather") + share("reduce_scatter"));
        imb_shares.push(share("imbalance/latency"));
    }

    println!("shape checks:");
    println!(
        "  total collective share: {:?}",
        comm_shares
            .iter()
            .map(|s| format!("{:.0}%", s * 100.0))
            .collect::<Vec<_>>()
    );
    println!(
        "  imbalance/latency share: {:?}",
        imb_shares
            .iter()
            .map(|s| format!("{:.0}%", s * 100.0))
            .collect::<Vec<_>>()
    );
    assert!(
        comm_shares.last().unwrap() >= comm_shares.first().unwrap(),
        "communication share should grow (or hold) with scale, as in the paper"
    );
    println!("  (paper: communication grows with scale; imbalance+latency stays constant)");
}
