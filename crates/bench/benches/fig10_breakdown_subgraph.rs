//! **Figure 10** — execution-time breakdown by subgraph.
//!
//! Paper (§6.1.2): over the weak-scaling runs, time splits across the
//! six subgraphs plus the delayed parent reduction and "other". L2L
//! costs notable time despite being the smallest subgraph (sparse,
//! latency-bound, active in nearly every iteration), while EH2EH —
//! the largest subgraph — shrinks at larger scales thanks to the
//! partitioning and sub-iteration direction optimization.
//!
//! This harness reruns the sweep and prints the stacked percentages.

use sunbfs::driver::{run_benchmark, RunConfig};
use sunbfs_bench::{group_by_subgraph, print_percentages, sweep_thresholds, weak_scaling_sweep};

fn main() {
    let sweep = weak_scaling_sweep();
    let roots = 2;
    println!("=== Figure 10: time breakdown by subgraph over scaling runs ===\n");

    let mut l2l_shares = Vec::new();
    let mut eh_shares = Vec::new();
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
        let groups = group_by_subgraph(&report.total_times());
        println!("--- {ranks} ranks, SCALE {scale} ---");
        print_percentages("per-subgraph share", &groups);
        println!();
        let total: f64 = groups.iter().map(|(_, s)| s).sum();
        let share = |k: &str| groups.iter().find(|(n, _)| n == k).unwrap().1 / total;
        l2l_shares.push(share("L2L"));
        eh_shares.push(share("EH2EH"));
    }

    println!("shape checks:");
    println!(
        "  L2L share across scales: {:?}",
        l2l_shares
            .iter()
            .map(|s| format!("{:.0}%", s * 100.0))
            .collect::<Vec<_>>()
    );
    println!(
        "  EH2EH share across scales: {:?}",
        eh_shares
            .iter()
            .map(|s| format!("{:.0}%", s * 100.0))
            .collect::<Vec<_>>()
    );
    println!("  (paper: L2L notable despite being the smallest subgraph; EH2EH");
    println!("   takes a notably shorter share at larger scales)");
}
