//! Back-of-envelope projection of the cost model to the paper's full
//! machine: SCALE 44 (281 trillion edges) on 103,912 nodes in a
//! 406 × 256 mesh.
//!
//! **This is an extrapolation across three orders of magnitude and is
//! labeled as such.** It exists to answer one question: when the same
//! analytic machine model that reproduces the laptop-scale figures is
//! evaluated at the paper's parameters, does it land in the right
//! *decade* of the 180,792 GTEPS headline? The class statistics
//! (per-class edge shares, per-iteration scan fractions) are measured
//! on a real traversal at SCALE 18 and reused verbatim — R-MAT is
//! self-similar enough for a decade-level estimate, no more.
//!
//! ```text
//! cargo run --release --example paper_scale_projection
//! ```

use sunbfs::common::{MachineConfig, SimTime};
use sunbfs::driver::{run_benchmark, RunConfig};
use sunbfs::net::MeshShape;
use sunbfs::part::Thresholds;
use sunbfs::sunway::kernels;

fn main() {
    let machine = MachineConfig::new_sunway();

    // ---- (1) measure class structure on a real traversal ----
    let cal = RunConfig {
        scale: 18,
        mesh: MeshShape::new(2, 8),
        thresholds: Thresholds::new(2048, 256),
        num_roots: 2,
        ..RunConfig::default()
    };
    let report = run_benchmark(&cal).expect("calibration run must pass");
    let stats = &report.partition_stats;
    let total_stored: u64 = stats.iter().map(|s| s.total()).sum();
    let share = |f: fn(&sunbfs::part::ComponentStats) -> u64| -> f64 {
        stats.iter().map(f).sum::<u64>() as f64 / total_stored as f64
    };
    let eh_share = share(|s| s.eh2eh);
    let hl_share = share(|s| s.h2l) + share(|s| s.l2h);
    let l2l_share = share(|s| s.l2l);
    let scanned: u64 = report.runs[0]
        .iterations
        .iter()
        .map(|it| it.scanned_edges)
        .sum();
    let m_cal = 16u64 << 18;
    let scan_factor = scanned as f64 / m_cal as f64;
    println!("calibration at SCALE 18 (measured, not assumed):");
    println!("  EH2EH share of stored edges: {:.1}%", eh_share * 100.0);
    println!("  H<->L share:                 {:.1}%", hl_share * 100.0);
    println!("  L2L share:                   {:.1}%", l2l_share * 100.0);
    println!("  edges scanned / m:           {scan_factor:.2}");

    // ---- (2) paper-scale parameters ----
    let nodes = 103_912f64;
    let m_full = 16f64 * 2f64.powi(44); // 281T directed-once edges
    let per_node_edges = m_full / nodes; // ~2.7e9
    println!(
        "\nprojection to SCALE 44 on {} nodes (406x256 mesh):",
        nodes as u64
    );
    println!("  edges per node: {:.2e}", per_node_edges);

    // Per-node scanned work (both stored orientations, early exit folded
    // into the measured scan factor).
    let scanned_per_node = per_node_edges * scan_factor * 2.0;

    // (a) node compute: stream scanned adjacency once.
    let t_compute = kernels::dma_stream(&machine, (scanned_per_node * 8.0) as u64, 1024, 6);

    // (b) intra-row messaging (H<->L): volume ~ its edge share, 16 B
    // messages, full NIC bandwidth.
    let row_bytes = per_node_edges * hl_share * 16.0;
    let t_row = SimTime::secs(row_bytes / machine.nic_bandwidth);

    // (c) global messaging (L2L): the forwarded hop crosses supernodes
    // at the oversubscribed share.
    let inter_bw = machine.nic_bandwidth / machine.oversubscription;
    let l2l_bytes = per_node_edges * l2l_share * 16.0;
    let t_l2l = SimTime::secs(l2l_bytes / inter_bw);

    // (d) delegate synchronization: per iteration, hub bitmap words over
    // rows and columns. Hub count per the paper's constraint: <= 100M
    // column hubs → 12.5 MB bit vector; ~10 iterations, 2 tiers.
    let hub_bytes = 12.5e6;
    let iters = 10.0;
    let t_sync =
        SimTime::secs(iters * 2.0 * (hub_bytes / machine.nic_bandwidth + hub_bytes / inter_bw));

    // (e) latency floor: ~30 collectives x log2(P) hops x net latency.
    let t_lat = SimTime::secs(iters * 3.0 * (nodes.log2()) * machine.net_latency);

    let total = t_compute + t_row + t_l2l + t_sync + t_lat;
    println!("\nprojected per-BFS time components (seconds):");
    println!(
        "  compute (adjacency streaming): {:.3}",
        t_compute.as_secs()
    );
    println!("  intra-supernode messaging:     {:.3}", t_row.as_secs());
    println!("  cross-supernode messaging:     {:.3}", t_l2l.as_secs());
    println!("  delegate synchronization:      {:.3}", t_sync.as_secs());
    println!("  collective latency floor:      {:.3}", t_lat.as_secs());
    println!("  total:                         {:.3}", total.as_secs());

    let gteps = m_full / total.as_secs() / 1e9;
    println!("\nprojected: {gteps:.0} GTEPS   (paper measured: 180,792; paper time 1.55 s vs projected {:.2} s)", total.as_secs());
    let ratio = gteps / 180_792.0;
    println!("projection / paper = {ratio:.2}x");
    if (0.2..5.0).contains(&ratio) {
        println!("-> the model lands within the right decade of the headline result.");
    } else {
        println!("-> WARNING: projection off by more than a decade; revisit the model.");
    }
}
