//! **Extension** — strong scaling (not in the paper, which evaluates
//! weak scaling only in Figure 9).
//!
//! A fixed SCALE-19 graph is traversed on growing meshes (8-rank
//! supernodes, like the Figure 9 analog). Strong scaling is harsher
//! than weak scaling for BFS: per-rank message volume shrinks toward
//! the collective latency floor while the inter-supernode share grows,
//! so speedup saturates quickly — context for why Graph 500 machines
//! are compared at their *maximum* SCALE per size, not a fixed one.

use sunbfs::driver::{run_benchmark, RunConfig};
use sunbfs_net::MeshShape;
use sunbfs_part::Thresholds;

fn main() {
    let scale = 19;
    let roots = 2;
    println!("=== Extension: strong scaling at fixed SCALE {scale} (8-rank supernodes) ===\n");
    let mut rows = Vec::new();
    for mesh_rows in [1usize, 2, 4, 8] {
        let mesh = MeshShape::new(mesh_rows, 8);
        let cfg = RunConfig {
            scale,
            mesh,
            thresholds: Thresholds::new(2048, 256),
            num_roots: roots,
            ..RunConfig::default()
        };
        let report = run_benchmark(&cfg).expect("benchmark must pass");
        let ranks = mesh.num_ranks();
        println!(
            "[{}x8 = {ranks} ranks] {:.3} GTEPS",
            mesh_rows,
            report.harmonic_mean_gteps()
        );
        rows.push((ranks, report.harmonic_mean_gteps()));
    }
    let base = rows[0].1;
    println!("\n  ranks   GTEPS    speedup   parallel efficiency");
    for (ranks, gteps) in &rows {
        println!(
            "  {ranks:>5}  {gteps:>7.3}   {:>6.2}x   {:>6.1}%",
            gteps / base,
            100.0 * (gteps / base) / (*ranks as f64 / 8.0)
        );
    }
    let last = rows.last().unwrap();
    println!(
        "\n  strong-scaling speedup at 8x the ranks: {:.2}x",
        last.1 / base
    );
    println!("  (BFS at fixed size saturates fast: shrinking per-rank volumes race toward");
    println!("   the collective latency floor while inter-supernode share grows — the");
    println!("   reason Graph 500 reports weak-scaled maximum-SCALE runs)");
    assert!(
        last.1 / base > 0.3 && last.1 / base < 9.0,
        "strong-scaling behavior left the plausible band: {:.2}x",
        last.1 / base
    );
}
