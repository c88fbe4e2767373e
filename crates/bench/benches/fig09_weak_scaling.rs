//! **Figure 9** — weak scalability.
//!
//! Paper (§6.1.1): scaling from 256 nodes (one supernode) to 103,912
//! nodes at the maximum SCALE per size (35 and 41–44), the
//! implementation reaches 180,792 GTEPS — 52% relative parallel
//! efficiency versus ideal scaling from a single supernode, despite
//! the 8× fat-tree oversubscription, because 1.5D partitioning keeps
//! traffic inside supernodes.
//!
//! This harness runs the laptop analog: constant edges per rank, one
//! mesh row per supernode (8 ranks wide), baseline = one full supernode
//! — the same normalization the paper uses (a communication-free single
//! rank would make "ideal" meaningless).

use sunbfs::driver::{run_benchmark, RunConfig};
use sunbfs_bench::{sweep_thresholds, weak_scaling_sweep};

fn main() {
    let roots = 2;
    println!("=== Figure 9: weak scalability (constant edges/rank, 8-rank supernodes) ===\n");

    let mut rows = Vec::new();
    for (mesh, scale) in weak_scaling_sweep() {
        let cfg = RunConfig {
            scale,
            mesh,
            thresholds: sweep_thresholds(scale),
            num_roots: roots,
            ..RunConfig::default()
        };
        let wall = std::time::Instant::now();
        let report = run_benchmark(&cfg).expect("benchmark must pass");
        let ranks = mesh.num_ranks();
        println!(
            "[{}x{} = {ranks} ranks] SCALE {scale}: {:.3} GTEPS (wall {:.1?})",
            mesh.rows,
            mesh.cols,
            report.harmonic_mean_gteps(),
            wall.elapsed()
        );
        rows.push((ranks, scale, report.harmonic_mean_gteps()));
    }

    let (base_ranks, _, base) = rows[0];
    println!("\n  ranks  SCALE   GTEPS     ideal     rel. efficiency");
    for (ranks, scale, gteps) in &rows {
        let ideal = base * (*ranks as f64 / base_ranks as f64);
        println!(
            "  {ranks:>5}  {scale:>5}   {gteps:>7.3}   {ideal:>7.3}   {:>6.1}%",
            100.0 * gteps / ideal
        );
    }
    let last = rows.last().unwrap();
    let eff = last.2 / (base * (last.0 as f64 / base_ranks as f64));
    println!(
        "\n  relative parallel efficiency at the largest scale: {:.0}% (paper: 52%)",
        100.0 * eff
    );
    assert!(
        eff > 0.10 && eff < 1.10,
        "weak-scaling efficiency {eff} outside plausible band — cost model drifted"
    );
    assert!(
        last.2 > base,
        "absolute GTEPS must still grow with the machine (paper's Figure 9 shape)"
    );
}
