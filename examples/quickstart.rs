//! Quickstart: the whole pipeline in thirty lines.
//!
//! Generates a SCALE-12 Graph 500 R-MAT graph (4096 vertices, 65536
//! edges), partitions it 1.5D over a 2×2 simulated mesh, runs BFS from
//! three roots, validates each traversal, and prints the headline
//! numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sunbfs::driver::{run_benchmark, RunConfig, EDGE_FACTOR};

fn main() {
    let config = RunConfig::small_test(12, 4);
    println!(
        "sunbfs quickstart: SCALE {} ({} vertices, {} edges) on a {}x{} mesh",
        config.scale,
        1u64 << config.scale,
        u64::from(EDGE_FACTOR) << config.scale,
        config.mesh.rows,
        config.mesh.cols,
    );

    let report = run_benchmark(&config).expect("benchmark must pass");

    println!("validated: {}", report.validated);
    for run in &report.runs {
        println!(
            "  root {:>6}: visited {:>6} vertices, {:>8} edges, {:>8.3} ms simulated -> {:.3} GTEPS",
            run.root,
            run.visited_vertices,
            run.traversed_edges,
            run.sim_seconds * 1e3,
            run.gteps,
        );
    }
    println!("harmonic-mean GTEPS: {:.3}", report.harmonic_mean_gteps());

    println!("\nsimulated time breakdown (summed over ranks and roots):");
    let times = report.total_times();
    let total = times.total().as_secs().max(f64::MIN_POSITIVE);
    for (category, secs) in times.entries() {
        if secs / total > 0.005 {
            println!("  {category:<40} {:>6.1}%", 100.0 * secs / total);
        }
    }
}
