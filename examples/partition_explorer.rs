//! Partition explorer: how the 1.5D split reacts to degree thresholds.
//!
//! Builds the partition of one R-MAT graph under several threshold
//! settings — including both degenerate baselines — and prints, per
//! setting: hub counts, the six component sizes, and the min/max/mean
//! per-rank load (the Figure 13 balance story at laptop scale). Also
//! prints the degree histogram that makes threshold choice meaningful
//! (Figure 2 / §6.2.1).
//!
//! ```text
//! cargo run --release --example partition_explorer -- [scale] [ranks]
//! ```
//!
//! Defaults: SCALE 14 on 16 ranks. The knobs go through the reader
//! every binary shares (`sunbfs::cli`: scale 1..=32, ranks 1..=65536);
//! a non-integer or out-of-range knob is refused by name, exit code 2.

use sunbfs::cli::{self, U64};
use sunbfs::net::Cluster;
use sunbfs::part::{build_1p5d, ComponentStats, Thresholds};
use sunbfs::rmat;

fn main() {
    let scale = cli::positional(1, "scale", 14, U64);
    let cfg = cli::sized_session(scale, cli::positional(2, "ranks", 16, U64), 256, 64);
    let cfg = cfg.unwrap_or_else(|e| cli::refuse(e));
    let (scale, ranks) = (cfg.scale, cfg.mesh.num_ranks());
    let params = cfg.rmat();
    let n = params.num_vertices();

    // ---- degree distribution (Figure 2 at laptop scale) ----
    let edges = rmat::generate_edges(&params);
    let degs = rmat::degrees(n, &edges);
    let hist = rmat::degree_histogram(&degs);
    println!(
        "degree distribution, SCALE {scale} ({} edges):",
        edges.len()
    );
    println!("  degree bucket   vertices");
    for (lo, count) in hist.buckets() {
        if count > 0 {
            println!(
                "  >= {lo:<10}   {count:>10}  {}",
                "#".repeat((count as f64).log10().max(0.0) as usize * 4)
            );
        }
    }
    drop(edges);
    drop(degs);

    // ---- partitions under different thresholds ----
    let settings: Vec<(&str, Thresholds)> = vec![
        ("vanilla 1D (no hubs)", Thresholds::none()),
        ("1D + heavy delegates (|H|=0)", Thresholds::heavy_only(256)),
        ("1.5D (paper)", Thresholds::new(256, 64)),
        ("1.5D, aggressive H", Thresholds::new(256, 16)),
        ("2D (|L|=0)", Thresholds::all_hubs(1 << 24)),
    ];

    let cluster = Cluster::new(cfg.mesh, cfg.machine);
    for (name, th) in settings {
        let stats: Vec<(u32, u32, ComponentStats)> = cluster.run(|ctx| {
            let chunk = rmat::generate_chunk(&params, ctx.rank() as u64, ranks as u64);
            let part = build_1p5d(ctx, n, &chunk, th);
            (part.directory.num_e(), part.directory.num_h(), part.stats)
        });
        let (num_e, num_h, _) = stats[0];
        println!("\n=== {name} (E>={}, H>={}) ===", th.e, th.h);
        println!("  hubs: |E|={num_e} |H|={num_h}");
        let sum = |f: fn(&ComponentStats) -> u64| -> (u64, u64, u64) {
            let v: Vec<u64> = stats.iter().map(|(_, _, s)| f(s)).collect();
            (
                *v.iter().min().unwrap(),
                *v.iter().max().unwrap(),
                v.iter().sum(),
            )
        };
        for (label, f) in [
            (
                "EH2EH",
                (|s: &ComponentStats| s.eh2eh) as fn(&ComponentStats) -> u64,
            ),
            ("E2L", |s| s.e2l),
            ("L2E", |s| s.l2e),
            ("H2L", |s| s.h2l),
            ("L2H", |s| s.l2h),
            ("L2L", |s| s.l2l),
        ] {
            let (min, max, total) = sum(f);
            if total == 0 {
                continue;
            }
            let mean = total as f64 / ranks as f64;
            println!(
                "  {label:<6} total {total:>9}  per-rank min {min:>8} / max {max:>8}  (max/mean {:.3})",
                max as f64 / mean.max(1.0)
            );
        }
        let totals: Vec<u64> = stats.iter().map(|(_, _, s)| s.total()).collect();
        let (tmin, tmax) = (*totals.iter().min().unwrap(), *totals.iter().max().unwrap());
        let tmean = totals.iter().sum::<u64>() as f64 / ranks as f64;
        println!(
            "  ALL    per-rank min {tmin} / max {tmax}  (max/mean {:.3})",
            tmax as f64 / tmean.max(1.0)
        );
    }
}
