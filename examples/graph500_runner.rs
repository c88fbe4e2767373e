//! Graph 500 benchmark runner with command-line knobs.
//!
//! Mirrors the reporting style of the official benchmark: per-root TEPS
//! plus the harmonic mean, with the paper's technique toggles exposed.
//!
//! ```text
//! cargo run --release --example graph500_runner -- \
//!     [scale] [ranks] [e_threshold] [h_threshold] [num_roots] \
//!     [--json [path]] [--seed <u64>] [--batch [--baseline]] \
//!     [--save-graph <path>] [--load-graph <path>]
//!
//! # defaults:         14      16          256          64        8
//! # --json without a path writes BENCH_<scale>_<rows>x<cols>.json
//! # --seed sets the R-MAT generator seed (default 42)
//! # --batch routes the roots through the multi-source serve path;
//! # --baseline additionally runs the sequential per-root loop on the
//! #   same resident session and reports the roots/sec speedup
//! # --save-graph writes the built partition to a sunbfs-store file
//! #   (docs/STORE.md); --load-graph opens one instead of rebuilding
//! #   (building and saving it first when the file doesn't exist yet)
//! # pick the direction-heuristic family (docs/KERNELS.md); anything
//! # other than fixed|measured is a refusal (exit code 2):
//! SUNBFS_DIRECTION=fixed cargo run --release \
//!     --example graph500_runner -- 14 16
//! ```
//!
//! Unknown `--flags` are an error (exit code 2), not a warning: a typo
//! like `--jsno` silently producing a default run is worse than a
//! refusal. So is a knob the shared reader (`sunbfs::cli`) refuses —
//! a non-integer, scale outside 1..=32, ranks outside 1..=65536,
//! thresholds outside `u32` or h > e — or zero roots: the refusal names
//! the knob. A sixth positional argument is refused by its value.

use sunbfs::cli::{self, Flags, U64};
use sunbfs::core::{DirectionHeuristic, EngineConfig};
use sunbfs::driver::{run_benchmark, FaultSpec, RunConfig};
use sunbfs::metrics;

const USAGE: &str = "usage: graph500_runner [scale] [ranks] [e_threshold] [h_threshold] \
    [num_roots] [--json [path]] [--seed <u64>] [--batch [--baseline]] \
    [--save-graph <path>] [--load-graph <path>]";

/// The positional knobs, in order.
const POSITIONAL: [&str; 5] = ["scale", "ranks", "e_threshold", "h_threshold", "num_roots"];

/// Parsed command line: positional knobs plus flags.
#[derive(Default)]
struct Args {
    positional: Vec<u64>,
    /// `--json [path]`; `Some(None)` means "default filename".
    json: Option<Option<String>>,
    seed: u64,
    batch: bool,
    baseline: bool,
    save_graph: Option<String>,
    load_graph: Option<String>,
}

/// Split flags out of the argument list, leaving the positional knobs
/// in place.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 42,
        ..Args::default()
    };
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--json" => parsed.json = Some(flags.value_if_any().map(String::from)),
            "--seed" => parsed.seed = flags.num(U64)?,
            "--batch" => parsed.batch = true,
            "--baseline" => parsed.baseline = true,
            "--save-graph" => parsed.save_graph = Some(flags.value()?.to_string()),
            "--load-graph" => parsed.load_graph = Some(flags.value()?.to_string()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}\n{USAGE}")),
            raw => {
                let Some(name) = POSITIONAL.get(parsed.positional.len()) else {
                    let n = POSITIONAL.len();
                    return Err(format!(
                        "unexpected positional argument {raw:?}: at most {n} knobs\n{USAGE}"
                    ));
                };
                parsed.positional.push(cli::knob(name, raw, U64)?);
            }
        }
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        positional,
        json,
        seed,
        batch,
        baseline,
        save_graph,
        load_graph,
    } = parse_args(&args).unwrap_or_else(|e| cli::refuse(e));
    let arg = |n: usize, default: u64| positional.get(n).copied().unwrap_or(default);
    let sized = cli::sized_session(arg(0, 14), arg(1, 16), arg(2, 256), arg(3, 64));
    let sized = sized.unwrap_or_else(|e| cli::refuse(e));
    let (scale, mesh, thresholds) = (sized.scale, sized.mesh, sized.thresholds);
    let num_roots = match arg(4, 8) {
        0 => cli::refuse("knob \"num_roots\" must be at least 1, got 0"),
        k => usize::try_from(k).unwrap_or(usize::MAX),
    };

    let mut engine = EngineConfig::default();
    if let Some(value) = std::env::var_os("SUNBFS_DIRECTION") {
        let value = value.to_string_lossy().into_owned();
        engine.heuristic = DirectionHeuristic::parse(&value).unwrap_or_else(|| {
            cli::refuse(format_args!(
                "SUNBFS_DIRECTION must be \"fixed\" or \"measured\", got {value:?}"
            ))
        });
    }

    let config = RunConfig {
        scale,
        mesh,
        thresholds,
        engine,
        seed,
        num_roots,
        // Full-edge-list validation is O(edges) on the driver; keep it
        // for the scales a laptop handles comfortably.
        validate: scale <= 18,
        // Injection comes from SUNBFS_FAULT_PLAN when set (see
        // docs/FAULTS.md); no seeded campaign by default.
        faults: FaultSpec::NONE,
        serve_batch: batch,
        serve_baseline: baseline,
        save_graph,
        load_graph,
        ..RunConfig::default()
    };

    println!("graph500 runner");
    println!("  SCALE:          {scale} ({} vertices)", 1u64 << scale);
    println!("  edges:          {}", 16u64 << scale);
    println!(
        "  mesh:           {}x{} = {} ranks",
        mesh.rows,
        mesh.cols,
        mesh.num_ranks()
    );
    println!("  thresholds:     E>={}  H>={}", thresholds.e, thresholds.h);
    println!(
        "  techniques:     sub-iteration={} segmenting={}",
        engine.sub_iteration, engine.segmenting
    );
    println!("  roots:          {num_roots}");
    println!("  seed:           {seed}");
    if batch {
        println!(
            "  mode:           batched serve path{}",
            if baseline {
                " (+ sequential baseline)"
            } else {
                ""
            }
        );
    }
    if let Some(path) = &config.load_graph {
        println!("  load graph:     {path}");
    }
    if let Some(path) = &config.save_graph {
        println!("  save graph:     {path}");
    }

    let wall = std::time::Instant::now();
    let report = match run_benchmark(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };
    let wall = wall.elapsed();

    println!("\nper-root results:");
    for run in &report.runs {
        println!(
            "  root {:>8}: {:>7} iters, {:>9} visited, {:>11} edges, {:>9.3} ms sim, {:>8.3} GTEPS",
            run.root,
            run.iterations.len(),
            run.visited_vertices,
            run.traversed_edges,
            run.sim_seconds * 1e3,
            run.gteps,
        );
    }
    if let Some(path) = json {
        let path = path.unwrap_or_else(|| metrics::default_report_path(scale, config.mesh));
        match metrics::write_report(&report, std::path::Path::new(&path)) {
            Ok(()) => println!("\nJSON report:          {path}"),
            Err(e) => eprintln!("\ncould not write {path}: {e}"),
        }
    }

    if report.faults.degraded() || !report.faults.injected.is_empty() {
        println!(
            "\nfaults:               {} injected, {} retries, degraded={}",
            report.faults.injected.len(),
            report.faults.total_retries,
            report.faults.degraded()
        );
        for q in &report.faults.quarantined {
            println!(
                "  quarantined root {:>8}: {} ({})",
                q.root, q.reason.label, q.reason.detail
            );
        }
    }
    if report.recovery.retransmits() > 0 || report.recovery.iterations_salvaged > 0 {
        println!(
            "recovery:             {} retransmits, {} checkpoints, {} iterations salvaged",
            report.recovery.retransmits(),
            report.recovery.checkpoints_taken,
            report.recovery.iterations_salvaged
        );
    }

    if let Some(serve) = &report.serve {
        println!(
            "\nserve:                {} served / {} quarantined over {} batches, {:.3} ms sim",
            serve.served,
            serve.quarantined,
            serve.batches.len(),
            serve.batch_sim_seconds * 1e3,
        );
        println!(
            "batched roots/sec:    {:.1} (simulated)",
            serve.batch_roots_per_sec()
        );
        if let (Some(seq), Some(speedup)) = (serve.sequential_roots_per_sec(), serve.speedup()) {
            println!("sequential roots/sec: {seq:.1} (simulated)");
            println!("batch speedup:        {speedup:.2}x");
        }
    }

    if let Some(store) = &report.store {
        println!(
            "\nstore:                {} ({}, {} pages, {} bytes)",
            store.path,
            if store.opened { "opened" } else { "built" },
            store.pages,
            store.file_bytes,
        );
        if let Some(warm) = store.warm_open_wall_seconds {
            println!("warm open wall:       {:.3} ms", warm * 1e3);
        }
        if let Some(cold) = store.cold_build_wall_seconds {
            println!("cold build wall:      {:.3} ms", cold * 1e3);
        }
    }

    println!("\nvalidated:            {}", report.validated);
    println!("mean GTEPS:           {:.3}", report.mean_gteps());
    println!("harmonic-mean GTEPS:  {:.3}", report.harmonic_mean_gteps());
    println!(
        "driver wall time:     {:.2?} (load {:.3} s, traverse {:.3} s, validate {:.3} s)",
        wall, report.wall.load_seconds, report.wall.traverse_seconds, report.wall.validate_seconds
    );

    // Iteration-direction trace of the first root — the sub-iteration
    // optimization at work.
    if let Some(run) = report.runs.first() {
        println!("\ndirection trace (root {}):", run.root);
        println!("  iter  EH2EH  E2L   L2E   H2L   L2H   L2L    active(E/H/L)");
        for it in &run.iterations {
            let d: Vec<&str> = it
                .directions
                .iter()
                .map(|d| match d {
                    sunbfs::core::Direction::Push => "push",
                    sunbfs::core::Direction::Pull => "PULL",
                })
                .collect();
            println!(
                "  {:>4}  {:<5}  {:<4}  {:<4}  {:<4}  {:<4}  {:<4}   {}/{}/{}",
                it.iter, d[0], d[1], d[2], d[3], d[4], d[5], it.active_e, it.active_h, it.active_l
            );
        }
    }
}
