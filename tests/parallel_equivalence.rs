//! Worker-count determinism sweep: the intra-rank worker pool
//! (`sunbfs_common::pool`) must never change a single output byte.
//!
//! The contract (see `docs/PERF.md`): `SUNBFS_WORKERS` only decides how
//! many OS threads staff each kernel scan — per-chunk results merge in
//! chunk order, so parents and depths are byte-identical to the serial
//! path. This test sweeps worker counts {1, 2, 4, 7} at SCALE 12 across
//! two mesh shapes and asserts exactly that, for both the single-source
//! engine and the 64-root bit-parallel batch engine, with the serial
//! reference Graph500-validated.

use sunbfs::common::MachineConfig;
use sunbfs::core::batch::run_bfs_batch;
use sunbfs::core::{run_bfs, validate_parents, EngineConfig};
use sunbfs::driver::pick_roots;
use sunbfs::net::{Cluster, MeshShape};
use sunbfs::part::{build_1p5d, Thresholds, VertexDistribution};
use sunbfs::rmat::{generate_chunk, generate_edges, RmatParams};

const SCALE: u32 = 12;
const SEED: u64 = 42;
const BATCH_WIDTH: usize = 64;

/// Global outputs of one full traversal pass at a fixed worker count.
#[derive(PartialEq, Eq)]
struct PassOutput {
    single_parents: Vec<u64>,
    batch_parents: Vec<Vec<u64>>,
    batch_depths: Vec<Vec<u32>>,
}

/// Run single-source + batch BFS over `mesh` and assemble the global
/// parent/depth arrays from the rank-owned block slices.
fn run_pass(mesh: MeshShape, root: u64, roots: &[u64]) -> PassOutput {
    let params = RmatParams::graph500(SCALE, SEED);
    let n = params.num_vertices();
    let ranks = mesh.rows * mesh.cols;
    let thresholds = Thresholds::new(128, 32);
    let cfg = EngineConfig::default();
    let cluster = Cluster::new(mesh, MachineConfig::new_sunway());
    let outs = cluster.run(|ctx| {
        let chunk = generate_chunk(&params, ctx.rank() as u64, ranks as u64);
        let part = build_1p5d(ctx, n, &chunk, thresholds);
        let single = run_bfs(ctx, &part, root, &cfg).expect("single-source BFS terminates");
        let batch = run_bfs_batch(ctx, &part, roots, &cfg).expect("batch BFS terminates");
        (single, batch)
    });

    let mut single_parents = Vec::with_capacity(n as usize);
    for (single, _) in &outs {
        single_parents.extend_from_slice(&single.parents);
    }

    let nb = roots.len();
    let mut batch_parents = vec![vec![0u64; n as usize]; nb];
    let mut batch_depths = vec![vec![0u32; n as usize]; nb];
    let dist = VertexDistribution::new(n, ranks);
    for (rank, (_, batch)) in outs.iter().enumerate() {
        let range = dist.range_of(rank);
        for li in 0..(range.end - range.start) as usize {
            let v = range.start as usize + li;
            for b in 0..nb {
                batch_parents[b][v] = batch.parent_of(li, b);
                batch_depths[b][v] = batch.depth_of(li, b);
            }
        }
    }
    PassOutput {
        single_parents,
        batch_parents,
        batch_depths,
    }
}

/// One `#[test]` for the whole sweep: `pool::set_workers` is
/// process-global, so the worker counts must change sequentially.
#[test]
fn outputs_are_byte_identical_across_worker_counts() {
    let params = RmatParams::graph500(SCALE, SEED);
    let edges = generate_edges(&params);
    let n = params.num_vertices();
    let roots = pick_roots(&params, BATCH_WIDTH).expect("connected roots");
    assert_eq!(roots.len(), BATCH_WIDTH, "graph too small for the batch");
    let root = roots[0];

    for mesh in [MeshShape::near_square(4), MeshShape::new(2, 3)] {
        // Serial reference (workers = 1), Graph500-validated.
        sunbfs::common::pool::set_workers(1);
        let serial = run_pass(mesh, root, &roots);
        validate_parents(n, &edges, root, &serial.single_parents)
            .expect("serial single-source parents validate");
        for (b, &r) in roots.iter().enumerate() {
            validate_parents(n, &edges, r, &serial.batch_parents[b])
                .expect("serial batch parents validate");
        }

        for workers in [2usize, 4, 7] {
            sunbfs::common::pool::set_workers(workers);
            let parallel = run_pass(mesh, root, &roots);
            assert!(
                parallel.single_parents == serial.single_parents,
                "single-source parents differ at {workers} workers on {}x{}",
                mesh.rows,
                mesh.cols
            );
            assert!(
                parallel.batch_parents == serial.batch_parents,
                "batch parents differ at {workers} workers on {}x{}",
                mesh.rows,
                mesh.cols
            );
            assert!(
                parallel.batch_depths == serial.batch_depths,
                "batch depths differ at {workers} workers on {}x{}",
                mesh.rows,
                mesh.cols
            );
        }
    }
    // Drop the override so any later code in this process sees the
    // environment default again.
    sunbfs::common::pool::set_workers(0);
}
