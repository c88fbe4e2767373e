//! Bit-parallel multi-source BFS over the 1.5D partition.
//!
//! The serving layer's batch entry point: up to 64 roots traverse the
//! graph in **one** pass of the schedule in [`crate::engine`],
//! instantiated with the `Word` lane. Every vertex carries a `u64`
//! *frontier word* whose bit `b` says "root `b`'s frontier contains
//! this vertex", so one adjacency scan discovers for all roots at once
//! (`new = mask & !seen`) and the per-iteration fixed costs (hub syncs,
//! heuristic allreduces, set sweeps) amortize across the whole batch —
//! the classic MS-BFS idea applied to the paper's
//! EH2EH/E2L/L2E/H2L/L2H/L2L decomposition. Hub syncs ship `nh` words
//! instead of `nh` bits (same collective count, so the latency
//! amortization survives) and crossing pushes travel as `(dest, parent,
//! mask)` triples.
//!
//! Depths are tracked explicitly per `(vertex, root)` slot — a batch is
//! level-synchronous per root, so the slot's depth is simply the
//! iteration that first set its bit. Parents may differ from a
//! single-source run (discovery order differs inside an iteration);
//! depths may not, which is what the equivalence sweep pins. Direction
//! decisions are per batch: one schedule every root rides.

use sunbfs_common::TimeAccumulator;
use sunbfs_net::{CommStats, RankCtx};
use sunbfs_part::RankPartition;

use crate::config::EngineConfig;
use crate::engine::{Engine, EngineError, EngineScratch};
use crate::lane::Word;
use crate::stats::IterationStats;

/// Widest batch one frontier word can carry.
pub const MAX_BATCH_ROOTS: usize = 64;

/// Depth slot value for an unreached `(vertex, root)` pair.
pub const UNREACHED_DEPTH: u32 = u32::MAX;

/// Per-batch statistics on one rank.
#[derive(Clone, Debug, Default)]
pub struct BatchRunStats {
    /// Iteration series: counters are `(vertex, root)` pairs; each
    /// scanned adjacency entry serves the whole batch.
    pub iterations: Vec<IterationStats>,
    /// Simulated seconds the whole batch took on this rank.
    pub sim_seconds: f64,
    /// Vertices reached per root (global, root-indexed).
    pub visited: Vec<u64>,
    /// Degree-sum estimate of traversed edges per root (global,
    /// root-indexed; duplicate generator edges count per entry, like
    /// the single-source estimate).
    pub traversed_edges: Vec<u64>,
    /// Per-category simulated time this batch charged on this rank.
    pub times: TimeAccumulator,
    /// Collectives this batch issued on this rank.
    pub comm: CommStats,
}

/// Result of one batch traversal on one rank. Per-vertex slots are
/// vertex-major: slot `local_index * num_roots + b` belongs to root `b`.
#[derive(Clone, Debug)]
pub struct BatchOutput {
    /// Batch width (1..=64).
    pub num_roots: usize,
    /// Parents of this rank's owned vertices per root (global vertex
    /// ids; [`sunbfs_common::INVALID_VERTEX`] where unreached).
    pub parents: Vec<u64>,
    /// BFS depth of this rank's owned vertices per root
    /// ([`UNREACHED_DEPTH`] where unreached).
    pub depths: Vec<u32>,
    /// Per-run statistics.
    pub stats: BatchRunStats,
}

impl BatchOutput {
    /// Parent of owned local vertex `li` in root `b`'s tree.
    pub fn parent_of(&self, li: usize, b: usize) -> u64 {
        self.parents[li * self.num_roots + b]
    }

    /// Depth of owned local vertex `li` in root `b`'s tree.
    pub fn depth_of(&self, li: usize, b: usize) -> u32 {
        self.depths[li * self.num_roots + b]
    }
}

/// Run one bit-parallel multi-source BFS over this rank's partition.
///
/// SPMD: all ranks call with identical `roots` (1..=64 of them, order
/// significant — bit `b` is `roots[b]`) and `cfg`. Duplicate roots are
/// legal: each bit traverses independently.
///
/// # Errors
/// [`EngineError::NonTermination`] if any root's frontier fails to
/// drain within the iteration cap (replicated state: every rank returns
/// it together).
///
/// # Panics
/// If `roots` is empty or wider than [`MAX_BATCH_ROOTS`].
pub fn run_bfs_batch(
    ctx: &mut RankCtx,
    part: &RankPartition,
    roots: &[u64],
    cfg: &EngineConfig,
) -> Result<BatchOutput, EngineError> {
    EngineScratch::default().run_batch(ctx, part, roots, cfg)
}

impl EngineScratch {
    /// [`run_bfs_batch`] with its message buffers drawn from, and given
    /// back to, this scratch.
    ///
    /// # Errors
    /// As [`run_bfs_batch`].
    ///
    /// # Panics
    /// As [`run_bfs_batch`].
    pub fn run_batch(
        &mut self,
        ctx: &mut RankCtx,
        part: &RankPartition,
        roots: &[u64],
        cfg: &EngineConfig,
    ) -> Result<BatchOutput, EngineError> {
        assert!(
            !roots.is_empty() && roots.len() <= MAX_BATCH_ROOTS,
            "batch width must be 1..={MAX_BATCH_ROOTS}, got {}",
            roots.len()
        );
        Engine::new(ctx, part, *cfg, Word::new(roots.len()), self).run(ctx, roots, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunbfs_common::{MachineConfig, INVALID_VERTEX};
    use sunbfs_net::{Cluster, MeshShape};
    use sunbfs_part::{build_1p5d, Thresholds};
    use sunbfs_rmat::RmatParams;

    fn batch_over_cluster(
        scale: u32,
        ranks: usize,
        thresholds: Thresholds,
        roots: &[u64],
    ) -> (u64, Vec<Vec<u64>>, Vec<Vec<u32>>) {
        let params = RmatParams::graph500(scale, 42);
        let n = params.num_vertices();
        let cluster = Cluster::new(MeshShape::near_square(ranks), MachineConfig::new_sunway());
        let cfg = EngineConfig::default();
        let outs = cluster.run(|ctx| {
            let chunk = sunbfs_rmat::generate_chunk(&params, ctx.rank() as u64, ranks as u64);
            let part = build_1p5d(ctx, n, &chunk, thresholds);
            run_bfs_batch(ctx, &part, roots, &cfg).expect("batch terminates")
        });
        // Assemble global per-root parent/depth arrays from the
        // rank-owned block slices.
        let nb = roots.len();
        let mut parents = vec![vec![INVALID_VERTEX; n as usize]; nb];
        let mut depths = vec![vec![UNREACHED_DEPTH; n as usize]; nb];
        let dist = sunbfs_part::VertexDistribution::new(n, ranks);
        for (rank, out) in outs.iter().enumerate() {
            let range = dist.range_of(rank);
            for li in 0..(range.end - range.start) as usize {
                for (b, (p, d)) in parents.iter_mut().zip(depths.iter_mut()).enumerate() {
                    p[range.start as usize + li] = out.parent_of(li, b);
                    d[range.start as usize + li] = out.depth_of(li, b);
                }
            }
        }
        (n, parents, depths)
    }

    /// First `k` distinct connected (degree > 0) vertices of the graph.
    fn connected_roots(params: &RmatParams, k: usize) -> Vec<u64> {
        let n = params.num_vertices();
        let edges = sunbfs_rmat::generate_edges(params);
        let degs = sunbfs_rmat::degrees(n, &edges);
        (0..n).filter(|&v| degs[v as usize] > 0).take(k).collect()
    }

    #[test]
    fn batch_depths_match_reference_bfs() {
        let params = RmatParams::graph500(8, 42);
        let edges = sunbfs_rmat::generate_edges(&params);
        let roots = connected_roots(&params, 5);
        let (n, parents, depths) = batch_over_cluster(8, 4, Thresholds::new(64, 16), &roots);
        for (b, &root) in roots.iter().enumerate() {
            let (_, ref_depths) = crate::validate::reference_bfs(n, &edges, root);
            for v in 0..n as usize {
                let got = depths[b][v];
                let want = ref_depths[v];
                assert_eq!(
                    if got == UNREACHED_DEPTH {
                        u64::MAX
                    } else {
                        got as u64
                    },
                    want,
                    "root {root} vertex {v}"
                );
            }
            crate::validate::validate_parents(n, &edges, root, &parents[b])
                .expect("batch parent tree validates");
        }
    }

    #[test]
    #[should_panic(expected = "batch width")]
    fn oversized_batch_is_rejected() {
        let params = RmatParams::graph500(6, 42);
        let n = params.num_vertices();
        let cluster = Cluster::new(MeshShape::new(1, 1), MachineConfig::new_sunway());
        let roots: Vec<u64> = (0..65).collect();
        cluster.run(|ctx| {
            let chunk = sunbfs_rmat::generate_chunk(&params, 0, 1);
            let part = build_1p5d(ctx, n, &chunk, Thresholds::new(64, 16));
            let _ = run_bfs_batch(ctx, &part, &roots, &EngineConfig::default());
        });
    }
}
