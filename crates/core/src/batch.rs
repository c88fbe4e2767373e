//! Bit-parallel multi-source BFS over the 1.5D partition.
//!
//! The serving layer's batch engine: up to 64 roots traverse the graph
//! in **one** pass. Every vertex carries a `u64` *frontier word* whose
//! bit `b` says "root `b`'s frontier contains this vertex", and the six
//! sub-iteration kernels of the single-source engine
//! ([`crate::engine`]) become word operations — one adjacency scan
//! discovers for all roots at once (`new = mask & !seen`), so the
//! per-iteration fixed costs (hub syncs, heuristic allreduces, bitmap
//! sweeps) amortize across the whole batch. This is the classic MS-BFS
//! idea applied to the paper's EH2EH/E2L/L2E/H2L/L2H/L2L decomposition.
//!
//! State placement mirrors the single-source engine exactly:
//!
//! * hub words are replicated and synced at sub-iteration boundaries
//!   through the same row-then-column OR-allreduce (the payload is `nh`
//!   words instead of `nh` bits — same collective count, so the latency
//!   amortization survives),
//! * hub parents stay delegate-local per `(hub, root)` slot and are
//!   min-reduced once after the traversal,
//! * L words live only at the owner; crossing pushes travel as
//!   `(dest, parent, mask)` triples through the same OCS-sort +
//!   `alltoallv` exchanges.
//!
//! Depths are tracked explicitly per `(vertex, root)` slot — a batch is
//! level-synchronous per root, so the slot's depth is simply the
//! iteration that first set its bit. Parents may differ from a
//! single-source run (discovery order differs inside an iteration);
//! depths may not, which is what the equivalence sweep pins.
//!
//! Direction heuristics are lifted to **per-batch** decisions: the
//! activity counters feeding [`choose_local`]/[`choose_crossing`] count
//! `(vertex, root)` *pairs* (word popcounts) against denominators
//! scaled by the batch width — i.e. the decision uses the mean frontier
//! density across the batch's roots.

use sunbfs_common::bitmap::wide;
use sunbfs_common::{pool, JsonValue, PoolStats, TimeAccumulator, ToJson, INVALID_VERTEX};
use sunbfs_net::{CommStats, RankCtx, Scope};
use sunbfs_part::RankPartition;
use sunbfs_sunway::{ocs_sort_rma, OcsConfig, SegmentedBitvec};

use crate::balance;
use crate::config::{
    choose_crossing, choose_local, choose_measured, Direction, DirectionHeuristic, EngineConfig,
};
use crate::costing;
use crate::engine::{
    hub_sync_collective, range_bucket, EngineError, MAX_ITERATIONS, SCAN_GRAIN_ITEMS,
};

/// Widest batch one frontier word can carry.
pub const MAX_BATCH_ROOTS: usize = 64;

/// Depth slot value for an unreached `(vertex, root)` pair.
pub const UNREACHED_DEPTH: u32 = u32::MAX;

/// One iteration of a batch traversal (replicated counters).
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchIterationStats {
    /// 1-based iteration number.
    pub iter: u32,
    /// Active `(E vertex, root)` pairs at iteration start.
    pub active_e: u64,
    /// Active `(H vertex, root)` pairs at iteration start.
    pub active_h: u64,
    /// Active `(L vertex, root)` pairs at iteration start (global).
    pub active_l: u64,
    /// `(L vertex, root)` pairs discovered this iteration (global).
    pub newly_l: u64,
    /// Per-component push/pull decisions (per-batch, possibly refreshed
    /// mid-iteration for H2L/L2L like the single-source engine).
    pub directions: [Direction; 6],
    /// Adjacency entries scanned on this rank (each scan serves the
    /// whole batch — the amortization at work).
    pub scanned_edges: u64,
    /// Worker-pool activity across this iteration's scans on this rank
    /// (the schema-v5 worker-scaling surface for the batch path).
    pub pool: PoolStats,
}

impl ToJson for BatchIterationStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("iter", self.iter)
            .field("active_e", self.active_e)
            .field("active_h", self.active_h)
            .field("active_l", self.active_l)
            .field("newly_l", self.newly_l)
            .field(
                "directions",
                JsonValue::Array(
                    self.directions
                        .iter()
                        .map(|&d| {
                            JsonValue::Str(
                                match d {
                                    Direction::Push => "push",
                                    Direction::Pull => "pull",
                                }
                                .to_string(),
                            )
                        })
                        .collect(),
                ),
            )
            .field("scanned_edges", self.scanned_edges)
            .field("pool", self.pool.to_json())
            .build()
    }
}

/// Per-batch statistics on one rank.
#[derive(Clone, Debug, Default)]
pub struct BatchRunStats {
    /// Iteration series (replicated counters plus this rank's scans).
    pub iterations: Vec<BatchIterationStats>,
    /// Simulated seconds the whole batch took on this rank.
    pub sim_seconds: f64,
    /// Vertices reached per root (global, root-indexed).
    pub visited: Vec<u64>,
    /// Degree-sum estimate of traversed edges per root (global,
    /// root-indexed; duplicate generator edges count per entry, like
    /// the single-source engine's estimate).
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
    /// ids; [`INVALID_VERTEX`] where unreached).
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
    assert!(
        !roots.is_empty() && roots.len() <= MAX_BATCH_ROOTS,
        "batch width must be 1..={MAX_BATCH_ROOTS}, got {}",
        roots.len()
    );
    BatchEngine::new(ctx, part, *cfg, roots.len()).run(ctx, roots)
}

struct BatchEngine<'a> {
    part: &'a RankPartition,
    cfg: EngineConfig,
    nb: usize,
    full: u64,
    // Replicated hub words (index: hub id).
    hub_curr: Vec<u64>,
    hub_seen: Vec<u64>,
    hub_next: Vec<u64>,
    hub_update: Vec<u64>,
    // Delegate-local hub parents and replicated hub depths, per
    // (hub, root) slot `h * nb + b`.
    hub_parent: Vec<u64>,
    hub_depth: Vec<u32>,
    // Owner-local L words (index: local offset) and per-slot results.
    l_curr: Vec<u64>,
    l_seen: Vec<u64>,
    l_next: Vec<u64>,
    l_parent: Vec<u64>,
    l_depth: Vec<u32>,
    // Cached global totals (one collective at engine setup).
    total_l_connected: u64,
    total_el: u64,
    total_h2l: u64,
    total_lh: u64,
    total_l2l: u64,
    // Mesh facts.
    rows: usize,
    cols: usize,
    // Scratch.
    scanned: u64,
    pool: PoolStats,
    iter: u32,
    // Measured-heuristic state (all zeros / Push under Fixed). Batch
    // masses count `(vertex, root)` pairs weighted by degree — degree ×
    // popcount of the frontier word — against ×nb-scaled totals, the
    // same mean-across-the-batch lift as the count heuristics.
    class_mass_total: [u64; 3],
    frontier_mass: [u64; 3],
    visited_mass: [u64; 3],
    prev_dirs: [Direction; 6],
}

impl<'a> BatchEngine<'a> {
    fn new(ctx: &mut RankCtx, part: &'a RankPartition, cfg: EngineConfig, nb: usize) -> Self {
        let nh = part.directory.num_hubs() as usize;
        let range = part.owned_range();
        let local_n = (range.end - range.start) as usize;
        let topo = ctx.topology();
        let dir = &part.directory;
        let local_l_connected = part
            .owned_degrees
            .iter()
            .enumerate()
            .filter(|(i, &d)| d > 0 && dir.hub_id(range.start + *i as u64).is_none())
            .count() as u64;
        // Same payload rule as the single-source engine: the measured
        // heuristic appends its three per-class degree-mass totals, the
        // fixed mode's payload stays at five entries.
        let mut payload = vec![
            local_l_connected,
            part.stats.e2l,
            part.stats.h2l,
            part.stats.l2h,
            part.stats.l2l,
        ];
        if cfg.heuristic == DirectionHeuristic::Measured {
            let num_e = dir.num_e();
            let mut class_mass = [0u64; 3];
            for (i, &d) in part.owned_degrees.iter().enumerate() {
                match dir.hub_id(range.start + i as u64) {
                    Some(h) if h < num_e => class_mass[0] += d as u64,
                    Some(_) => class_mass[1] += d as u64,
                    None if d > 0 => class_mass[2] += d as u64,
                    None => {}
                }
            }
            payload.extend(class_mass);
        }
        let totals = ctx.allreduce_with(Scope::World, "heur.totals", payload, None, |a, b| *a += b);
        let class_mass_total = match totals.get(5..8) {
            Some(m) => [m[0], m[1], m[2]],
            None => [0; 3],
        };
        BatchEngine {
            part,
            cfg,
            nb,
            full: if nb == MAX_BATCH_ROOTS {
                u64::MAX
            } else {
                (1u64 << nb) - 1
            },
            hub_curr: vec![0; nh],
            hub_seen: vec![0; nh],
            hub_next: vec![0; nh],
            hub_update: vec![0; nh],
            hub_parent: vec![INVALID_VERTEX; nh * nb],
            hub_depth: vec![UNREACHED_DEPTH; nh * nb],
            l_curr: vec![0; local_n],
            l_seen: vec![0; local_n],
            l_next: vec![0; local_n],
            l_parent: vec![INVALID_VERTEX; local_n * nb],
            l_depth: vec![UNREACHED_DEPTH; local_n * nb],
            total_l_connected: totals[0],
            total_el: totals[1],
            total_h2l: totals[2],
            total_lh: totals[3],
            total_l2l: totals[4],
            rows: topo.shape().rows,
            cols: topo.shape().cols,
            scanned: 0,
            pool: PoolStats::default(),
            iter: 0,
            class_mass_total,
            frontier_mass: [0; 3],
            visited_mass: [0; 3],
            prev_dirs: [Direction::Push; 6],
        }
    }

    /// True when the measured-degree decision family is in force.
    #[inline]
    fn measured(&self) -> bool {
        self.cfg.heuristic == DirectionHeuristic::Measured
    }

    /// This rank's contribution to the class-split frontier pair mass:
    /// degree × popcount of each *owned* frontier word, split E/H/L.
    fn local_frontier_mass(&self, hub_words: &[u64], l_words: &[u64]) -> [u64; 3] {
        let dir = &self.part.directory;
        let range = self.part.owned_range();
        let num_e = dir.num_e() as usize;
        let mut mass = [0u64; 3];
        wide::for_each_nonzero_word(hub_words, 0, hub_words.len(), |h, w| {
            let v = dir.vertex_of(h as u32);
            if range.contains(&v) {
                let d = self.part.owned_degrees[(v - range.start) as usize] as u64;
                mass[if h < num_e { 0 } else { 1 }] += d * w.count_ones() as u64;
            }
        });
        wide::for_each_nonzero_word(l_words, 0, l_words.len(), |li, w| {
            mass[2] += self.part.owned_degrees[li] as u64 * w.count_ones() as u64;
        });
        mass
    }

    /// This rank's pair mass of seen owned L slots (the measured counter
    /// piggybacked on the L2E hub sync).
    fn local_l_seen_mass(&self) -> u64 {
        let mut m = 0u64;
        wide::for_each_nonzero_word(&self.l_seen, 0, self.l_seen.len(), |li, w| {
            m += self.part.owned_degrees[li] as u64 * w.count_ones() as u64;
        });
        m
    }

    fn run(mut self, ctx: &mut RankCtx, roots: &[u64]) -> Result<BatchOutput, EngineError> {
        let t_start = ctx.now();
        let acc_start = ctx.accumulator().clone();
        let comm_start = ctx.comm_stats().clone();
        let dir = &self.part.directory;
        let range = self.part.owned_range();
        let nb = self.nb;

        // ---- root activation: bit b lights up roots[b] ----
        let mut active_l = 0u64;
        for (b, &root) in roots.iter().enumerate() {
            let bit = 1u64 << b;
            match dir.hub_id(root) {
                Some(h) => {
                    let h = h as usize;
                    // A duplicated root re-lights an already-seen bit
                    // pattern only for distinct bits, so no guard needed.
                    self.hub_curr[h] |= bit;
                    self.hub_seen[h] |= bit;
                    self.hub_parent[h * nb + b] = root;
                    self.hub_depth[h * nb + b] = 0;
                }
                None => {
                    active_l += 1;
                    if range.contains(&root) {
                        let li = (root - range.start) as usize;
                        self.l_curr[li] |= bit;
                        self.l_seen[li] |= bit;
                        self.l_parent[li * nb + b] = root;
                        self.l_depth[li * nb + b] = 0;
                    }
                }
            }
        }
        // `active_l` counted L roots on *every* rank (the class of each
        // root is globally known), so it is already the global count.

        let num_e = dir.num_e() as usize;
        let mut iterations = Vec::new();
        let mut visited_l: u64 = active_l;
        let mut done = self.hub_curr.iter().all(|&w| w == 0) && active_l == 0;
        while !done {
            self.iter += 1;
            let mut st = BatchIterationStats {
                iter: self.iter,
                ..Default::default()
            };

            // ---- per-class (vertex, root) pair counts ----
            st.active_e = popcount_sum(&self.hub_curr[..num_e]);
            st.active_h = popcount_sum(&self.hub_curr[num_e..]);
            st.active_l = active_l;

            // ---- per-batch direction selection ----
            let dirs = self.select_directions(&st, visited_l);

            // ---- sub-iterations, §4.2 order ----
            self.scanned = 0;
            self.pool = PoolStats::default();
            self.eh2eh(ctx, dirs[0]);
            self.sync_hubs(ctx, "EH2EH", &[0]);
            self.e2l(ctx, dirs[1]);
            self.l2e(ctx, dirs[2]);
            // Measured mode piggybacks the seen pair mass next to the
            // seen pair count — same collective, one extra u64.
            let l2e_counters = if self.measured() {
                vec![popcount_sum(&self.l_seen), self.local_l_seen_mass()]
            } else {
                vec![popcount_sum(&self.l_seen)]
            };
            let refreshed = self.sync_hubs(ctx, "L2E", &l2e_counters);

            let (d_h2l, d_l2l) = if self.cfg.sub_iteration {
                let counts = refreshed.unwrap_or_else(|| {
                    ctx.allreduce_with(Scope::World, "heur.counts", l2e_counters, None, |a, b| {
                        *a += b
                    })
                });
                visited_l = counts[0];
                let total_l = self.total_l_connected * nb as u64;
                let unvisited_l = total_l.saturating_sub(visited_l);
                if self.measured() {
                    let um_l = (self.class_mass_total[2] * nb as u64).saturating_sub(counts[1]);
                    (
                        choose_measured(
                            &self.cfg,
                            self.prev_dirs[3],
                            self.frontier_mass[1],
                            um_l,
                            st.active_h,
                            dir.num_h() as u64 * nb as u64,
                        ),
                        choose_measured(
                            &self.cfg,
                            self.prev_dirs[5],
                            self.frontier_mass[2],
                            um_l,
                            st.active_l,
                            total_l,
                        ),
                    )
                } else {
                    (
                        choose_crossing(
                            &self.cfg,
                            st.active_h,
                            dir.num_h() as u64 * nb as u64,
                            unvisited_l,
                            total_l,
                        ),
                        choose_crossing(&self.cfg, st.active_l, total_l, unvisited_l, total_l),
                    )
                }
            } else {
                (dirs[3], dirs[5])
            };
            let mut final_dirs = dirs;
            final_dirs[3] = d_h2l;
            final_dirs[5] = d_l2l;

            self.h2l(ctx, d_h2l);
            self.l2h(ctx, dirs[4]);
            self.sync_hubs(ctx, "L2H", &[0]);
            self.l2l(ctx, d_l2l);

            st.directions = final_dirs;
            st.scanned_edges = self.scanned;
            st.pool = self.pool;

            // ---- closing allreduce: next/visited L pair counts;
            // doubles as the termination check. Measured mode rides the
            // next frontier's three class pair masses on the same
            // payload. ----
            let mut payload = vec![popcount_sum(&self.l_next), popcount_sum(&self.l_seen)];
            if self.measured() {
                payload.extend(self.local_frontier_mass(&self.hub_next, &self.l_next));
            }
            let counts =
                ctx.allreduce_with(Scope::World, "heur.counts", payload, None, |a, b| *a += b);
            st.newly_l = counts[0];
            active_l = counts[0];
            visited_l = counts[1];
            if let Some(m) = counts.get(2..5) {
                self.frontier_mass = [m[0], m[1], m[2]];
                for (vm, fm) in self.visited_mass.iter_mut().zip(self.frontier_mass) {
                    *vm += fm;
                }
            }
            self.prev_dirs = final_dirs;

            std::mem::swap(&mut self.hub_curr, &mut self.hub_next);
            self.hub_next.iter_mut().for_each(|w| *w = 0);
            std::mem::swap(&mut self.l_curr, &mut self.l_next);
            self.l_next.iter_mut().for_each(|w| *w = 0);

            iterations.push(st);
            done = self.hub_curr.iter().all(|&w| w == 0) && active_l == 0;
            if !done && self.iter > MAX_ITERATIONS {
                return Err(EngineError::NonTermination {
                    iterations: self.iter,
                });
            }
        }

        // ---- delayed reduction of delegated per-slot parents (§5) ----
        let reduced_hub_parents = ctx.allreduce_with(
            Scope::World,
            "reduce.parent",
            std::mem::take(&mut self.hub_parent),
            None,
            |a, b| *a = (*a).min(*b),
        );

        // ---- assemble owned per-slot parents/depths + TEPS inputs ----
        let local_n = (range.end - range.start) as usize;
        let mut parents = vec![INVALID_VERTEX; local_n * nb];
        let mut depths = vec![UNREACHED_DEPTH; local_n * nb];
        // Per-root tallies, packed as [visited_0.., degree_sum_0..].
        let mut tallies = vec![0u64; 2 * nb];
        for v in range.clone() {
            let li = (v - range.start) as usize;
            let deg = self.part.owned_degrees[li] as u64;
            for b in 0..nb {
                let (p, d) = match dir.hub_id(v) {
                    Some(h) => {
                        let slot = h as usize * nb + b;
                        (reduced_hub_parents[slot], self.hub_depth[slot])
                    }
                    None => {
                        let slot = li * nb + b;
                        (self.l_parent[slot], self.l_depth[slot])
                    }
                };
                if p != INVALID_VERTEX {
                    tallies[b] += 1;
                    tallies[nb + b] += deg;
                }
                parents[li * nb + b] = p;
                depths[li * nb + b] = d;
            }
        }
        let tallies =
            ctx.allreduce_with(Scope::World, "reduce.teps", tallies, None, |a, b| *a += b);

        let mut times = TimeAccumulator::new();
        times.merge(&ctx.accumulator().diff(&acc_start));
        let mut comm = CommStats::new();
        comm.merge(&ctx.comm_stats().diff(&comm_start));
        let stats = BatchRunStats {
            iterations,
            sim_seconds: (ctx.now() - t_start).as_secs(),
            visited: tallies[..nb].to_vec(),
            traversed_edges: tallies[nb..].iter().map(|&d| d / 2).collect(),
            times,
            comm,
        };
        Ok(BatchOutput {
            num_roots: nb,
            parents,
            depths,
            stats,
        })
    }

    /// Per-batch direction choices: pair counts against batch-scaled
    /// denominators — the single decision every root in the batch rides.
    /// Under the measured heuristic the pair *masses* (degree-weighted)
    /// replace the pair counts, against ×nb-scaled mass totals.
    fn select_directions(&self, st: &BatchIterationStats, visited_l: u64) -> [Direction; 6] {
        let dir = &self.part.directory;
        let cfg = &self.cfg;
        let nb = self.nb as u64;
        let total_l = self.total_l_connected * nb;
        let num_e = dir.num_e() as u64 * nb;
        let num_h = dir.num_h() as u64 * nb;
        let nhubs = num_e + num_h;
        if self.measured() {
            let fm = self.frontier_mass;
            let um = [
                (self.class_mass_total[0] * nb).saturating_sub(self.visited_mass[0]),
                (self.class_mass_total[1] * nb).saturating_sub(self.visited_mass[1]),
                (self.class_mass_total[2] * nb).saturating_sub(self.visited_mass[2]),
            ];
            if !cfg.sub_iteration {
                let m_f = fm[0] + fm[1] + fm[2];
                let m_u = um[0] + um[1] + um[2];
                let active = st.active_e + st.active_h + st.active_l;
                let d = choose_measured(cfg, self.prev_dirs[0], m_f, m_u, active, nhubs + total_l);
                return [d; 6];
            }
            let pairs = [
                (
                    fm[0] + fm[1],
                    um[0] + um[1],
                    st.active_e + st.active_h,
                    nhubs,
                ),
                (fm[0], um[2], st.active_e, num_e),
                (fm[2], um[0], st.active_l, total_l),
                (fm[1], um[2], st.active_h, num_h),
                (fm[2], um[1], st.active_l, total_l),
                (fm[2], um[2], st.active_l, total_l),
            ];
            let mut dirs = [Direction::Push; 6];
            for (i, &(m_f, m_u, active, total)) in pairs.iter().enumerate() {
                dirs[i] = choose_measured(cfg, self.prev_dirs[i], m_f, m_u, active, total);
            }
            return dirs;
        }
        if !cfg.sub_iteration {
            let active = st.active_e + st.active_h + st.active_l;
            let total = nhubs + total_l;
            let d = if total > 0 && active as f64 / total as f64 > cfg.vanilla_alpha {
                Direction::Pull
            } else {
                Direction::Push
            };
            return [d; 6];
        }
        let unvisited_l = total_l.saturating_sub(visited_l);
        let seen_h = popcount_sum(&self.hub_seen[dir.num_e() as usize..]);
        let unvisited_h = num_h - seen_h;
        [
            choose_local(cfg, st.active_e + st.active_h, nhubs),
            choose_local(cfg, st.active_e, num_e),
            choose_local(cfg, st.active_l, total_l),
            choose_crossing(cfg, st.active_h, num_h, unvisited_l, total_l),
            choose_crossing(cfg, st.active_l, total_l, unvisited_h, num_h),
            choose_crossing(cfg, st.active_l, total_l, unvisited_l, total_l),
        ]
    }

    /// Propagate this sub-iteration's hub word updates to all
    /// delegates: the same row-then-column OR-allreduce as the
    /// single-source engine, with each hub contributing one whole word.
    /// Newly global bits get their depth stamped here — every rank runs
    /// this at the same iteration, so depths stay replicated without a
    /// reduction of their own.
    fn sync_hubs(&mut self, ctx: &mut RankCtx, tag: &str, counters: &[u64]) -> Option<Vec<u64>> {
        if self.hub_update.is_empty() {
            return None;
        }
        let op = format!("hubsync.{tag}");
        let (words, counts) = hub_sync_collective(ctx, &op, &self.hub_update, counters);
        let nb = self.nb;
        let iter = self.iter;
        // The `new = global & !seen` discovery advance block-skips
        // all-stale 4-word regions; only hubs with fresh bits pay the
        // per-bit depth stamping.
        let hub_seen = &self.hub_seen;
        let hub_next = &mut self.hub_next;
        let hub_depth = &mut self.hub_depth;
        wide::for_each_and_not(&words, hub_seen, 0, words.len(), |h, newly| {
            hub_next[h] |= newly;
            let mut bits = newly;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                hub_depth[h * nb + b] = iter;
                bits &= bits - 1;
            }
        });
        wide::or_assign(&mut self.hub_seen, &words);
        self.hub_update.iter_mut().for_each(|w| *w = 0);
        Some(counts)
    }

    #[inline]
    fn note_edges(&mut self, edges: u64) {
        self.scanned += edges;
    }

    /// Attribute one worker-pool call to the current iteration.
    #[inline]
    fn note_pool(&mut self, stats: PoolStats) {
        self.pool.merge(&stats);
    }

    /// Record locally discovered hub bits (delegate-local parents).
    #[inline]
    fn discover_hub(&mut self, h: usize, mask: u64, parent: u64) {
        let new = mask & !self.hub_seen[h] & !self.hub_update[h];
        if new == 0 {
            return;
        }
        self.hub_update[h] |= new;
        let mut bits = new;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            self.hub_parent[h * self.nb + b] = parent;
            bits &= bits - 1;
        }
    }

    /// Record locally owned L discoveries.
    #[inline]
    fn discover_local(&mut self, li: usize, mask: u64, parent: u64) {
        let new = mask & !self.l_seen[li];
        if new == 0 {
            return;
        }
        self.l_seen[li] |= new;
        self.l_next[li] |= new;
        let mut bits = new;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            self.l_parent[li * self.nb + b] = parent;
            self.l_depth[li * self.nb + b] = self.iter;
            bits &= bits - 1;
        }
    }

    // ---------------------------------------------------------------
    // EH2EH — the 2D-partitioned core subgraph.
    // ---------------------------------------------------------------
    fn eh2eh(&mut self, ctx: &mut RankCtx, d: Direction) {
        let part = self.part;
        let dir = &part.directory;
        if dir.num_hubs() == 0 {
            return;
        }
        let my_row = ctx.row();
        let my_col = ctx.col();
        let nh = dir.num_hubs() as u64;
        match d {
            Direction::Push => {
                let frontier: Vec<u64> = (0..nh)
                    .filter(|&s| {
                        s % self.cols as u64 == my_col as u64 && self.hub_curr[s as usize] != 0
                    })
                    .collect();
                let degrees: Vec<u64> =
                    frontier.iter().map(|&s| part.eh_by_src.degree(s)).collect();
                let cpes = ctx.machine().cpes_per_node();
                let max_chunk = balance::max_chunk_edges(&degrees, cpes);
                // Pool-chunked over frontier sources; candidate
                // (dst, mask, parent) triples applied in chunk order
                // replay the serial word-merge order exactly.
                let hub_curr = &self.hub_curr;
                let (parts, pstats) =
                    pool::run_ranges(frontier.len() as u64, SCAN_GRAIN_ITEMS, |_, r| {
                        let mut edges = 0u64;
                        let mut cand: Vec<(usize, u64, u64)> = Vec::new();
                        for &s in &frontier[r.start as usize..r.end as usize] {
                            let mask = hub_curr[s as usize];
                            let parent = dir.vertex_of(s as u32);
                            for &dst in part.eh_by_src.neighbors(s) {
                                edges += 1;
                                cand.push((dst as usize, mask, parent));
                            }
                        }
                        (edges, cand)
                    });
                let mut edges = 0u64;
                for (e, cand) in parts {
                    edges += e;
                    for (dst, mask, parent) in cand {
                        self.discover_hub(dst, mask, parent);
                    }
                }
                self.note_pool(pstats);
                self.note_edges(edges);
                costing::charge_balanced_push(
                    ctx,
                    "sub.EH2EH.push",
                    max_chunk,
                    frontier.len() as u64,
                );
            }
            Direction::Pull => {
                // The activeness structure is one word per hub — 64×
                // the single-source bit vector — so segmenting only
                // models on-chip when the word vector still fits.
                let cgs = ctx.machine().cgs_per_node;
                let cpes_per_cg = ctx.machine().cpes_per_cg;
                let word_bits = nh * 64;
                let segment_fits = SegmentedBitvec::fits_budget(
                    word_bits.div_ceil(cgs as u64),
                    cpes_per_cg,
                    ctx.machine().ldm_bytes / 2,
                );
                let segmenting = self.cfg.segmenting && segment_fits;
                let slots = nh.div_ceil(self.cols as u64).max(1);
                let cols = self.cols as u64;
                let seg_of =
                    move |s: u64| -> usize { ((s / cols) * cgs as u64 / slots) as usize % cgs };
                // Destination-partitioned chunks: each dst word is
                // examined by exactly one chunk and its want/early-exit
                // logic reads only pre-scan state, so replaying the
                // per-chunk (dst, got, parent) events in chunk order is
                // the serial scan.
                let rows = self.rows as u64;
                let my_row = my_row as u64;
                let n_dst = if my_row < nh {
                    (nh - my_row).div_ceil(rows)
                } else {
                    0
                };
                let full = self.full;
                let hub_curr = &self.hub_curr;
                let hub_seen = &self.hub_seen;
                let hub_update = &self.hub_update;
                let (parts, pstats) = pool::run_ranges(n_dst, SCAN_GRAIN_ITEMS, |_, r| {
                    let mut edges = 0u64;
                    let mut probes = vec![0u64; cgs];
                    let mut events: Vec<(usize, u64, u64)> = Vec::new();
                    for k in r {
                        let dst = my_row + k * rows;
                        let di = dst as usize;
                        let mut want = full & !hub_seen[di] & !hub_update[di];
                        if want == 0 {
                            continue;
                        }
                        for &s in part.eh_by_dst.neighbors(dst) {
                            edges += 1;
                            probes[seg_of(s)] += 1;
                            let got = hub_curr[s as usize] & want;
                            if got != 0 {
                                events.push((di, got, dir.vertex_of(s as u32)));
                                want &= !got;
                                if want == 0 {
                                    break; // early exit once every bit found a parent
                                }
                            }
                        }
                    }
                    (edges, probes, events)
                });
                let mut edges = 0u64;
                let mut probes = vec![0u64; cgs];
                for (e, pr, events) in parts {
                    edges += e;
                    for (slot, add) in probes.iter_mut().zip(&pr) {
                        *slot += *add;
                    }
                    for (di, got, parent) in events {
                        self.discover_hub(di, got, parent);
                    }
                }
                self.note_pool(pstats);
                self.note_edges(edges);
                costing::charge_eh_pull(ctx, "sub.EH2EH.pull", edges, &probes, segmenting);
            }
        }
    }

    // ---------------------------------------------------------------
    // E2L — E adjacency attached to L owners; fully node-local.
    // ---------------------------------------------------------------
    fn e2l(&mut self, ctx: &mut RankCtx, d: Direction) {
        let part = self.part;
        let dir = &part.directory;
        let num_e = dir.num_e() as u64;
        if num_e == 0 || self.total_el == 0 {
            return;
        }
        let range = part.owned_range();
        let mut edges = 0u64;
        match d {
            Direction::Push => {
                // Read-only scan of hub words; (li, mask, parent)
                // candidates applied in chunk order replay serial
                // discovery exactly (discover_local re-checks seen).
                let hub_curr = &self.hub_curr;
                let (parts, pstats) = pool::run_ranges(num_e, SCAN_GRAIN_ITEMS, |_, r| {
                    let mut edges = 0u64;
                    let mut cand: Vec<(usize, u64, u64)> = Vec::new();
                    for e in r {
                        let mask = hub_curr[e as usize];
                        if mask == 0 || part.el_by_hub.degree(e) == 0 {
                            continue;
                        }
                        let parent = dir.vertex_of(e as u32);
                        for &l in part.el_by_hub.neighbors(e) {
                            edges += 1;
                            cand.push(((l - range.start) as usize, mask, parent));
                        }
                    }
                    (edges, cand)
                });
                for (e, cand) in parts {
                    edges += e;
                    for (li, mask, parent) in cand {
                        self.discover_local(li, mask, parent);
                    }
                }
                self.note_pool(pstats);
                costing::charge_scan(ctx, "sub.E2L.push", edges);
            }
            Direction::Pull => {
                // Destination-partitioned: each li is examined by one
                // chunk, and its want word reads only pre-scan l_seen.
                let local_n = range.end - range.start;
                let full = self.full;
                let l_seen = &self.l_seen;
                let hub_curr = &self.hub_curr;
                let (parts, pstats) = pool::run_ranges(local_n, SCAN_GRAIN_ITEMS, |_, r| {
                    let mut edges = 0u64;
                    let mut events: Vec<(usize, u64, u64)> = Vec::new();
                    for off in r {
                        let l = range.start + off;
                        let li = off as usize;
                        let mut want = full & !l_seen[li];
                        if want == 0 || part.el_by_local.degree(l) == 0 {
                            continue;
                        }
                        for &e in part.el_by_local.neighbors(l) {
                            edges += 1;
                            let got = hub_curr[e as usize] & want;
                            if got != 0 {
                                events.push((li, got, dir.vertex_of(e as u32)));
                                want &= !got;
                                if want == 0 {
                                    break;
                                }
                            }
                        }
                    }
                    (edges, events)
                });
                for (e, events) in parts {
                    edges += e;
                    for (li, got, parent) in events {
                        self.discover_local(li, got, parent);
                    }
                }
                self.note_pool(pstats);
                costing::charge_scan(ctx, "sub.E2L.pull", edges);
            }
        }
        self.note_edges(edges);
    }

    // ---------------------------------------------------------------
    // L2E — same storage, reverse roles; hub updates via delegates.
    // ---------------------------------------------------------------
    fn l2e(&mut self, ctx: &mut RankCtx, d: Direction) {
        let part = self.part;
        let dir = &part.directory;
        let num_e = dir.num_e() as u64;
        if num_e == 0 || self.total_el == 0 {
            return;
        }
        let range = part.owned_range();
        let mut edges = 0u64;
        match d {
            Direction::Push => {
                // Read-only scan of L words; (hub, mask, parent)
                // candidates applied in chunk order.
                let l_curr = &self.l_curr;
                let (parts, pstats) =
                    pool::run_ranges(l_curr.len() as u64, SCAN_GRAIN_ITEMS, |_, r| {
                        let mut edges = 0u64;
                        let mut cand: Vec<(usize, u64, u64)> = Vec::new();
                        for li in r {
                            let mask = l_curr[li as usize];
                            let l = range.start + li;
                            if mask == 0 || part.el_by_local.degree(l) == 0 {
                                continue;
                            }
                            for &e in part.el_by_local.neighbors(l) {
                                edges += 1;
                                cand.push((e as usize, mask, l));
                            }
                        }
                        (edges, cand)
                    });
                for (e, cand) in parts {
                    edges += e;
                    for (ei, mask, l) in cand {
                        self.discover_hub(ei, mask, l);
                    }
                }
                self.note_pool(pstats);
                costing::charge_scan(ctx, "sub.L2E.push", edges);
            }
            Direction::Pull => {
                // Destination-partitioned over E hubs; want reads only
                // pre-scan seen/update words.
                let full = self.full;
                let l_curr = &self.l_curr;
                let hub_seen = &self.hub_seen;
                let hub_update = &self.hub_update;
                let (parts, pstats) = pool::run_ranges(num_e, SCAN_GRAIN_ITEMS, |_, r| {
                    let mut edges = 0u64;
                    let mut events: Vec<(usize, u64, u64)> = Vec::new();
                    for e in r {
                        let ei = e as usize;
                        let mut want = full & !hub_seen[ei] & !hub_update[ei];
                        if want == 0 || part.el_by_hub.degree(e) == 0 {
                            continue;
                        }
                        for &l in part.el_by_hub.neighbors(e) {
                            edges += 1;
                            let got = l_curr[(l - range.start) as usize] & want;
                            if got != 0 {
                                events.push((ei, got, l));
                                want &= !got;
                                if want == 0 {
                                    break;
                                }
                            }
                        }
                    }
                    (edges, events)
                });
                for (e, events) in parts {
                    edges += e;
                    for (ei, got, l) in events {
                        self.discover_hub(ei, got, l);
                    }
                }
                self.note_pool(pstats);
                costing::charge_scan(ctx, "sub.L2E.pull", edges);
            }
        }
        self.note_edges(edges);
    }

    // ---------------------------------------------------------------
    // H2L — stored at row/col intersections; push messages stay intra-row.
    // ---------------------------------------------------------------
    fn h2l(&mut self, ctx: &mut RankCtx, d: Direction) {
        if self.total_h2l == 0 {
            return;
        }
        let part = self.part;
        let dir = &part.directory;
        let topo = ctx.topology();
        let num_e = dir.num_e() as u64;
        let nh = dir.num_hubs() as u64;
        let mut edges = 0u64;
        let mut msgs: Vec<(u64, u64, u64)> = Vec::new();
        match d {
            Direction::Push => {
                // Read-only scan of hub words; per-chunk message lists
                // concatenated in chunk order keep the serial
                // h-ascending message order.
                let hub_curr = &self.hub_curr;
                let (parts, pstats) = pool::run_ranges(nh - num_e, SCAN_GRAIN_ITEMS, |_, r| {
                    let mut edges = 0u64;
                    let mut out: Vec<(u64, u64, u64)> = Vec::new();
                    for off in r {
                        let h = num_e + off;
                        let mask = hub_curr[h as usize];
                        if mask == 0 || part.h2l_by_hub.degree(h) == 0 {
                            continue;
                        }
                        let parent = dir.vertex_of(h as u32);
                        for &l in part.h2l_by_hub.neighbors(h) {
                            edges += 1;
                            out.push((l, parent, mask));
                        }
                    }
                    (edges, out)
                });
                for (e, out) in parts {
                    edges += e;
                    msgs.extend(out);
                }
                self.note_pool(pstats);
                costing::charge_scan(ctx, "sub.H2L.push", edges);
                self.exchange_and_apply_row(ctx, msgs, "H2L", "sub.H2L.push");
            }
            Direction::Pull => {
                let row_seen = self.gather_row_seen(ctx);
                let row_range = part.row_range(&topo);
                // Destination-partitioned over the row's L interval;
                // want reads the pre-gathered row_seen snapshot only.
                let row_n = row_range.end - row_range.start;
                let full = self.full;
                let hub_curr = &self.hub_curr;
                let row_seen = &row_seen;
                let (parts, pstats) = pool::run_ranges(row_n, SCAN_GRAIN_ITEMS, |_, r| {
                    let mut edges = 0u64;
                    let mut out: Vec<(u64, u64, u64)> = Vec::new();
                    for off in r {
                        let l = row_range.start + off;
                        if part.h2l_by_local.degree(l) == 0 {
                            continue;
                        }
                        let mut want = full & !row_seen[off as usize];
                        if want == 0 {
                            continue;
                        }
                        for &h in part.h2l_by_local.neighbors(l) {
                            edges += 1;
                            let got = hub_curr[h as usize] & want;
                            if got != 0 {
                                out.push((l, dir.vertex_of(h as u32), got));
                                want &= !got;
                                if want == 0 {
                                    break;
                                }
                            }
                        }
                    }
                    (edges, out)
                });
                for (e, out) in parts {
                    edges += e;
                    msgs.extend(out);
                }
                self.note_pool(pstats);
                costing::charge_scan(ctx, "sub.H2L.pull", edges);
                self.exchange_and_apply_row(ctx, msgs, "H2L", "sub.H2L.pull");
            }
        }
        self.note_edges(edges);
    }

    /// Bucket `(dest L, parent, mask)` messages by destination column
    /// with OCS-RMA, exchange them intra-row, and apply at the owners.
    fn exchange_and_apply_row(
        &mut self,
        ctx: &mut RankCtx,
        msgs: Vec<(u64, u64, u64)>,
        comm_tag: &str,
        cost_category: &str,
    ) {
        let dist = self.part.dist;
        let topo = ctx.topology();
        let cols = self.cols;
        let machine = *ctx.machine();
        let (buckets, report) = ocs_sort_rma(
            &machine,
            &OcsConfig::default(),
            &msgs,
            cols,
            machine.cgs_per_node,
            |&(l, _, _)| topo.col_of(dist.owner(l)),
        );
        ctx.charge(cost_category, report.time);
        let received = ctx.alltoallv(Scope::Row, &format!("comm.alltoallv.{comm_tag}"), buckets);
        let msgs: Vec<(u64, u64, u64)> = received.into_iter().flatten().collect();
        self.apply_l_messages(ctx, msgs, cost_category);
    }

    /// Two-stage destination update (§4.4) of arriving
    /// `(dest, parent, mask)` triples.
    fn apply_l_messages(&mut self, ctx: &mut RankCtx, msgs: Vec<(u64, u64, u64)>, category: &str) {
        if msgs.is_empty() {
            return;
        }
        let range = self.part.owned_range();
        let span = (range.end - range.start).max(1);
        let machine = *ctx.machine();
        let ranges = 32u64;
        let (buckets, report) = ocs_sort_rma(
            &machine,
            &OcsConfig::default(),
            &msgs,
            ranges as usize,
            machine.cgs_per_node,
            |&(l, _, _)| range_bucket(l - range.start, span, ranges),
        );
        ctx.charge(category, report.time);
        for bucket in buckets {
            for (l, parent, mask) in bucket {
                self.discover_local((l - range.start) as usize, mask, parent);
            }
        }
    }

    /// Allgather the row's owned seen-words into one word vector over
    /// the row's vertex interval.
    fn gather_row_seen(&self, ctx: &mut RankCtx) -> Vec<u64> {
        let topo = ctx.topology();
        let dist = self.part.dist;
        let my_row = topo.row_of(ctx.rank());
        let row_range = sunbfs_part::row_vertex_range(&dist, &topo, my_row);
        let gathered = ctx.allgatherv(Scope::Row, "comm.allgather.H2L", self.l_seen.clone());
        let mut row_seen = vec![0u64; (row_range.end - row_range.start) as usize];
        for (pos, words) in gathered.into_iter().enumerate() {
            let member_rank = topo.rank_at(my_row, pos);
            let member_range = dist.range_of(member_rank);
            let base = (member_range.start - row_range.start) as usize;
            row_seen[base..base + words.len()].copy_from_slice(&words);
        }
        row_seen
    }

    // ---------------------------------------------------------------
    // L2H — stored at L's owner; hub delegates absorb the updates.
    // ---------------------------------------------------------------
    fn l2h(&mut self, ctx: &mut RankCtx, d: Direction) {
        let part = self.part;
        let dir = &part.directory;
        let num_e = dir.num_e() as u64;
        let nh = dir.num_hubs() as u64;
        if num_e == nh || self.total_lh == 0 {
            return;
        }
        let range = part.owned_range();
        let mut edges = 0u64;
        match d {
            Direction::Push => {
                // Read-only scan of L words; (hub, mask, parent)
                // candidates applied in chunk order.
                let l_curr = &self.l_curr;
                let (parts, pstats) =
                    pool::run_ranges(l_curr.len() as u64, SCAN_GRAIN_ITEMS, |_, r| {
                        let mut edges = 0u64;
                        let mut cand: Vec<(usize, u64, u64)> = Vec::new();
                        for li in r {
                            let mask = l_curr[li as usize];
                            let l = range.start + li;
                            if mask == 0 || part.lh_by_local.degree(l) == 0 {
                                continue;
                            }
                            for &h in part.lh_by_local.neighbors(l) {
                                edges += 1;
                                cand.push((h as usize, mask, l));
                            }
                        }
                        (edges, cand)
                    });
                for (e, cand) in parts {
                    edges += e;
                    for (hi, mask, l) in cand {
                        self.discover_hub(hi, mask, l);
                    }
                }
                self.note_pool(pstats);
                costing::charge_scan(ctx, "sub.L2H.push", edges);
            }
            Direction::Pull => {
                // Destination-partitioned over H hubs; want reads only
                // pre-scan seen/update words.
                let full = self.full;
                let l_curr = &self.l_curr;
                let hub_seen = &self.hub_seen;
                let hub_update = &self.hub_update;
                let (parts, pstats) = pool::run_ranges(nh - num_e, SCAN_GRAIN_ITEMS, |_, r| {
                    let mut edges = 0u64;
                    let mut events: Vec<(usize, u64, u64)> = Vec::new();
                    for off in r {
                        let h = num_e + off;
                        let hi = h as usize;
                        let mut want = full & !hub_seen[hi] & !hub_update[hi];
                        if want == 0 || part.lh_by_hub.degree(h) == 0 {
                            continue;
                        }
                        for &l in part.lh_by_hub.neighbors(h) {
                            edges += 1;
                            let got = l_curr[(l - range.start) as usize] & want;
                            if got != 0 {
                                events.push((hi, got, l));
                                want &= !got;
                                if want == 0 {
                                    break;
                                }
                            }
                        }
                    }
                    (edges, events)
                });
                for (e, events) in parts {
                    edges += e;
                    for (hi, got, l) in events {
                        self.discover_hub(hi, got, l);
                    }
                }
                self.note_pool(pstats);
                costing::charge_scan(ctx, "sub.L2H.pull", edges);
            }
        }
        self.note_edges(edges);
    }

    // ---------------------------------------------------------------
    // L2L — vanilla 1D with hierarchical forwarding (§4.4).
    // ---------------------------------------------------------------
    fn l2l(&mut self, ctx: &mut RankCtx, d: Direction) {
        if self.total_l2l == 0 {
            return;
        }
        let part = self.part;
        let dist = part.dist;
        let topo = ctx.topology();
        let range = part.owned_range();
        let machine = *ctx.machine();
        let mut edges = 0u64;
        match d {
            Direction::Push => {
                // Read-only scan of L words; per-chunk message lists
                // concatenated in chunk order keep the serial
                // l-ascending message order for the OCS sort.
                let l_curr = &self.l_curr;
                let (parts, pstats) =
                    pool::run_ranges(l_curr.len() as u64, SCAN_GRAIN_ITEMS, |_, r| {
                        let mut edges = 0u64;
                        let mut out: Vec<(u64, u64, u64)> = Vec::new();
                        for li in r {
                            let mask = l_curr[li as usize];
                            let l = range.start + li;
                            if mask == 0 || part.l2l.degree(l) == 0 {
                                continue;
                            }
                            for &v in part.l2l.neighbors(l) {
                                edges += 1;
                                out.push((v, l, mask));
                            }
                        }
                        (edges, out)
                    });
                let mut msgs: Vec<(u64, u64, u64)> = Vec::new();
                for (e, out) in parts {
                    edges += e;
                    msgs.extend(out);
                }
                self.note_pool(pstats);
                costing::charge_scan(ctx, "sub.L2L.push", edges);
                let (col_buckets, rep1) = ocs_sort_rma(
                    &machine,
                    &OcsConfig::default(),
                    &msgs,
                    self.rows,
                    machine.cgs_per_node,
                    |&(v, _, _)| topo.row_of(dist.owner(v)),
                );
                ctx.charge("sub.L2L.push", rep1.time);
                let forwarded: Vec<(u64, u64, u64)> = ctx
                    .alltoallv(Scope::Col, "comm.alltoallv.L2L", col_buckets)
                    .into_iter()
                    .flatten()
                    .collect();
                let (row_buckets, rep2) = ocs_sort_rma(
                    &machine,
                    &OcsConfig::default(),
                    &forwarded,
                    self.cols,
                    machine.cgs_per_node,
                    |&(v, _, _)| topo.col_of(dist.owner(v)),
                );
                ctx.charge("sub.L2L.push", rep2.time);
                let received = ctx.alltoallv(Scope::Row, "comm.alltoallv.L2L", row_buckets);
                let msgs: Vec<(u64, u64, u64)> = received.into_iter().flatten().collect();
                self.apply_l_messages(ctx, msgs, "sub.L2L.push");
            }
            Direction::Pull => {
                // Query/confirm two-phase: unvisited slots ask the
                // owners of their neighbors which of the wanted bits are
                // in the frontier.
                let p = ctx.nranks();
                // Query generation is a read-only scan of l_seen;
                // per-chunk per-owner query lists merged in chunk order
                // keep each owner's serial query order.
                let local_n = range.end - range.start;
                let full = self.full;
                let l_seen = &self.l_seen;
                let (parts, pstats) = pool::run_ranges(local_n, SCAN_GRAIN_ITEMS, |_, r| {
                    let mut edges = 0u64;
                    let mut out: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); p];
                    for off in r {
                        let l = range.start + off;
                        let want = full & !l_seen[off as usize];
                        if want == 0 || part.l2l.degree(l) == 0 {
                            continue;
                        }
                        for &u in part.l2l.neighbors(l) {
                            edges += 1;
                            out[dist.owner(u)].push((u, l, want));
                        }
                    }
                    (edges, out)
                });
                let mut queries: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); p];
                for (e, out) in parts {
                    edges += e;
                    for (dst, batch) in queries.iter_mut().zip(out) {
                        dst.extend(batch);
                    }
                }
                self.note_pool(pstats);
                costing::charge_scan(ctx, "sub.L2L.pull", edges);
                let incoming = ctx.alltoallv(Scope::World, "comm.alltoallv.L2L", queries);
                let mut replies: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); p];
                let mut checked = 0u64;
                for batch in incoming {
                    for (u, l, want) in batch {
                        checked += 1;
                        let got = self.l_curr[(u - range.start) as usize] & want;
                        if got != 0 {
                            replies[dist.owner(l)].push((l, u, got));
                        }
                    }
                }
                costing::charge_apply(ctx, "sub.L2L.pull", checked);
                let confirmed = ctx.alltoallv(Scope::World, "comm.alltoallv.L2L", replies);
                let msgs: Vec<(u64, u64, u64)> = confirmed.into_iter().flatten().collect();
                self.apply_l_messages(ctx, msgs, "sub.L2L.pull");
            }
        }
        self.note_edges(edges);
    }
}

/// Sum of set bits across a word slice (4-word-unrolled wide kernel).
#[inline]
fn popcount_sum(words: &[u64]) -> u64 {
    wide::count_ones(words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunbfs_common::MachineConfig;
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
