//! The distributed direction-optimizing BFS engine (§4.2–§4.4, §5).
//!
//! One BFS iteration executes six *sub-iterations*, one per subgraph
//! component, ordered by degree level (EH2EH, E2L, L2E, H2L, L2H, L2L),
//! each with its own push/pull decision. State lives where the
//! partition dictates:
//!
//! * **hub state** (E∪H frontier/seen sets) is delegated: every rank
//!   keeps a replica, and newly discovered hub bits propagate at
//!   sub-iteration boundaries through a row-then-column OR-allreduce —
//!   the row hop rides the supernode-internal network, the column hop
//!   pays the oversubscribed tree, exactly the delegate traffic of
//!   §4.1. Until that boundary, a remote discovery is invisible, which
//!   matches the visibility semantics of real delegates.
//! * **hub parents** are *delegate-local* and reduced once after the
//!   traversal — the delayed reduction of §5.
//! * **L state** lives only at the owner; pushes reach it as `(dest,
//!   parent, mask)` messages bucketed on-chip (OCS-RMA) and exchanged
//!   with `alltoallv` (intra-row for H2L, hierarchically forwarded via
//!   the column-then-row intersection node for L2L, §4.4).
//!
//! Bottom-up sub-iterations honor "the latest visited status" (§4.2):
//! earlier sub-iterations of the same iteration mark vertices visited
//! before later ones run, so nothing already activated gets pulled.
//!
//! The schedule is written once, generic over the frontier element
//! (the crate-private `lane` module): [`EngineScratch::run_bfs`]
//! instantiates it with one bit per vertex, [`EngineScratch::run_batch`]
//! with one 64-root word per vertex — one entry point per lane.
//! Heuristic inputs count `(vertex, root)` *pairs* against denominators
//! scaled by the lane width — for a batch, the decision uses the mean
//! frontier density across its roots.
//!
//! A scan's message list is the one buffer a traversal grows as it
//! goes. Its capacity outlives the traversal in the rank's
//! [`EngineScratch`]: every scan takes its output buffer from there and
//! every consumer gives the buffer back, emptied, once the messages are
//! applied or bucketed. The scratch holds spare capacity only, at most
//! two message buffers per lane — never a bitmap, a result slot or
//! anything a run reads — so a scratch left behind by a run that
//! panicked is as good as a fresh one. Whoever runs a rank's traversals
//! owns its scratch: a `GraphSession` keeps one per rank for the
//! session's life, and a one-off traversal runs over
//! `EngineScratch::default()`.

use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

use sunbfs_common::bitmap::wide;
use sunbfs_common::{pool, Bitmap, PoolStats, INVALID_VERTEX};
use sunbfs_net::{RankCtx, Scope};
use sunbfs_part::{Csr, RankPartition};
use sunbfs_sunway::{ocs_sort_rma, KernelReport, OcsConfig, SegmentedBitvec};

use crate::balance;
use crate::batch::{BatchOutput, BatchRunStats, UNREACHED_DEPTH};
use crate::checkpoint::{CheckpointState, CheckpointStore, ResumeStats};
use crate::config::{
    choose_crossing, choose_local, choose_measured, Direction, DirectionHeuristic, EngineConfig,
    VANILLA_ALPHA,
};
use crate::costing;
use crate::lane::{Bit, Lane, SCAN_GRAIN_ITEMS};
use crate::stats::{BfsRunStats, IterationStats, SubIterationStats};

/// Iteration cap that converts a non-shrinking frontier (an engine bug)
/// into a clean error instead of an unbounded loop.
const MAX_ITERATIONS: u32 = 1_000;

/// Time-accounting category of each sub-iteration, indexed
/// `[component][direction]` ([`crate::config::Component::ALL`] order).
const CATEGORY: [[&str; 2]; 6] = [
    ["sub.EH2EH.push", "sub.EH2EH.pull"],
    ["sub.E2L.push", "sub.E2L.pull"],
    ["sub.L2E.push", "sub.L2E.pull"],
    ["sub.H2L.push", "sub.H2L.pull"],
    ["sub.L2H.push", "sub.L2H.pull"],
    ["sub.L2L.push", "sub.L2L.pull"],
];

/// Op tags of the three hub syncs of an iteration.
const HUBSYNC_EH2EH: &str = "hubsync.EH2EH";
const HUBSYNC_L2E: &str = "hubsync.L2E";
const HUBSYNC_L2H: &str = "hubsync.L2H";

/// Op tags of the L-message exchanges.
const ALLTOALLV_H2L: &str = "comm.alltoallv.H2L";
const ALLTOALLV_L2L: &str = "comm.alltoallv.L2L";

/// Errors one traversal can report. SPMD-consistent: the conditions are
/// derived from replicated/global state, so every rank observes the
/// same error on the same collective schedule (no deadlock).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The frontier failed to drain within the iteration cap — a BFS
    /// must terminate in at most `diameter` steps.
    NonTermination {
        /// Iterations executed before giving up.
        iterations: u32,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NonTermination { iterations } => {
                write!(
                    f,
                    "BFS failed to terminate within {iterations} iterations — engine bug"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Result of one traversal on one rank.
#[derive(Clone, Debug)]
pub struct BfsOutput {
    /// Parents of this rank's owned vertices (global vertex ids;
    /// [`INVALID_VERTEX`] where unreached). The root's parent is itself.
    pub parents: Vec<u64>,
    /// Per-run statistics (timings, iteration series, TEPS inputs).
    pub stats: BfsRunStats,
}

/// Spare message buffers a scratch keeps per lane. Two cover a
/// single-worker traversal (an L2L push gives back its own list and
/// then the forwarded one); a cap of 8 put `peak_rss_mb` up by about
/// 12 % on the served workloads (docs/PERF.md, "Rule 10, measured").
const SPARE_BUFFERS: usize = 2;

/// What one rank keeps from one traversal to the next: spare message
/// buffers, so a root does not grow, copy and free its scans' message
/// lists again (see the module docs). It holds capacity only — emptied
/// buffers, at most [`SPARE_BUFFERS`] per lane — so any scratch, fresh,
/// reused or left by a run that panicked, yields the same traversal.
#[derive(Debug, Default)]
pub struct EngineScratch {
    pub(crate) bit: Vec<Vec<(u64, u64)>>,
    pub(crate) word: Vec<Vec<(u64, u64, u64)>>,
}

impl EngineScratch {
    /// Bytes of message capacity kept for the next traversal.
    pub fn retained_bytes(&self) -> usize {
        fn bytes<M>(spares: &[Vec<M>]) -> usize {
            spares.iter().map(|b| b.capacity() * size_of::<M>()).sum()
        }
        bytes(&self.bit) + bytes(&self.word)
    }

    /// Run one BFS from `root` over this rank's partition, with its
    /// message buffers drawn from, and given back to, this scratch.
    ///
    /// With `checkpoints`, the engine snapshots its loop state into the
    /// store after every completed iteration, and — if the store already
    /// holds a verified checkpoint common to all ranks (a previous
    /// attempt of the *same* root died mid-traversal) — resumes from it
    /// instead of restarting at the root, charging the resumed segment
    /// on top of the checkpointed simulated time so the run's statistics
    /// read like one continuous traversal.
    ///
    /// SPMD: all ranks call with identical `root`, `cfg`, and (when
    /// given) a store shared across the cluster's ranks.
    pub fn run_bfs(
        &mut self,
        ctx: &mut RankCtx,
        part: &RankPartition,
        root: u64,
        cfg: &EngineConfig,
        checkpoints: Option<&CheckpointStore>,
    ) -> Result<BfsOutput, EngineError> {
        // A single-source traversal is the width-1 view of a batch.
        let run = Engine::new(ctx, part, *cfg, Bit, self).run(ctx, &[root], checkpoints)?;
        Ok(BfsOutput {
            parents: run.parents,
            stats: BfsRunStats {
                iterations: run.stats.iterations,
                traversed_edges: run.stats.traversed_edges[0],
                visited_vertices: run.stats.visited[0],
                sim_seconds: run.stats.sim_seconds,
                times: run.stats.times,
                comm: run.stats.comm,
            },
        })
    }
}

/// One traversal's hold on a lane's spare buffers, shared by the pool
/// chunks of a scan. Every update leaves the list whole, so a lock that
/// a panicking chunk poisoned is taken over as it stands.
struct Spares<'s, M>(Mutex<&'s mut Vec<Vec<M>>>);

impl<'s, M> Spares<'s, M> {
    fn lock(&self) -> MutexGuard<'_, &'s mut Vec<Vec<M>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The roomiest spare buffer, or a new one.
    fn take(&self) -> Vec<M> {
        let mut spares = self.lock();
        let roomiest = (0..spares.len()).max_by_key(|&i| spares[i].capacity());
        roomiest.map_or_else(Vec::new, |i| spares.swap_remove(i))
    }

    /// Keep `buf`'s capacity, emptied, for a later scan; with
    /// [`SPARE_BUFFERS`] already kept, keep the roomiest of them.
    fn give(&self, mut buf: Vec<M>) {
        buf.clear();
        let mut spares = self.lock();
        if spares.len() < SPARE_BUFFERS {
            spares.push(buf);
        } else if let Some(least) = spares.iter_mut().min_by_key(|b| b.capacity()) {
            if least.capacity() < buf.capacity() {
                *least = buf;
            }
        }
    }
}

/// Row-then-column allreduce of hub set words with summed counters
/// piggybacked as trailing elements — one collective pair instead of a
/// set sync plus scalar collectives. Returns the globally OR-ed words
/// and the global sums of `counters` (element-wise). The fixed
/// heuristic rides exactly one counter, the measured heuristic two (the
/// visited count plus its degree mass), so the payload size is part of
/// each mode's byte-identity contract.
fn hub_sync_collective(
    ctx: &mut RankCtx,
    op: &'static str,
    words: &[u64],
    counters: &[u64],
) -> (Vec<u64>, Vec<u64>) {
    let nwords = words.len();
    let mut payload = Vec::with_capacity(nwords + counters.len());
    payload.extend_from_slice(words);
    payload.extend_from_slice(counters);
    let combine = move |i: usize, a: &mut u64, b: &u64| if i < nwords { *a |= b } else { *a += b };
    let payload = ctx.allreduce_with_indexed(Scope::Row, op, payload, None, combine);
    let mut payload = ctx.allreduce_with_indexed(Scope::Col, op, payload, None, combine);
    let counts = payload.split_off(nwords);
    (payload, counts)
}

/// Coarse fixed-range bucket for the two-stage destination update:
/// `offset ∈ [0, span)` maps into one of `ranges` buckets. When the
/// owned span is smaller than `ranges`, several bucket indices go
/// unused but every offset still lands in-bounds (the `min` clamp).
#[inline]
fn range_bucket(offset: u64, span: u64, ranges: u64) -> usize {
    debug_assert!(offset < span);
    ((offset * ranges / span) as usize).min(ranges as usize - 1)
}

/// The hubs this rank owns, as `(hub id, local offset)` in hub-id
/// order — read off the partition's index: which hubs a rank owns is a
/// property of the partition, and nothing a root pays for may depend
/// only on that.
fn owned_hubs(part: &RankPartition) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
    let hubs = part.owned_hubs.hubs.iter();
    hubs.map(|&(h, li)| (h as usize, li as usize))
}

/// Connected (degree > 0) L vertices of the owned slice — the heuristic
/// denominator for the L class — and its degree mass per class
/// (E, H, L).
fn owned_class_totals(part: &RankPartition) -> (u64, [u64; 3]) {
    (part.owned_hubs.l_connected, part.owned_hubs.class_mass)
}

/// Assemble a rank's output: the owned `(vertex, root)` parent and
/// depth slots plus the TEPS tallies `[visited_0.., degree_sum_0..]`.
///
/// The owner-local L slots *are* the output — roots and messages are
/// routed by class, so an owned hub's L slots are never written — and
/// only the owned hubs' slots are patched in, from their reduced
/// parents (`owned_hub_parents`, `width` slots per hub in
/// [`owned_hubs`] order) and the replicated hub depths (`depths` stays
/// empty for a lane that keeps none).
fn assemble_owned(
    part: &RankPartition,
    width: usize,
    mut parents: Vec<u64>,
    mut depths: Vec<u32>,
    owned_hub_parents: &[u64],
    hub_depths: &[u32],
) -> (Vec<u64>, Vec<u32>, Vec<u64>) {
    debug_assert_eq!(owned_hub_parents.len(), part.owned_hubs.hubs.len() * width);
    debug_assert!(
        owned_hubs(part).all(|(_, li)| {
            let slots = li * width..(li + 1) * width;
            parents[slots.clone()].iter().all(|&p| p == INVALID_VERTEX)
                && depths
                    .get(slots)
                    .is_none_or(|d| d.iter().all(|&d| d == UNREACHED_DEPTH))
        }),
        "an owned hub's L slots were written: the traversal routed a hub as an L vertex"
    );
    let reduced = owned_hub_parents.chunks_exact(width);
    for ((h, li), reduced) in owned_hubs(part).zip(reduced) {
        let (from, to) = (h * width..(h + 1) * width, li * width..(li + 1) * width);
        parents[to.clone()].copy_from_slice(reduced);
        if !depths.is_empty() {
            depths[to].copy_from_slice(&hub_depths[from]);
        }
    }
    let tallies = reach_tallies(&parents, &part.owned_degrees, width);
    (parents, depths, tallies)
}

/// TEPS tallies `[visited_0.., degree_sum_0..]` of vertex-major parent
/// slots, `width` per vertex of `degrees`.
pub fn reach_tallies(parents: &[u64], degrees: &[u32], width: usize) -> Vec<u64> {
    // Reached or not is a coin flip per slot: add, don't branch.
    let hit = |p: u64| (p != INVALID_VERTEX) as u64;
    if width == 1 {
        // One slot per vertex: two accumulators the compiler keeps in
        // (vector) registers, 0.5 ns a slot. The form below goes
        // through memory for them, 2.9 ns a slot at this width
        // (`crit_kernels`, `reach_tallies/w1`).
        let (mut visited, mut mass) = (0, 0);
        for (&p, &deg) in parents.iter().zip(degrees) {
            visited += hit(p);
            mass += hit(p) * deg as u64;
        }
        return vec![visited, mass];
    }
    let mut tallies = vec![0u64; 2 * width];
    let (visited, mass) = tallies.split_at_mut(width);
    for (slots, &deg) in parents.chunks_exact(width).zip(degrees) {
        for ((&p, v), m) in slots.iter().zip(visited.iter_mut()).zip(mass.iter_mut()) {
            *v += hit(p);
            *m += hit(p) * deg as u64;
        }
    }
    tallies
}

/// Yield of one pool-chunked scan: its `(dest, parent, mask)` messages
/// in serial scan order, the adjacency entries it read, and how the
/// pool staffed it.
struct Scan<M> {
    msgs: Vec<M>,
    edges: u64,
    pool: PoolStats,
}

impl<M> Scan<M> {
    /// Concatenate per-chunk `(edges, messages)` results in chunk order
    /// — which replays the serial scan exactly (`pool::run_ranges`) —
    /// into the first chunk's buffer, giving the others back.
    fn merge(parts: Vec<(u64, Vec<M>)>, pool: PoolStats, spares: &Spares<M>) -> Self
    where
        M: Copy,
    {
        let mut parts = parts.into_iter();
        let (mut edges, mut msgs) = parts.next().unwrap_or_default();
        for (e, out) in parts {
            edges += e;
            msgs.extend_from_slice(&out);
            spares.give(out);
        }
        Scan { msgs, edges, pool }
    }
}

/// Top-down scan: every active vertex of `set` within `span` sends its
/// mask along each adjacency entry. `key` names a set element in
/// `adj`'s key space, `parent` names that key as a parent vertex id;
/// the adjacency target is the message destination.
///
/// Chunks only read `set`, so concatenating their message lists in
/// chunk order is the serial scan; first-writer-wins application of
/// that list is therefore worker-count invariant.
fn push_scan<L: Lane>(
    spares: &Spares<L::Msg>,
    set: &Bitmap,
    span: Range<u64>,
    adj: &Csr,
    key: impl Fn(u64) -> u64 + Sync,
    parent: impl Fn(u64) -> u64 + Sync,
) -> Scan<L::Msg> {
    let base = span.start / L::PUSH_UNIT;
    let units = span.end.div_ceil(L::PUSH_UNIT) - base;
    let (parts, pool) = pool::run_ranges(units, L::PUSH_GRAIN, |_, r| {
        let start = ((base + r.start) * L::PUSH_UNIT).max(span.start);
        let end = ((base + r.end) * L::PUSH_UNIT).min(span.end);
        let mut edges = 0u64;
        let mut out = spares.take();
        L::for_each_active(set, start, end, |i, m| {
            let k = key(i);
            if adj.degree(k) == 0 {
                return;
            }
            let p = parent(k);
            for &t in adj.neighbors(k) {
                edges += 1;
                out.push(L::pack(t, p, m));
            }
        });
        (edges, out)
    });
    Scan::merge(parts, pool, spares)
}

/// Bottom-up scan: every vertex of `span` still wanting roots (per
/// `seen` and `update`) probes its adjacency in `src` until its wants
/// are exhausted (early exit). `key` names a destination element in
/// `adj`'s key space — element `i` is `adj`'s `i`-th key, so the walk
/// takes `adj.nonempty()` as its mask and never visits a vertex with
/// nothing to pull through — `src_index` turns an adjacency target into
/// an element of `src`, `msg` builds `(dest, parent)` from `(element,
/// key, target)`.
///
/// Each destination belongs to exactly one chunk and the want test
/// reads only pre-scan snapshots, so per-chunk hits merged in chunk
/// order are byte-identical to the serial scan.
#[allow(clippy::too_many_arguments)]
fn pull_scan<L: Lane>(
    lane: L,
    spares: &Spares<L::Msg>,
    seen: &Bitmap,
    update: Option<&Bitmap>,
    span: Range<u64>,
    adj: &Csr,
    key: impl Fn(u64) -> u64 + Sync,
    src: &Bitmap,
    src_index: impl Fn(u64) -> u64 + Sync,
    msg: impl Fn(u64, u64, u64) -> (u64, u64) + Sync,
) -> Scan<L::Msg> {
    let (parts, pool) = pool::run_ranges(span.end - span.start, SCAN_GRAIN_ITEMS, |_, r| {
        let mut edges = 0u64;
        let mut out = spares.take();
        let (start, end) = (span.start + r.start, span.start + r.end);
        lane.for_each_wanting(seen, update, adj.nonempty(), start, end, |i, mut want| {
            let k = key(i);
            debug_assert_eq!(k - adj.key_base(), i, "seen-set index is the key offset");
            for &t in adj.neighbors(k) {
                edges += 1;
                if let Some((got, done)) = L::hit(src, src_index(t), &mut want) {
                    let (dest, parent) = msg(i, k, t);
                    out.push(L::pack(dest, parent, got));
                    if done {
                        break;
                    }
                }
            }
        });
        (edges, out)
    });
    Scan::merge(parts, pool, spares)
}

/// Traversal state of one vertex class on one rank: frontier, seen and
/// next-frontier sets plus the per-`(vertex, root)` result slots.
struct ClassState {
    curr: Bitmap,
    seen: Bitmap,
    next: Bitmap,
    parent: Vec<u64>,
    depth: Vec<u32>,
}

impl ClassState {
    fn new<L: Lane>(lane: &L, n: u64) -> Self {
        ClassState {
            curr: L::new_set(n),
            seen: L::new_set(n),
            next: L::new_set(n),
            parent: vec![INVALID_VERTEX; n as usize * lane.width()],
            depth: lane.new_depths(n as usize),
        }
    }

    /// Record `parent` and `depth` for every root of `m` at vertex `i`.
    fn stamp<L: Lane>(&mut self, lane: &L, i: u64, m: L::Mask, parent: u64, depth: u32) {
        lane.stamp(&mut self.parent, &mut self.depth, i, m, parent, depth);
    }

    /// Light root slot `m` of `root` at vertex `i`, depth 0.
    fn activate<L: Lane>(&mut self, lane: &L, i: u64, m: L::Mask, root: u64) {
        L::insert(&mut self.curr, i, m);
        L::insert(&mut self.seen, i, m);
        self.stamp(lane, i, m, root, 0);
    }

    /// The next frontier becomes the frontier.
    fn advance(&mut self) {
        std::mem::swap(&mut self.curr, &mut self.next);
        self.next.clear();
    }
}

/// One traversal's state on one rank: [`Engine::new`] runs the setup
/// collective, [`Engine::run`] the traversal.
pub(crate) struct Engine<'a, L: Lane> {
    lane: L,
    part: &'a RankPartition,
    cfg: EngineConfig,
    /// The rank scratch's spare buffers for this lane's messages.
    spares: Spares<'a, L::Msg>,
    /// Replicated hub state (index: hub id); parents are
    /// delegate-local until the end-of-run reduction.
    hub: ClassState,
    /// Hub roots discovered locally since the last hub sync.
    hub_update: Bitmap,
    /// Owner-local L state (index: local offset).
    l: ClassState,
    // Cached global totals (one collective at engine setup).
    total_l_connected: u64,
    total_el: u64,
    total_h2l: u64,
    total_lh: u64,
    total_l2l: u64,
    // Mesh facts.
    rows: usize,
    cols: usize,
    /// Iteration currently executing (1-based; the depth it discovers).
    iter: u32,
    // Scratch counters.
    scanned: u64,
    /// Per-sub-iteration scratch for the current iteration
    /// ([`crate::config::Component::ALL`] order).
    sub_stats: [SubIterationStats; 6],
    /// Index of the sub-iteration currently executing (attributes
    /// scanned edges, OCS kernel work and charges to the right slot).
    cur_sub: usize,
    // Measured-heuristic state (all zeros / Push under Fixed). Masses
    // count `(vertex, root)` pairs weighted by degree.
    /// Total degree mass per class (E, H, connected L) — one extra
    /// triple on the setup allreduce in measured mode.
    class_mass_total: [u64; 3],
    /// Degree mass of the *current* frontier per class (global; carried
    /// from the previous iteration's closing allreduce).
    frontier_mass: [u64; 3],
    /// Accumulated degree mass of visited vertices per class (global;
    /// the roots' own mass is uniformly excluded on every rank).
    visited_mass: [u64; 3],
    /// Previous per-component directions — the hysteresis state.
    prev_dirs: [Direction; 6],
    /// Measured `(m_f, m_u)` each component's decision saw this
    /// iteration (surfaced in [`SubIterationStats`]; zeros under Fixed).
    sub_masses: [(u64, u64); 6],
    /// This rank's degree mass of `l.seen` ([`Engine::local_l_mass`] of
    /// it), carried instead of re-walked: it grows only where an owned
    /// L root is activated and where `discover_locals` inserts.
    l_seen_mass: u64,
}

impl<'a, L: Lane> Engine<'a, L> {
    pub(crate) fn new(
        ctx: &mut RankCtx,
        part: &'a RankPartition,
        cfg: EngineConfig,
        lane: L,
        scratch: &'a mut EngineScratch,
    ) -> Self {
        let nh = part.directory.num_hubs() as u64;
        let range = part.owned_range();
        let local_n = range.end - range.start;
        let topo = ctx.topology();
        let (local_l_connected, class_mass) = owned_class_totals(part);
        // One setup collective carries every global total the engine
        // needs: the L-class denominator plus per-component global edge
        // counts (globally empty components skip their collectives, so
        // e.g. the |H| = 0 degeneration pays no H2L exchanges at all).
        // The measured heuristic appends its three per-class degree-mass
        // totals to the same payload — no extra collective, and the
        // fixed mode's payload stays byte-identical to the pre-measured
        // engine.
        let mut payload = vec![
            local_l_connected,
            part.stats.e2l,
            part.stats.h2l,
            part.stats.l2h,
            part.stats.l2l,
        ];
        if cfg.heuristic == DirectionHeuristic::Measured {
            payload.extend(class_mass);
        }
        let totals = ctx.allreduce_with(Scope::World, "heur.totals", payload, None, |a, b| *a += b);
        // The traversal charges into empty accounts: the setup
        // collective and anything before it (a build on the same ctx)
        // are not the run's.
        ctx.take_accumulator();
        ctx.take_comm_stats();
        let class_mass_total = match totals.get(5..8) {
            Some(m) => [m[0], m[1], m[2]],
            None => [0; 3],
        };
        Engine {
            lane,
            part,
            cfg,
            spares: Spares(Mutex::new(L::spares(scratch))),
            hub: ClassState::new(&lane, nh),
            hub_update: L::new_set(nh),
            l: ClassState::new(&lane, local_n),
            total_l_connected: totals[0],
            total_el: totals[1],
            total_h2l: totals[2],
            total_lh: totals[3],
            total_l2l: totals[4],
            rows: topo.shape().rows,
            cols: topo.shape().cols,
            iter: 0,
            scanned: 0,
            sub_stats: Default::default(),
            cur_sub: 0,
            class_mass_total,
            frontier_mass: [0; 3],
            visited_mass: [0; 3],
            prev_dirs: [Direction::Push; 6],
            sub_masses: [(0, 0); 6],
            l_seen_mass: 0,
        }
    }

    /// True when the measured-degree decision family is in force.
    #[inline]
    fn measured(&self) -> bool {
        self.cfg.heuristic == DirectionHeuristic::Measured
    }

    /// Lane width as a heuristic scale factor: every class size and
    /// mass total counts once per root.
    #[inline]
    fn scale(&self) -> u64 {
        self.lane.width() as u64
    }

    /// `(vertex, root)` pairs of a hub set in the E class and in the H
    /// class.
    fn hub_class_counts(&self, set: &Bitmap) -> (u64, u64) {
        let dir = &self.part.directory;
        let e_end = dir.num_e() as u64 * L::STRIDE;
        let h_end = dir.num_hubs() as u64 * L::STRIDE;
        (
            set.count_ones_range(0, e_end),
            set.count_ones_range(e_end, h_end),
        )
    }

    /// This rank's contribution to a class-split frontier degree mass:
    /// `(E mass, H mass, L mass)` of the given hub frontier set and of
    /// an L frontier whose mass the caller carries, counting only
    /// *owned* vertices (each rank knows the global degree of its owned
    /// slice only — hub degrees are not replicated — so summing across
    /// ranks yields the global mass).
    fn local_frontier_mass(&self, hub_set: &Bitmap, l_mass: u64) -> [u64; 3] {
        let (dir, owned) = (&self.part.directory, &self.part.owned_hubs);
        let class_mass = |hubs: Range<u64>| {
            let mut mass = 0;
            let visit = |h: u64, m| mass += owned.degree_of[h as usize] as u64 * L::weight(m);
            let (start, end) = (hubs.start, hubs.end);
            self.lane
                .for_each_active_outside(hub_set, &owned.elsewhere, start, end, visit);
            mass
        };
        let (num_e, num_hubs) = (dir.num_e() as u64, dir.num_hubs() as u64);
        [class_mass(0..num_e), class_mass(num_e..num_hubs), l_mass]
    }

    /// This rank's degree mass of an owned L set by a full walk of it:
    /// what a resumed run starts its carried mass from, and what the
    /// carried masses are `debug_assert`ed against.
    fn local_l_mass(&self, l_set: &Bitmap) -> u64 {
        let mut mass = 0u64;
        L::for_each_active(l_set, 0, self.part.owned_degrees.len() as u64, |li, m| {
            mass += self.part.owned_degrees[li as usize] as u64 * L::weight(m);
        });
        mass
    }

    /// Traverse from `roots` (one per root slot of the lane, order
    /// significant). Slots of the output are vertex-major per root;
    /// `depths` is empty for a lane that keeps none.
    ///
    /// Only a single-root [`Bit`] traversal may pass `checkpoints`: the
    /// checkpoint codec carries no depth slots.
    ///
    /// The run takes `ctx`'s time accounting and collective counters for
    /// its output (empty since `Engine::new`'s setup collective), and
    /// leaves them empty.
    pub(crate) fn run(
        mut self,
        ctx: &mut RankCtx,
        roots: &[u64],
        checkpoints: Option<&CheckpointStore>,
    ) -> Result<BatchOutput, EngineError> {
        debug_assert_eq!(roots.len(), self.lane.width());
        let t_start = ctx.now();
        let dir = &self.part.directory;
        let range = self.part.owned_range();
        let width = self.lane.width();
        let scale = self.scale();

        // ---- resume decision (SPMD-consistent: `common_iter` reads
        // the shared store, so every rank takes the same branch) ----
        let resumed = checkpoints
            .filter(|s| s.common_iter().is_some())
            .and_then(|s| s.load(ctx.rank()));

        let mut iterations: Vec<IterationStats>;
        // L-class counters are carried across iterations instead of
        // being re-collected: the roots' classes are globally known, and
        // each iteration's closing allreduce refreshes them (real BFS
        // codes piggyback these counters for exactly this reason —
        // scalar collectives are pure latency).
        let mut active_l: u64;
        let mut visited_l: u64;
        // Statistics already paid for by the checkpointed segment; the
        // final run stats are `base + what this segment spends`.
        let mut base = ResumeStats::default();
        let mut base_sim_seconds = 0.0f64;

        match resumed {
            Some((state, stats)) => {
                // ---- restore the loop-carried state; root activation
                // is part of the checkpointed history ----
                self.iter = state.iter;
                active_l = state.active_l;
                visited_l = state.visited_l;
                base_sim_seconds = state.sim_seconds;
                self.hub.curr = state.hub_curr;
                self.hub.seen = state.hub_visited;
                self.hub.parent = state.hub_parent;
                self.l.curr = state.l_curr;
                self.l.seen = state.l_visited;
                self.l.parent = state.l_parent;
                // Measured-heuristic loop state rides the checkpoint
                // (codec v2), so a resumed run re-decides directions
                // from the exact masses the dead run saw — no extra
                // collective, byte-identical continuation.
                self.frontier_mass = state.frontier_mass;
                self.visited_mass = state.visited_mass;
                self.prev_dirs = state.prev_dirs;
                // The carried seen mass is derived state: one walk of
                // the restored set, no checkpoint byte.
                self.l_seen_mass = self.local_l_mass(&self.l.seen);
                iterations = stats.iterations.clone();
                base = stats;
            }
            None => {
                // ---- root activation (replicated hubs / owner-local
                // L): root slot `b` lights up `roots[b]` at depth 0.
                // Duplicate roots are distinct slots, so no guard. ----
                active_l = 0;
                for (b, &root) in roots.iter().enumerate() {
                    let m = L::root(b);
                    match dir.hub_id(root) {
                        Some(h) => self.hub.activate(&self.lane, h as u64, m, root),
                        None => {
                            // Every rank counts every L root (its class
                            // is globally known): already the global count.
                            active_l += 1;
                            if range.contains(&root) {
                                let li = root - range.start;
                                self.l.activate(&self.lane, li, m, root);
                                self.l_seen_mass +=
                                    self.part.owned_degrees[li as usize] as u64 * L::weight(m);
                            }
                        }
                    }
                }
                visited_l = active_l;
                iterations = Vec::new();
            }
        }

        // A checkpoint taken after the *final* iteration restores a
        // drained frontier: skip straight to the parent reduction.
        let mut done = self.hub.curr.is_zero() && active_l == 0;
        while !done {
            self.iter += 1;
            let mut st = IterationStats {
                iter: self.iter,
                ..Default::default()
            };
            let l_mass_before = self.l_seen_mass;

            // ---- per-class `(vertex, root)` pair counts ----
            (st.active_e, st.active_h) = self.hub_class_counts(&self.hub.curr);
            st.active_l = active_l;

            // ---- direction selection ----
            let dirs = self.select_directions(&st, visited_l);
            st.directions = dirs;

            // ---- sub-iterations, §4.2 order ----
            self.scanned = 0;
            self.sub_stats = Default::default();
            self.cur_sub = 0;
            self.eh2eh(ctx, dirs[0]);
            self.sync_hubs(ctx, HUBSYNC_EH2EH, &[0]);

            self.cur_sub = 1;
            self.e2l(ctx, dirs[1]);
            self.cur_sub = 2;
            self.l2e(ctx, dirs[2]);
            // "The direction selection procedure uses the latest
            // unvisited count ... after the previous is done": the
            // refreshed global L-visited count rides on the L2E hub
            // sync (row sum then column sum = global sum). The measured
            // heuristic additionally piggybacks the visited degree mass
            // — one extra u64 on the same collective, never a new one.
            let mut l2e_counters = vec![self.l.seen.count_ones()];
            if self.measured() {
                debug_assert_eq!(self.l_seen_mass, self.local_l_mass(&self.l.seen));
                l2e_counters.push(self.l_seen_mass);
            }
            let refreshed = self.sync_hubs(ctx, HUBSYNC_L2E, &l2e_counters);

            let total_l = self.total_l_connected * scale;
            let (d_h2l, d_l2l) = if self.cfg.sub_iteration {
                // Fall back to one scalar collective only when there is
                // no hub sync to piggyback on (|E∪H| = 0).
                let counts = refreshed.unwrap_or_else(|| {
                    ctx.allreduce_with(Scope::World, "heur.counts", l2e_counters, None, |a, b| {
                        *a += b
                    })
                });
                visited_l = counts[0];
                let unvisited_l = total_l.saturating_sub(visited_l);
                let num_h = dir.num_h() as u64 * scale;
                if self.measured() {
                    // The L-class unexplored mass from the piggybacked
                    // visited mass; frontier masses are loop-carried.
                    let um_l = (self.class_mass_total[2] * scale).saturating_sub(counts[1]);
                    let (fm_h, fm_l) = (self.frontier_mass[1], self.frontier_mass[2]);
                    self.sub_masses[3] = (fm_h, um_l);
                    self.sub_masses[5] = (fm_l, um_l);
                    let prev = &self.prev_dirs;
                    (
                        choose_measured(prev[3], fm_h, um_l, st.active_h, num_h),
                        choose_measured(prev[5], fm_l, um_l, st.active_l, total_l),
                    )
                } else {
                    (
                        choose_crossing(st.active_h, num_h, unvisited_l, total_l),
                        choose_crossing(st.active_l, total_l, unvisited_l, total_l),
                    )
                }
            } else {
                (dirs[3], dirs[5])
            };
            let mut final_dirs = dirs;
            final_dirs[3] = d_h2l;
            final_dirs[5] = d_l2l;

            self.cur_sub = 3;
            self.h2l(ctx, d_h2l);
            self.cur_sub = 4;
            self.l2h(ctx, dirs[4]);
            self.sync_hubs(ctx, HUBSYNC_L2H, &[0]);
            self.cur_sub = 5;
            self.l2l(ctx, d_l2l);

            st.directions = final_dirs;
            st.scanned_edges = self.scanned;
            let masses = self.sub_masses;
            for ((slot, d), (m_f, m_u)) in self.sub_stats.iter_mut().zip(final_dirs).zip(masses) {
                slot.direction = d;
                slot.frontier_edges = m_f;
                slot.unexplored_edges = m_u;
            }
            // H2L/L2L decisions were re-derived mid-iteration from the
            // piggybacked visited count (sub-iteration mode only).
            self.sub_stats[3].refreshed = self.cfg.sub_iteration;
            self.sub_stats[5].refreshed = self.cfg.sub_iteration;
            st.subs = self.sub_stats;

            // ---- closing allreduce: next-frontier L count + visited L
            // count; doubles as the termination check (hub state is
            // replicated, so it needs no collective of its own).
            (st.newly_e, st.newly_h) = self.hub_class_counts(&self.hub.next);
            let mut payload = vec![self.l.next.count_ones(), self.l.seen.count_ones()];
            if self.measured() {
                // Next iteration's frontier degree masses ride the same
                // closing allreduce (three extra u64s): each rank sums
                // its *owned* next-frontier degrees per class. The roots'
                // own mass never enters (they were activated, not
                // discovered), uniformly on every rank. Every insert
                // into `l.next` is an insert into `l.seen`, so the next
                // L frontier's mass is the seen mass's growth.
                let l_next = self.l_seen_mass - l_mass_before;
                debug_assert_eq!(l_next, self.local_l_mass(&self.l.next));
                payload.extend(self.local_frontier_mass(&self.hub.next, l_next));
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
            // Hysteresis state for the next iteration's decisions.
            self.prev_dirs = final_dirs;
            // The closing allreduce was this iteration's last
            // collective: the counter now names the first op *after*
            // the boundary (see `IterationStats::end_op`).
            st.end_op = ctx.collective_calls();

            self.hub.advance();
            self.l.advance();

            iterations.push(st);
            // Snapshot between the closing allreduce and the next
            // collective: faults only unwind at collectives, so every
            // rank checkpoints this iteration or none does.
            if let Some(store) = checkpoints {
                self.save_checkpoint(
                    ctx,
                    store,
                    active_l,
                    visited_l,
                    &iterations,
                    base_sim_seconds + (ctx.now() - t_start).as_secs(),
                    &base,
                );
            }
            done = self.hub.curr.is_zero() && active_l == 0;
            if !done && self.iter > MAX_ITERATIONS {
                // Replicated termination state: every rank takes this
                // branch on the same iteration.
                return Err(EngineError::NonTermination {
                    iterations: self.iter,
                });
            }
        }

        // ---- delayed reduction of delegated parents (§5) ----
        // Charged as the full all-reduce; each rank folds only the
        // parents of the hubs it owns, the only ones it outputs.
        let owned_hub_parents = ctx.allreduce_picked(
            Scope::World,
            "reduce.parent",
            std::mem::take(&mut self.hub.parent),
            None,
            owned_hubs(self.part).map(|(h, _)| h * width..(h + 1) * width),
            |_, a, b| *a = (*a).min(*b),
        );

        // ---- assemble owned slots + TEPS inputs (per-root tallies) ----
        let (parents, depths, tallies) = assemble_owned(
            self.part,
            width,
            self.l.parent,
            self.l.depth,
            &owned_hub_parents,
            &self.hub.depth,
        );
        let tallies =
            ctx.allreduce_with(Scope::World, "reduce.teps", tallies, None, |a, b| *a += b);

        // Charge the resumed segment on top of the checkpointed base
        // (empty when not resuming), so interrupted-then-resumed runs
        // report one continuous traversal.
        let mut times = ctx.take_accumulator();
        times.merge(&base.times);
        let mut comm = ctx.take_comm_stats();
        comm.merge(&base.comm);
        Ok(BatchOutput {
            num_roots: width,
            parents,
            depths,
            stats: BatchRunStats {
                iterations,
                sim_seconds: base_sim_seconds + (ctx.now() - t_start).as_secs(),
                visited: tallies[..width].to_vec(),
                traversed_edges: tallies[width..].iter().map(|&d| d / 2).collect(),
                times,
                comm,
            },
        })
    }

    /// Store this rank's snapshot of the just-completed iteration:
    /// the loop-carried state (sealed with a checksum) plus the
    /// statistics a resume must inherit.
    #[allow(clippy::too_many_arguments)]
    fn save_checkpoint(
        &self,
        ctx: &mut RankCtx,
        store: &CheckpointStore,
        active_l: u64,
        visited_l: u64,
        iterations: &[IterationStats],
        sim_seconds: f64,
        base: &ResumeStats,
    ) {
        let state = CheckpointState {
            iter: self.iter,
            active_l,
            visited_l,
            sim_seconds,
            frontier_mass: self.frontier_mass,
            visited_mass: self.visited_mass,
            prev_dirs: self.prev_dirs,
            hub_curr: self.hub.curr.clone(),
            hub_visited: self.hub.seen.clone(),
            hub_parent: self.hub.parent.clone(),
            l_curr: self.l.curr.clone(),
            l_visited: self.l.seen.clone(),
            l_parent: self.l.parent.clone(),
        };
        let mut times = ctx.accumulator().clone();
        times.merge(&base.times);
        let mut comm = ctx.comm_stats().clone();
        comm.merge(&base.comm);
        let stats = ResumeStats {
            iterations: iterations.to_vec(),
            times,
            comm,
        };
        store.save(ctx.rank(), &state, stats);
    }

    /// Initial per-iteration direction choices (H2L/L2L may be refreshed
    /// mid-iteration; see `run`). Under the measured heuristic this also
    /// records the `(m_f, m_u)` pair each decision saw into
    /// [`Engine::sub_masses`] for the statistics surface.
    fn select_directions(&mut self, st: &IterationStats, visited_l: u64) -> [Direction; 6] {
        let dir = &self.part.directory;
        let cfg = self.cfg;
        let scale = self.scale();
        let num_e = dir.num_e() as u64 * scale;
        let num_h = dir.num_h() as u64 * scale;
        let nh = num_e + num_h;
        let total_l = self.total_l_connected * scale;
        if self.measured() {
            // Beamer-style measured masses per class: the loop-carried
            // frontier masses against each destination class's
            // unexplored mass (total minus accumulated visited).
            let fm = self.frontier_mass;
            let um: [u64; 3] = std::array::from_fn(|c| {
                (self.class_mass_total[c] * scale).saturating_sub(self.visited_mass[c])
            });
            if !cfg.sub_iteration {
                // Vanilla mode: one global measured decision.
                let m_f = fm[0] + fm[1] + fm[2];
                let m_u = um[0] + um[1] + um[2];
                let active = st.active_e + st.active_h + st.active_l;
                let d = choose_measured(self.prev_dirs[0], m_f, m_u, active, nh + total_l);
                self.sub_masses = [(m_f, m_u); 6];
                return [d; 6];
            }
            // Per-component (source mass, destination unexplored mass,
            // source frontier count, source class size), §4.2 order.
            let pairs = [
                (fm[0] + fm[1], um[0] + um[1], st.active_e + st.active_h, nh),
                (fm[0], um[2], st.active_e, num_e),
                (fm[2], um[0], st.active_l, total_l),
                (fm[1], um[2], st.active_h, num_h),
                (fm[2], um[1], st.active_l, total_l),
                (fm[2], um[2], st.active_l, total_l),
            ];
            let mut dirs = [Direction::Push; 6];
            for (i, &(m_f, m_u, active, total)) in pairs.iter().enumerate() {
                dirs[i] = choose_measured(self.prev_dirs[i], m_f, m_u, active, total);
                self.sub_masses[i] = (m_f, m_u);
            }
            return dirs;
        }
        if !cfg.sub_iteration {
            // Vanilla direction optimization: one decision for the whole
            // iteration from the global frontier density.
            let active = st.active_e + st.active_h + st.active_l;
            let total = nh + total_l;
            let d = if total > 0 && active as f64 / total as f64 > VANILLA_ALPHA {
                Direction::Pull
            } else {
                Direction::Push
            };
            return [d; 6];
        }
        let unvisited_l = total_l.saturating_sub(visited_l);
        let unvisited_h = num_h - self.hub_class_counts(&self.hub.seen).1;
        [
            // EH2EH: node-local, source class E∪H.
            choose_local(st.active_e + st.active_h, nh),
            // E2L: node-local, source class E.
            choose_local(st.active_e, num_e),
            // L2E: node-local, source class L.
            choose_local(st.active_l, total_l),
            // H2L: crossing, H → L.
            choose_crossing(st.active_h, num_h, unvisited_l, total_l),
            // L2H: crossing, L → H.
            choose_crossing(st.active_l, total_l, unvisited_h, num_h),
            // L2L: crossing, L → L.
            choose_crossing(st.active_l, total_l, unvisited_l, total_l),
        ]
    }

    /// Propagate this sub-iteration's hub discoveries to all delegates:
    /// OR-allreduce along the row (intra-supernode), then along the
    /// column (inter-supernode) — together a global dissemination, with
    /// each hop charged at its network tier.
    ///
    /// `counters` are summed globally alongside the set words (row sums
    /// then column sums) and returned element-wise — the piggybacked
    /// counters that feed the mid-iteration direction refresh without a
    /// dedicated scalar collective. Returns `None` when there are no
    /// hubs (no sync happens).
    fn sync_hubs(
        &mut self,
        ctx: &mut RankCtx,
        op: &'static str,
        counters: &[u64],
    ) -> Option<Vec<u64>> {
        if self.hub_update.is_empty() {
            return None;
        }
        let (words, counts) = hub_sync_collective(ctx, op, self.hub_update.words(), counters);
        // newly = update \ seen → next frontier (depth-stamped where the
        // lane keeps depths); seen absorbs the whole update. The fused
        // `dst |= a & !b` wide kernel needs no materialized difference.
        self.lane
            .stamp_hub_depths(&mut self.hub.depth, &words, &self.hub.seen, self.iter);
        wide::or_and_not_assign(self.hub.next.words_mut(), &words, self.hub.seen.words());
        wide::or_assign(self.hub.seen.words_mut(), &words);
        self.hub_update.clear();
        Some(counts)
    }

    /// Time-accounting category of the executing sub-iteration.
    #[inline]
    fn category(&self, d: Direction) -> &'static str {
        CATEGORY[self.cur_sub][d as usize]
    }

    /// Attribute one scan's edges and pool activity to the current
    /// sub-iteration and the iteration total.
    fn note_scan(&mut self, edges: u64, pool: PoolStats) {
        self.scanned += edges;
        let slot = &mut self.sub_stats[self.cur_sub];
        slot.scanned_edges += edges;
        slot.pool.merge(&pool);
    }

    /// Attribute one OCS kernel's work to the current sub-iteration
    /// (times and counters sum across the sub-iteration's sorts).
    #[inline]
    fn note_kernel(&mut self, report: &KernelReport) {
        self.sub_stats[self.cur_sub].kernel.join_serial(report);
    }

    /// Record locally discovered hub roots (delegate-local parents; the
    /// depth is stamped again, identically, on every rank by the next
    /// hub sync).
    fn discover_hubs(&mut self, msgs: Vec<L::Msg>) {
        let depth = self.iter;
        for &msg in &msgs {
            let (h, parent, m) = L::unpack(msg);
            if let Some(new) = L::fresh(m, &self.hub.seen, Some(&self.hub_update), h) {
                L::insert(&mut self.hub_update, h, new);
                self.hub.stamp(&self.lane, h, new, parent, depth);
            }
        }
        self.spares.give(msgs);
    }

    /// Record discoveries at locally owned L vertices; `base` is
    /// subtracted from each destination to get its local offset.
    fn discover_locals(&mut self, msgs: impl IntoIterator<Item = L::Msg>, base: u64) {
        let depth = self.iter;
        for msg in msgs {
            let (l, parent, m) = L::unpack(msg);
            let li = l - base;
            if let Some(new) = L::fresh(m, &self.l.seen, None, li) {
                L::insert(&mut self.l.seen, li, new);
                L::insert(&mut self.l.next, li, new);
                self.l.stamp(&self.lane, li, new, parent, depth);
                self.l_seen_mass += self.part.owned_degrees[li as usize] as u64 * L::weight(new);
            }
        }
    }

    // ---------------------------------------------------------------
    // EH2EH — the 2D-partitioned core subgraph.
    // ---------------------------------------------------------------
    fn eh2eh(&mut self, ctx: &mut RankCtx, d: Direction) {
        let part = self.part;
        let dir = &part.directory;
        let nh = dir.num_hubs() as u64;
        if nh == 0 {
            return;
        }
        let (my_row, my_col) = (ctx.row() as u64, ctx.col() as u64);
        let (rows, cols) = (self.rows as u64, self.cols as u64);
        let scan = match d {
            Direction::Push => {
                // Edge-aware vertex-cut balancing (§5): cut the frontier
                // by accumulated degree, charge the critical-path chunk.
                // Sources are this column's cyclic slice of the hub
                // space.
                let mut frontier: Vec<(u64, L::Mask)> = Vec::new();
                L::for_each_active(&self.hub.curr, 0, nh, |s, m| {
                    if s % cols == my_col {
                        frontier.push((s, m));
                    }
                });
                let degrees: Vec<u64> = frontier
                    .iter()
                    .map(|&(s, _)| part.eh_by_src.degree(s))
                    .collect();
                let max_chunk = balance::max_chunk_edges(&degrees, ctx.machine().cpes_per_node());
                // Pool-chunked over frontier sources; chunk-order merge
                // replays the serial first-writer-wins discovery order.
                let spares = &self.spares;
                let (parts, pstats) =
                    pool::run_ranges(frontier.len() as u64, SCAN_GRAIN_ITEMS, |_, r| {
                        let mut edges = 0u64;
                        let mut out = spares.take();
                        for &(s, m) in &frontier[r.start as usize..r.end as usize] {
                            let parent = dir.vertex_of(s as u32);
                            for &dst in part.eh_by_src.neighbors(s) {
                                edges += 1;
                                out.push(L::pack(dst, parent, m));
                            }
                        }
                        (edges, out)
                    });
                costing::charge_balanced_push(
                    ctx,
                    self.category(d),
                    max_chunk,
                    frontier.len() as u64,
                );
                Scan::merge(parts, pstats, spares)
            }
            Direction::Pull => {
                // CG-aware segmenting (§4.3): sources split into one
                // segment per core group, their activeness kept in LDM —
                // if the per-CG share fits the budget (half of each
                // CPE's scratchpad, leaving room for adjacency staging);
                // otherwise every probe is a GLD round trip. The host
                // probes `hub.curr` in place either way; only the charge
                // follows where the bits would live.
                let machine = *ctx.machine();
                let cgs = machine.cgs_per_node;
                let on_chip = self.cfg.segmenting
                    && SegmentedBitvec::fits_budget(
                        (nh * L::STRIDE).div_ceil(cgs as u64),
                        machine.cpes_per_cg,
                        machine.ldm_bytes / 2,
                    );
                // This column's source slice is cyclic; its k-th source
                // (slot s/cols) maps to core group slot*cgs/slots.
                let slots = nh.div_ceil(cols).max(1);
                let seg_of =
                    move |s: u64| -> usize { ((s / cols) * cgs as u64 / slots) as usize % cgs };
                // Pool-chunked over this row's strided destination
                // sequence. Each destination is examined by exactly one
                // chunk, and the want test reads only pre-scan
                // snapshots, so chunk-order merge is the serial scan.
                let n_dst = if my_row < nh {
                    (nh - my_row).div_ceil(rows)
                } else {
                    0
                };
                let all = self.lane.all();
                let (hub_curr, hub_seen, hub_update, spares) = (
                    &self.hub.curr,
                    &self.hub.seen,
                    &self.hub_update,
                    &self.spares,
                );
                let (parts, pstats) = pool::run_ranges(n_dst, SCAN_GRAIN_ITEMS, |_, r| {
                    let mut edges = 0u64;
                    let mut probes = vec![0u64; cgs];
                    let mut out = spares.take();
                    for k in r {
                        let dst = my_row + k * rows;
                        let Some(mut want) = L::fresh(all, hub_seen, Some(hub_update), dst) else {
                            continue;
                        };
                        for &s in part.eh_by_dst.neighbors(dst) {
                            edges += 1;
                            probes[seg_of(s)] += 1;
                            if let Some((got, done)) = L::hit(hub_curr, s, &mut want) {
                                out.push(L::pack(dst, dir.vertex_of(s as u32), got));
                                if done {
                                    break; // early exit
                                }
                            }
                        }
                    }
                    ((edges, out), probes)
                });
                let mut probes = vec![0u64; cgs];
                let parts = parts.into_iter().map(|(chunk, chunk_probes)| {
                    for (slot, add) in probes.iter_mut().zip(chunk_probes) {
                        *slot += add;
                    }
                    chunk
                });
                let scan = Scan::merge(parts.collect(), pstats, spares);
                costing::charge_eh_pull(ctx, self.category(d), scan.edges, &probes, on_chip);
                scan
            }
        };
        self.note_scan(scan.edges, scan.pool);
        self.discover_hubs(scan.msgs);
    }

    // ---------------------------------------------------------------
    // E2L — E adjacency attached to L owners; fully node-local.
    // ---------------------------------------------------------------
    fn e2l(&mut self, ctx: &mut RankCtx, d: Direction) {
        let part = self.part;
        let num_e = part.directory.num_e() as u64;
        if num_e == 0 || self.total_el == 0 {
            return;
        }
        let range = part.owned_range();
        let (by_hub, by_local) = (&part.el_by_hub, &part.el_by_local);
        let scan = self.hubs_to_l(d, 0..num_e, by_hub, by_local, &self.l.seen, range.start);
        costing::charge_scan(ctx, self.category(d), scan.edges);
        self.note_scan(scan.edges, scan.pool);
        self.discover_locals(scan.msgs.iter().copied(), range.start);
        self.spares.give(scan.msgs);
    }

    // ---------------------------------------------------------------
    // L2E — same storage, reverse roles; hub updates via delegates.
    // ---------------------------------------------------------------
    fn l2e(&mut self, ctx: &mut RankCtx, d: Direction) {
        let part = self.part;
        let num_e = part.directory.num_e() as u64;
        if num_e == 0 || self.total_el == 0 {
            return;
        }
        self.l_to_hubs(ctx, d, 0..num_e, &part.el_by_local, &part.el_by_hub);
    }

    /// The hub → L scan shared by E2L and H2L over the hub id range
    /// `hubs`: push walks the hub frontier through `by_hub`, pull walks
    /// the L vertices still wanting roots in `seen` — a set over the
    /// vertex interval starting at `base` — through `by_local`, probing
    /// the hub frontier (a push ignores `seen` and `base`). Messages are
    /// `(L vertex, hub parent)`.
    fn hubs_to_l(
        &self,
        d: Direction,
        hubs: Range<u64>,
        by_hub: &Csr,
        by_local: &Csr,
        seen: &Bitmap,
        base: u64,
    ) -> Scan<L::Msg> {
        let dir = &self.part.directory;
        let vertex = |h: u64| dir.vertex_of(h as u32);
        match d {
            Direction::Push => {
                push_scan::<L>(&self.spares, &self.hub.curr, hubs, by_hub, |h| h, vertex)
            }
            Direction::Pull => pull_scan(
                self.lane,
                &self.spares,
                seen,
                None,
                0..seen.len() / L::STRIDE,
                by_local,
                |off| base + off,
                &self.hub.curr,
                |h| h,
                |_, l, h| (l, vertex(h)),
            ),
        }
    }

    /// The L → hub sub-iteration shared by L2E and L2H over the hub id
    /// range `hubs`: push walks the L frontier through `by_local`, pull
    /// walks the still-wanting hubs through `by_hub` probing the L
    /// frontier (early exit is per rank). Discoveries are `(hub, L
    /// parent)`, absorbed by the local delegates.
    fn l_to_hubs(
        &mut self,
        ctx: &mut RankCtx,
        d: Direction,
        hubs: Range<u64>,
        by_local: &Csr,
        by_hub: &Csr,
    ) {
        let range = self.part.owned_range();
        let scan = match d {
            Direction::Push => push_scan::<L>(
                &self.spares,
                &self.l.curr,
                0..range.end - range.start,
                by_local,
                |li| range.start + li,
                |l| l,
            ),
            Direction::Pull => pull_scan(
                self.lane,
                &self.spares,
                &self.hub.seen,
                Some(&self.hub_update),
                hubs,
                by_hub,
                |h| h,
                &self.l.curr,
                |l| l - range.start,
                |h, _, l| (h, l),
            ),
        };
        costing::charge_scan(ctx, self.category(d), scan.edges);
        self.note_scan(scan.edges, scan.pool);
        self.discover_hubs(scan.msgs);
    }

    // ---------------------------------------------------------------
    // H2L — stored at row/col intersections; push messages stay intra-row.
    // ---------------------------------------------------------------
    fn h2l(&mut self, ctx: &mut RankCtx, d: Direction) {
        if self.total_h2l == 0 {
            return; // globally empty: no rank runs the exchange
        }
        let part = self.part;
        let hubs = part.directory.num_e() as u64..part.directory.num_hubs() as u64;
        // A pull needs the destination (L) seen sets visible along the
        // row where the edges live: gather the row's sets. The early
        // exit then happens at the edge's location.
        let row_seen = (d == Direction::Pull).then(|| self.gather_row_seen(ctx));
        let seen = row_seen.as_ref().unwrap_or(&self.l.seen);
        let base = part.row_range(&ctx.topology()).start;
        let scan = self.hubs_to_l(d, hubs, &part.h2l_by_hub, &part.h2l_by_local, seen, base);
        costing::charge_scan(ctx, self.category(d), scan.edges);
        self.note_scan(scan.edges, scan.pool);
        self.exchange_and_apply_row(ctx, scan.msgs, ALLTOALLV_H2L, self.category(d));
    }

    /// Bucket `(dest L, parent, mask)` messages by destination column
    /// with OCS-RMA, exchange them intra-row, and apply at the owners;
    /// `msgs`' buffer goes back to the spares once bucketed.
    fn exchange_and_apply_row(
        &mut self,
        ctx: &mut RankCtx,
        msgs: Vec<L::Msg>,
        comm_op: &'static str,
        cost_category: &'static str,
    ) {
        let dist = self.part.dist;
        let topo = ctx.topology();
        let machine = *ctx.machine();
        let (buckets, report) = ocs_sort_rma(
            &machine,
            &OcsConfig::default(),
            &msgs,
            self.cols,
            machine.cgs_per_node,
            |&msg| topo.col_of(dist.owner(L::unpack(msg).0)),
        );
        self.spares.give(msgs);
        ctx.charge(cost_category, report.time);
        self.note_kernel(&report);
        let msgs = ctx.alltoallv(Scope::Row, comm_op, buckets).concat();
        self.apply_l_messages(ctx, msgs, cost_category);
    }

    /// Two-stage destination update (§4.4): arriving messages are
    /// coarse-sorted into fixed-length vertex ranges with OCS-RMA, then
    /// each range is updated in LDM by its owning consumer — no atomic
    /// bit-sets against main memory.
    fn apply_l_messages(&mut self, ctx: &mut RankCtx, msgs: Vec<L::Msg>, category: &'static str) {
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
            |&msg| range_bucket(L::unpack(msg).0 - range.start, span, ranges),
        );
        ctx.charge(category, report.time);
        self.note_kernel(&report);
        self.discover_locals(buckets.into_iter().flatten(), range.start);
    }

    /// Allgather the row's owned seen sets into one set over the row's
    /// vertex interval.
    fn gather_row_seen(&self, ctx: &mut RankCtx) -> Bitmap {
        let topo = ctx.topology();
        let dist = self.part.dist;
        let my_row = ctx.row();
        let row_range = self.part.row_range(&topo);
        let words = self.l.seen.words().to_vec();
        let gathered = ctx.allgatherv(Scope::Row, "comm.allgather.H2L", words);
        let mut row_seen = L::new_set(row_range.end - row_range.start);
        for (pos, words) in gathered.into_iter().enumerate() {
            let member = dist.range_of(topo.rank_at(my_row, pos));
            let base = member.start - row_range.start;
            L::splice(&mut row_seen, base, &words, member.end - member.start);
        }
        row_seen
    }

    // ---------------------------------------------------------------
    // L2H — stored at L's owner; hub delegates absorb the updates.
    // ---------------------------------------------------------------
    fn l2h(&mut self, ctx: &mut RankCtx, d: Direction) {
        let part = self.part;
        let num_e = part.directory.num_e() as u64;
        let nh = part.directory.num_hubs() as u64;
        if num_e == nh || self.total_lh == 0 {
            return; // no H vertices (or no L↔H edges anywhere)
        }
        self.l_to_hubs(ctx, d, num_e..nh, &part.lh_by_local, &part.lh_by_hub);
    }

    // ---------------------------------------------------------------
    // L2L — vanilla 1D with hierarchical forwarding (§4.4).
    // ---------------------------------------------------------------
    fn l2l(&mut self, ctx: &mut RankCtx, d: Direction) {
        if self.total_l2l == 0 {
            return; // globally empty: no rank runs the exchanges
        }
        let part = self.part;
        let dist = part.dist;
        let topo = ctx.topology();
        let range = part.owned_range();
        let local_n = range.end - range.start;
        let machine = *ctx.machine();
        let category = self.category(d);
        let dest_owner = |msg: &L::Msg| dist.owner(L::unpack(*msg).0);
        match d {
            Direction::Push => {
                // Generate (dest, parent, mask) messages from the
                // frontier.
                let scan = push_scan::<L>(
                    &self.spares,
                    &self.l.curr,
                    0..local_n,
                    &part.l2l,
                    |li| range.start + li,
                    |l| l,
                );
                self.note_scan(scan.edges, scan.pool);
                costing::charge_scan(ctx, category, scan.edges);
                // Hop 1: sort by the forwarding node — the intersection
                // of our column and the destination's row — and exchange
                // along the column.
                let (col_buckets, rep1) = ocs_sort_rma(
                    &machine,
                    &OcsConfig::default(),
                    &scan.msgs,
                    self.rows,
                    machine.cgs_per_node,
                    |msg| topo.row_of(dest_owner(msg)),
                );
                self.spares.give(scan.msgs);
                ctx.charge(category, rep1.time);
                self.note_kernel(&rep1);
                let forwarded = ctx
                    .alltoallv(Scope::Col, ALLTOALLV_L2L, col_buckets)
                    .concat();
                // Hop 2: the forwarding node sorts by final destination
                // and exchanges along its row.
                self.exchange_and_apply_row(ctx, forwarded, ALLTOALLV_L2L, category);
            }
            Direction::Pull => {
                // Query/confirm two-phase: wanting locals ask the owners
                // of their neighbors which of the wanted roots have them
                // in the frontier. No remote early exit — the 1D
                // limitation the paper notes (§2.1.2). Per-chunk
                // per-owner query lists merged in chunk order keep each
                // owner's serial query order.
                let p = ctx.nranks();
                let (lane, l_seen) = (self.lane, &self.l.seen);
                let (parts, pstats) = pool::run_ranges(local_n, SCAN_GRAIN_ITEMS, |_, r| {
                    let mut edges = 0u64;
                    let mut out: Vec<Vec<L::Msg>> = vec![Vec::new(); p];
                    let live = part.l2l.nonempty();
                    lane.for_each_wanting(l_seen, None, live, r.start, r.end, |li, want| {
                        let l = range.start + li;
                        debug_assert_eq!(l - part.l2l.key_base(), li);
                        for &u in part.l2l.neighbors(l) {
                            edges += 1;
                            out[dist.owner(u)].push(L::pack(u, l, want));
                        }
                    });
                    (edges, out)
                });
                let mut edges = 0u64;
                let mut queries: Vec<Vec<L::Msg>> = vec![Vec::new(); p];
                for (e, out) in parts {
                    edges += e;
                    for (dst, batch) in queries.iter_mut().zip(out) {
                        dst.extend(batch);
                    }
                }
                self.note_scan(edges, pstats);
                costing::charge_scan(ctx, category, edges);
                let incoming = ctx.alltoallv(Scope::World, ALLTOALLV_L2L, queries);
                let mut replies: Vec<Vec<L::Msg>> = vec![Vec::new(); p];
                let mut checked = 0u64;
                for query in incoming.into_iter().flatten() {
                    let (u, l, mut want) = L::unpack(query);
                    checked += 1;
                    if let Some((got, _)) = L::hit(&self.l.curr, u - range.start, &mut want) {
                        replies[dist.owner(l)].push(L::pack(l, u, got));
                    }
                }
                costing::charge_apply(ctx, category, checked);
                let msgs = ctx.alltoallv(Scope::World, ALLTOALLV_L2L, replies).concat();
                self.apply_l_messages(ctx, msgs, category);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::Word;
    use sunbfs_common::{MachineConfig, SplitMix64};
    use sunbfs_net::{Cluster, CommOpStats, MeshShape};
    use sunbfs_part::{build_1p5d, Thresholds};
    use sunbfs_rmat::RmatParams;

    #[test]
    fn range_bucket_in_bounds_for_spans_below_ranges() {
        // The fixed 32-range coarse sort must stay in-bounds even when
        // a rank owns fewer than 32 vertices.
        for span in 1..32u64 {
            for offset in 0..span {
                let b = range_bucket(offset, span, 32);
                assert!(b < 32, "span {span} offset {offset} -> bucket {b}");
            }
        }
    }

    #[test]
    fn range_bucket_is_monotone_and_covers_all_ranges() {
        for span in [1u64, 5, 31, 32, 33, 100, 1 << 20] {
            let mut prev = 0usize;
            for offset in 0..span.min(4096) {
                let b = range_bucket(offset, span, 32);
                assert!(b >= prev, "bucket must not decrease along the span");
                prev = b;
            }
            if (32..=4096).contains(&span) {
                let used: std::collections::BTreeSet<usize> =
                    (0..span).map(|o| range_bucket(o, span, 32)).collect();
                assert_eq!(used.len(), 32, "span {span} must use all 32 ranges");
            }
        }
    }

    #[test]
    fn piggybacked_counter_sums_globally() {
        // The sync_hubs payload: set words OR-reduced, the trailing
        // counter summed — row hop then column hop gives the global sum
        // and the global union on every rank.
        let c = Cluster::new(MeshShape::new(2, 3), MachineConfig::new_sunway());
        let out = c.run(|ctx| {
            let mut words = vec![0u64; 2];
            words[0] |= 1 << ctx.rank();
            // Two trailing counters (the measured-heuristic shape): both
            // must sum independently while the words OR.
            hub_sync_collective(
                ctx,
                "hubsync.test",
                &words,
                &[ctx.rank() as u64 + 1, 10 * ctx.rank() as u64],
            )
        });
        let union: u64 = (0..6).map(|r| 1u64 << r).sum();
        for (words, counts) in out {
            assert_eq!(counts, vec![21, 150], "element-wise sums over 6 ranks");
            assert_eq!(words, vec![union, 0]);
        }
    }

    #[test]
    fn piggybacked_counter_rides_the_bitmap_collective() {
        // One row + one column collective carry words AND counter: no
        // extra scalar allreduce appears, and each payload is exactly
        // nwords+1 u64s.
        let c = Cluster::new(MeshShape::new(2, 2), MachineConfig::new_sunway());
        let out = c.run(|ctx| {
            let words = vec![0u64; 4];
            hub_sync_collective(ctx, "hubsync.t", &words, &[7]);
            ctx.take_comm_stats()
        });
        for stats in out {
            assert_eq!(
                stats.get(Scope::Row, "hubsync.t"),
                CommOpStats {
                    count: 1,
                    bytes: 40
                }
            );
            assert_eq!(
                stats.get(Scope::Col, "hubsync.t"),
                CommOpStats {
                    count: 1,
                    bytes: 40
                }
            );
            assert_eq!(
                stats.total_with_prefix("world/").count,
                0,
                "no world-scope fallback"
            );
        }
    }

    /// Simulated seconds rank 0 spent in the EH2EH pull of one
    /// all-hubs SCALE-8 traversal (every vertex with an edge is a hub:
    /// only the core subgraph runs, and no OCS sort needs LDM).
    fn eh_pull_seconds(ldm_bytes: usize, segmenting: bool) -> f64 {
        let params = RmatParams::graph500(8, 42);
        let n = params.num_vertices();
        let machine = MachineConfig {
            ldm_bytes,
            ..MachineConfig::new_sunway()
        };
        let cfg = EngineConfig {
            segmenting,
            heuristic: DirectionHeuristic::Fixed,
            ..EngineConfig::default()
        };
        let outs = Cluster::new(MeshShape::new(2, 2), machine).run(|ctx| {
            let chunk = sunbfs_rmat::generate_chunk(&params, ctx.rank() as u64, 4);
            let part = build_1p5d(ctx, n, &chunk, Thresholds::all_hubs(1 << 20));
            EngineScratch::default()
                .run_bfs(ctx, &part, 1, &cfg, None)
                .expect("terminates")
        });
        outs[0].stats.times.get("sub.EH2EH.pull").as_secs()
    }

    #[test]
    fn eh_pull_is_charged_as_executed() {
        // A pull whose activeness vector does not fit the LDM budget
        // probes main memory whatever `segmenting` says, and is billed
        // at the GLD price — the same as with segmenting off.
        let ldm = MachineConfig::new_sunway().ldm_bytes;
        let (on_chip, off_chip) = (eh_pull_seconds(ldm, true), eh_pull_seconds(ldm, false));
        assert!(on_chip > 0.0, "the traversal must pull");
        assert!(on_chip < off_chip, "segmenting is the cheaper probe");
        // One 1 KiB line per CPE is the smallest segment: 1 KiB of LDM
        // (512 B budget) cannot hold it.
        assert_eq!(eh_pull_seconds(1024, true), off_chip);
        assert_eq!(eh_pull_seconds(1024, false), off_chip);
    }

    /// SCALE-8 R-MAT partitions of `shape`, in rank order.
    fn partitions(shape: MeshShape, thresholds: Thresholds) -> Vec<RankPartition> {
        let params = RmatParams::graph500(8, 42);
        let n = params.num_vertices();
        let p = shape.num_ranks() as u64;
        Cluster::new(shape, MachineConfig::new_sunway()).run(|ctx| {
            let chunk = sunbfs_rmat::generate_chunk(&params, ctx.rank() as u64, p);
            build_1p5d(ctx, n, &chunk, thresholds)
        })
    }

    /// The per-vertex form the engine must not run per root: ask the
    /// directory about every owned vertex.
    fn class_totals_by_lookup(part: &RankPartition) -> (u64, [u64; 3]) {
        let (mut l_connected, mut class_mass) = (0u64, [0u64; 3]);
        for (v, &d) in part.owned_range().zip(&part.owned_degrees) {
            match part.directory.hub_id(v) {
                Some(h) if h < part.directory.num_e() => class_mass[0] += d as u64,
                Some(_) => class_mass[1] += d as u64,
                None => {
                    l_connected += (d > 0) as u64;
                    class_mass[2] += d as u64;
                }
            }
        }
        (l_connected, class_mass)
    }

    /// Output assembly in the same per-vertex form.
    fn assemble_by_lookup(
        part: &RankPartition,
        width: usize,
        l_parents: &[u64],
        l_depths: &[u32],
        hub_parents: &[u64],
        hub_depths: &[u32],
    ) -> (Vec<u64>, Vec<u32>, Vec<u64>) {
        let (mut parents, mut depths) = (Vec::new(), Vec::new());
        let mut tallies = vec![0u64; 2 * width];
        for (li, v) in part.owned_range().enumerate() {
            let (slot_parents, slot_depths, first) = match part.directory.hub_id(v) {
                Some(h) => (hub_parents, hub_depths, h as usize * width),
                None => (l_parents, l_depths, li * width),
            };
            for (b, &p) in slot_parents[first..first + width].iter().enumerate() {
                if p != INVALID_VERTEX {
                    tallies[b] += 1;
                    tallies[width + b] += part.owned_degrees[li] as u64;
                }
                parents.push(p);
            }
            depths.extend_from_slice(slot_depths.get(first..first + width).unwrap_or(&[]));
        }
        (parents, depths, tallies)
    }

    /// `slots` result slots in the state a traversal could leave them:
    /// about two in three reached, with some parent and depth.
    fn reached_slots(
        rng: &mut SplitMix64,
        slots: usize,
        keep_depths: bool,
    ) -> (Vec<u64>, Vec<u32>) {
        let mut parents = vec![INVALID_VERTEX; slots];
        let mut depths = vec![UNREACHED_DEPTH; if keep_depths { slots } else { 0 }];
        for s in 0..slots {
            if rng.next_below(3) > 0 {
                parents[s] = rng.next_below(256);
                if keep_depths {
                    depths[s] = rng.next_below(9) as u32;
                }
            }
        }
        (parents, depths)
    }

    #[test]
    fn hub_walk_totals_and_assembly_match_per_vertex_lookups() {
        let mixed = Thresholds::new(64, 16);
        for thresholds in [mixed, Thresholds::all_hubs(1 << 20), Thresholds::none()] {
            let parts = partitions(MeshShape::new(2, 2), thresholds);
            if thresholds == mixed {
                // The case worth testing: both hub classes, spread over
                // ranks, beside isolated L vertices.
                let owners = |hubs: Range<u32>| -> Vec<usize> {
                    let owns = |p: &RankPartition| {
                        hubs.clone()
                            .any(|h| p.owned_range().contains(&p.directory.vertex_of(h)))
                    };
                    (0..parts.len()).filter(|&r| owns(&parts[r])).collect()
                };
                let dir = &parts[0].directory;
                let e_owners = owners(0..dir.num_e());
                let h_owners = owners(dir.num_e()..dir.num_hubs());
                assert!(!e_owners.is_empty() && !h_owners.is_empty());
                assert!(
                    e_owners.len() > 1 || h_owners != e_owners,
                    "E and H hubs must not all sit on one rank"
                );
                let isolated_l = |p: &RankPartition| {
                    let mut owned = p.owned_range().zip(&p.owned_degrees);
                    owned.any(|(v, &d)| d == 0 && p.directory.hub_id(v).is_none())
                };
                assert!(parts.iter().any(isolated_l));
            }
            let mut rng = SplitMix64::new(7);
            for part in &parts {
                assert_eq!(owned_class_totals(part), class_totals_by_lookup(part));
                let nh = part.directory.num_hubs() as usize;
                let local_n = part.owned_degrees.len();
                // Width 1 without depth slots is the `Bit` lane; `Word`
                // keeps depths.
                for (width, keep_depths) in [(1, false), (8, true), (64, true)] {
                    let (hub_parents, hub_depths) =
                        reached_slots(&mut rng, nh * width, keep_depths);
                    let (mut l_parents, mut l_depths) =
                        reached_slots(&mut rng, local_n * width, keep_depths);
                    // What the routing guarantees: no owned hub is ever
                    // stamped as an L vertex.
                    for (_, li) in owned_hubs(part) {
                        l_parents[li * width..][..width].fill(INVALID_VERTEX);
                        if keep_depths {
                            l_depths[li * width..][..width].fill(UNREACHED_DEPTH);
                        }
                    }
                    let hubs = (&hub_parents[..], &hub_depths[..]);
                    let want =
                        assemble_by_lookup(part, width, &l_parents, &l_depths, hubs.0, hubs.1);
                    let literal = assemble_by_table_walk(
                        part,
                        width,
                        (l_parents.clone(), l_depths.clone()),
                        hubs,
                    );
                    assert_eq!(literal, want, "the two oracles, width {width}");
                    // What the reduction hands a rank: its owned hubs'
                    // slots only, in hub-id order.
                    let owned_hub_parents: Vec<u64> = owned_hubs_by_table_walk(part)
                        .into_iter()
                        .flat_map(|(h, _)| &hub_parents[h * width..(h + 1) * width])
                        .copied()
                        .collect();
                    let got = assemble_owned(
                        part,
                        width,
                        l_parents,
                        l_depths,
                        &owned_hub_parents,
                        hubs.1,
                    );
                    assert_eq!(got, want, "width {width}, depths {keep_depths}");
                }
            }
        }
    }

    /// [`owned_hubs`] by definition: the replicated hub table filtered
    /// by the owned range.
    fn owned_hubs_by_table_walk(part: &RankPartition) -> Vec<(usize, usize)> {
        let range = part.owned_range();
        let hubs = part.directory.hubs().iter().enumerate();
        hubs.filter(|(_, (v, _))| range.contains(v))
            .map(|(h, (v, _))| (h, (v - range.start) as usize))
            .collect()
    }

    /// [`owned_class_totals`] by definition: everything counts as L,
    /// then each owned hub of the table walk moves over.
    fn class_totals_by_table_walk(part: &RankPartition) -> (u64, [u64; 3]) {
        let degrees = &part.owned_degrees;
        let num_e = part.directory.num_e() as usize;
        let mut l_connected = degrees.iter().filter(|&&d| d > 0).count() as u64;
        let mut class_mass = [0, 0, degrees.iter().map(|&d| d as u64).sum()];
        for (h, li) in owned_hubs_by_table_walk(part) {
            let d = degrees[li] as u64;
            l_connected -= (d > 0) as u64;
            class_mass[2] -= d;
            class_mass[if h < num_e { 0 } else { 1 }] += d;
        }
        (l_connected, class_mass)
    }

    /// [`assemble_owned`] by definition: the owned hubs of the table
    /// walk patched in, then one `tallies[b] += hit` and one
    /// `tallies[width + b] += hit * deg` per slot.
    fn assemble_by_table_walk(
        part: &RankPartition,
        width: usize,
        (mut parents, mut depths): (Vec<u64>, Vec<u32>),
        (hub_parents, hub_depths): (&[u64], &[u32]),
    ) -> (Vec<u64>, Vec<u32>, Vec<u64>) {
        for (h, li) in owned_hubs_by_table_walk(part) {
            let (from, to) = (h * width..(h + 1) * width, li * width..(li + 1) * width);
            parents[to.clone()].copy_from_slice(&hub_parents[from.clone()]);
            if !depths.is_empty() {
                depths[to].copy_from_slice(&hub_depths[from]);
            }
        }
        let mut tallies = vec![0u64; 2 * width];
        for (slots, &deg) in parents.chunks_exact(width).zip(&part.owned_degrees) {
            for (b, &p) in slots.iter().enumerate() {
                let hit = (p != INVALID_VERTEX) as u64;
                tallies[b] += hit;
                tallies[width + b] += hit * deg as u64;
            }
        }
        (parents, depths, tallies)
    }

    /// [`Engine::local_frontier_mass`] by definition: ask the directory
    /// for every active hub's vertex and test it against the owned
    /// range.
    fn frontier_mass_by_vertex_lookup<L: Lane>(
        part: &RankPartition,
        hub_set: &Bitmap,
        l_mass: u64,
    ) -> [u64; 3] {
        let dir = &part.directory;
        let range = part.owned_range();
        let num_e = dir.num_e() as u64;
        let mut mass = [0u64; 3];
        L::for_each_active(hub_set, 0, dir.num_hubs() as u64, |h, m| {
            let v = dir.vertex_of(h as u32);
            if range.contains(&v) {
                let d = part.owned_degrees[(v - range.start) as usize] as u64;
                mass[if h < num_e { 0 } else { 1 }] += d * L::weight(m);
            }
        });
        mass[2] = l_mass;
        mass
    }

    /// What the engine reads of a partition per root — its owned hubs,
    /// its class totals, the owned mass of a hub frontier — against the
    /// definitions above, on every rank of `cluster`.
    fn check_partition_reads(cluster: &Cluster, parts: &[RankPartition], what: &str) {
        let nh = parts[0].directory.num_hubs() as usize;
        let mut owned_anywhere = 0;
        for part in parts {
            let at = format!("{what}, rank {}", part.rank);
            let owned: Vec<(usize, usize)> = owned_hubs(part).collect();
            assert_eq!(owned, owned_hubs_by_table_walk(part), "{at}");
            assert_eq!(
                owned_class_totals(part),
                class_totals_by_table_walk(part),
                "{at}"
            );
            assert_eq!(
                owned_class_totals(part),
                class_totals_by_lookup(part),
                "{at}"
            );
            owned_anywhere += owned.len();
        }
        assert_eq!(owned_anywhere, nh, "{what}: every hub has one owner");
        let cfg = EngineConfig::default();
        cluster.run(|ctx| {
            let part = &parts[ctx.rank()];
            let at = format!("{what}, rank {}", part.rank);
            let mut rng = SplitMix64::new(ctx.rank() as u64);
            let (mut bit_scratch, mut word_scratch) = Default::default();
            let bits = Engine::new(ctx, part, cfg, Bit, &mut bit_scratch);
            let words = Engine::new(ctx, part, cfg, Word::new(5), &mut word_scratch);
            for _ in 0..4 {
                let (mut bit_set, mut word_set) =
                    (Bit::new_set(nh as u64), Word::new_set(nh as u64));
                for h in 0..nh as u64 {
                    if rng.next_below(3) == 0 {
                        Bit::insert(&mut bit_set, h, ());
                        Word::insert(&mut word_set, h, 1 + rng.next_below(31));
                    }
                }
                assert_eq!(
                    bits.local_frontier_mass(&bit_set, 7),
                    frontier_mass_by_vertex_lookup::<Bit>(part, &bit_set, 7),
                    "{at}"
                );
                assert_eq!(
                    words.local_frontier_mass(&word_set, 9),
                    frontier_mass_by_vertex_lookup::<Word>(part, &word_set, 9),
                    "{at}"
                );
            }
        });
    }

    #[test]
    fn partition_reads_match_the_hub_table_walk_however_the_partition_was_born() {
        use sunbfs_serve::{GraphSession, SessionConfig};
        let machine = MachineConfig::new_sunway();
        let mixed = Thresholds::new(64, 16);
        for shape in [MeshShape::new(2, 2), MeshShape::new(2, 3)] {
            // Built. On 2x3 a rank owns ⌈256/6⌉ = 43 vertices: neither
            // the blocks nor the row bases are word-aligned.
            for thresholds in [mixed, Thresholds::all_hubs(1 << 20), Thresholds::none()] {
                let parts = partitions(shape, thresholds);
                let what = format!("built {shape:?} {thresholds:?}");
                check_partition_reads(&Cluster::new(shape, machine), &parts, &what);
            }

            // Round-tripped through the store.
            let cfg = SessionConfig {
                mesh: shape,
                thresholds: mixed,
                ..SessionConfig::small(8, shape.num_ranks())
            };
            let mut session =
                GraphSession::load(cfg, sunbfs_net::FaultPlan::none()).expect("loads");
            let bytes = sunbfs_store::encode_store(&cfg.store_header(), session.partitions());
            let (_, reopened, _) =
                sunbfs_store::read_store(&mut std::io::Cursor::new(&bytes)).expect("decodes");
            check_partition_reads(session.cluster(), &reopened, &format!("reopened {shape:?}"));

            // Updated and compacted: a star around a vertex without an
            // edge promotes it, which compacts — the hub table is a
            // fresh build's over the deduplicated union.
            let isolated = session
                .partitions()
                .iter()
                .flat_map(|p| p.owned_range().zip(&p.owned_degrees))
                .find(|(_, &d)| d == 0)
                .expect("an isolated vertex")
                .0;
            let star: Vec<sunbfs_common::Edge> = (0..40)
                .map(|k| sunbfs_common::Edge::new(isolated, (isolated + 1 + k) % 256))
                .collect();
            session.apply_updates(&star).expect("commits");
            session.compact().expect("compacts");
            assert!(session.compactions() >= 1 && !session.has_delta());
            let compacted = session.partitions();
            assert!(compacted[0].directory.hub_id(isolated).is_some());
            check_partition_reads(
                session.cluster(),
                compacted,
                &format!("compacted {shape:?}"),
            );
        }
    }

    /// The measured L masses each iteration must have seen, from the
    /// traversal's outputs alone — a full walk over every `(vertex,
    /// root)` slot with none of the engine's bookkeeping: per iteration
    /// `k`, the L frontier's mass entering it (pairs of depth `k - 1`;
    /// roots are activated, not discovered, and never enter) and the
    /// unexplored L mass at its L2E sync (everything but the pairs of
    /// depth below `k` and the depth-`k` pairs E2L had just discovered
    /// — those whose parent is an E hub, since the first stamp wins).
    fn l_masses_from_outputs(parts: &[RankPartition], outs: &[BatchOutput]) -> Vec<(u64, u64)> {
        let dir = &parts[0].directory;
        let width = outs[0].num_roots;
        let iterations = outs[0].stats.iterations.len();
        let parents: Vec<u64> = outs
            .iter()
            .flat_map(|o| o.parents.iter().copied())
            .collect();
        // The `Bit` lane keeps no depths: chase its one parent tree.
        let depth_by_chase = |mut v: u64| {
            let mut d = 0;
            while parents[v as usize] != v {
                (v, d) = (parents[v as usize], d + 1);
            }
            d
        };
        let mut total = 0u64;
        let mut of_depth = vec![0u64; iterations + 1];
        let mut of_depth_by_e2l = vec![0u64; iterations + 1];
        for (part, out) in parts.iter().zip(outs) {
            for (li, (v, &deg)) in part.owned_range().zip(&part.owned_degrees).enumerate() {
                if dir.hub_id(v).is_some() {
                    continue;
                }
                total += deg as u64 * width as u64;
                for b in 0..width {
                    let parent = out.parents[li * width + b];
                    if parent == INVALID_VERTEX {
                        continue;
                    }
                    let depth = match out.depths.get(li * width + b) {
                        Some(&d) => d as usize,
                        None => depth_by_chase(v),
                    };
                    of_depth[depth] += deg as u64;
                    if dir.hub_id(parent).is_some_and(|h| h < dir.num_e()) {
                        of_depth_by_e2l[depth] += deg as u64;
                    }
                }
            }
        }
        (1..=iterations)
            .map(|k| {
                let frontier = if k == 1 { 0 } else { of_depth[k - 1] };
                let seen = of_depth[..k].iter().sum::<u64>() + of_depth_by_e2l[k];
                (frontier, total - seen)
            })
            .collect()
    }

    #[test]
    fn carried_l_masses_equal_a_full_walk_of_the_outputs() {
        let params = RmatParams::graph500(8, 42);
        let n = params.num_vertices();
        // Roots with an edge (sources of the generator's first edges);
        // width 8 and 64 batches with one duplicated root each.
        let edges = sunbfs_rmat::generate_chunk(&params, 0, 16);
        let mut roots64: Vec<u64> = edges.iter().map(|e| e.u).take(64).collect();
        roots64[63] = roots64[0];
        let mut roots8 = roots64[..8].to_vec();
        roots8[7] = roots8[2];
        let cfg = EngineConfig::default();
        assert_eq!(cfg.heuristic, DirectionHeuristic::Measured);
        for shape in [MeshShape::new(2, 2), MeshShape::new(2, 3)] {
            let nranks = (shape.rows * shape.cols) as u64;
            let ranks = Cluster::new(shape, MachineConfig::new_sunway()).run(|ctx| {
                let chunk = sunbfs_rmat::generate_chunk(&params, ctx.rank() as u64, nranks);
                let part = build_1p5d(ctx, n, &chunk, Thresholds::new(64, 16));
                let mut scratch = EngineScratch::default();
                let mut run = |roots: &[u64]| match roots.len() {
                    1 => Engine::new(ctx, &part, cfg, Bit, &mut scratch).run(ctx, roots, None),
                    nb => {
                        let lane = Word::new(nb);
                        Engine::new(ctx, &part, cfg, lane, &mut scratch).run(ctx, roots, None)
                    }
                };
                let outs = [run(&roots8[..1]), run(&roots8), run(&roots64)];
                (part, outs.map(|out| out.expect("terminates")))
            });
            let parts: Vec<RankPartition> = ranks.iter().map(|(p, _)| p.clone()).collect();
            for lane in 0..3 {
                let outs: Vec<BatchOutput> = ranks.iter().map(|(_, o)| o[lane].clone()).collect();
                let want = l_masses_from_outputs(&parts, &outs);
                assert!(
                    want.len() >= 3 && want.first().map(|m| m.1) > want.last().map(|m| m.1),
                    "{shape:?} lane {lane}: the unexplored L mass must shrink: {want:?}"
                );
                for out in &outs {
                    for (it, &(frontier, unexplored)) in out.stats.iterations.iter().zip(&want) {
                        let subs = &it.subs;
                        let at = format!("{shape:?} lane {lane} iteration {}", it.iter);
                        // L2E and L2L read the L frontier mass; H2L and
                        // L2L the unexplored L mass of the L2E sync.
                        assert_eq!(subs[2].frontier_edges, frontier, "{at}");
                        assert_eq!(subs[5].frontier_edges, frontier, "{at}");
                        assert_eq!(subs[3].unexplored_edges, unexplored, "{at}");
                        assert_eq!(subs[5].unexplored_edges, unexplored, "{at}");
                    }
                }
            }
            roots8.rotate_left(1);
            roots64.rotate_left(1);
        }
    }

    #[test]
    fn a_traversal_after_a_build_on_its_ctx_accounts_only_its_own_charges() {
        // The build's `prep.*` charges and the setup collective sit on
        // the ctx when the engine starts; neither is the traversal's.
        let params = RmatParams::graph500(8, 42);
        let n = params.num_vertices();
        let edges = sunbfs_rmat::generate_chunk(&params, 0, 16);
        let roots: Vec<u64> = edges.iter().map(|e| e.u).take(8).collect();
        let cfg = EngineConfig::default();
        let traverse = |ctx: &mut RankCtx, part: &RankPartition, roots: &[u64]| {
            let mut scratch = EngineScratch::default();
            let out = match roots.len() {
                1 => Engine::new(ctx, part, cfg, Bit, &mut scratch).run(ctx, roots, None),
                nb => {
                    let lane = Word::new(nb);
                    Engine::new(ctx, part, cfg, lane, &mut scratch).run(ctx, roots, None)
                }
            };
            out.expect("terminates").stats
        };
        let cluster = || Cluster::new(MeshShape::new(2, 2), MachineConfig::new_sunway());
        for (lane, roots) in [&roots[..1], &roots[..]].into_iter().enumerate() {
            let built = cluster().run(|ctx| {
                let chunk = sunbfs_rmat::generate_chunk(&params, ctx.rank() as u64, 4);
                let part = build_1p5d(ctx, n, &chunk, Thresholds::new(64, 16));
                assert!(ctx.accumulator().total_with_prefix("prep.").as_secs() > 0.0);
                let stats = traverse(ctx, &part, roots);
                (part, stats)
            });
            let parts: Vec<RankPartition> = built.iter().map(|(p, _)| p.clone()).collect();
            let fresh = cluster().run(|ctx| traverse(ctx, &parts[ctx.rank()], roots));
            for ((_, got), want) in built.iter().zip(&fresh) {
                assert_eq!(got.comm, want.comm, "lane {lane}");
                for (key, _) in got.comm.entries() {
                    let key = key.to_string();
                    assert!(
                        !key.contains("prep.") && !key.contains("heur.totals"),
                        "{key}"
                    );
                }
                assert!(got.times.entries().next().is_some(), "lane {lane}");
                for (key, secs) in got.times.entries() {
                    let key = key.to_string();
                    assert!(secs > 0.0 && !key.starts_with("prep."), "{key}: {secs}");
                }
            }
        }
    }

    #[test]
    fn engine_error_formats() {
        let e = EngineError::NonTermination { iterations: 1001 };
        assert!(e.to_string().contains("1001 iterations"));
    }
}
