//! The session-persistent graph: generate + partition once, query many.
//!
//! [`GraphSession::load`] pays the R-MAT generation and 1.5D partition
//! build exactly once, keeps each rank's [`RankPartition`] resident on
//! the driver side, and hands out traversals against it for as long as
//! the session lives — to the query service and to the Graph 500 driver
//! alike. The underlying [`Cluster`] is reusable across SPMD runs (its
//! collective counters reset per run), so one session serves an
//! unbounded stream of queries — and because planned fault events fire
//! at most once per cluster lifetime, a root that loses a rank is simply
//! retried on the healed cluster without touching the resident
//! partition ([`GraphSession::run_root`]).
//!
//! The build is no longer the only way in: [`GraphSession::save`]
//! serializes the resident partition into the paged, checksummed
//! `sunbfs-store` file format, [`GraphSession::open`] loads one back
//! (refusing damage or a header that disagrees with the requested
//! [`SessionConfig`] with a typed error), and
//! [`GraphSession::open_or_build`] is the restart-economics entry
//! point: open the file when it matches, otherwise build once and
//! save for next time. What happened is recorded in
//! [`StoreActivity`] so reports can show cold-build versus warm-open
//! wall seconds.
//!
//! The graph is no longer frozen either: [`GraphSession::apply_updates`]
//! commits a batched edge-insert into the session's `sunbfs-mutate`
//! [`Delta`] and bumps the session **epoch** (a monotone count of
//! committed batches). A commit is all-or-nothing: when the compaction
//! it triggers loses a rank, the delta and the epoch stay as they were.
//! Updates are only ever applied by the single service thread between
//! query batches, so every query runs against a consistent snapshot
//! and is stamped with the epoch it saw. Cached
//! base-graph results are patched by incremental repair
//! ([`GraphSession::repair_result`]); a delta that grows past
//! [`DELTA_COMPACT_THRESHOLD`] entries — or any degree-class promotion
//! — triggers [`GraphSession::compact`], which rebuilds the base CSRs
//! from the union edge list, byte-identical to a fresh build over it
//! (`docs/UPDATES.md`).

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use sunbfs_common::{json_record, Edge, MachineConfig};
use sunbfs_core::{
    BatchOutput, BfsOutput, CheckpointStore, EngineConfig, EngineError, EngineScratch,
};
use sunbfs_mutate::{canonical_edge_set, repair_in_place, Delta, RepairStats, UnionAdjacency};
use sunbfs_net::{all_ranks_ok, Cluster, FaultPlan, MeshShape, RankCtx, RankFailure};
use sunbfs_part::{build_1p5d, ComponentStats, RankPartition, Thresholds, VertexDistribution};
use sunbfs_rmat::RmatParams;
use sunbfs_store::{StoreError, StoreHeader, StoreInfo};

/// Delta entries that trigger a compaction on the next committed batch.
/// Sized so the repair pass stays cheap relative to a recompute while
/// compactions stay rare under soak-level update rates.
pub const DELTA_COMPACT_THRESHOLD: u64 = 4096;

/// Everything a session needs to materialize its graph.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Graph 500 SCALE (`2^scale` vertices).
    pub scale: u32,
    /// Edges per vertex (spec: 16).
    pub edge_factor: u32,
    /// Mesh of simulated ranks.
    pub mesh: MeshShape,
    /// E/H degree thresholds.
    pub thresholds: Thresholds,
    /// Engine technique toggles (shared by batch and fallback paths).
    pub engine: EngineConfig,
    /// Machine constants.
    pub machine: MachineConfig,
    /// Generator seed.
    pub seed: u64,
    /// SPMD attempts [`GraphSession::load`] may spend before giving up
    /// (a planned fault can fire during the build; it is consumed by
    /// the failed attempt, so a bounded retry normally heals the load).
    pub max_load_attempts: u32,
}

impl SessionConfig {
    /// A laptop-scale session.
    pub fn small(scale: u32, ranks: usize) -> Self {
        SessionConfig {
            scale,
            edge_factor: 16,
            mesh: MeshShape::near_square(ranks),
            thresholds: Thresholds::new(256, 64),
            engine: EngineConfig::default(),
            machine: MachineConfig::new_sunway(),
            seed: 42,
            max_load_attempts: 3,
        }
    }

    /// The generator parameters this session materializes.
    pub fn rmat(&self) -> RmatParams {
        let mut p = RmatParams::graph500(self.scale, self.seed);
        p.edge_factor = self.edge_factor;
        p
    }

    /// The store-file header this configuration demands — what
    /// [`GraphSession::open`] checks a file against before trusting
    /// its graph. The epoch is graph *state*, not configuration: it is
    /// zero here, and [`GraphSession::save`] stamps the session's live
    /// epoch over it.
    pub fn store_header(&self) -> StoreHeader {
        StoreHeader {
            scale: u64::from(self.scale),
            edge_factor: u64::from(self.edge_factor),
            mesh_rows: self.mesh.rows as u64,
            mesh_cols: self.mesh.cols as u64,
            e_threshold: u64::from(self.thresholds.e),
            h_threshold: u64::from(self.thresholds.h),
            seed: self.seed,
            num_ranks: self.mesh.num_ranks() as u64,
            epoch: 0,
        }
    }
}

/// Loading the resident graph failed on every allowed attempt.
#[derive(Debug)]
pub struct LoadError {
    /// SPMD attempts spent.
    pub attempts: u32,
    /// Rank failures observed on the final attempt.
    pub failures: Vec<RankFailure>,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "graph load failed after {} attempts ({} rank failures on the last)",
            self.attempts,
            self.failures.len()
        )
    }
}

impl std::error::Error for LoadError {}

/// A fresh engine scratch for every rank of `cfg`'s mesh.
fn new_scratch(cfg: &SessionConfig) -> Arc<[Mutex<EngineScratch>]> {
    (0..cfg.mesh.num_ranks())
        .map(|_| Mutex::default())
        .collect()
}

/// The calling rank's engine scratch, held for one traversal. A rank
/// that panicked mid-traversal poisons its lock; the scratch holds only
/// emptied spare buffers, so the next traversal takes it as it stands.
fn rank_scratch<'s>(
    scratch: &'s [Mutex<EngineScratch>],
    ctx: &RankCtx,
) -> MutexGuard<'s, EngineScratch> {
    scratch[ctx.rank()]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The error of a one-attempt SPMD pass (a compaction) that lost ranks.
fn lost_ranks(failures: Vec<RankFailure>) -> SessionError {
    SessionError::Load(LoadError {
        attempts: 1,
        failures,
    })
}

/// Opening or building a session failed.
#[derive(Debug)]
pub enum SessionError {
    /// The fresh build lost ranks on every allowed attempt.
    Load(LoadError),
    /// The store file was damaged, mismatched, or unwritable.
    Store(StoreError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Load(e) => e.fmt(f),
            SessionError::Store(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<LoadError> for SessionError {
    fn from(e: LoadError) -> Self {
        SessionError::Load(e)
    }
}

impl From<StoreError> for SessionError {
    fn from(e: StoreError) -> Self {
        SessionError::Store(e)
    }
}

json_record! {
    /// What the persistent partition store did for this session — the
    /// record behind the metrics JSON `store` section.
    #[derive(Clone, Debug)]
    pub struct StoreActivity {
        /// The store file involved.
        pub path: String,
        /// True when the resident partition was decoded from the file.
        pub opened: bool,
        /// True when the resident partition was written to the file.
        pub saved: bool,
        /// Store file size in bytes.
        pub file_bytes: u64,
        /// Store file size in pages.
        pub pages: u64,
        /// Wall seconds the fresh generate + partition build took (present
        /// only when this session built, i.e. the cold path).
        pub cold_build_wall_seconds: Option<f64>,
        /// Wall seconds the file open + decode took (present only when
        /// this session opened, i.e. the warm path).
        pub warm_open_wall_seconds: Option<f64>,
    }
}

/// Why a root was given up on instead of served.
#[derive(Clone, Debug)]
pub struct Quarantine {
    /// Stable category label (`engine` / `rank_failure` / `tree` /
    /// `validation`).
    pub label: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl Quarantine {
    /// A replicated engine error: every rank returned it together.
    pub fn engine(e: EngineError) -> Self {
        Quarantine {
            label: "engine",
            detail: e.to_string(),
        }
    }
}

/// What one root cost and produced on [`GraphSession::run_root`].
#[derive(Debug)]
pub struct RootTraversal {
    /// SPMD attempts spent (1 = clean first run).
    pub attempts: u32,
    /// BFS iterations the final attempt resumed from a checkpoint
    /// instead of re-running (0 = it started at the root).
    pub iterations_salvaged: u32,
    /// Iteration checkpoints taken across all attempts.
    pub checkpoints_taken: u64,
    /// Every rank's output in rank order, or why there is none.
    pub result: Result<Vec<BfsOutput>, Quarantine>,
}

/// A resident graph: one cluster plus every rank's partition, built
/// once and shared with each query run. Every run — the build, a
/// compaction, a single-source root, a batch — goes to the cluster's
/// resident rank threads ([`Cluster::run_resident`]), so a loop of
/// roots or batches spawns no thread, and each rank's traversals reuse
/// its thread's allocator arena. Both kinds of traversal draw their
/// scan buffers from the session's per-rank [`EngineScratch`].
pub struct GraphSession {
    cfg: SessionConfig,
    cluster: Cluster,
    parts: Arc<[RankPartition]>,
    /// One engine scratch per rank. A cluster runs one job at a time,
    /// so each rank's lock is taken once per traversal, uncontended.
    scratch: Arc<[Mutex<EngineScratch>]>,
    /// Per-rank component sizes of the resident partition.
    pub partition_stats: Vec<ComponentStats>,
    /// Simulated seconds the (successful) build took, max over ranks.
    /// Zero for a session opened from a store file.
    pub build_sim_seconds: f64,
    /// Simulated seconds spent across *all* build attempts, failed
    /// ones included — `>= build_sim_seconds` whenever a transient
    /// fault forced a retry, so degraded loads report their real cost.
    pub load_sim_seconds: f64,
    /// SPMD attempts the load spent (1 = clean first build, 0 = the
    /// partition was opened from a store file, no build at all).
    pub load_attempts: u32,
    /// What the persistent store did for this session, when a store
    /// path was involved at all.
    pub store: Option<StoreActivity>,
    /// Wall seconds the fresh build took (None when opened from file).
    build_wall_seconds: Option<f64>,
    /// Every committed insert since the last compaction: the seed set
    /// for incremental repair and the delta half of the compaction
    /// union.
    delta: Delta,
    /// Monotone count of committed update batches.
    epoch: u64,
    /// Compactions performed over the session's lifetime.
    compactions: u64,
}

impl GraphSession {
    /// Generate the R-MAT graph and build the 1.5D partition, retrying
    /// up to `cfg.max_load_attempts` times when a (transient) fault
    /// takes a rank down mid-build.
    ///
    /// # Errors
    /// [`LoadError`] when every attempt lost at least one rank.
    pub fn load(cfg: SessionConfig, plan: FaultPlan) -> Result<GraphSession, LoadError> {
        let wall0 = Instant::now();
        let params = cfg.rmat();
        let n = params.num_vertices();
        let p = cfg.mesh.num_ranks() as u64;
        let cluster = Cluster::with_faults(cfg.mesh, cfg.machine, plan);
        let budget = cfg.max_load_attempts.max(1);
        let mut attempts = 0;
        let mut load_sim_seconds = 0.0;
        // The build runs on the threads that will run the roots.
        let thresholds = cfg.thresholds;
        let build = Arc::new(move |ctx: &mut RankCtx| {
            let t0 = ctx.now();
            let chunk = sunbfs_rmat::generate_chunk(&params, ctx.rank() as u64, p);
            let part = build_1p5d(ctx, n, chunk, thresholds);
            ((ctx.now() - t0).as_secs(), part)
        });
        loop {
            attempts += 1;
            let faults_before = cluster.fault_log().len();
            let outcome = all_ranks_ok(cluster.run_resident(Arc::clone(&build)));
            // Every attempt's simulated cost counts — a failed attempt
            // still burned build time before unwinding, and hiding it
            // would make a `load_attempts = 3` session look as cheap
            // as a clean one. A failed attempt returns no rank
            // timings (every rank unwinds at the poisoned collective),
            // so its cost is taken from the fault log: the simulated
            // clock at the moment the attempt's fault(s) fired.
            let attempt_sim_seconds = match &outcome {
                Ok(oks) => oks.iter().map(|(s, _)| *s).fold(0.0, f64::max),
                Err(_) => cluster.fault_log()[faults_before..]
                    .iter()
                    .map(|f| f.sim_seconds)
                    .fold(0.0, f64::max),
            };
            load_sim_seconds += attempt_sim_seconds;
            match outcome {
                Ok(oks) => {
                    let parts: Arc<[RankPartition]> = oks.into_iter().map(|(_, p)| p).collect();
                    let partition_stats = parts.iter().map(|p| p.stats).collect();
                    return Ok(GraphSession {
                        cfg,
                        cluster,
                        parts,
                        scratch: new_scratch(&cfg),
                        partition_stats,
                        build_sim_seconds: attempt_sim_seconds,
                        load_sim_seconds,
                        load_attempts: attempts,
                        store: None,
                        build_wall_seconds: Some(wall0.elapsed().as_secs_f64()),
                        delta: Delta::default(),
                        epoch: 0,
                        compactions: 0,
                    });
                }
                Err(failures) if attempts >= budget => {
                    return Err(LoadError { attempts, failures })
                }
                Err(_) => {}
            }
        }
    }

    /// Open a previously saved partition store instead of rebuilding:
    /// verify every page and stream seal, check the header against
    /// `cfg`, and decode each rank's partition by streamed sequential
    /// reads.
    ///
    /// # Errors
    /// A typed [`StoreError`] (wrapped in [`SessionError::Store`]) on
    /// any damage or on a header that describes a different graph than
    /// `cfg` — never a wrong graph. A store saved at a non-zero epoch
    /// (a mutated graph) is refused too: callers who expect mutations
    /// use [`Self::open_expecting_epoch`].
    pub fn open(
        path: &Path,
        cfg: SessionConfig,
        plan: FaultPlan,
    ) -> Result<GraphSession, SessionError> {
        Self::open_expecting_epoch(path, cfg, plan, 0)
    }

    /// [`Self::open`] for a store known to hold a mutated graph: the
    /// file's epoch must equal `expected_epoch` exactly. The refusal on
    /// mismatch is typed (`HeaderMismatch { field: "epoch", .. }`) —
    /// never a silently stale graph.
    ///
    /// # Errors
    /// As [`Self::open`], plus the epoch refusal.
    pub fn open_expecting_epoch(
        path: &Path,
        cfg: SessionConfig,
        plan: FaultPlan,
        expected_epoch: u64,
    ) -> Result<GraphSession, SessionError> {
        let wall0 = Instant::now();
        let (header, parts, info) = sunbfs_store::open_file(path)?;
        header.check_matches(&cfg.store_header())?;
        header.check_epoch(expected_epoch)?;
        Ok(Self::from_opened(
            path,
            cfg,
            plan,
            parts,
            info,
            header.epoch,
            wall0.elapsed().as_secs_f64(),
        ))
    }

    /// Assemble a session around partitions decoded from `path`. The
    /// decoded CSRs are always a compacted graph (saving compacts
    /// first), so the session starts with an empty delta at `epoch`.
    fn from_opened(
        path: &Path,
        cfg: SessionConfig,
        plan: FaultPlan,
        parts: Vec<RankPartition>,
        info: StoreInfo,
        epoch: u64,
        warm_open_wall_seconds: f64,
    ) -> GraphSession {
        let cluster = Cluster::with_faults(cfg.mesh, cfg.machine, plan);
        let partition_stats = parts.iter().map(|p| p.stats).collect();
        GraphSession {
            cfg,
            cluster,
            parts: parts.into(),
            scratch: new_scratch(&cfg),
            partition_stats,
            build_sim_seconds: 0.0,
            load_sim_seconds: 0.0,
            load_attempts: 0,
            store: Some(StoreActivity {
                path: path.display().to_string(),
                opened: true,
                saved: false,
                file_bytes: info.file_bytes,
                pages: info.pages,
                cold_build_wall_seconds: None,
                warm_open_wall_seconds: Some(warm_open_wall_seconds),
            }),
            build_wall_seconds: None,
            delta: Delta::default(),
            epoch,
            compactions: 0,
        }
    }

    /// The restart-economics entry point: [`Self::open`] when `path`
    /// holds a matching store, else build fresh ([`Self::load`]) and
    /// save the result to `path` for the next restart.
    ///
    /// A missing file and a header describing a different graph both
    /// take the build-and-save path (the file is overwritten with the
    /// requested graph); *damage* — bad magic, truncation, a failed
    /// checksum — is surfaced as a typed error instead of being
    /// silently rebuilt over, because a store that rots on disk is
    /// something an operator must hear about. A matching store saved
    /// at a non-zero epoch is *adopted* (the session resumes at that
    /// epoch) — the epoch names graph state, not a different graph,
    /// and rebuilding over it would silently discard committed
    /// updates.
    ///
    /// # Errors
    /// [`SessionError::Load`] when the fresh build fails,
    /// [`SessionError::Store`] on damage or on a failed save.
    pub fn open_or_build(
        path: &Path,
        cfg: SessionConfig,
        plan: FaultPlan,
    ) -> Result<GraphSession, SessionError> {
        let wall0 = Instant::now();
        let build_and_save = |plan: FaultPlan| -> Result<GraphSession, SessionError> {
            let mut session = Self::load(cfg, plan)?;
            session.save(path)?;
            Ok(session)
        };
        match sunbfs_store::open_file(path) {
            Ok((header, parts, info)) => match header.check_matches(&cfg.store_header()) {
                Ok(()) => Ok(Self::from_opened(
                    path,
                    cfg,
                    plan,
                    parts,
                    info,
                    header.epoch,
                    wall0.elapsed().as_secs_f64(),
                )),
                Err(StoreError::HeaderMismatch { .. }) => build_and_save(plan),
                Err(e) => Err(e.into()),
            },
            Err(StoreError::Io {
                kind: std::io::ErrorKind::NotFound,
                ..
            }) => build_and_save(plan),
            Err(e) => Err(e.into()),
        }
    }

    /// Serialize the resident partition to `path` in the paged store
    /// format, recording the write in [`Self::store`]. A mutated
    /// session compacts its delta first, so the stored CSRs always
    /// describe the full union graph; the header is stamped with the
    /// session's live epoch, and reopening demands that same epoch
    /// ([`Self::open_expecting_epoch`]).
    ///
    /// # Errors
    /// [`SessionError::Store`] when the file cannot be written,
    /// [`SessionError::Load`] when the pre-save compaction loses ranks.
    pub fn save(&mut self, path: &Path) -> Result<StoreInfo, SessionError> {
        if self.has_delta() {
            self.compact()?;
        }
        let header = StoreHeader {
            epoch: self.epoch,
            ..self.cfg.store_header()
        };
        let info = sunbfs_store::save_file(path, &header, &self.parts)?;
        let activity = self.store.get_or_insert_with(|| StoreActivity {
            path: String::new(),
            opened: false,
            saved: false,
            file_bytes: 0,
            pages: 0,
            cold_build_wall_seconds: None,
            warm_open_wall_seconds: None,
        });
        activity.path = path.display().to_string();
        activity.saved = true;
        activity.file_bytes = info.file_bytes;
        activity.pages = info.pages;
        activity.cold_build_wall_seconds = self.build_wall_seconds;
        Ok(info)
    }

    /// The configuration this session was loaded with.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Total vertices in the resident graph.
    pub fn num_vertices(&self) -> u64 {
        self.cfg.rmat().num_vertices()
    }

    /// Number of ranks holding the partition.
    pub fn num_ranks(&self) -> usize {
        self.cfg.mesh.num_ranks()
    }

    /// The block distribution of the resident graph (for assembling
    /// rank-local slices into global arrays).
    pub fn distribution(&self) -> VertexDistribution {
        VertexDistribution::new(self.num_vertices(), self.num_ranks())
    }

    /// The underlying cluster (fault/retransmit logs, topology).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Every rank's resident base partition.
    pub fn partitions(&self) -> &[RankPartition] {
        &self.parts
    }

    /// The inserts committed since the last compaction (empty right
    /// after one).
    pub fn delta(&self) -> &Delta {
        &self.delta
    }

    /// Committed-but-uncompacted inserts, canonical and in commit
    /// order — the seed set incremental repair re-expands from.
    pub fn delta_log(&self) -> &[Edge] {
        self.delta.log()
    }

    /// Monotone count of committed update batches.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Compactions performed over the session's lifetime.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// True when committed updates are still resident in the delta.
    pub fn has_delta(&self) -> bool {
        !self.delta.is_empty()
    }

    /// Component entries the delta stands for ([`Delta::entries`]).
    pub fn delta_entries(&self) -> u64 {
        self.delta.entries()
    }

    /// Commit one batched edge-insert and bump the epoch.
    ///
    /// The batch goes into a copy of the session's [`Delta`] on the
    /// calling thread; no collective runs for it. When the batch
    /// promotes a vertex across a degree-class threshold — or the delta
    /// reaches [`DELTA_COMPACT_THRESHOLD`] entries — the commit
    /// finishes with a [`Self::compact`]: hub ids are assigned in
    /// global degree-sorted order, so the base should describe the
    /// class layout of the real degrees.
    ///
    /// The commit is all-or-nothing: the copy replaces the session's
    /// delta only once that compaction succeeded, so a lost rank leaves
    /// the delta, the base partition and the epoch exactly as they were
    /// and surfaces as a typed error.
    ///
    /// Callers serialize commits against queries (the service applies
    /// updates only between query batches on its single service
    /// thread), which is what makes every reply's stamped epoch a
    /// consistent snapshot.
    ///
    /// # Errors
    /// [`SessionError::Load`] when the triggered compaction loses
    /// ranks.
    pub fn apply_updates(&mut self, batch: &[Edge]) -> Result<u64, SessionError> {
        let mut delta = self.delta.clone();
        let promoted = delta.insert(batch, &self.parts, self.cfg.thresholds);
        let prior = std::mem::replace(&mut self.delta, delta);
        if promoted || self.delta.entries() >= DELTA_COMPACT_THRESHOLD {
            if let Err(e) = self.compact() {
                self.delta = prior;
                return Err(e);
            }
        }
        self.epoch += 1;
        Ok(self.epoch)
    }

    /// Merge the delta into the base CSRs by rebuilding the
    /// 1.5D partition over the union edge list — byte-identical to a
    /// fresh build over that list, because both run the very same
    /// `build_1p5d` over the very same sorted, deduplicated canonical
    /// edge array (`canonical_edge_set`) in the same rank-strided
    /// chunks: rank `r` takes elements `r, r + p, r + 2p, …`.
    ///
    /// # Errors
    /// [`SessionError::Load`] when the rebuild loses ranks; the session
    /// keeps its pre-compaction state in that case.
    pub fn compact(&mut self) -> Result<(), SessionError> {
        let n = self.num_vertices();
        let p = self.num_ranks();
        let union_edges = Arc::new(canonical_edge_set(&self.parts, self.delta.log()));
        let thresholds = self.cfg.thresholds;
        let parts: Vec<RankPartition> = all_ranks_ok(self.cluster.run_resident(Arc::new(
            move |ctx: &mut RankCtx| {
                let chunk: Vec<Edge> = union_edges
                    .iter()
                    .skip(ctx.rank())
                    .step_by(p)
                    .map(|&(u, v)| Edge::new(u, v))
                    .collect();
                build_1p5d(ctx, n, chunk, thresholds)
            },
        )))
        .map_err(lost_ranks)?;
        self.partition_stats = parts.iter().map(|part| part.stats).collect();
        self.parts = parts.into();
        self.delta = Delta::default();
        self.compactions += 1;
        Ok(())
    }

    /// Incrementally repair a cached base-graph BFS result against the
    /// resident delta: re-expand only from insert endpoints whose depth
    /// improves, mutating `parents`/`depths` in place into the exact
    /// answer over the union graph. A no-op (zero seeds) when the
    /// delta is empty.
    pub fn repair_result(&self, parents: &mut [u64], depths: &mut [u64]) -> RepairStats {
        let adj = UnionAdjacency::new(&self.parts, &self.delta);
        repair_in_place(&adj, self.delta.log(), parents, depths)
    }

    /// Sequential reference BFS over the union graph (base + delta) —
    /// the oracle the repair path is validated against.
    pub fn union_bfs(&self, root: u64) -> (Vec<u64>, Vec<u64>) {
        UnionAdjacency::new(&self.parts, &self.delta).full_bfs(root)
    }

    /// One bit-parallel multi-source traversal over the resident
    /// partition. Rank-indexed results; an `Err` entry is a lost rank
    /// (callers fall back to [`Self::run_root`]), an inner `Err` is a
    /// replicated engine error.
    pub fn run_batch(
        &self,
        roots: &[u64],
    ) -> Vec<Result<Result<BatchOutput, EngineError>, RankFailure>> {
        let (parts, scratch) = (Arc::clone(&self.parts), Arc::clone(&self.scratch));
        let (roots, engine): (Arc<[u64]>, _) = (roots.into(), self.cfg.engine);
        self.cluster
            .run_resident(Arc::new(move |ctx: &mut RankCtx| {
                let part = &parts[ctx.rank()];
                rank_scratch(&scratch, ctx).run_batch(ctx, part, &roots, &engine)
            }))
    }

    /// One single-source traversal, one attempt, no checkpoints (the
    /// sequential baseline path).
    pub fn run_single(
        &self,
        root: u64,
    ) -> Vec<Result<Result<BfsOutput, EngineError>, RankFailure>> {
        self.traverse(root, None)
    }

    fn traverse(
        &self,
        root: u64,
        checkpoints: Option<Arc<CheckpointStore>>,
    ) -> Vec<Result<Result<BfsOutput, EngineError>, RankFailure>> {
        let (parts, scratch) = (Arc::clone(&self.parts), Arc::clone(&self.scratch));
        let engine = self.cfg.engine;
        self.cluster
            .run_resident(Arc::new(move |ctx: &mut RankCtx| {
                let (part, checkpoints) = (&parts[ctx.rank()], checkpoints.as_deref());
                rank_scratch(&scratch, ctx).run_bfs(ctx, part, root, &engine, checkpoints)
            }))
    }

    /// One root, recoverably: single-source traversals on the resident
    /// partition until one completes or `1 + max_retries` attempts lost
    /// a rank. The Graph 500 driver runs every root through here and the
    /// service every rider of a degraded batch.
    ///
    /// Planned faults fire once per cluster lifetime, so a retry runs on
    /// the healed cluster. While the cluster's fault plan is live, every
    /// completed iteration is checkpointed and a retry resumes from the
    /// last checkpoint common to all ranks instead of the root; with no
    /// plan there is nothing to recover from and no checkpoint is paid
    /// for. `on_retry` is called with the attempts spent so far before
    /// each retry (the driver's backoff hook).
    pub fn run_root(
        &self,
        root: u64,
        max_retries: u32,
        on_retry: &mut dyn FnMut(u32),
    ) -> RootTraversal {
        let store = (!self.cluster.fault_plan().is_empty())
            .then(|| Arc::new(CheckpointStore::new(self.num_ranks())));
        let mut attempts = 0u32;
        let mut iterations_salvaged = 0;
        let result = loop {
            attempts += 1;
            // What this attempt inherits: the iterations it will NOT
            // re-run. Zero on the first attempt (empty store).
            if let Some(resumable) = store.as_deref().and_then(CheckpointStore::common_iter) {
                iterations_salvaged = resumable;
            }
            match all_ranks_ok(self.traverse(root, store.clone())) {
                // Engine errors are replicated: either every rank
                // returned the same `Err`, or every rank has an output.
                Ok(outs) => {
                    let outs: Result<Vec<BfsOutput>, EngineError> = outs.into_iter().collect();
                    break outs.map_err(Quarantine::engine);
                }
                Err(failures) if attempts > max_retries => {
                    let named: Vec<String> = failures
                        .iter()
                        .filter(|f| f.is_root_cause())
                        .map(|f| f.to_string())
                        .collect();
                    break Err(Quarantine {
                        label: "rank_failure",
                        detail: format!("{attempts} attempts exhausted: {}", named.join("; ")),
                    });
                }
                Err(_) => on_retry(attempts),
            }
        };
        RootTraversal {
            attempts,
            iterations_salvaged,
            checkpoints_taken: store.map_or(0, |s| s.saves()),
            result,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunbfs_net::{FaultEvent, FaultKind};

    #[test]
    fn session_loads_once_and_serves_repeatedly() {
        let session =
            GraphSession::load(SessionConfig::small(8, 4), FaultPlan::none()).expect("clean load");
        assert_eq!(session.load_attempts, 1);
        assert_eq!(session.partition_stats.len(), 4);
        // Two traversals against the same resident partition.
        for root in [1u64, 2] {
            let outs = session.run_batch(&[root]);
            for r in outs {
                r.expect("no rank failure").expect("terminates");
            }
        }
    }

    #[test]
    fn load_retries_through_a_transient_build_fault() {
        // A panic early in the build (op 1) kills the first attempt;
        // fire-once semantics heal the retry.
        let plan = FaultPlan::from_events(vec![FaultEvent {
            rank: 1,
            op_index: 1,
            kind: FaultKind::Panic,
        }]);
        let session =
            GraphSession::load(SessionConfig::small(8, 4), plan).expect("retry heals the load");
        assert_eq!(session.load_attempts, 2);
        assert_eq!(session.cluster().fault_log().len(), 1);
    }

    #[test]
    fn failed_attempts_accumulate_into_load_sim_seconds() {
        // A late-build panic lets the other ranks finish real work on
        // the failed attempt, so the accumulated load cost must exceed
        // the successful attempt's build cost alone.
        let plan = FaultPlan::from_events(vec![FaultEvent {
            rank: 1,
            op_index: 6,
            kind: FaultKind::Panic,
        }]);
        let session = GraphSession::load(SessionConfig::small(8, 4), plan).expect("retry heals");
        assert_eq!(session.load_attempts, 2);
        assert!(
            session.load_sim_seconds > session.build_sim_seconds,
            "failed attempt's sim seconds ({} total) must be visible beyond the \
             clean build's {}",
            session.load_sim_seconds,
            session.build_sim_seconds
        );

        let clean =
            GraphSession::load(SessionConfig::small(8, 4), FaultPlan::none()).expect("clean load");
        assert_eq!(clean.load_attempts, 1);
        assert_eq!(clean.load_sim_seconds, clean.build_sim_seconds);
    }

    #[test]
    fn run_root_retries_on_the_resident_partition_then_quarantines() {
        let session =
            GraphSession::load(SessionConfig::small(8, 4), FaultPlan::none()).expect("clean load");
        let panic_at_start = || FaultEvent {
            rank: 1,
            op_index: 0,
            kind: FaultKind::Panic,
        };
        // No plan: one attempt, nothing checkpointed.
        let clean = session.run_root(1, 2, &mut |_| panic!("no retry on a clean run"));
        assert_eq!((clean.attempts, clean.checkpoints_taken), (1, 0));
        let clean_parents: Vec<Vec<u64>> = clean
            .result
            .expect("clean traversal")
            .into_iter()
            .map(|o| o.parents)
            .collect();

        // A transient panic costs one retry — of the traversal only.
        session.cluster().fault_plan().inject([panic_at_start()]);
        let mut retries = Vec::new();
        let healed = session.run_root(1, 2, &mut |attempts| retries.push(attempts));
        assert_eq!(healed.attempts, 2);
        assert_eq!(retries, vec![1]);
        assert!(healed.checkpoints_taken > 0, "a live plan checkpoints");
        let healed_parents: Vec<Vec<u64>> = healed
            .result
            .expect("the retry heals")
            .into_iter()
            .map(|o| o.parents)
            .collect();
        assert_eq!(healed_parents, clean_parents);
        assert!(session
            .cluster()
            .fault_log()
            .iter()
            .all(|f| !f.op.starts_with("prep.")));

        // No budget left: quarantined with the attempt count.
        session.cluster().fault_plan().inject([panic_at_start()]);
        let lost = session.run_root(1, 0, &mut |_| panic!("no budget, no retry"));
        let q = lost.result.expect_err("budget exhausted");
        assert_eq!((lost.attempts, q.label), (1, "rank_failure"));
        assert!(q.detail.contains("rank 1: injected panic"), "{q:?}");
    }

    #[test]
    fn a_reused_or_poisoned_scratch_carries_nothing_into_a_run() {
        let cfg = SessionConfig::small(10, 4);
        let load = || GraphSession::load(cfg, FaultPlan::none()).expect("clean load");
        // Every rank's output rendered whole: parents, depths and every
        // statistic, byte for byte.
        let root = |s: &GraphSession, r: u64| {
            let result = s.run_root(r, 0, &mut |_| {}).result;
            format!("{:?}", result.expect("root served"))
        };
        let batch = |s: &GraphSession, roots: &[u64]| format!("{:?}", s.run_batch(roots));
        let session = load();
        let (a, b, n) = (1, 2, session.num_vertices());
        let x: Vec<u64> = (0..64).map(|i| i * 13 % n).collect();
        let reused = [
            root(&session, a),
            root(&session, b),
            root(&session, a),
            batch(&session, &x),
            root(&session, b),
            batch(&session, &x),
        ];
        let fresh = [
            root(&load(), a),
            root(&load(), b),
            root(&load(), a),
            batch(&load(), &x),
            root(&load(), b),
            batch(&load(), &x),
        ];
        for (i, (got, want)) in reused.iter().zip(&fresh).enumerate() {
            assert!(
                got == want,
                "run {i} on a reused scratch differs from a fresh one"
            );
        }
        let kept = |rank: usize| {
            let scratch = session.scratch[rank].lock();
            scratch
                .unwrap_or_else(PoisonError::into_inner)
                .retained_bytes()
        };
        assert!(kept(1) > 0, "the scratch kept no buffer between runs");

        // Rank 1 panics mid-batch, holding its scratch lock.
        session.cluster().fault_plan().inject([FaultEvent {
            rank: 1,
            op_index: 5,
            kind: FaultKind::Panic,
        }]);
        assert!(
            session.run_batch(&x).iter().any(Result::is_err),
            "rank 1 was lost"
        );
        assert!(session.scratch[1].is_poisoned());
        assert!(batch(&session, &x) == fresh[3], "batch after the panic");
        assert!(root(&session, b) == fresh[1], "root after the panic");
    }

    fn temp_store(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sunbfs_session_{tag}_{}.sbfs", std::process::id()))
    }

    #[test]
    fn save_then_open_restores_the_same_partition() {
        let cfg = SessionConfig::small(8, 4);
        let mut built = GraphSession::load(cfg, FaultPlan::none()).expect("clean load");
        let path = temp_store("roundtrip");
        let info = built.save(&path).expect("save");
        assert_eq!(info.file_bytes % sunbfs_store::PAGE_SIZE as u64, 0);
        let activity = built.store.as_ref().expect("save recorded");
        assert!(activity.saved && !activity.opened);
        assert!(activity.cold_build_wall_seconds.is_some());

        let opened = GraphSession::open(&path, cfg, FaultPlan::none()).expect("open");
        std::fs::remove_file(&path).ok();
        assert_eq!(opened.load_attempts, 0);
        assert_eq!(opened.build_sim_seconds, 0.0);
        assert_eq!(opened.partition_stats, built.partition_stats);
        let activity = opened.store.as_ref().expect("open recorded");
        assert!(activity.opened && !activity.saved);
        assert!(activity.warm_open_wall_seconds.is_some());
        // Traversals against the opened partition still terminate.
        for r in opened.run_batch(&[1]) {
            r.expect("no rank failure").expect("terminates");
        }
    }

    #[test]
    fn open_refuses_a_mismatched_header() {
        let cfg = SessionConfig::small(8, 4);
        let mut built = GraphSession::load(cfg, FaultPlan::none()).expect("clean load");
        let path = temp_store("mismatch");
        built.save(&path).expect("save");
        let mut other = cfg;
        other.seed = 7;
        let err = match GraphSession::open(&path, other, FaultPlan::none()) {
            Ok(_) => panic!("a mismatched header must not open"),
            Err(e) => e,
        };
        std::fs::remove_file(&path).ok();
        match err {
            SessionError::Store(sunbfs_store::StoreError::HeaderMismatch { field, .. }) => {
                assert_eq!(field, "seed")
            }
            other => panic!("expected HeaderMismatch, got {other:?}"),
        }
    }

    #[test]
    fn apply_updates_bumps_epoch_and_repair_matches_recompute() {
        let mut session =
            GraphSession::load(SessionConfig::small(8, 4), FaultPlan::none()).expect("clean load");
        assert_eq!(session.epoch(), 0);
        assert!(!session.has_delta());

        // A fresh-vertex chain plus a shortcut into the core: depths
        // genuinely change, so the repair has real work to do.
        let n = session.num_vertices();
        let batch = [
            Edge::new(0, n - 1),
            Edge::new(n - 1, n - 2),
            Edge::new(1, n - 3),
        ];
        // Base-graph result first, as the service would cache it.
        let (mut parents, mut depths) = {
            let (p, d) = {
                let before = session.union_bfs(1);
                assert!(session.delta_log().is_empty(), "no delta before commit");
                before
            };
            (p, d)
        };
        let epoch = session.apply_updates(&batch).expect("commit");
        assert_eq!(epoch, 1);
        assert_eq!(session.epoch(), 1);
        assert!(session.has_delta(), "small batch stays in the overlay");
        assert_eq!(session.delta_log().len(), 3);

        let stats = session.repair_result(&mut parents, &mut depths);
        assert!(stats.seeds > 0, "inserted endpoints must seed the repair");
        let (_, fresh_depths) = session.union_bfs(1);
        assert_eq!(depths, fresh_depths, "repair must be depth-identical");
        // The repaired tree stays a valid BFS tree over the union graph.
        for v in 0..n {
            let (p, d) = (parents[v as usize], depths[v as usize]);
            if p == sunbfs_common::INVALID_VERTEX || v == 1 {
                continue;
            }
            assert_eq!(depths[p as usize] + 1, d, "vertex {v} parent depth");
        }
    }

    #[test]
    fn a_promotion_forces_immediate_compaction() {
        let mut session =
            GraphSession::load(SessionConfig::small(8, 4), FaultPlan::none()).expect("clean load");
        // Lower thresholds would promote easily, but SessionConfig::small
        // uses (256, 64): push one vertex over h = 64 with a fan of
        // inserts to distinct neighbors.
        let hub = 3u64;
        let n = session.num_vertices();
        let batch: Vec<Edge> = (0..80u64)
            .map(|i| Edge::new(hub, (hub + 7 + i * 3) % n))
            .collect();
        session.apply_updates(&batch).expect("commit");
        assert_eq!(session.epoch(), 1);
        assert_eq!(
            session.compactions(),
            1,
            "crossing h_threshold must compact immediately"
        );
        assert!(!session.has_delta(), "compaction drains the overlay");
        assert!(session.delta_log().is_empty());
        // Post-compaction queries still serve and agree with the oracle.
        let (_, d) = session.union_bfs(hub);
        assert_eq!(d[hub as usize], 0);
    }

    #[test]
    fn a_commit_whose_compaction_loses_a_rank_rolls_back() {
        let mut session =
            GraphSession::load(SessionConfig::small(8, 4), FaultPlan::none()).expect("clean load");
        let n = session.num_vertices();
        let fan: Vec<Edge> = (0..80u64).map(|i| Edge::new(3, (10 + i * 3) % n)).collect();
        let header = session.config().store_header();
        let store_bytes = |s: &GraphSession| sunbfs_store::encode_store(&header, s.partitions());
        let (bytes, bfs) = (store_bytes(&session), session.union_bfs(0));

        // Op 6 is the last `prep.alltoallv` of the build the promoting
        // fan's compaction runs.
        session.cluster().fault_plan().inject([FaultEvent {
            rank: 1,
            op_index: 6,
            kind: FaultKind::Panic,
        }]);
        assert!(session.apply_updates(&fan).is_err(), "rank 1 was lost");
        assert_eq!(session.epoch(), 0, "a failed commit bumps no epoch");
        assert!(session.delta_log().is_empty());
        assert_eq!(session.delta_entries(), 0);
        assert!(!session.has_delta());
        assert!(
            store_bytes(&session) == bytes,
            "the base partition is untouched"
        );
        assert_eq!(session.union_bfs(0), bfs, "the graph is unchanged");

        // The fault fired once; the same commit now goes through.
        session
            .apply_updates(&fan)
            .expect("the healed cluster commits");
        assert_eq!((session.epoch(), session.compactions()), (1, 1));
    }

    #[test]
    fn save_compacts_and_reopen_demands_the_epoch() {
        let cfg = SessionConfig::small(8, 4);
        let mut session = GraphSession::load(cfg, FaultPlan::none()).expect("clean load");
        let n = session.num_vertices();
        session
            .apply_updates(&[Edge::new(0, n - 1), Edge::new(2, n - 2)])
            .expect("commit");
        assert!(session.has_delta());
        let path = temp_store("epoch");
        session.save(&path).expect("save");
        assert!(
            !session.has_delta(),
            "save must compact the delta into the base CSRs"
        );
        assert_eq!(session.compactions(), 1);

        // Plain open expects a pristine (epoch 0) store — typed refusal.
        let err = match GraphSession::open(&path, cfg, FaultPlan::none()) {
            Ok(_) => panic!("a mutated store must not open at epoch 0"),
            Err(e) => e,
        };
        match err {
            SessionError::Store(StoreError::HeaderMismatch {
                field,
                expected,
                found,
            }) => {
                assert_eq!(field, "epoch");
                assert_eq!((expected, found), (0, 1));
            }
            other => panic!("expected an epoch HeaderMismatch, got {other:?}"),
        }

        // Knowing the epoch opens it; the session resumes there.
        let reopened = GraphSession::open_expecting_epoch(&path, cfg, FaultPlan::none(), 1)
            .expect("epoch-aware open");
        assert_eq!(reopened.epoch(), 1);
        assert_eq!(reopened.partition_stats, session.partition_stats);
        let (_, a) = reopened.union_bfs(0);
        let (_, b) = session.union_bfs(0);
        assert_eq!(a, b, "reopened graph must hold the committed updates");

        // open_or_build adopts the epoch instead of rebuilding over it.
        let adopted =
            GraphSession::open_or_build(&path, cfg, FaultPlan::none()).expect("adopting open");
        std::fs::remove_file(&path).ok();
        let activity = adopted.store.as_ref().expect("activity");
        assert!(
            activity.opened && !activity.saved,
            "a matching mutated store is opened, never rebuilt over"
        );
        assert_eq!(adopted.epoch(), 1);
    }

    #[test]
    fn open_or_build_builds_once_then_opens() {
        let cfg = SessionConfig::small(8, 4);
        let path = temp_store("open_or_build");
        std::fs::remove_file(&path).ok();
        let cold = GraphSession::open_or_build(&path, cfg, FaultPlan::none()).expect("cold");
        let cold_activity = cold.store.as_ref().expect("activity");
        assert!(
            cold_activity.saved && !cold_activity.opened,
            "first call builds and saves"
        );
        let warm = GraphSession::open_or_build(&path, cfg, FaultPlan::none()).expect("warm");
        std::fs::remove_file(&path).ok();
        let warm_activity = warm.store.as_ref().expect("activity");
        assert!(
            warm_activity.opened && !warm_activity.saved,
            "second call opens the file"
        );
        assert_eq!(warm.partition_stats, cold.partition_stats);
    }
}
