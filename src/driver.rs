//! End-to-end Graph 500 benchmark driver.
//!
//! Reproduces the paper's measurement procedure (§6.1): generate an
//! R-MAT graph at a given SCALE, build the 1.5D partition on a mesh of
//! simulated ranks — once, as a resident [`GraphSession`] — traverse
//! from a set of random roots ("64 random roots" at full scale; fewer
//! at laptop scale), validate every parent tree against the
//! specification, and report TEPS statistics with the harmonic mean the
//! benchmark mandates.

use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};

use sunbfs_common::{json_record, pool, Edge, MachineConfig, TimeAccumulator};
use sunbfs_core::validate::{self, DistinctEdges};
use sunbfs_core::{EngineConfig, IterationStats};
use sunbfs_net::{CommStats, FaultPlan, FaultRecord, MeshShape, RetransmitRecord};
use sunbfs_part::{ComponentStats, Thresholds};
use sunbfs_rmat::RmatParams;
use sunbfs_serve::{
    BfsService, GraphSession, Quarantine, QueryResult, QueryStatus, RootTraversal, ServeConfig,
    ServeReport, SessionConfig, SessionError, StoreActivity,
};

/// Edges per vertex of every benchmark graph (the Graph 500 spec's 16).
pub const EDGE_FACTOR: u32 = 16;

/// Everything one benchmark run needs. The machine is always
/// [`MachineConfig::new_sunway`].
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Graph 500 SCALE (`2^scale` vertices, `EDGE_FACTOR · 2^scale` edges).
    pub scale: u32,
    /// Mesh of simulated ranks (rows map to supernodes).
    pub mesh: MeshShape,
    /// E/H degree thresholds.
    pub thresholds: Thresholds,
    /// Engine technique toggles.
    pub engine: EngineConfig,
    /// Generator seed.
    pub seed: u64,
    /// Number of BFS roots to run.
    pub num_roots: usize,
    /// Validate every traversal against the spec (needs the full edge
    /// list on the driver; keep SCALE modest when enabled).
    pub validate: bool,
    /// Deterministic fault-injection campaign (seeded; `FaultSpec::NONE`
    /// disables injection). Overridable at run time via the
    /// `SUNBFS_FAULT_PLAN` environment variable.
    pub faults: FaultSpec,
    /// How many times a root whose traversal lost a rank is retried
    /// (with backoff) before it is quarantined.
    pub max_root_retries: u32,
    /// Route the benchmark's roots through the serve layer's
    /// bit-parallel multi-source batch path (up to 64 roots per
    /// traversal) instead of the per-root loop.
    pub serve_batch: bool,
    /// With `serve_batch`, also measure the sequential single-source
    /// baseline over the same roots and record the comparison in the
    /// report's `serve` section.
    pub serve_baseline: bool,
    /// Write the built partition to this persistent-store path after
    /// the session load.
    pub save_graph: Option<String>,
    /// Open the partition from this persistent-store path instead of
    /// rebuilding (building and saving it first when the file is
    /// missing — [`GraphSession::open_or_build`] semantics).
    pub load_graph: Option<String>,
}

/// The defaults every call site shares (2x2 mesh, 256/64 thresholds,
/// seed 42, …), so call sites state only what they change:
/// `RunConfig { scale: 12, ..RunConfig::default() }`.
impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: 9,
            mesh: MeshShape::near_square(4),
            thresholds: Thresholds::new(256, 64),
            engine: EngineConfig::default(),
            seed: 42,
            num_roots: 3,
            validate: false,
            faults: FaultSpec::NONE,
            max_root_retries: 2,
            serve_batch: false,
            serve_baseline: false,
            save_graph: None,
            load_graph: None,
        }
    }
}

impl RunConfig {
    /// A sensible laptop-scale configuration.
    pub fn small_test(scale: u32, ranks: usize) -> Self {
        RunConfig {
            scale,
            mesh: MeshShape::near_square(ranks),
            validate: true,
            ..RunConfig::default()
        }
    }
}

/// A failure of the benchmark as a whole, surfaced by [`run_benchmark`]
/// as a diagnosable error. Per-root failures never end up here: they
/// quarantine the root ([`FaultReport::quarantined`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DriverError {
    /// The generator probe found no vertex with nonzero degree to use
    /// as a BFS root (degenerate graph or probe window).
    NoConnectedRoot,
    /// Zero roots were asked for: there would be no traversal to time.
    NoRootsRequested,
    /// The `SUNBFS_FAULT_PLAN` environment variable did not parse or
    /// names a rank outside the mesh.
    InvalidFaultPlan(String),
    /// The resident graph session could not be built, opened or saved.
    SessionLoad(String),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::NoConnectedRoot => {
                write!(
                    f,
                    "could not find any connected root in the generator probe"
                )
            }
            DriverError::NoRootsRequested => write!(f, "num_roots must be at least 1"),
            DriverError::InvalidFaultPlan(e) => {
                write!(f, "invalid SUNBFS_FAULT_PLAN: {e}")
            }
            DriverError::SessionLoad(e) => {
                write!(f, "graph session load failed: {e}")
            }
        }
    }
}

impl std::error::Error for DriverError {}

impl From<SessionError> for DriverError {
    fn from(e: SessionError) -> Self {
        DriverError::SessionLoad(e.to_string())
    }
}

/// A root excluded from the report's TEPS statistics, with its reason:
/// the session's own label and detail (`engine`, `rank_failure`, `tree`)
/// or the driver's `validation`.
#[derive(Clone, Debug)]
pub struct QuarantinedRoot {
    /// The quarantined root vertex.
    pub root: u64,
    /// Why it was quarantined.
    pub reason: Quarantine,
}

json_record! {
    /// Per-root bookkeeping of the retry loop, in root order.
    #[derive(Clone, Debug)]
    pub struct RootOutcome {
        /// The root vertex.
        pub root: u64,
        /// Traversal attempts spent on this root (1 = clean first run).
        pub attempts: u32,
        /// True when the root ended up quarantined.
        pub quarantined: bool,
        /// BFS iterations the final attempt resumed from a checkpoint
        /// instead of re-running (0 = the root restarted from scratch, or
        /// never needed a retry).
        pub iterations_salvaged: u32,
    }
}

/// Self-healing observability attached to every [`BenchmarkReport`]:
/// what the exchange layer retransmitted and what the checkpoint layer
/// salvaged.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Every payload retransmission the exchange layer performed,
    /// sorted by (op index, sender, attempt).
    pub retransmit_log: Vec<RetransmitRecord>,
    /// Iteration checkpoints taken across all roots and attempts.
    pub checkpoints_taken: u64,
    /// BFS iterations recovered from checkpoints instead of re-run,
    /// summed over roots.
    pub iterations_salvaged: u64,
}

impl RecoveryReport {
    /// Number of healed (retransmitted) exchange deposits.
    pub fn retransmits(&self) -> u64 {
        self.retransmit_log.len() as u64
    }
}

/// Fault-campaign observability attached to every [`BenchmarkReport`].
#[derive(Clone, Debug, Default)]
pub struct FaultReport {
    /// Every fault the plan actually fired, with simulated timestamps,
    /// sorted by (rank, op index).
    pub injected: Vec<FaultRecord>,
    /// Attempt counts per root, in root order.
    pub outcomes: Vec<RootOutcome>,
    /// Roots excluded from the statistics.
    pub quarantined: Vec<QuarantinedRoot>,
    /// Total traversal retries across all roots.
    pub total_retries: u64,
}

impl FaultReport {
    /// True when at least one root had to be quarantined — the report
    /// is complete but its statistics cover a subset of the roots.
    pub fn degraded(&self) -> bool {
        !self.quarantined.is_empty()
    }
}

/// Results of one root's traversal, aggregated over ranks.
#[derive(Clone, Debug, Default)]
pub struct RootRun {
    /// The root vertex.
    pub root: u64,
    /// Simulated traversal seconds (max over ranks — they finish
    /// together at the final collective). A batched rider's is its
    /// *batch's* simulated time — up to 64 riders share it — so GTEPS
    /// per root on a `serve_batch` run is a service-level number.
    pub sim_seconds: f64,
    /// Graph 500 `m` for this root: the spec-conformant
    /// [`validate::component_edges`] count when validation ran,
    /// otherwise the engine's degree-sum estimate.
    pub traversed_edges: u64,
    /// The engine's own degree-sum estimate of `m`. Counts duplicate
    /// generator edges per entry, so on multigraphs it exceeds the
    /// deduplicated spec count in `traversed_edges`.
    pub engine_traversed_edges: u64,
    /// Vertices reached.
    pub visited_vertices: u64,
    /// Giga-TEPS on the simulated machine (from `traversed_edges`).
    pub gteps: f64,
    /// Iteration series (identical replicated counters from rank 0;
    /// every `end_op` counts from this traversal's first collective).
    /// Empty for a batched rider.
    pub iterations: Vec<IterationStats>,
    /// Per-category simulated time summed over ranks (for breakdowns).
    pub times: TimeAccumulator,
    /// Collective call counts and byte volumes summed over ranks.
    pub comm: CommStats,
    /// Host wall-clock seconds this root's validation took (the spec's
    /// checks plus its `m`); `0.0` when validation did not run.
    pub validate_seconds: f64,
}

json_record! {
    /// Minimum, quartiles and maximum of a sample, as the Graph 500
    /// output block prints them (all zero for an empty sample).
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct Quartiles {
        /// Smallest value.
        pub min: f64,
        /// First quartile.
        pub q1: f64,
        /// Median.
        pub median: f64,
        /// Third quartile.
        pub q3: f64,
        /// Largest value.
        pub max: f64,
    }
}

impl Quartiles {
    /// The reference code's `get_statistics`: each quartile is the mean
    /// of the two order statistics around its position.
    pub fn of(mut xs: Vec<f64>) -> Self {
        let Some(last) = xs.len().checked_sub(1) else {
            return Quartiles::default();
        };
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        Quartiles {
            min: xs[0],
            q1: (xs[last / 4] + xs[n / 4]) * 0.5,
            median: (xs[last / 2] + xs[n / 2]) * 0.5,
            q3: (xs[last - last / 4] + xs[last - n / 4]) * 0.5,
            max: xs[last],
        }
    }
}

json_record! {
    /// Host wall-clock accounting of one benchmark run — real elapsed time
    /// on the machine running the simulation, as opposed to the simulated
    /// `SimTime` every other number is measured in. This is the worker-pool
    /// scaling surface: `SUNBFS_WORKERS` cannot change any simulated
    /// metric (determinism contract), so its win shows up here.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct WallClockReport {
        /// Worker-pool size the run executed with (`SUNBFS_WORKERS`).
        pub workers: u64,
        /// Hardware threads the host reported
        /// ([`std::thread::available_parallelism`]); scaling beyond this is
        /// not physically possible.
        pub available_parallelism: u64,
        /// Wall-clock seconds of the whole benchmark (generation,
        /// partitioning, traversals, validation, reporting).
        pub total_seconds: f64,
        /// Wall-clock seconds inside the SPMD phases (`load_seconds` +
        /// `traverse_seconds`) — the part the worker pool accelerates.
        pub bfs_seconds: f64,
        /// Wall-clock seconds of the one partition build or store open.
        pub load_seconds: f64,
        /// Wall-clock seconds of the BFS traversals, all roots together.
        pub traverse_seconds: f64,
        /// Wall-clock seconds of validation: materialising the edge list on
        /// the driver, the per-graph duplicate-edge census, and every
        /// root's checks (`0.0` when validation did not run).
        pub validate_seconds: f64,
        /// Spread of the surviving roots' `validate_seconds`.
        pub validate_root_seconds: Quartiles,
        /// Traversed edges summed over surviving roots (numerator of
        /// `edges_per_second`).
        pub traversed_edges: u64,
        /// Real traversed-edges-per-second over `bfs_seconds` — the
        /// wall-clock throughput `scripts/bench_trajectory.sh` tracks.
        pub edges_per_second: f64,
    }
}

impl WallClockReport {
    fn new(
        total_seconds: f64,
        load_seconds: f64,
        traverse_seconds: f64,
        validate_seconds: f64,
        runs: &[RootRun],
    ) -> Self {
        let traversed_edges: u64 = runs.iter().map(|r| r.traversed_edges).sum();
        let bfs_seconds = load_seconds + traverse_seconds;
        WallClockReport {
            workers: pool::workers() as u64,
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            total_seconds,
            bfs_seconds,
            load_seconds,
            traverse_seconds,
            validate_seconds,
            validate_root_seconds: Quartiles::of(runs.iter().map(|r| r.validate_seconds).collect()),
            traversed_edges,
            edges_per_second: if bfs_seconds > 0.0 {
                traversed_edges as f64 / bfs_seconds
            } else {
                0.0
            },
        }
    }
}

/// A full benchmark report.
#[derive(Clone, Debug)]
pub struct BenchmarkReport {
    /// The configuration that produced it.
    pub config: RunConfig,
    /// Per-rank component sizes (Figure 13's raw data).
    pub partition_stats: Vec<ComponentStats>,
    /// One entry per root that completed (quarantined roots excluded).
    pub runs: Vec<RootRun>,
    /// True when validation ran and every root passed (a degraded
    /// report is never `validated`).
    pub validated: bool,
    /// Fault-injection and retry/quarantine bookkeeping.
    pub faults: FaultReport,
    /// Retransmit and checkpoint/resume bookkeeping.
    pub recovery: RecoveryReport,
    /// Serve-layer observability when the roots went through the batch
    /// path (`None` on the per-root loop, store-only runs included).
    pub serve: Option<ServeReport>,
    /// Persistent-store activity when the run saved or opened a graph
    /// file (`None` when no store path was involved).
    pub store: Option<StoreActivity>,
    /// Host wall-clock accounting (real time, not simulated time).
    pub wall: WallClockReport,
}

impl BenchmarkReport {
    /// Arithmetic mean GTEPS over roots.
    pub fn mean_gteps(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(|r| r.gteps).sum::<f64>() / self.runs.len() as f64
    }

    /// Harmonic mean GTEPS — the Graph 500 headline statistic.
    pub fn harmonic_mean_gteps(&self) -> f64 {
        if self.runs.is_empty() || self.runs.iter().any(|r| r.gteps <= 0.0) {
            return 0.0;
        }
        self.runs.len() as f64 / self.runs.iter().map(|r| 1.0 / r.gteps).sum::<f64>()
    }

    /// Sum the per-category times of all runs into one accumulator.
    pub fn total_times(&self) -> TimeAccumulator {
        let mut acc = TimeAccumulator::new();
        for r in &self.runs {
            acc.merge(&r.times);
        }
        acc
    }
}

/// Choose `k` distinct roots with nonzero degree, deterministically
/// from the generator's first edge chunk.
///
/// # Errors
/// Returns [`DriverError::NoRootsRequested`] when `k` is 0 and
/// [`DriverError::NoConnectedRoot`] when the probe window contains only
/// self-loops (degenerate graph).
pub fn pick_roots(params: &RmatParams, k: usize) -> Result<Vec<u64>, DriverError> {
    if k == 0 {
        return Err(DriverError::NoRootsRequested);
    }
    let window = (k as u64).saturating_mul(64).saturating_add(64);
    let probe = sunbfs_rmat::generate_range(params, 0, window.min(params.num_edges()));
    let mut roots = Vec::new();
    for e in &probe {
        if e.is_self_loop() {
            continue;
        }
        if !roots.contains(&e.u) {
            roots.push(e.u);
        }
        if roots.len() == k {
            break;
        }
        if !roots.contains(&e.v) {
            roots.push(e.v);
        }
        if roots.len() == k {
            break;
        }
    }
    if roots.is_empty() {
        return Err(DriverError::NoConnectedRoot);
    }
    Ok(roots)
}

/// One root's traversal before validation: what it cost and — when it
/// completed — its [`RootRun`] (`traversed_edges` still the engine's
/// estimate, `gteps` unset) with the global parent array to validate.
struct RootRecord {
    root: u64,
    attempts: u32,
    iterations_salvaged: u32,
    checkpoints_taken: u64,
    result: Result<(RootRun, Vec<u64>), Quarantine>,
}

impl RootRecord {
    /// The per-root loop's record: every rank's output folded into one
    /// run (ranks own consecutive vertex blocks, so the global parent
    /// array is the rank slices in rank order).
    fn from_traversal(root: u64, t: RootTraversal) -> Self {
        let result = t.result.map(|mut per_rank| {
            let parents = per_rank.iter().flat_map(|o| o.parents.iter().copied());
            let parents: Vec<u64> = parents.collect();
            let mut times = TimeAccumulator::new();
            let mut comm = CommStats::new();
            let mut sim_seconds = 0.0f64;
            for out in &per_rank {
                times.merge(&out.stats.times);
                comm.merge(&out.stats.comm);
                sim_seconds = sim_seconds.max(out.stats.sim_seconds);
            }
            // Replicated counters: rank 0 speaks for all.
            let stats = per_rank.swap_remove(0).stats;
            let run = RootRun {
                root,
                sim_seconds,
                traversed_edges: stats.traversed_edges,
                engine_traversed_edges: stats.traversed_edges,
                visited_vertices: stats.visited_vertices,
                gteps: 0.0,
                iterations: stats.iterations,
                times,
                comm,
                validate_seconds: 0.0,
            };
            (run, parents)
        });
        RootRecord {
            root,
            attempts: t.attempts,
            iterations_salvaged: t.iterations_salvaged,
            checkpoints_taken: t.checkpoints_taken,
            result,
        }
    }

    /// The service drain's record: one query result. The service does
    /// its own retrying (per-rider fallback) and reports no per-level
    /// series, so a rider is one attempt with empty `iterations`. The
    /// validator reads the whole tree, so the handle is gathered here.
    fn from_query(r: QueryResult) -> Self {
        let result = match (r.status, r.parents) {
            (QueryStatus::Quarantined(q), _) => Err(q),
            (QueryStatus::Served, Some(parents)) => Ok((
                RootRun {
                    root: r.root,
                    sim_seconds: r.sim_latency_s,
                    traversed_edges: r.engine_traversed_edges,
                    engine_traversed_edges: r.engine_traversed_edges,
                    visited_vertices: r.visited,
                    ..RootRun::default()
                },
                parents.to_vec(),
            )),
            (QueryStatus::Served, None) => unreachable!("served queries carry a parent handle"),
            (QueryStatus::DeadlineExceeded { .. }, _) => {
                unreachable!("driver queries carry no deadline budget")
            }
        };
        RootRecord {
            root: r.root,
            attempts: 1,
            iterations_salvaged: 0,
            checkpoints_taken: 0,
            result,
        }
    }
}

/// Run the complete benchmark pipeline: obtain one resident
/// [`GraphSession`] (built, or opened from `load_graph`; saved to
/// `save_graph`), run every root on it, validate, report.
///
/// Fault containment: a root whose traversal fails — injected rank
/// failure (after `max_root_retries` retries with backoff), replicated
/// engine error, or Graph 500 validation failure — is *quarantined*
/// rather than aborting the benchmark. The report is then complete but
/// degraded: its TEPS statistics cover the surviving roots and
/// [`BenchmarkReport::faults`] records what happened.
///
/// Two self-healing layers run underneath the retry loop
/// ([`GraphSession::run_root`]): corrupted exchange payloads are
/// detected and retransmitted inside the collectives (so corruption
/// normally never costs an attempt), and under a fault campaign every
/// completed BFS iteration is checkpointed so a retried root resumes
/// from its last verified checkpoint instead of re-traversing from
/// scratch — [`BenchmarkReport::recovery`] accounts for both.
///
/// A fault campaign (`SUNBFS_FAULT_PLAN`, else [`RunConfig::faults`])
/// addresses *traversals*: the session loads fault-free and the
/// campaign is armed on the resident cluster afterwards, so `op_index`
/// counts a traversal's collectives and a retried or quarantined root
/// costs traversals, never a rebuild.
///
/// # Errors
/// Returns [`DriverError::NoRootsRequested`] when `num_roots` is 0,
/// [`DriverError::NoConnectedRoot`] when no usable root exists,
/// [`DriverError::InvalidFaultPlan`] when `SUNBFS_FAULT_PLAN` is set but
/// unparseable or names a rank outside the mesh, and
/// [`DriverError::SessionLoad`] when the session cannot be built, opened
/// or saved. Per-root failures never surface here.
pub fn run_benchmark(config: &RunConfig) -> Result<BenchmarkReport, DriverError> {
    run_benchmark_with_sleeper(config, &mut std::thread::sleep)
}

/// [`run_benchmark`] with the retry backoff's sleep injectable: tests
/// capture the exact backoff schedule (and skip the real delays)
/// instead of asserting on wall-clock time.
pub fn run_benchmark_with_sleeper(
    config: &RunConfig,
    sleep: &mut dyn FnMut(Duration),
) -> Result<BenchmarkReport, DriverError> {
    let wall_start = Instant::now();
    let session_cfg = SessionConfig {
        scale: config.scale,
        edge_factor: EDGE_FACTOR,
        mesh: config.mesh,
        thresholds: config.thresholds,
        engine: config.engine,
        machine: MachineConfig::new_sunway(),
        seed: config.seed,
        max_load_attempts: 1 + config.max_root_retries,
    };
    let params = session_cfg.rmat();
    let roots = pick_roots(&params, config.num_roots)?;
    let nranks = config.mesh.num_ranks();
    let campaign = match FaultPlan::from_env(nranks) {
        Err(e) => return Err(DriverError::InvalidFaultPlan(e)),
        Ok(Some(events)) => events,
        Ok(None) => FaultPlan::generate(&config.faults, nranks),
    };
    let load_start = Instant::now();
    let mut session = match &config.load_graph {
        Some(path) => GraphSession::open_or_build(Path::new(path), session_cfg, FaultPlan::none())?,
        None => GraphSession::load(session_cfg, FaultPlan::none()).map_err(SessionError::Load)?,
    };
    let load_seconds = load_start.elapsed().as_secs_f64();
    if let Some(path) = &config.save_graph {
        // open_or_build may already have written this exact file on its
        // build branch — don't pay the encode twice.
        let already = session
            .store
            .as_ref()
            .is_some_and(|s| s.saved && s.path == *path);
        if !already {
            session.save(Path::new(path))?;
        }
    }
    // Armed between runs, after the load: the campaign's `op_index`
    // addresses traversal collectives (an empty campaign arms nothing
    // and leaves payload framing off).
    session.cluster().fault_plan().inject(campaign);

    // `serve_batch` only swaps how the per-root records are produced:
    // a service drain instead of the per-root loop.
    let traversals_start = Instant::now();
    let mut serve = None;
    let records: Vec<RootRecord>;
    let session = if config.serve_batch {
        let mut service = BfsService::new(
            session,
            ServeConfig {
                queue_capacity: roots.len().max(1),
                max_root_retries: config.max_root_retries,
                measure_baseline: config.serve_baseline,
                ..ServeConfig::default()
            },
        );
        for &root in &roots {
            service
                .submit(root)
                .expect("capacity covers every root and pick_roots yields in-range roots");
        }
        let mut results = service.drain();
        results.sort_by_key(|r| r.id);
        records = results.into_iter().map(RootRecord::from_query).collect();
        serve = Some(service.report());
        service.into_session()
    } else {
        let mut backoff = |attempts: u32| sleep(Duration::from_millis(1u64 << attempts.min(6)));
        records = roots
            .iter()
            .map(|&root| {
                let t = session.run_root(root, config.max_root_retries, &mut backoff);
                RootRecord::from_traversal(root, t)
            })
            .collect();
        session
    };
    let traverse_seconds = traversals_start.elapsed().as_secs_f64();

    // Validation and aggregation. A validation failure quarantines the
    // root rather than aborting: the report stays complete. Which input
    // entries are duplicates is the same for every root, so that half
    // of the TEPS edge count is taken once, here.
    let n = session.num_vertices();
    let validate_start = Instant::now();
    let oracle: Option<(Vec<Edge>, DistinctEdges)> = config.validate.then(|| {
        let edges = sunbfs_rmat::generate_edges(&params);
        let distinct = DistinctEdges::new(n, &edges);
        (edges, distinct)
    });
    let mut validate_seconds = validate_start.elapsed().as_secs_f64();
    let mut runs = Vec::with_capacity(records.len());
    let mut faults = FaultReport {
        injected: session.cluster().fault_log(),
        ..FaultReport::default()
    };
    let mut recovery = RecoveryReport {
        retransmit_log: session.cluster().retransmit_log(),
        ..RecoveryReport::default()
    };
    for rec in records {
        let result = rec.result.and_then(|(mut run, parents)| {
            // Spec-conformant TEPS `m`: duplicate generator edges count
            // once. Only computable with the full edge list on the
            // driver, so the engine's estimate stands when not validating.
            if let Some((edges, distinct)) = &oracle {
                let started = Instant::now();
                let verdict = validate::validate_parents(n, edges, run.root, &parents);
                if verdict.is_ok() {
                    run.traversed_edges = distinct.component_edges(&parents);
                }
                run.validate_seconds = started.elapsed().as_secs_f64();
                validate_seconds += run.validate_seconds;
                verdict.map_err(|e| Quarantine {
                    label: "validation",
                    detail: format!("{e:?}"),
                })?;
                debug_assert_eq!(
                    run.traversed_edges,
                    validate::component_edges(edges, &parents),
                    "root {}",
                    run.root
                );
            }
            if run.sim_seconds > 0.0 {
                run.gteps = run.traversed_edges as f64 / run.sim_seconds / 1e9;
            }
            Ok(run)
        });
        faults.outcomes.push(RootOutcome {
            root: rec.root,
            attempts: rec.attempts,
            quarantined: result.is_err(),
            iterations_salvaged: rec.iterations_salvaged,
        });
        faults.total_retries += u64::from(rec.attempts - 1);
        recovery.checkpoints_taken += rec.checkpoints_taken;
        recovery.iterations_salvaged += u64::from(rec.iterations_salvaged);
        match result {
            Ok(run) => runs.push(run),
            Err(reason) => faults.quarantined.push(QuarantinedRoot {
                root: rec.root,
                reason,
            }),
        }
    }
    let wall = WallClockReport::new(
        wall_start.elapsed().as_secs_f64(),
        load_seconds,
        traverse_seconds,
        validate_seconds,
        &runs,
    );
    Ok(BenchmarkReport {
        config: config.clone(),
        partition_stats: session.partition_stats.clone(),
        runs,
        validated: oracle.is_some() && !faults.degraded(),
        faults,
        recovery,
        serve,
        store: session.store.clone(),
        wall,
    })
}

/// Re-exported so callers can configure fault campaigns without
/// importing `sunbfs_net` directly.
pub use sunbfs_net::FaultSpec;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_benchmark_runs_and_validates() {
        let report = run_benchmark(&RunConfig::small_test(9, 4)).expect("benchmark must pass");
        assert!(report.validated);
        assert_eq!(report.runs.len(), 3);
        assert!(report.mean_gteps() > 0.0);
        assert!(report.harmonic_mean_gteps() <= report.mean_gteps() + 1e-12);
        assert_eq!(report.partition_stats.len(), 4);
        // Fault-free run: complete bookkeeping, nothing degraded.
        assert!(!report.faults.degraded());
        assert!(report.faults.injected.is_empty());
        assert_eq!(report.faults.total_retries, 0);
        assert_eq!(report.faults.outcomes.len(), 3);
        assert!(report
            .faults
            .outcomes
            .iter()
            .all(|o| o.attempts == 1 && !o.quarantined));
    }

    #[test]
    fn validated_teps_is_spec_conformant_at_scale_9() {
        // Acceptance criterion: on every validated root the driver's
        // TEPS `m` equals `validate::component_edges`, and the engine's
        // multigraph degree-sum estimate is never below it.
        let config = RunConfig::small_test(9, 4);
        let report = run_benchmark(&config).expect("benchmark must pass");
        let params = RmatParams::graph500(config.scale, config.seed);
        let edges = sunbfs_rmat::generate_edges(&params);
        for run in &report.runs {
            let (parents, _) = validate::reference_bfs(params.num_vertices(), &edges, run.root);
            let spec_m = validate::component_edges(&edges, &parents);
            assert_eq!(run.traversed_edges, spec_m, "root {}", run.root);
            assert!(
                run.engine_traversed_edges >= spec_m,
                "engine estimate {} below spec count {spec_m} for root {}",
                run.engine_traversed_edges,
                run.root
            );
            assert!(run.gteps > 0.0);
        }
    }

    #[test]
    fn roots_are_distinct_and_connected() {
        let params = RmatParams::graph500(10, 7);
        let roots = pick_roots(&params, 8).expect("scale-10 graph has connected roots");
        assert_eq!(roots.len(), 8);
        let mut dedup = roots.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8, "roots must be distinct");
        assert_eq!(pick_roots(&params, 0), Err(DriverError::NoRootsRequested));
        let deg =
            sunbfs_rmat::degrees(params.num_vertices(), &sunbfs_rmat::generate_edges(&params));
        for r in roots {
            assert!(deg[r as usize] > 0, "root {r} is isolated");
        }
    }

    #[test]
    fn degenerate_partitions_also_validate() {
        let mut cfg = RunConfig::small_test(9, 4);
        cfg.thresholds = Thresholds::none();
        assert!(run_benchmark(&cfg).expect("none-thresholds run").validated);
        cfg.thresholds = Thresholds::all_hubs(1 << 20);
        cfg.num_roots = 1;
        assert!(run_benchmark(&cfg).expect("all-hubs run").validated);
    }

    #[test]
    fn driver_error_displays() {
        assert!(DriverError::NoConnectedRoot
            .to_string()
            .contains("connected root"));
        assert!(DriverError::InvalidFaultPlan("bad event".into())
            .to_string()
            .contains("SUNBFS_FAULT_PLAN"));
    }

    #[test]
    fn retry_recovers_a_transient_rank_panic() {
        // One injected panic; faults fire once per cluster lifetime, so
        // the first retry of the victim root succeeds and the report is
        // NOT degraded.
        let mut cfg = RunConfig::small_test(8, 4);
        cfg.faults = FaultSpec {
            seed: 11,
            panics: 1,
            stragglers: 0,
            corruptions: 0,
            straggler_secs: 0.0,
            horizon: 50,
        };
        cfg.max_root_retries = 2;
        let report = run_benchmark(&cfg).expect("retry must absorb the fault");
        assert!(report.validated, "recovered run still validates");
        assert_eq!(report.runs.len(), 3, "no root lost");
        assert!(!report.faults.degraded());
        assert_eq!(report.faults.injected.len(), 1, "the panic was logged");
        assert_eq!(report.faults.total_retries, 1, "exactly one retry spent");
        assert_eq!(
            report
                .faults
                .outcomes
                .iter()
                .map(|o| o.attempts)
                .sum::<u32>(),
            4,
            "three roots, one of which needed a second attempt"
        );
    }

    #[test]
    fn exhausted_retries_quarantine_the_root_and_degrade_the_report() {
        // Repeated panics on the same rank exhaust the retry budget for
        // root 0; the benchmark still completes with the other roots.
        let mut cfg = RunConfig::small_test(8, 4);
        cfg.faults = FaultSpec {
            seed: 3,
            panics: 6,
            stragglers: 0,
            corruptions: 0,
            straggler_secs: 0.0,
            horizon: 2,
        };
        cfg.max_root_retries = 1;
        let report = run_benchmark(&cfg).expect("degraded, not aborted");
        assert!(report.faults.degraded());
        assert!(!report.validated, "a degraded report is never validated");
        assert!(!report.faults.quarantined.is_empty());
        let q = &report.faults.quarantined[0];
        assert_eq!(q.reason.label, "rank_failure");
        assert!(q.reason.detail.contains("attempts exhausted"));
        assert_eq!(
            report.runs.len() + report.faults.quarantined.len(),
            3,
            "every root accounted for: surviving runs + quarantined"
        );
        for run in &report.runs {
            assert!(run.gteps > 0.0, "survivors still carry statistics");
        }
        // One build per benchmark: retried and quarantined roots cost
        // traversals — no fault ever fired in a partition-build
        // (`prep.*`) collective, because none ran after the load.
        assert!(report.faults.injected.len() >= 2);
        assert!(report
            .faults
            .injected
            .iter()
            .all(|f| !f.op.starts_with("prep.")));
        assert_eq!(report.partition_stats.len(), 4);
    }
}
