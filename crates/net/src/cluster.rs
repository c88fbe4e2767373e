//! SPMD cluster runtime.
//!
//! [`Cluster::run`] executes one closure per simulated rank, each on an
//! OS thread of its own, exactly as an MPI program would run one
//! process per node: rank 0 on the caller's thread, ranks 1..p on
//! threads spawned for the run. [`Cluster::run_resident`] runs `'static`
//! jobs on ranks 1..p's *resident* threads instead — spawned by the
//! cluster's first such job, fed over a channel and joined when the
//! cluster drops — the long-lived ranks of the paper's 64-root loop.
//! Ranks communicate **only** through the collectives on
//! [`RankCtx`]; all payload bytes really cross thread boundaries via a
//! rendezvous exchange, so the functional result of a run is a genuine
//! distributed computation, not a shared-memory shortcut.
//!
//! Every collective simultaneously:
//! 1. moves the data (deposit, barrier, collect — one barrier over
//!    double-buffered slots when fault-free, the two-phase heal
//!    protocol under a live fault plan; see `RankCtx::exchange`),
//! 2. synchronizes the ranks' *simulated clocks* (entry skew is recorded
//!    as `comm.imbalance`, the paper's "imbalance/latency" component),
//! 3. charges the analytic network cost from the real byte volumes under
//!    the caller's category (`comm.alltoallv`, `comm.allgather`,
//!    `comm.reduce_scatter`, ... — the categories of Figure 11).
//!
//! The bookkeeping of a collective allocates nothing once its keys
//! exist. Op tags and categories are `&'static str`, and the composed
//! names are [`Category`] keys joined on output only: [`CommStats`]
//! keys a call as `"<scope>/" + op` and an all-reduce charges its halves
//! as `"comm.reduce_scatter." + op` and `"comm.allgather." + op`. An
//! all-to-all's per-destination volume row is shared by every member
//! that costs it, not copied to each.
//!
//! The SPMD contract: all members of a scope must call the same
//! collectives in the same order. Mismatches are detected by per-op tag
//! checks and turn into a typed [`SpmdViolation`] unwind (plus barrier
//! poisoning) instead of a deadlock.
//!
//! Failure containment: [`Cluster::run_fallible`] executes a run and
//! returns one `Result<T, RankFailure>` per rank — injected faults
//! ([`crate::FaultPlan`]), SPMD violations, poisoned-barrier teardown,
//! and plain panics all come back as typed, diagnosable values. The
//! classic [`Cluster::run`] stays as a thin wrapper that re-raises an
//! aggregate panic naming *every* failing rank.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use sunbfs_common::{
    json_record, Category, CategoryMap, JsonValue, MachineConfig, SimTime, TimeAccumulator, ToJson,
};

use crate::barrier::{BarrierPoisoned, PoisonBarrier};
use crate::cost::{self, Scope};
use crate::fault::{FaultKind, FaultPlan, FaultRecord};
use crate::frame::{fnv1a, Frame, Parts, Payload, Wire};
use crate::topology::{MeshShape, Topology};

/// How many times a corrupted deposit is retransmitted before the
/// exchange gives up and escalates to a [`FailureKind::CorruptPayload`]
/// unwind. Three rounds absorb any transient corruption (and even
/// double faults on the same deposit); only a persistent fault — a
/// plan listing > MAX_RETRANSMITS duplicates of the same event — gets
/// through to escalation.
const MAX_RETRANSMITS: u32 = 3;

/// Lock a mutex, ignoring std poisoning: rank panics are contained by
/// `catch_unwind` + barrier poisoning, so a poisoned mutex here only
/// means some rank died — the teardown path must still proceed.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one rank leaves at the rendezvous point.
struct Deposit {
    /// Op-sequence tag; must agree across the scope.
    tag: u64,
    /// Payload size in bytes (for gather/reduce costing).
    bytes: u64,
    /// Per-destination byte volumes (for alltoallv costing), shared
    /// with every member that collects them; `None` for the collectives
    /// that carry none.
    volumes: Option<Arc<[u64]>>,
    /// Length + checksum of the *pristine* payload, computed by the
    /// sender before the fault-injection hook ran (`None` on the
    /// fault-free fast path).
    frame: Option<Frame>,
    payload: Arc<dyn Any + Send + Sync>,
}

/// One rendezvous buffer of a scope: what each member deposits for one
/// collective, in scope position order.
struct ScopeBuffer {
    slots: Vec<Mutex<Option<Deposit>>>,
    /// Entry clocks (f64 bits) deposited before the first barrier.
    clocks: Vec<AtomicU64>,
}

/// Shared state of one communicator scope (world, a row, or a column).
struct ScopeShared {
    /// Global ranks of the members, in scope position order.
    members: Vec<usize>,
    barrier: PoisonBarrier,
    /// Collective `k` of the scope rendezvouses in buffer `k mod 2`, so
    /// a member re-deposits into a buffer two collectives later — after
    /// the barrier in between, which every member enters only once it
    /// has collected (see [`RankCtx::exchange`]).
    buffers: [ScopeBuffer; 2],
}

impl ScopeShared {
    fn new(members: Vec<usize>) -> Self {
        let n = members.len();
        let buffer = || ScopeBuffer {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            clocks: (0..n).map(|_| AtomicU64::new(0)).collect(),
        };
        ScopeShared {
            members,
            barrier: PoisonBarrier::new(n),
            buffers: [buffer(), buffer()],
        }
    }

    /// Clear all rendezvous state (only sound with no threads running).
    fn reset(&self) {
        self.barrier.reset();
        self.clear_slots();
    }

    /// Drop every deposit and entry clock.
    fn clear_slots(&self) {
        for buffer in &self.buffers {
            for s in &buffer.slots {
                *lock_ignore_poison(s) = None;
            }
            for c in &buffer.clocks {
                c.store(0, Ordering::Release);
            }
        }
    }
}

struct ClusterShared {
    topo: Topology,
    machine: MachineConfig,
    world: ScopeShared,
    rows: Vec<ScopeShared>,
    cols: Vec<ScopeShared>,
    /// Deterministic fault-injection schedule (empty when unused).
    plan: FaultPlan,
    /// [`FaultPlan::next_panic_op`] as of the start of the current run
    /// (`u64::MAX` when no panic is pending): stored between runs, with
    /// no rank running, and read by the ranks the run then starts.
    panic_op: AtomicU64,
    /// Every fault that actually fired, across all runs of this cluster.
    fault_log: Mutex<Vec<FaultRecord>>,
    /// Every corrupted deposit healed by retransmission, across all
    /// runs of this cluster.
    retransmit_log: Mutex<Vec<RetransmitRecord>>,
}

impl ClusterShared {
    /// `rank`'s view of `scope`: the scope's shared state, the rank's
    /// position among its members and the index of its sequence
    /// counter in [`RankCtx`]'s `seqs`.
    fn scope_of(&self, rank: usize, scope: Scope) -> (&ScopeShared, usize, usize) {
        let topo = &self.topo;
        match scope {
            Scope::World => (&self.world, rank, 0),
            Scope::Row => (&self.rows[topo.row_of(rank)], topo.col_of(rank), 1),
            Scope::Col => (&self.cols[topo.col_of(rank)], topo.row_of(rank), 2),
        }
    }

    fn scopes(&self) -> impl Iterator<Item = &ScopeShared> {
        std::iter::once(&self.world)
            .chain(&self.rows)
            .chain(&self.cols)
    }

    fn poison_all(&self) {
        self.scopes().for_each(|s| s.barrier.poison());
    }

    /// Heal barriers and clear rendezvous state between runs so a
    /// cluster that lost a rank can host a retry. Only sound when no
    /// rank is running — both launchers collect every rank's result
    /// before returning, so their entry points are safe.
    fn reset_for_run(&self) {
        let panic_op = self.plan.next_panic_op().unwrap_or(u64::MAX);
        self.panic_op.store(panic_op, Ordering::Release);
        self.scopes().for_each(ScopeShared::reset);
    }

    /// One rank's part of a run, whichever thread it is on: `f` under
    /// `catch_unwind`, an unwind classified into a [`RankFailure`].
    fn run_rank<T, F>(self: &Arc<Self>, rank: usize, f: &F) -> Result<T, RankFailure>
    where
        F: Fn(&mut RankCtx) -> T + ?Sized,
    {
        let mut ctx = RankCtx::new(rank, Arc::clone(self));
        catch_unwind(AssertUnwindSafe(|| f(&mut ctx))).map_err(|p| {
            let failure = RankFailure::from_panic(rank, p);
            // Collateral teardown poisons nothing itself: its root
            // cause does — possibly later, when the victim of a
            // planned panic reaches the collective the others
            // already stopped at.
            if failure.is_root_cause() {
                self.poison_all();
            }
            failure
        })
    }
}

/// One rank's part of a resident run, sent to its worker.
type Job = Box<dyn FnOnce() + Send>;

/// A resident rank thread: the queue it takes jobs from, and its handle
/// (`None` when the spawn failed — the queue is then closed, and a job
/// sent to it fails that rank with a typed [`RankFailure`]).
struct Worker {
    jobs: mpsc::Sender<Job>,
    thread: Option<JoinHandle<()>>,
}

impl Worker {
    /// Start rank `rank`'s thread with its first job in hand, so the
    /// scheduler places it as it places any new thread, not as the
    /// wakee of a queue.
    fn spawn(rank: usize, shared: &Arc<ClusterShared>, first: Job) -> Worker {
        let (jobs, queue) = mpsc::channel::<Job>();
        let thread = std::thread::Builder::new()
            .name(format!("rank {rank}"))
            .spawn({
                let shared = Arc::clone(shared);
                move || {
                    for job in std::iter::once(first).chain(queue) {
                        // The rank body catches the closure's panic;
                        // what still unwinds (a panic payload that
                        // panics on drop) loses this job's result, which
                        // the launcher reports. The peers must not wait
                        // for it.
                        if catch_unwind(AssertUnwindSafe(job)).is_err() {
                            shared.poison_all();
                        }
                    }
                }
            })
            // A failed spawn takes the first job down with it.
            .map_err(|_| shared.poison_all())
            .ok();
        Worker { jobs, thread }
    }
}

/// Which SPMD contract rule a [`SpmdViolation`] caught.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpmdViolationKind {
    /// A scope member reached the collect phase without a deposit in
    /// place — the member unwound or skipped the collective.
    MissingDeposit,
    /// A scope member is executing a different collective (op-sequence
    /// tag mismatch — the classic SPMD ordering bug).
    TagMismatch,
    /// A scope member deposited a payload of a different type.
    PayloadTypeMismatch,
    /// An allreduce member contributed a vector of a different length.
    LengthMismatch,
}

impl SpmdViolationKind {
    /// Stable label used in messages and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            SpmdViolationKind::MissingDeposit => "missing_deposit",
            SpmdViolationKind::TagMismatch => "tag_mismatch",
            SpmdViolationKind::PayloadTypeMismatch => "payload_type_mismatch",
            SpmdViolationKind::LengthMismatch => "length_mismatch",
        }
    }
}

/// A typed SPMD-contract violation: which rank detected it, in which
/// collective, and which scope member is at fault. Raised inside
/// [`FailureKind::Violation`] (after poisoning every barrier) so
/// `run_fallible` can hand the driver a structured error instead of a
/// stringly panic.
#[derive(Clone, Debug)]
pub struct SpmdViolation {
    /// Rank that *detected* the violation.
    pub rank: usize,
    /// Global rank of the offending scope member (the one whose deposit
    /// was missing/mismatched), when identifiable.
    pub offender: Option<usize>,
    /// Scope of the collective.
    pub scope: Scope,
    /// Op tag of the collective the detector was executing.
    pub op: String,
    /// Which contract rule was violated.
    pub kind: SpmdViolationKind,
}

impl std::fmt::Display for SpmdViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SPMD violation ({}) detected by rank {} in op '{}' on {} scope",
            self.kind.label(),
            self.rank,
            self.op,
            scope_label(self.scope),
        )?;
        if let Some(o) = self.offender {
            write!(f, " (offending rank {o})")?;
        }
        Ok(())
    }
}

/// Why one rank failed. The runtime unwinds with this value itself
/// (`Injected`, `Violation`, `CorruptPayload`); collateral teardown and
/// plain panics are classified from their own payloads.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// A planned [`FaultKind::Panic`] fired on this rank.
    Injected {
        /// Collective call index the fault fired at.
        op_index: u64,
        /// Op tag of the collective it fired in.
        op: String,
    },
    /// The rank detected an SPMD contract violation.
    Violation(SpmdViolation),
    /// Collateral teardown: another rank failed first and poisoned the
    /// barriers this rank was waiting on.
    BarrierPoisoned,
    /// A deposit kept failing checksum verification after the full
    /// retransmit budget — a persistent corruption the exchange layer
    /// detected but could not heal.
    CorruptPayload {
        /// Rank whose deposit stayed corrupt.
        from: usize,
        /// Scope of the collective.
        scope: Scope,
        /// Op tag of the collective.
        op: String,
        /// Collective call index on the failing rank.
        op_index: u64,
        /// Retransmit attempts burned before escalating.
        attempts: u32,
    },
    /// An ordinary panic escaped the rank closure.
    Panic {
        /// The stringified panic payload.
        message: String,
    },
}

json_record! {
    /// One healed retransmission of a corrupted deposit: the exchange
    /// layer detected a frame mismatch on `from`'s deposit for
    /// `(scope, op, op_index)` and re-deposited a pristine copy on
    /// retransmit round `attempt` (1-based).
    #[derive(Clone, Debug)]
    pub struct RetransmitRecord {
        /// Rank whose deposit was corrupt and got retransmitted.
        pub from: usize,
        /// Scope of the collective.
        pub scope: Scope,
        /// Op tag of the collective.
        pub op: String,
        /// Collective call index on `from`.
        pub op_index: u64,
        /// 1-based retransmit round this redeposit happened in.
        pub attempt: u32,
    }
}

/// One rank's failure, as returned by [`Cluster::run_fallible`].
#[derive(Clone, Debug)]
pub struct RankFailure {
    /// The failing rank.
    pub rank: usize,
    /// Why it failed.
    pub kind: FailureKind,
}

impl RankFailure {
    /// Classify a rank's unwind: the runtime raises a [`FailureKind`]
    /// itself, a poisoned barrier its own [`BarrierPoisoned`], and
    /// anything else is a plain panic.
    fn from_panic(rank: usize, payload: Box<dyn Any + Send>) -> Self {
        let kind = match payload.downcast::<FailureKind>() {
            Ok(kind) => *kind,
            Err(p) if p.is::<BarrierPoisoned>() => FailureKind::BarrierPoisoned,
            Err(p) => FailureKind::Panic {
                message: match (p.downcast_ref::<&str>(), p.downcast_ref::<String>()) {
                    (Some(s), _) => s.to_string(),
                    (_, Some(s)) => s.clone(),
                    _ => "opaque panic payload".to_string(),
                },
            },
        };
        RankFailure { rank, kind }
    }

    /// The failure of a rank whose resident thread returned no result.
    fn no_result(rank: usize) -> Self {
        let message = "the rank's resident thread returned no result".to_string();
        RankFailure {
            rank,
            kind: FailureKind::Panic { message },
        }
    }

    /// True when this failure is a root cause rather than collateral
    /// teardown of a failure elsewhere.
    pub fn is_root_cause(&self) -> bool {
        !matches!(self.kind, FailureKind::BarrierPoisoned)
    }
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FailureKind::Injected { op_index, op } => {
                write!(
                    f,
                    "rank {}: injected panic at collective {op_index} ('{op}')",
                    self.rank
                )
            }
            FailureKind::Violation(v) => write!(f, "rank {}: {v}", self.rank),
            FailureKind::BarrierPoisoned => {
                write!(f, "rank {}: barrier poisoned (collateral)", self.rank)
            }
            FailureKind::CorruptPayload {
                from,
                scope,
                op,
                op_index,
                attempts,
            } => {
                write!(
                    f,
                    "rank {}: persistent payload corruption from rank {from} at collective \
                     {op_index} ('{op}', {} scope) after {attempts} retransmits",
                    self.rank,
                    scope_label(*scope),
                )
            }
            FailureKind::Panic { message } => write!(f, "rank {}: panic: {message}", self.rank),
        }
    }
}

/// A simulated cluster: an `R × C` mesh of ranks plus machine constants.
pub struct Cluster {
    shared: Arc<ClusterShared>,
    /// Ranks 1..p's resident threads, spawned by the first
    /// [`Cluster::run_resident`] and joined when the cluster drops.
    workers: OnceLock<Vec<Worker>>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Close every queue first, then join: each worker leaves its
        // loop once its queue is closed and empty.
        let threads: Vec<_> = self
            .workers
            .take()
            .unwrap_or_default()
            .into_iter()
            .filter_map(|worker| worker.thread)
            .collect();
        for thread in threads {
            let _ = thread.join();
        }
    }
}

impl Cluster {
    /// Build a cluster over `shape` with the given machine constants.
    pub fn new(shape: MeshShape, machine: MachineConfig) -> Self {
        Cluster::with_faults(shape, machine, FaultPlan::none())
    }

    /// Build a cluster that injects `plan` deterministically (each
    /// planned event fires at most once over the cluster's lifetime —
    /// the transient-fault model that makes retries meaningful).
    pub fn with_faults(shape: MeshShape, machine: MachineConfig, plan: FaultPlan) -> Self {
        let topo = Topology::new(shape);
        let n = topo.num_ranks();
        let world = ScopeShared::new((0..n).collect());
        let rows = (0..shape.rows)
            .map(|r| ScopeShared::new((0..shape.cols).map(|c| topo.rank_at(r, c)).collect()))
            .collect();
        let cols = (0..shape.cols)
            .map(|c| ScopeShared::new((0..shape.rows).map(|r| topo.rank_at(r, c)).collect()))
            .collect();
        Cluster {
            shared: Arc::new(ClusterShared {
                topo,
                machine,
                world,
                rows,
                cols,
                plan,
                panic_op: AtomicU64::new(u64::MAX),
                fault_log: Mutex::new(Vec::new()),
                retransmit_log: Mutex::new(Vec::new()),
            }),
            workers: OnceLock::new(),
        }
    }

    /// The mesh topology.
    pub fn topology(&self) -> Topology {
        self.shared.topo
    }

    /// Machine constants in force.
    pub fn machine(&self) -> MachineConfig {
        self.shared.machine
    }

    /// The fault plan this cluster injects (empty by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.shared.plan
    }

    /// Every fault that fired so far, sorted by `(rank, op_index)` so
    /// the log is deterministic regardless of thread interleaving.
    pub fn fault_log(&self) -> Vec<FaultRecord> {
        let mut log = lock_ignore_poison(&self.shared.fault_log).clone();
        log.sort_by_key(|r| (r.rank, r.op_index));
        log
    }

    /// Every corrupted deposit healed by retransmission so far, sorted
    /// by `(op_index, from, attempt)` so the log is deterministic
    /// regardless of thread interleaving.
    pub fn retransmit_log(&self) -> Vec<RetransmitRecord> {
        let mut log = lock_ignore_poison(&self.shared.retransmit_log).clone();
        log.sort_by_key(|r| (r.op_index, r.from, r.attempt));
        log
    }

    /// Run `f` once per rank — rank 0 on the caller's thread, ranks
    /// 1..p on a thread each, spawned for this run and joined before it
    /// returns — and return one `Result` per rank, in rank order: `Ok`
    /// with the closure's value for ranks that completed, `Err` with a
    /// typed [`RankFailure`] for ranks that unwound (injected faults,
    /// SPMD violations, poisoned barriers, plain panics) — rank 0
    /// included: its panic is caught like any other and never unwinds
    /// into the caller. [`Self::run_resident`] is the same run on the
    /// cluster's resident threads, for closures that own what they use.
    ///
    /// The cluster is healed on entry (barriers unpoisoned, rendezvous
    /// slots cleared), so a failed run can be retried on the same
    /// cluster — consumed fault-plan events will not re-fire. The slots
    /// are cleared again once every rank has joined, so no payload of a
    /// run outlives it.
    pub fn run_fallible<T, F>(&self, f: F) -> Vec<Result<T, RankFailure>>
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Sync,
    {
        self.shared.reset_for_run();
        let (shared, f) = (&self.shared, &f);
        // Ranks 1..p get a thread each and the caller runs rank 0
        // inside the same scope: one spawn fewer per run, and the
        // first collective does not wait for a caller that is still
        // spawning.
        let results = std::thread::scope(|s| {
            let spawned: Vec<_> = (1..shared.topo.num_ranks())
                .map(|rank| s.spawn(move || shared.run_rank(rank, f)))
                .collect();
            let mut results = vec![shared.run_rank(0, f)];
            results.extend(spawned.into_iter().map(|handle| {
                handle
                    .join()
                    .expect("a rank thread catches its closure's panic")
            }));
            results
        });
        self.shared.scopes().for_each(ScopeShared::clear_slots);
        results
    }

    /// [`Self::run_fallible`] for a job that owns what it uses: rank 0
    /// runs on the caller's thread, ranks 1..p on the cluster's resident
    /// threads — rank `r` always on the same one — which the first such
    /// run spawns and the cluster's drop joins, so a loop of runs spawns
    /// nothing after its first. Same per-rank results, same healing on
    /// entry and slot clearing on exit; the two launchers may take
    /// turns on one cluster.
    ///
    /// A rank whose result never comes back — its thread could not be
    /// spawned, or its job unwound past the rank body — is a typed
    /// [`FailureKind::Panic`] for that rank, and every barrier is
    /// poisoned so no peer waits for it.
    pub fn run_resident<T, F>(&self, f: Arc<F>) -> Vec<Result<T, RankFailure>>
    where
        T: Send + 'static,
        F: Fn(&mut RankCtx) -> T + Send + Sync + 'static,
    {
        let p = self.shared.topo.num_ranks();
        self.shared.reset_for_run();
        let (done, results) = mpsc::channel();
        let jobs = (1..p).map(|rank| {
            let (shared, f, done) = (Arc::clone(&self.shared), Arc::clone(&f), done.clone());
            Box::new(move || {
                let _ = done.send((rank, shared.run_rank(rank, &*f)));
            }) as Job
        });
        match self.workers.get() {
            Some(workers) => {
                for (worker, job) in workers.iter().zip(jobs) {
                    if worker.jobs.send(job).is_err() {
                        self.shared.poison_all();
                    }
                }
            }
            None => {
                let workers = (1..).zip(jobs);
                let workers = workers.map(|(rank, job)| Worker::spawn(rank, &self.shared, job));
                let _ = self.workers.set(workers.collect());
            }
        }
        // Every job holds a sender: the receive loop below ends once
        // each has sent its result or been dropped without one.
        drop(done);
        let mut out: Vec<_> = (0..p).map(|_| None).collect();
        out[0] = Some(self.shared.run_rank(0, &*f));
        for (rank, result) in results {
            out[rank] = Some(result);
        }
        self.shared.scopes().for_each(ScopeShared::clear_slots);
        let no_result = |rank| Err(RankFailure::no_result(rank));
        (0..)
            .zip(out)
            .map(|(rank, r)| r.unwrap_or_else(|| no_result(rank)))
            .collect()
    }

    /// Run `f` once per rank ([`Self::run_fallible`]'s threads) and
    /// return the per-rank results in rank order.
    ///
    /// # Panics
    /// If any rank fails, panics after the whole cluster has been torn
    /// down (barriers poisoned, threads joined) with a message
    /// aggregating **every** failing rank — root causes first — rather
    /// than only the lowest-ranked one.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Sync,
    {
        all_ranks_ok(self.run_fallible(f)).unwrap_or_else(|mut failures| {
            failures.sort_by_key(|f| (!f.is_root_cause(), f.rank));
            let lines: Vec<String> = failures.iter().map(|f| format!("  {f}")).collect();
            panic!(
                "{} of {} ranks failed:\n{}",
                failures.len(),
                self.shared.topo.num_ranks(),
                lines.join("\n")
            )
        })
    }
}

/// Fold [`Cluster::run_fallible`]'s per-rank results into the all-ranks
/// view every caller decides on: `Ok` with the rank-ordered values when
/// no rank failed, otherwise `Err` with every failure in rank order (the
/// surviving ranks' values are dropped — an SPMD result missing a rank
/// is not a result).
pub fn all_ranks_ok<T>(results: Vec<Result<T, RankFailure>>) -> Result<Vec<T>, Vec<RankFailure>> {
    let mut oks = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for r in results {
        match r {
            Ok(v) => oks.push(v),
            Err(f) => failures.push(f),
        }
    }
    if failures.is_empty() {
        Ok(oks)
    } else {
        Err(failures)
    }
}

json_record! {
    /// Invocation count and payload bytes of one `(scope, op)` collective
    /// category on one rank.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct CommOpStats {
        /// Number of collective calls.
        pub count: u64,
        /// Bytes this rank contributed across those calls.
        pub bytes: u64,
    }
}

/// Per-scope collective call counts and byte volumes on one rank.
///
/// Keys are `"<scope>/" + op` ([`Category::joined`]: `"row/hubsync.EH2EH"`,
/// `"world/comm.alltoallv.L2L"`, ...), so the same op tag stays
/// distinguishable between its row and column hops — the traffic split
/// that decides what rides the supernode network versus the
/// oversubscribed tree.
///
/// Equality compares the full per-key state — the merge/subtract
/// round-trip property (`(a ⊎ b) − b = a`) the serve layer's per-query
/// comm attribution relies on is tested against it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    ops: CategoryMap<CommOpStats>,
}

impl std::ops::AddAssign for CommOpStats {
    fn add_assign(&mut self, other: CommOpStats) {
        self.count += other.count;
        self.bytes += other.bytes;
    }
}

impl std::ops::SubAssign for CommOpStats {
    fn sub_assign(&mut self, other: CommOpStats) {
        self.count -= other.count;
        self.bytes -= other.bytes;
    }
}

impl CommStats {
    /// Empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one collective call of `op` on `scope` with `bytes` sent.
    pub fn record(&mut self, scope: Scope, op: &'static str, bytes: u64) {
        let key = Category::joined(scope_prefix(scope), op);
        self.ops.add(key, CommOpStats { count: 1, bytes });
    }

    /// Stats for one `(scope, op)` pair (zero when absent).
    pub fn get(&self, scope: Scope, op: &str) -> CommOpStats {
        self.ops.get(scope_prefix(scope), op)
    }

    /// All `(key, stats)` pairs in printed-key order.
    pub fn entries(&self) -> impl Iterator<Item = (Category, CommOpStats)> + '_ {
        self.ops.iter()
    }

    /// Total calls and bytes for keys whose printed name starts with
    /// `prefix`.
    pub fn total_with_prefix(&self, prefix: &str) -> CommOpStats {
        let mut total = CommOpStats::default();
        for (_, v) in self.entries().filter(|(k, _)| k.starts_with(prefix)) {
            total += v;
        }
        total
    }

    /// Merge another rank's stats into this one.
    pub fn merge(&mut self, other: &CommStats) {
        self.ops.merge(&other.ops);
    }

    /// Subtract `earlier` per key, in place, dropping keys that reach
    /// zero (isolates one phase from a running recorder, as
    /// [`TimeAccumulator::subtract`] does).
    pub fn subtract(&mut self, earlier: &CommStats) {
        self.ops.subtract(&earlier.ops);
    }
}

impl ToJson for CommStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.entries()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

/// The printed prefix of a [`CommStats`] key on `scope`.
fn scope_prefix(scope: Scope) -> &'static str {
    match scope {
        Scope::World => "world/",
        Scope::Row => "row/",
        Scope::Col => "col/",
    }
}

pub(crate) fn scope_label(scope: Scope) -> &'static str {
    match scope {
        Scope::World => "world",
        Scope::Row => "row",
        Scope::Col => "col",
    }
}

impl ToJson for Scope {
    fn to_json(&self) -> JsonValue {
        JsonValue::from(scope_label(*self))
    }
}

/// Per-rank execution context: identity, simulated clock, time
/// accounting, and the collective operations.
pub struct RankCtx {
    rank: usize,
    shared: Arc<ClusterShared>,
    clock: SimTime,
    acc: TimeAccumulator,
    comm: CommStats,
    /// Per-scope-kind op sequence numbers (world/row/col).
    seqs: [u64; 3],
    /// Global collective call counter (all scopes, program order) —
    /// the index space fault-plan events address.
    op_index: u64,
    /// Simulated time spent retransmitting corrupted deposits during
    /// the collective in flight, consumed by the next settle so the
    /// heal cost lands *after* entry-skew alignment instead of being
    /// rewound by it.
    pending_retransmit: SimTime,
    /// Whether deposits are framed and healed: the fault plan is
    /// non-empty. That is fixed for a run and every rank must agree on
    /// it, so it is sampled once, here.
    framing: bool,
}

impl RankCtx {
    fn new(rank: usize, shared: Arc<ClusterShared>) -> Self {
        RankCtx {
            rank,
            framing: !shared.plan.is_empty(),
            shared,
            clock: SimTime::ZERO,
            acc: TimeAccumulator::new(),
            comm: CommStats::new(),
            seqs: [0; 3],
            op_index: 0,
            pending_retransmit: SimTime::ZERO,
        }
    }

    /// Number of collective calls this rank has issued so far — the
    /// `op_index` space fault-plan events address. Lock-step SPMD code
    /// observes the identical value on every rank, which lets tests
    /// and checkpoints pin a position in the collective schedule.
    #[inline]
    pub fn collective_calls(&self) -> u64 {
        self.op_index
    }

    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.shared.topo.num_ranks()
    }

    /// Mesh topology.
    #[inline]
    pub fn topology(&self) -> Topology {
        self.shared.topo
    }

    /// This rank's mesh row.
    #[inline]
    pub fn row(&self) -> usize {
        self.shared.topo.row_of(self.rank)
    }

    /// This rank's mesh column.
    #[inline]
    pub fn col(&self) -> usize {
        self.shared.topo.col_of(self.rank)
    }

    /// Machine constants.
    #[inline]
    pub fn machine(&self) -> &MachineConfig {
        &self.shared.machine
    }

    /// Current simulated time on this rank.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Advance this rank's simulated clock by `t`, attributed to
    /// `category` (local compute, chip kernels, ...).
    pub fn charge(&mut self, category: &'static str, t: SimTime) {
        self.clock += t;
        self.acc.add(category, t);
    }

    /// Read-only view of this rank's time accounting.
    pub fn accumulator(&self) -> &TimeAccumulator {
        &self.acc
    }

    /// Read-only view of this rank's per-scope collective counters.
    pub fn comm_stats(&self) -> &CommStats {
        &self.comm
    }

    /// Take the collective counters (for returning from the rank closure).
    pub fn take_comm_stats(&mut self) -> CommStats {
        std::mem::take(&mut self.comm)
    }

    /// Take the time accounting, leaving this rank's empty.
    pub fn take_accumulator(&mut self) -> TimeAccumulator {
        std::mem::take(&mut self.acc)
    }

    /// Number of ranks in `scope`.
    pub fn scope_size(&self, scope: Scope) -> usize {
        self.scope_members(scope).len()
    }

    /// Poison every barrier and unwind with a typed [`SpmdViolation`]
    /// so the violation surfaces as a structured [`RankFailure`]
    /// instead of a bare panic (and never a deadlock).
    fn violate(
        &self,
        scope: Scope,
        op: &str,
        offender: Option<usize>,
        kind: SpmdViolationKind,
    ) -> ! {
        self.shared.poison_all();
        std::panic::panic_any(FailureKind::Violation(SpmdViolation {
            rank: self.rank,
            offender,
            scope,
            op: op.to_string(),
            kind,
        }));
    }

    /// Consult the fault plan for this collective call; mutates the
    /// payload in place (corruption), delays the simulated clock
    /// (straggler), or unwinds (injected panic). Every firing is
    /// recorded in the cluster's fault log with this rank's simulated
    /// timestamp. When a corruption was applied, returns the pristine
    /// pre-corruption payload so the exchange can retransmit it after
    /// the checksum catches the damage.
    fn inject_fault<T: Payload>(
        &mut self,
        scope: Scope,
        op: &str,
        op_index: u64,
        payload: &mut T,
    ) -> Option<T> {
        let kind = self.shared.plan.fire(self.rank, op_index)?;
        let mut applied = true;
        let mut pristine = None;
        match kind {
            FaultKind::Straggler { secs } => {
                // Simulated delay: every peer of this collective will
                // record the skew as `comm.imbalance`, exactly like a
                // slow node. Real delay (capped so test suites stay
                // fast): skews the actual thread interleaving too.
                self.clock += SimTime::secs(secs);
                self.acc.add("fault.straggler", SimTime::secs(secs));
                std::thread::sleep(std::time::Duration::from_secs_f64(secs.min(0.005)));
            }
            FaultKind::Corrupt { mode } => {
                let kept = payload.clone();
                applied = payload.corrupt(mode);
                pristine = applied.then_some(kept);
            }
            FaultKind::Panic => {}
        }
        lock_ignore_poison(&self.shared.fault_log).push(FaultRecord {
            rank: self.rank,
            op_index,
            scope,
            op: op.to_string(),
            kind,
            sim_seconds: self.clock.as_secs(),
            applied,
        });
        if matches!(kind, FaultKind::Panic) {
            self.shared.poison_all();
            std::panic::panic_any(FailureKind::Injected {
                op_index,
                op: op.to_string(),
            });
        }
        pristine
    }

    /// Core rendezvous: deposit `payload`, wait for all scope members,
    /// collect everyone's payloads (as shared `Arc`s), and hand each
    /// member's deposit to `collect`, in scope position order, for the
    /// metadata the caller costs the collective by.
    ///
    /// Returns `(payloads, entry-clock max)`, payloads in scope position
    /// order.
    ///
    /// Fault-free (no framing) this is **one** barrier: deposit into
    /// the scope's buffer `seq mod 2`, wait, collect. Nothing protects
    /// the slots after the collect, and nothing needs to: a member
    /// deposits into this buffer again at collective `seq + 2`, which
    /// it reaches only through the barrier of `seq + 1`, which every
    /// member enters only after it has collected `seq`. With a live
    /// fault plan the exchange is the two-phase protocol — deposit,
    /// barrier, [`Self::heal_corrupt_deposits`], collect, barrier — so
    /// a heal round always works on slots no member has moved past.
    fn exchange<T: Payload>(
        &mut self,
        scope: Scope,
        op: &'static str,
        payload: T,
        bytes: u64,
        volumes: Option<Arc<[u64]>>,
        mut collect: impl FnMut(&Deposit),
    ) -> (Vec<Arc<T>>, SimTime) {
        let shared = Arc::clone(&self.shared);
        let (ss, pos, seq_idx) = shared.scope_of(self.rank, scope);
        let seq = self.seqs[seq_idx];
        self.seqs[seq_idx] += 1;
        let op_index = self.op_index;
        self.op_index += 1;
        let mut payload = payload;
        // Framing (and the pristine-copy bookkeeping for retransmits)
        // is only paid when a fault plan is live: the fault-free fast
        // path deposits unframed and skips verification entirely.
        let framing = self.framing;
        let frame = framing.then(|| payload.frame());
        let pristine = if framing {
            self.inject_fault(scope, op, op_index, &mut payload)
        } else {
            None
        };
        // A planned panic ends the run at its collective on *every*
        // rank (each has fired its own events for this op by now), not
        // just on the victim's scope-mates. Left to barrier poisoning
        // alone, ranks on disjoint row/column scopes would run on for a
        // timing-dependent number of collectives — firing events that
        // belong to the retry — before the poison reached them.
        if framing && op_index == self.shared.panic_op.load(Ordering::Acquire) {
            std::panic::panic_any(BarrierPoisoned);
        }
        let retrans_volumes = if framing { volumes.clone() } else { None };
        self.comm.record(scope, op, bytes);
        let tag = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ fnv1a(op.as_bytes());
        let n = ss.members.len();
        debug_assert_eq!(ss.members[pos], self.rank);
        // `seq` is equal on every member (the SPMD contract), so all of
        // them pick the same buffer; one that is out of step finds a
        // missing deposit or another collective's tag there.
        let ScopeBuffer { slots, clocks } = &ss.buffers[(seq % 2) as usize];

        clocks[pos].store(self.clock.as_secs().to_bits(), Ordering::Release);
        *lock_ignore_poison(&slots[pos]) = Some(Deposit {
            tag,
            bytes,
            volumes,
            frame,
            payload: Arc::new(payload),
        });
        ss.barrier.wait();

        if framing {
            self.heal_corrupt_deposits(
                ss,
                slots,
                scope,
                op,
                op_index,
                pos,
                tag,
                bytes,
                frame,
                &retrans_volumes,
                &pristine,
            );
        }

        let mut payloads = Vec::with_capacity(n);
        let mut max_entry = SimTime::ZERO;
        for p in 0..n {
            let member = ss.members[p];
            let slot = lock_ignore_poison(&slots[p]);
            let Some(dep) = slot.as_ref() else {
                drop(slot);
                self.violate(scope, op, Some(member), SpmdViolationKind::MissingDeposit);
            };
            if dep.tag != tag {
                drop(slot);
                self.violate(scope, op, Some(member), SpmdViolationKind::TagMismatch);
            }
            let Ok(typed) = Arc::downcast::<T>(Arc::clone(&dep.payload)) else {
                drop(slot);
                self.violate(
                    scope,
                    op,
                    Some(member),
                    SpmdViolationKind::PayloadTypeMismatch,
                );
            };
            payloads.push(typed);
            collect(dep);
            let entry = SimTime::secs(f64::from_bits(clocks[p].load(Ordering::Acquire)));
            max_entry = max_entry.max(entry);
        }
        if framing {
            // Second barrier of the two-phase protocol: nobody starts
            // the next collective until everyone has collected.
            ss.barrier.wait();
        }
        (payloads, max_entry)
    }

    /// Self-healing pass between the deposit and collect barriers:
    /// verify every deposit's frame against its landed payload and
    /// retransmit corrupted ones in place, up to [`MAX_RETRANSMITS`]
    /// rounds. Each round is two-phase — verify, barrier, re-deposit,
    /// barrier — so every member derives the corrupt set from the same
    /// stable snapshot and runs the identical control flow (same
    /// corrupt set, same round count); every member also charges the
    /// identical allgather-shaped heal cost, keeping the simulated
    /// clocks in lock-step. Exhausting the budget poisons the cluster
    /// and unwinds all members with a typed escalation blaming the
    /// corrupt sender.
    #[allow(clippy::too_many_arguments)]
    fn heal_corrupt_deposits<T: Payload>(
        &mut self,
        ss: &ScopeShared,
        slots: &[Mutex<Option<Deposit>>],
        scope: Scope,
        op: &str,
        op_index: u64,
        pos: usize,
        tag: u64,
        bytes: u64,
        frame: Option<Frame>,
        volumes: &Option<Arc<[u64]>>,
        pristine: &Option<T>,
    ) {
        let n = ss.members.len();
        let corrupt_positions = || -> Vec<usize> {
            (0..n)
                .filter(|&p| {
                    let slot = lock_ignore_poison(&slots[p]);
                    // A deposit of another type is left for collect to
                    // report as a `PayloadTypeMismatch`.
                    slot.as_ref().is_some_and(|dep| {
                        dep.payload
                            .downcast_ref::<T>()
                            .is_some_and(|p| Some(p.frame()) != dep.frame)
                    })
                })
                .collect()
        };
        let mut attempt = 0u32;
        loop {
            let corrupt = corrupt_positions();
            // Verification barrier: every member must derive the
            // corrupt set from the same stable snapshot of the slots
            // before any re-depositor overwrites one — otherwise a
            // slow verifier can observe an already-healed slot, skip
            // the heal round, and unbalance the barrier protocol.
            ss.barrier.wait();
            if corrupt.is_empty() {
                return;
            }
            if attempt >= MAX_RETRANSMITS {
                // Replicated decision: every member reads the same
                // slots, so all unwind together blaming the same rank.
                let from = ss.members[corrupt[0]];
                self.shared.poison_all();
                std::panic::panic_any(FailureKind::CorruptPayload {
                    from,
                    scope,
                    op: op.to_string(),
                    op_index,
                    attempts: attempt,
                });
            }
            attempt += 1;
            // Every member charges the same heal cost — the corrupted
            // deposits are re-gathered across the scope — stashed for
            // the next settle (which would otherwise rewind a direct
            // clock bump during entry-skew alignment).
            let mut heal_volumes = vec![0u64; n];
            for &p in &corrupt {
                heal_volumes[p] = lock_ignore_poison(&slots[p])
                    .as_ref()
                    .map_or(0, |d| d.bytes);
            }
            self.pending_retransmit +=
                cost::allgatherv_cost(&self.shared.machine, scope, &heal_volumes);
            if corrupt.contains(&pos) {
                let mut fresh = pristine
                    .clone()
                    .expect("a corrupted deposit always has a pristine copy");
                // Re-run injection on the fresh copy: a duplicate plan
                // event at the same (rank, op_index) re-corrupts the
                // retransmission too — the persistent-fault model that
                // can exhaust the budget.
                let _ = self.inject_fault(scope, op, op_index, &mut fresh);
                lock_ignore_poison(&self.shared.retransmit_log).push(RetransmitRecord {
                    from: self.rank,
                    scope,
                    op: op.to_string(),
                    op_index,
                    attempt,
                });
                *lock_ignore_poison(&slots[pos]) = Some(Deposit {
                    tag,
                    bytes,
                    volumes: volumes.clone(),
                    frame,
                    payload: Arc::new(fresh),
                });
            }
            // Re-deposit barrier: re-depositors must finish before
            // anyone re-verifies in the next round.
            ss.barrier.wait();
        }
    }

    /// Record the skew between this rank's entry clock and the scope's
    /// latest entry, then advance to `max_entry + cost` charged under
    /// `category` (plus any pending retransmit heal time under
    /// `comm.retransmit`).
    fn settle(&mut self, category: Category, max_entry: SimTime, cost: SimTime) {
        let heal = std::mem::replace(&mut self.pending_retransmit, SimTime::ZERO);
        let skew = max_entry - self.clock;
        if skew.as_secs() > 0.0 {
            self.acc.add("comm.imbalance", skew);
        }
        if heal.as_secs() > 0.0 {
            self.acc.add("comm.retransmit", heal);
        }
        self.acc.add(category, cost);
        self.clock = max_entry + heal + cost;
    }

    /// Barrier over `scope`: synchronizes clocks, charges only skew.
    pub fn barrier(&mut self, scope: Scope) {
        let (_, max_entry) = self.exchange(scope, "barrier", (), 0, None, |_| ());
        self.settle(Category::new("comm.barrier"), max_entry, SimTime::ZERO);
    }

    /// Irregular all-to-all: `send[p]` goes to scope member `p`; returns
    /// what every member sent to this rank, in member order. Each part is
    /// moved to its receiver, never copied: the receiver takes it out of
    /// the sender's deposit after the collect.
    pub fn alltoallv<T: Wire>(
        &mut self,
        scope: Scope,
        category: &'static str,
        send: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let n = self.scope_size(scope);
        assert_eq!(
            send.len(),
            n,
            "alltoallv send buffer count must equal scope size"
        );
        let item = std::mem::size_of::<T>() as u64;
        let volumes: Arc<[u64]> = send.iter().map(|v| v.len() as u64 * item).collect();
        let bytes: u64 = volumes.iter().sum();
        let my_pos = self.shared.scope_of(self.rank, scope).1;
        let mut rows = Vec::with_capacity(n);
        let (payloads, max_entry) = self.exchange(
            scope,
            category,
            Parts::from(send),
            bytes,
            Some(volumes),
            |dep| rows.extend(dep.volumes.clone()),
        );
        let cost = cost::alltoallv_cost(
            &self.shared.machine,
            &self.shared.topo,
            self.scope_members(scope),
            &rows,
        );
        self.settle(Category::new(category), max_entry, cost);
        payloads.iter().map(|p| p.take(my_pos)).collect()
    }

    /// All-gather: every member contributes a vector; returns all
    /// vectors in member order.
    pub fn allgatherv<T: Wire>(
        &mut self,
        scope: Scope,
        category: &'static str,
        send: Vec<T>,
    ) -> Vec<Vec<T>> {
        let bytes = (send.len() * std::mem::size_of::<T>()) as u64;
        let mut all_bytes = Vec::with_capacity(self.scope_size(scope));
        let (payloads, max_entry) = self.exchange(scope, category, send, bytes, None, |dep| {
            all_bytes.push(dep.bytes)
        });
        let cost = cost::allgatherv_cost(&self.shared.machine, scope, &all_bytes);
        self.settle(Category::new(category), max_entry, cost);
        payloads.iter().map(|p| p.as_ref().clone()).collect()
    }

    /// Element-wise all-reduce with a custom combiner. All members must
    /// pass equal-length vectors; the result (identical on every rank)
    /// is the position-ordered fold.
    ///
    /// The cost is charged as a ring all-reduce, split into its
    /// reduce-scatter and allgather halves under
    /// `"comm.reduce_scatter"` / `"comm.allgather"` so the Figure 11
    /// breakdown falls out naturally; `charged_bytes` overrides the
    /// payload size when the caller models a sparser exchange.
    pub fn allreduce_with<T, F>(
        &mut self,
        scope: Scope,
        op: &'static str,
        mine: Vec<T>,
        charged_bytes: Option<u64>,
        combine: F,
    ) -> Vec<T>
    where
        T: Wire,
        F: Fn(&mut T, &T),
    {
        self.allreduce_with_indexed(scope, op, mine, charged_bytes, |_, a, b| combine(a, b))
    }

    /// [`Self::allreduce_with`] with a position-aware combiner, so one
    /// collective can mix reductions (e.g. OR over bitmap words plus a
    /// summed trailing counter — the piggybacking real BFS codes use to
    /// avoid extra latency-bound scalar collectives).
    pub fn allreduce_with_indexed<T, F>(
        &mut self,
        scope: Scope,
        op: &'static str,
        mine: Vec<T>,
        charged_bytes: Option<u64>,
        combine: F,
    ) -> Vec<T>
    where
        T: Wire,
        F: Fn(usize, &mut T, &T),
    {
        let len = mine.len();
        self.allreduce_picked(
            scope,
            op,
            mine,
            charged_bytes,
            std::iter::once(0..len),
            combine,
        )
    }

    /// [`Self::allreduce_with_indexed`] that folds and returns only the
    /// elements at `picks`, concatenated in pick order: a rank that
    /// needs only the slots it owns reads back only those (the owner
    /// side of a reduce-scatter). The charge is the full all-reduce's —
    /// same op name, deposited bytes, [`CommStats`] and simulated clock
    /// — because the modelled collective still reduces every element,
    /// and every deposit's length is still checked against `mine`'s.
    ///
    /// `picks` is walked twice, once to size the result and once to
    /// fill it, so it must be a cheap [`Clone`].
    ///
    /// # Panics
    /// If a pick reaches past the end of `mine`.
    pub fn allreduce_picked<T, F, I>(
        &mut self,
        scope: Scope,
        op: &'static str,
        mine: Vec<T>,
        charged_bytes: Option<u64>,
        picks: I,
        combine: F,
    ) -> Vec<T>
    where
        T: Wire,
        F: Fn(usize, &mut T, &T),
        I: Iterator<Item = Range<usize>> + Clone,
    {
        let n = self.scope_size(scope);
        let bytes = charged_bytes.unwrap_or((mine.len() * std::mem::size_of::<T>()) as u64);
        let len = mine.len();
        let (payloads, max_entry) = self.exchange(scope, op, mine, bytes, None, |_| ());
        let members = self.scope_members(scope);
        // The deposited payloads may differ in length from this rank's
        // contribution — an SPMD bug or an injected truncation. Check
        // every member (including position 0 and ourselves, whose
        // deposit may have been corrupted in transit).
        for (p, payload) in payloads.iter().enumerate() {
            if payload.len() != len {
                self.violate(
                    scope,
                    op,
                    Some(members[p]),
                    SpmdViolationKind::LengthMismatch,
                );
            }
        }
        let mut result = Vec::with_capacity(picks.clone().map(|r| r.len()).sum());
        for range in picks {
            let at = result.len();
            result.extend_from_slice(&payloads[0][range.clone()]);
            let folded = &mut result[at..];
            for p in &payloads[1..] {
                let other = &p[range.clone()];
                for (k, (a, b)) in folded.iter_mut().zip(other).enumerate() {
                    combine(range.start + k, a, b);
                }
            }
        }
        // A ring all-reduce is a reduce-scatter then an allgather, one
        // half of the cost each. The op name stays a suffix so callers
        // can group the same totals per comm type (Figure 11) *and* per
        // algorithm phase (Figure 10).
        let half = cost::allreduce_half_cost(&self.shared.machine, scope, n, bytes);
        self.settle_allreduce(op, max_entry, half);
        result
    }

    /// Settle an all-reduce of `op` at `max_entry`, charging `half` to
    /// each half. Not generic, so every all-reduce keys its halves with
    /// the same prefix strings.
    fn settle_allreduce(&mut self, op: &'static str, max_entry: SimTime, half: SimTime) {
        let reduce_scatter = Category::joined("comm.reduce_scatter.", op);
        self.settle(reduce_scatter, max_entry, half);
        self.clock += half;
        self.acc.add(Category::joined("comm.allgather.", op), half);
    }

    /// Sum a scalar across the scope.
    pub fn allreduce_sum(&mut self, scope: Scope, op: &'static str, x: u64) -> u64 {
        self.allreduce_with(scope, op, vec![x], None, |a, b| *a += b)[0]
    }

    /// Max of a scalar across the scope.
    pub fn allreduce_max(&mut self, scope: Scope, op: &'static str, x: u64) -> u64 {
        self.allreduce_with(scope, op, vec![x], None, |a, b| *a = (*a).max(*b))[0]
    }

    fn scope_members(&self, scope: Scope) -> &[usize] {
        &self.shared.scope_of(self.rank, scope).0.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster(rows: usize, cols: usize) -> Cluster {
        Cluster::new(MeshShape::new(rows, cols), MachineConfig::new_sunway())
    }

    #[test]
    fn run_returns_rank_ordered_results() {
        let c = small_cluster(2, 3);
        let out = c.run(|ctx| ctx.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn alltoallv_world_routes_correctly() {
        let c = small_cluster(2, 2);
        let out = c.run(|ctx| {
            let n = ctx.nranks();
            // Rank r sends the value r*100+d to rank d.
            let send: Vec<Vec<u64>> = (0..n)
                .map(|d| vec![(ctx.rank() * 100 + d) as u64])
                .collect();
            ctx.alltoallv(Scope::World, "comm.alltoallv", send)
        });
        for (d, recv) in out.iter().enumerate() {
            for (s, msgs) in recv.iter().enumerate() {
                assert_eq!(msgs, &vec![(s * 100 + d) as u64]);
            }
        }
    }

    #[test]
    fn row_and_col_scopes_are_disjoint() {
        let c = small_cluster(2, 2);
        let out = c.run(|ctx| {
            let row_sum = ctx.allreduce_sum(Scope::Row, "rowsum", ctx.rank() as u64);
            let col_sum = ctx.allreduce_sum(Scope::Col, "colsum", ctx.rank() as u64);
            (row_sum, col_sum)
        });
        // Mesh: ranks 0,1 / 2,3. Rows sum to 1 and 5; cols to 2 and 4.
        assert_eq!(out, vec![(1, 2), (1, 4), (5, 2), (5, 4)]);
    }

    #[test]
    fn allgatherv_collects_in_member_order() {
        let c = small_cluster(1, 3);
        let out = c.run(|ctx| {
            ctx.allgatherv(
                Scope::World,
                "comm.allgather",
                vec![ctx.rank() as u32; ctx.rank() + 1],
            )
        });
        for recv in out {
            assert_eq!(recv, vec![vec![0], vec![1, 1], vec![2, 2, 2]]);
        }
    }

    #[test]
    fn clocks_advance_and_skew_is_recorded() {
        let c = small_cluster(1, 2);
        let out = c.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.charge("compute", SimTime::secs(1.0));
            }
            ctx.barrier(Scope::World);
            (
                ctx.now().as_secs(),
                ctx.accumulator().get("comm.imbalance").as_secs(),
            )
        });
        // Both ranks end at t=1.0; rank 1 waited 1.0s at the barrier.
        assert!((out[0].0 - 1.0).abs() < 1e-12);
        assert!((out[1].0 - 1.0).abs() < 1e-12);
        assert!((out[0].1 - 0.0).abs() < 1e-12);
        assert!((out[1].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn communication_costs_clock_time() {
        let c = small_cluster(2, 2);
        let out = c.run(|ctx| {
            let send: Vec<Vec<u64>> = (0..4).map(|_| vec![0u64; 1 << 16]).collect();
            ctx.alltoallv(Scope::World, "comm.alltoallv", send);
            ctx.now().as_secs()
        });
        for t in out {
            assert!(t > 0.0, "alltoallv must cost simulated time");
        }
    }

    #[test]
    fn one_barrier_exchange_never_shows_a_neighbouring_collective() {
        // 20 k back-to-back collectives on the unframed path, in runs of
        // five per scope (a buffer is reused by the scope's *own* next
        // collectives; the scope changes exercise the three sequence
        // numbers against each other). Every collected payload must be
        // `(member, k)` of collective `k` itself: a slot read one
        // collective early or overwritten one collective late shows up
        // as `k - 1`, `k + 1` or a typed violation (with one buffer
        // instead of two, within the first few hundred ops). Rank 3
        // dawdles before varying ops so the others run as far ahead as
        // the protocol lets them.
        const OPS: u64 = 20_000;
        let c = small_cluster(2, 2);
        let topo = c.topology();
        let members_of = move |scope: Scope, rank: usize| -> Vec<usize> {
            let (row, col) = (topo.row_of(rank), topo.col_of(rank));
            match scope {
                Scope::World => (0..4).collect(),
                Scope::Row => (0..2).map(|c| topo.rank_at(row, c)).collect(),
                Scope::Col => (0..2).map(|r| topo.rank_at(r, col)).collect(),
            }
        };
        c.run(|ctx| {
            assert!(!ctx.framing, "no plan: the one-barrier path");
            let me = ctx.rank();
            for k in 0..OPS {
                let scope = [Scope::World, Scope::Row, Scope::Col][(k / 5 % 3) as usize];
                if me == 3 && k % 97 < 3 {
                    std::thread::sleep(std::time::Duration::from_micros(50 + k % 7 * 30));
                }
                let members = members_of(scope, me);
                let stamp = |m: usize| (m as u64, k);
                match k % 4 {
                    0 => {
                        let got = ctx.allgatherv(scope, "gather", vec![stamp(me)]);
                        let want: Vec<_> = members.iter().map(|&m| vec![stamp(m)]).collect();
                        assert_eq!(got, want, "allgatherv {k}");
                    }
                    1 => {
                        // Each member sends `(sender, k, receiver)`.
                        let route = |m: usize, d: usize| (m as u64, k, d as u64);
                        let send = members.iter().map(|&d| vec![route(me, d)]).collect();
                        let got = ctx.alltoallv(scope, "route", send);
                        let want: Vec<_> = members.iter().map(|&m| vec![route(m, me)]).collect();
                        assert_eq!(got, want, "alltoallv {k}");
                    }
                    _ => {
                        let sum = ctx.allreduce_sum(scope, "sum", me as u64 + k);
                        let want = members.iter().map(|&m| m as u64 + k).sum::<u64>();
                        assert_eq!(sum, want, "allreduce {k}");
                    }
                }
            }
        });
    }

    #[test]
    fn mismatched_collectives_panic_not_deadlock() {
        let c = small_cluster(1, 2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            c.run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.allreduce_sum(Scope::World, "op_a", 1);
                } else {
                    ctx.allreduce_max(Scope::World, "op_b", 1);
                }
            })
        }));
        assert!(r.is_err(), "collective mismatch must fail loudly");
    }

    #[test]
    fn rank_panic_tears_down_cluster() {
        let c = small_cluster(2, 2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            c.run(|ctx| {
                if ctx.rank() == 2 {
                    panic!("injected fault on rank 2");
                }
                // Other ranks head into a collective and must be released
                // by poisoning rather than hanging.
                ctx.barrier(Scope::World);
            })
        }));
        assert!(r.is_err());
    }

    #[test]
    fn single_rank_cluster_works() {
        let c = small_cluster(1, 1);
        let out = c.run(|ctx| {
            let s = ctx.allreduce_sum(Scope::World, "s", 7);
            let g = ctx.allgatherv(Scope::World, "g", vec![1u8, 2]);
            let a = ctx.alltoallv(Scope::World, "a", vec![vec![9u64]]);
            (s, g, a)
        });
        assert_eq!(out[0].0, 7);
        assert_eq!(out[0].1, vec![vec![1, 2]]);
        assert_eq!(out[0].2, vec![vec![9]]);
    }

    #[test]
    fn comm_stats_record_per_scope_counts_and_bytes() {
        let c = small_cluster(2, 2);
        let out = c.run(|ctx| {
            ctx.allreduce_sum(Scope::Row, "rowsum", 1);
            ctx.allreduce_sum(Scope::Row, "rowsum", 2);
            ctx.allreduce_sum(Scope::Col, "colsum", 3);
            let send: Vec<Vec<u64>> = (0..4).map(|_| vec![0u64; 8]).collect();
            ctx.alltoallv(Scope::World, "comm.alltoallv.x", send);
            ctx.take_comm_stats()
        });
        for stats in &out {
            assert_eq!(
                stats.get(Scope::Row, "rowsum"),
                CommOpStats {
                    count: 2,
                    bytes: 16
                }
            );
            assert_eq!(
                stats.get(Scope::Col, "colsum"),
                CommOpStats { count: 1, bytes: 8 }
            );
            assert_eq!(
                stats.get(Scope::World, "comm.alltoallv.x"),
                CommOpStats {
                    count: 1,
                    bytes: 4 * 8 * 8
                }
            );
            assert_eq!(stats.total_with_prefix("row/").count, 2);
        }
        // subtract isolates a phase; merge adds ranks.
        let mut merged = CommStats::new();
        for s in &out {
            merged.merge(s);
        }
        assert_eq!(merged.get(Scope::Row, "rowsum").count, 8);
        merged.subtract(&out[0]);
        assert_eq!(merged.get(Scope::Row, "rowsum").count, 6);
        // JSON rendering is deterministic and keyed by scope/op.
        let js = out[0].to_json().render();
        assert!(
            js.contains("\"row/rowsum\":{\"count\":2,\"bytes\":16}"),
            "got {js}"
        );
    }

    #[test]
    fn comm_keys_print_in_scope_then_op_order() {
        let mut stats = CommStats::new();
        stats.record(Scope::World, "x", 1);
        stats.record(Scope::Row, "x", 2);
        stats.record(Scope::Col, "x", 4);
        stats.record(Scope::Row, "hubsync.L2E", 8);
        stats.record(Scope::Row, "x", 16);
        let keys: Vec<String> = stats.entries().map(|(k, _)| k.to_string()).collect();
        assert_eq!(keys, ["col/x", "row/hubsync.L2E", "row/x", "world/x"]);
        assert_eq!(
            stats.total_with_prefix("row/"),
            CommOpStats {
                count: 3,
                bytes: 26
            }
        );
        assert_eq!(
            stats.to_json().render(),
            "{\"col/x\":{\"count\":1,\"bytes\":4},\
             \"row/hubsync.L2E\":{\"count\":1,\"bytes\":8},\
             \"row/x\":{\"count\":2,\"bytes\":18},\
             \"world/x\":{\"count\":1,\"bytes\":1}}"
        );
    }

    #[test]
    fn an_allreduce_half_and_the_literal_it_prints_as_share_one_entry() {
        let c = small_cluster(1, 2);
        let out = c.run(|ctx| {
            ctx.allgatherv(Scope::World, "comm.allgather.H2L", vec![1u64]);
            ctx.allreduce_sum(Scope::World, "H2L", 1);
            ctx.barrier(Scope::World);
            let acc = ctx.take_accumulator();
            acc.entries()
                .map(|(k, _)| k.to_string())
                .collect::<Vec<_>>()
        });
        for keys in out {
            let want = [
                "comm.allgather.H2L",
                "comm.barrier",
                "comm.reduce_scatter.H2L",
            ];
            assert_eq!(keys, want);
        }
    }

    #[test]
    fn run_panic_aggregates_every_failing_rank() {
        let c = small_cluster(2, 2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            c.run(|ctx| {
                if ctx.rank() == 0 || ctx.rank() == 3 {
                    panic!("boom on rank {}", ctx.rank());
                }
                ctx.barrier(Scope::World);
            })
        }));
        let payload = r.expect_err("failing ranks must panic the run");
        let msg = payload
            .downcast_ref::<String>()
            .expect("aggregate panic is a String")
            .clone();
        // Both root causes are named — the caller's own rank 0 like any
        // other — and come before the collateral teardown.
        let at = |needle: &str| {
            msg.find(needle)
                .unwrap_or_else(|| panic!("no '{needle}': {msg}"))
        };
        assert!(msg.starts_with("4 of 4 ranks failed"), "got: {msg}");
        assert!(at("rank 0: panic: boom on rank 0") < at("rank 3: panic: boom on rank 3"));
        assert!(at("rank 3: panic") < at("rank 1: barrier poisoned (collateral)"));
    }

    #[test]
    fn rank_zero_runs_on_the_calling_thread_and_only_rank_zero() {
        let caller = std::thread::current().id();
        // On a 1x1 mesh that is every rank: nothing is spawned.
        for (rows, cols) in [(1, 1), (2, 2)] {
            let on_caller =
                small_cluster(rows, cols).run(|_| std::thread::current().id() == caller);
            let want: Vec<bool> = (0..rows * cols).map(|rank| rank == 0).collect();
            assert_eq!(on_caller, want);
        }
    }

    /// Which thread each rank of a resident run ran on.
    fn resident_threads(c: &Cluster) -> Vec<std::thread::ThreadId> {
        let job = Arc::new(|ctx: &mut RankCtx| {
            ctx.barrier(Scope::World);
            std::thread::current().id()
        });
        all_ranks_ok(c.run_resident(job)).expect("a clean run")
    }

    #[test]
    fn resident_ranks_keep_their_threads_and_rank_zero_the_callers() {
        let c = small_cluster(2, 2);
        let first = resident_threads(&c);
        assert_eq!(first[0], std::thread::current().id());
        for i in 1..first.len() {
            assert!(!first[..i].contains(&first[i]), "a thread per rank");
        }
        let sum = Arc::new(|ctx: &mut RankCtx| {
            let sum = ctx.allreduce_sum(Scope::World, "sum", ctx.rank() as u64);
            (std::thread::current().id(), sum)
        });
        for _ in 0..200 {
            let ranks = all_ranks_ok(c.run_resident(Arc::clone(&sum))).expect("a clean run");
            assert_eq!(ranks, first.iter().map(|&t| (t, 6)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_one_rank_cluster_spawns_no_resident_thread() {
        let c = small_cluster(1, 1);
        assert_eq!(resident_threads(&c), vec![std::thread::current().id()]);
        assert_eq!(c.workers.get().map(Vec::len), Some(0));
    }

    #[test]
    fn a_dropped_cluster_has_joined_its_resident_threads() {
        // A thread's thread-locals are destroyed as it exits: once the
        // drop returns, all three rank threads' have been.
        static EXITED: AtomicU64 = AtomicU64::new(0);
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local!(static MARK: OnExit = const { OnExit });
        let c = small_cluster(2, 2);
        let touch = Arc::new(|ctx: &mut RankCtx| {
            if ctx.rank() > 0 {
                MARK.with(|_| {});
            }
        });
        all_ranks_ok(c.run_resident(touch)).expect("a clean run");
        assert_eq!(EXITED.load(Ordering::SeqCst), 0, "alive until the drop");
        drop(c);
        assert_eq!(EXITED.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_resident_failure_is_typed_like_run_fallible_and_the_next_job_runs() {
        let plan = || FaultPlan::from_events(FaultPlan::parse("panic@2:1").expect("a valid plan"));
        let cluster =
            || Cluster::with_faults(MeshShape::new(2, 2), MachineConfig::new_sunway(), plan());
        let work = |ctx: &mut RankCtx| {
            ctx.barrier(Scope::World);
            ctx.allreduce_sum(Scope::Row, "rowsum", 1)
        };
        let kinds = |failures: &[RankFailure]| -> Vec<_> {
            let kind = |f: &RankFailure| std::mem::discriminant(&f.kind);
            failures.iter().map(|f| (f.rank, kind(f))).collect()
        };
        let (borrowed, resident) = (cluster(), cluster());
        let threads = resident_threads(&resident);
        let want = all_ranks_ok(borrowed.run_fallible(work)).expect_err("rank 2 dies");
        let got = all_ranks_ok(resident.run_resident(Arc::new(work))).expect_err("rank 2 dies");
        assert_eq!(kinds(&got), kinds(&want));
        assert_eq!(got.len(), 4);
        for f in &got {
            let cause = matches!(f.kind, FailureKind::Injected { op_index: 1, .. });
            let collateral = matches!(f.kind, FailureKind::BarrierPoisoned);
            assert_eq!((cause, collateral), (f.rank == 2, f.rank != 2));
        }
        assert_eq!(resident_threads(&resident), threads);
        let sums = resident.run_resident(Arc::new(work));
        assert_eq!(all_ranks_ok(sums).expect("the plan is spent"), vec![2; 4]);
    }

    #[test]
    fn a_resident_rank_that_returns_no_result_is_a_typed_failure() {
        // A panic payload that panics again when the rank body drops
        // it unwinds past the body: the job's result is lost, and the
        // worker survives it.
        struct Bomb;
        impl Drop for Bomb {
            fn drop(&mut self) {
                panic!("dropped a bomb");
            }
        }
        let c = small_cluster(2, 2);
        let threads = resident_threads(&c);
        let results = c.run_resident(Arc::new(|ctx: &mut RankCtx| {
            if ctx.rank() == 2 {
                std::panic::panic_any(Bomb);
            }
            ctx.barrier(Scope::World);
        }));
        for (rank, result) in results.iter().enumerate() {
            let failure = result.as_ref().expect_err("rank 2 took the run down");
            assert_eq!((failure.rank, failure.is_root_cause()), (rank, rank == 2));
        }
        assert!(matches!(
            &results[2],
            Err(RankFailure { kind: FailureKind::Panic { message }, .. })
                if message.contains("no result")
        ));
        assert_eq!(resident_threads(&c), threads);
    }

    #[test]
    fn the_two_launchers_take_turns_on_one_cluster() {
        let c = small_cluster(2, 3);
        let work = |ctx: &mut RankCtx| {
            let send = (0..ctx.nranks())
                .map(|d| vec![ctx.rank() as u64, d as u64])
                .collect();
            let got = ctx.alltoallv(Scope::World, "a2a", send);
            got.concat().iter().sum::<u64>() + ctx.allreduce_sum(Scope::Col, "col", 1)
        };
        let want = c.run(work);
        let shared = Arc::new(work);
        for _ in 0..10 {
            assert_eq!(
                all_ranks_ok(c.run_resident(Arc::clone(&shared))).expect("resident"),
                want
            );
            assert!(every_slot_is_empty(&c));
            assert_eq!(c.run(work), want);
        }
    }

    #[test]
    fn a_failing_rank_zero_is_a_typed_result_not_an_unwinding_caller() {
        use crate::fault::{FaultEvent, FaultKind};
        // A plain panic on the caller's thread is caught there: slot 0
        // says why, and the others were released by the poison it set.
        let results = small_cluster(2, 2).run_fallible(|ctx| {
            if ctx.rank() == 0 {
                panic!("rank 0 dies");
            }
            ctx.barrier(Scope::World);
        });
        assert!(matches!(
            &results[0],
            Err(RankFailure { rank: 0, kind: FailureKind::Panic { message } })
                if message.contains("rank 0 dies")
        ));
        for (rank, result) in results.iter().enumerate().skip(1) {
            let failure = result.as_ref().expect_err("released by poison");
            assert_eq!((failure.rank, failure.is_root_cause()), (rank, false));
        }
        // A planned fault at rank 0 likewise; the healed cluster then
        // runs rank 0 on this thread again.
        let plan = FaultPlan::from_events(vec![FaultEvent {
            rank: 0,
            op_index: 0,
            kind: FaultKind::Panic,
        }]);
        let c = Cluster::with_faults(MeshShape::new(2, 2), MachineConfig::new_sunway(), plan);
        let work = |ctx: &mut RankCtx| ctx.allreduce_sum(Scope::World, "sum", 1);
        let results = c.run_fallible(work);
        assert!(matches!(
            &results[0],
            Err(RankFailure {
                rank: 0,
                kind: FailureKind::Injected { op_index: 0, .. }
            })
        ));
        assert_eq!(
            all_ranks_ok(c.run_fallible(work)).expect("retry"),
            vec![4; 4]
        );
    }

    #[test]
    fn a_panic_elsewhere_releases_the_caller_from_its_barrier() {
        // Rank 0 — this thread — waits in a barrier rank 2 never
        // reaches: the poison path must hand it back, not hang it.
        let results = small_cluster(2, 2).run_fallible(|ctx| {
            if ctx.rank() == 2 {
                panic!("dead rank");
            }
            ctx.barrier(Scope::World);
        });
        assert!(matches!(
            &results[0],
            Err(RankFailure {
                rank: 0,
                kind: FailureKind::BarrierPoisoned
            })
        ));
        assert!(results[2].as_ref().is_err_and(|f| f.is_root_cause()));
    }

    #[test]
    fn a_run_started_from_a_spawned_thread_works() {
        // What a service thread does for every batch: its own (2 MiB)
        // stack is rank 0's.
        let c = small_cluster(2, 2);
        let service = std::thread::Builder::new().stack_size(2 << 20);
        let sums = service
            .spawn(move || {
                c.run(|ctx| {
                    let mine = vec![vec![ctx.rank() as u64; 1 << 14]; 4];
                    let got = ctx.alltoallv(Scope::World, "a", mine);
                    got.iter().flatten().sum::<u64>()
                })
            })
            .expect("spawns")
            .join()
            .expect("the run completes");
        assert_eq!(sums, vec![(1 + 2 + 3) << 14; 4]);
    }

    #[test]
    fn run_fallible_types_failures_and_preserves_survivors() {
        let c = small_cluster(2, 2);
        let results = c.run_fallible(|ctx| {
            if ctx.rank() == 2 {
                panic!("dead rank");
            }
            ctx.barrier(Scope::World);
            ctx.rank()
        });
        assert_eq!(results.len(), 4);
        let failing: Vec<usize> = results
            .iter()
            .filter_map(|r| r.as_ref().err().map(|f| f.rank))
            .collect();
        assert!(failing.contains(&2));
        for r in &results {
            if let Err(f) = r {
                assert_eq!(
                    f.rank == 2,
                    f.is_root_cause(),
                    "only rank 2 is a root cause"
                );
                if f.rank == 2 {
                    assert!(
                        matches!(&f.kind, FailureKind::Panic { message } if message.contains("dead rank"))
                    );
                } else {
                    assert!(matches!(f.kind, FailureKind::BarrierPoisoned));
                }
            }
        }
    }

    fn every_slot_is_empty(c: &Cluster) -> bool {
        c.shared.scopes().all(|s| {
            s.buffers
                .iter()
                .flat_map(|b| &b.slots)
                .all(|slot| lock_ignore_poison(slot).is_none())
        })
    }

    #[test]
    fn alltoallv_moves_every_part_out_of_its_deposit() {
        // Once every member has received (the barrier after), each
        // sender's deposit in the scope's buffer 0 is an empty husk.
        let c = small_cluster(2, 2);
        let husks = c.run(|ctx| {
            let send = (0..4).map(|d| vec![d as u64; 1000]).collect();
            let got = ctx.alltoallv(Scope::World, "a2a", send);
            ctx.barrier(Scope::World);
            let slot = lock_ignore_poison(&ctx.shared.world.buffers[0].slots[ctx.rank()]);
            let dep = slot.as_ref().expect("a deposit until the run ends");
            let parts = dep
                .payload
                .downcast_ref::<Parts<u64>>()
                .expect("a send set");
            (got.concat().len(), dep.bytes, parts.frame().bytes)
        });
        assert_eq!(husks, vec![(4000, 32_000, 0); 4]);
    }

    #[test]
    fn no_deposit_outlives_its_run() {
        // Every scope's last two collectives leave deposits behind; a
        // failing run leaves the deposits made before its failure.
        let program = |ctx: &mut RankCtx, fail: bool| {
            let n = ctx.nranks();
            for k in 0..3u64 {
                let send = (0..n).map(|d| vec![k, d as u64]).collect();
                ctx.alltoallv(Scope::World, "a2a", send);
                ctx.allgatherv(Scope::Row, "row", vec![k; 4]);
                ctx.allreduce_sum(Scope::Col, "col", k);
            }
            if fail && ctx.rank() == 1 {
                panic!("dead rank");
            }
            ctx.barrier(Scope::World);
        };
        let c = small_cluster(2, 2);
        c.run(|ctx| program(ctx, false));
        assert!(every_slot_is_empty(&c), "after a clean run");
        let results = c.run_fallible(|ctx| program(ctx, true));
        assert!(results[1].is_err());
        assert!(every_slot_is_empty(&c), "after a rank failure");

        // The framed path, and a planned panic mid-run.
        let plan = FaultPlan::from_events(FaultPlan::parse("panic@2:4").expect("a valid plan"));
        let c = Cluster::with_faults(MeshShape::new(2, 2), MachineConfig::new_sunway(), plan);
        assert!(all_ranks_ok(c.run_fallible(|ctx| program(ctx, false))).is_err());
        assert!(every_slot_is_empty(&c), "after an injected failure");
        c.run(|ctx| program(ctx, false));
        assert!(every_slot_is_empty(&c), "after a framed clean run");
    }

    #[test]
    fn spmd_violation_is_typed_and_names_scope_and_op() {
        let c = small_cluster(1, 2);
        let results = c.run_fallible(|ctx| {
            if ctx.rank() == 0 {
                ctx.allreduce_sum(Scope::World, "op_a", 1);
            } else {
                ctx.allreduce_max(Scope::World, "op_b", 1);
            }
        });
        let violation = results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .find_map(|f| match &f.kind {
                FailureKind::Violation(v) => Some(v.clone()),
                _ => None,
            })
            .expect("a tag mismatch must surface as a typed SpmdViolation");
        assert_eq!(violation.kind, SpmdViolationKind::TagMismatch);
        assert_eq!(violation.scope, Scope::World);
        assert!(violation.op == "op_a" || violation.op == "op_b");
    }

    /// The slot ranges rank `rank` picks out of `len` slots: none at
    /// all on rank 0, empty ranges among the picks on rank 1, random,
    /// unordered and overlapping ranges elsewhere.
    fn picks_of(rank: usize, len: usize, seed: u64) -> Vec<Range<usize>> {
        let mut rng = sunbfs_common::SplitMix64::new(seed ^ ((rank as u64) << 32));
        let mut picks = Vec::new();
        if rank == 0 {
            return picks;
        }
        for _ in 0..1 + rng.next_below(6) {
            let start = rng.next_below(len as u64 + 1) as usize;
            let end = start + rng.next_below((len - start) as u64 + 1) as usize;
            picks.push(start..end);
            if rank == 1 {
                picks.push(end..end);
            }
        }
        picks
    }

    #[test]
    fn a_picked_fold_equals_the_full_allreduce_at_its_picks() {
        type Seen = (Vec<Vec<u64>>, u64, Vec<(String, u64)>, CommStats);
        // Three all-reduces over every scope kind, random payloads, one
        // with its charge overridden; each rank either reads the whole
        // result or folds only its picks.
        let program = |ctx: &mut RankCtx, picked: bool| -> Seen {
            let mut rng = sunbfs_common::SplitMix64::new(ctx.rank() as u64 + 1);
            let mut outs = Vec::new();
            for (k, (scope, op, charged)) in [
                (Scope::World, "red.world", None),
                (Scope::Row, "red.row", Some(40)),
                (Scope::Col, "red.col", None),
            ]
            .into_iter()
            .enumerate()
            {
                let len = 17 + 23 * k;
                let mine: Vec<u64> = (0..len).map(|_| rng.next_below(1 << 20)).collect();
                let min = |a: &mut u64, b: &u64| *a = (*a).min(*b);
                outs.push(if picked {
                    let picks = picks_of(ctx.rank(), len, k as u64).into_iter();
                    ctx.allreduce_picked(scope, op, mine, charged, picks, |_, a, b| min(a, b))
                } else {
                    ctx.allreduce_with(scope, op, mine, charged, min)
                });
            }
            let times = ctx.accumulator().entries();
            let times = times
                .map(|(c, t)| (format!("{c:?}"), t.to_bits()))
                .collect();
            (
                outs,
                ctx.now().as_secs().to_bits(),
                times,
                ctx.comm_stats().clone(),
            )
        };
        for (rows, cols) in [(2, 2), (2, 3)] {
            let c = small_cluster(rows, cols);
            let full = c.run(|ctx| program(ctx, false));
            let picked = c.run(|ctx| program(ctx, true));
            for (rank, (want, got)) in full.iter().zip(&picked).enumerate() {
                let at = format!("{rows}x{cols} rank {rank}");
                for (k, (whole, folded)) in want.0.iter().zip(&got.0).enumerate() {
                    let picks = picks_of(rank, whole.len(), k as u64);
                    let expected: Vec<u64> =
                        picks.into_iter().flat_map(|r| &whole[r]).copied().collect();
                    assert_eq!(folded, &expected, "{at}, op {k}");
                }
                let read: usize = got.0.iter().map(Vec::len).sum();
                assert_eq!(read == 0, rank == 0, "{at}: owns nothing iff rank 0");
                assert_eq!(got.1, want.1, "{at}: clock");
                assert_eq!(got.2, want.2, "{at}: time accumulator");
                assert_eq!(got.3, want.3, "{at}: comm stats");
            }
        }

        // A short deposit is an SPMD violation, whatever the picks.
        let c = small_cluster(2, 2);
        let results = c.run_fallible(|ctx| {
            let len = if ctx.rank() == 3 { 7 } else { 8 };
            let picks = std::iter::once(0..2);
            ctx.allreduce_picked(
                Scope::World,
                "red",
                vec![1u64; len],
                None,
                picks,
                |_, a, b| *a += b,
            )
        });
        assert!(results.iter().all(Result::is_err));
        assert!(results.iter().any(|r| matches!(
            &r.as_ref().unwrap_err().kind,
            FailureKind::Violation(v) if v.kind == SpmdViolationKind::LengthMismatch
        )));
    }

    #[test]
    fn injected_panic_fires_once_and_cluster_heals_for_retry() {
        use crate::fault::{FaultEvent, FaultKind};
        let plan = FaultPlan::from_events(vec![FaultEvent {
            rank: 1,
            op_index: 1,
            kind: FaultKind::Panic,
        }]);
        let c = Cluster::with_faults(MeshShape::new(2, 2), MachineConfig::new_sunway(), plan);
        let work = |ctx: &mut RankCtx| {
            ctx.barrier(Scope::World);
            ctx.allreduce_sum(Scope::World, "sum", ctx.rank() as u64)
        };
        let first = c.run_fallible(work);
        let inj = first
            .iter()
            .filter_map(|r| r.as_ref().err())
            .find(|f| matches!(f.kind, FailureKind::Injected { .. }))
            .expect("the injected panic must be typed");
        assert_eq!(inj.rank, 1);
        assert!(matches!(
            &inj.kind,
            FailureKind::Injected { op_index: 1, op } if op == "sum"
        ));
        // Transient-fault model: the retry on the same cluster succeeds.
        let second = c.run_fallible(work);
        for r in second {
            assert_eq!(r.expect("retry must succeed"), 6);
        }
        let log = c.fault_log();
        assert_eq!(log.len(), 1);
        assert_eq!((log[0].rank, log[0].op_index), (1, 1));
    }

    #[test]
    fn planned_panic_stops_every_rank_at_its_collective() {
        use crate::fault::{FaultEvent, FaultKind};
        // Rank 0 dies entering a row collective, which ranks 2 and 3
        // (the other row) complete among themselves. The straggler
        // planned for rank 3 one collective later must wait for the
        // retry — on every run, whatever the thread timing — because
        // no rank enters a collective past a planned panic's.
        for _ in 0..8 {
            let plan = FaultPlan::from_events(vec![
                FaultEvent {
                    rank: 0,
                    op_index: 1,
                    kind: FaultKind::Panic,
                },
                FaultEvent {
                    rank: 3,
                    op_index: 2,
                    kind: FaultKind::Straggler { secs: 0.5 },
                },
            ]);
            let c = Cluster::with_faults(MeshShape::new(2, 2), MachineConfig::new_sunway(), plan);
            let work = |ctx: &mut RankCtx| {
                (0..4)
                    .map(|_| ctx.allreduce_sum(Scope::Row, "rowsum", 1))
                    .sum::<u64>()
            };
            let failures = all_ranks_ok(c.run_fallible(work)).expect_err("rank 0 dies");
            assert_eq!(failures.len(), 4, "the whole run stops");
            let causes: Vec<usize> = failures
                .iter()
                .filter(|f| f.is_root_cause())
                .map(|f| f.rank)
                .collect();
            assert_eq!(causes, vec![0]);
            assert_eq!(c.fault_log().len(), 1, "only the panic fired");
            // The healed retry meets the straggler and completes.
            assert_eq!(
                all_ranks_ok(c.run_fallible(work)).expect("retry"),
                vec![8; 4]
            );
            assert_eq!(c.fault_log().len(), 2);
        }
    }

    #[test]
    fn straggler_delay_charges_peer_imbalance_and_logs() {
        use crate::fault::{FaultEvent, FaultKind};
        let plan = FaultPlan::from_events(vec![FaultEvent {
            rank: 0,
            op_index: 0,
            kind: FaultKind::Straggler { secs: 2.0 },
        }]);
        let c = Cluster::with_faults(MeshShape::new(1, 2), MachineConfig::new_sunway(), plan);
        let out = c.run_fallible(|ctx| {
            ctx.barrier(Scope::World);
            (
                ctx.now().as_secs(),
                ctx.accumulator().get("comm.imbalance").as_secs(),
                ctx.accumulator().get("fault.straggler").as_secs(),
            )
        });
        let out: Vec<_> = out.into_iter().map(|r| r.expect("no failure")).collect();
        // The straggler carries the delay; the peer records it as skew.
        assert!((out[0].0 - 2.0).abs() < 1e-12);
        assert!((out[0].2 - 2.0).abs() < 1e-12);
        assert!((out[1].1 - 2.0).abs() < 1e-12);
        let log = c.fault_log();
        assert_eq!(log.len(), 1);
        assert!(log[0].applied);
    }

    #[test]
    fn truncation_corruption_is_detected_and_healed_by_retransmit() {
        use crate::fault::{CorruptMode, FaultEvent, FaultKind};
        let plan = FaultPlan::from_events(vec![FaultEvent {
            rank: 1,
            op_index: 0,
            kind: FaultKind::Corrupt {
                mode: CorruptMode::Truncate,
            },
        }]);
        let c = Cluster::with_faults(MeshShape::new(1, 2), MachineConfig::new_sunway(), plan);
        let results = c.run_fallible(|ctx| {
            ctx.allreduce_with(Scope::World, "red", vec![1u64, 2, 3], None, |a, b| *a += b)
        });
        for r in results {
            assert_eq!(
                r.expect("truncation is healed at the exchange layer"),
                vec![2, 4, 6],
                "healed run computes the fault-free reduction"
            );
        }
        assert!(c.fault_log()[0].applied);
        let retrans = c.retransmit_log();
        assert_eq!(retrans.len(), 1);
        assert_eq!((retrans[0].from, retrans[0].attempt), (1, 1));
        assert_eq!(retrans[0].op_index, 0);
    }

    #[test]
    fn bitflip_corruption_is_detected_and_healed_with_time_charged() {
        use crate::fault::{CorruptMode, FaultEvent, FaultKind};
        let event = FaultEvent {
            rank: 0,
            op_index: 0,
            kind: FaultKind::Corrupt {
                mode: CorruptMode::BitFlip,
            },
        };
        let cluster =
            |plan| Cluster::with_faults(MeshShape::new(1, 2), MachineConfig::new_sunway(), plan);
        let planned = cluster(FaultPlan::from_events(vec![event]));
        // Armed but empty, the flip injected live: the run must be on
        // the framed two-barrier path from its first collective, or the
        // flipped payload would be reduced instead of healed.
        let armed = cluster(FaultPlan::armed());
        armed.fault_plan().inject([event]);
        for c in [planned, armed] {
            let out = c.run_fallible(|ctx| {
                assert!(ctx.framing, "a planned or armed plan keeps framing on");
                let sum = ctx.allreduce_sum(Scope::World, "sum", 8u64);
                (sum, ctx.accumulator().get("comm.retransmit").as_secs())
            });
            for r in out {
                let (sum, heal_secs) = r.expect("bitflip is healed, not silent");
                assert_eq!(sum, 8 + 8, "the pristine payload is what gets reduced");
                assert!(
                    heal_secs > 0.0,
                    "every member charges the retransmit heal time"
                );
            }
            assert_eq!(c.retransmit_log().len(), 1);
            assert_eq!(c.retransmit_log()[0].from, 0);
        }
    }

    #[test]
    fn duplicate_corrupt_events_defeat_retransmits_then_heal() {
        use crate::fault::{CorruptMode, FaultEvent, FaultKind};
        // Two duplicates: the initial deposit and the first
        // retransmission are both corrupted; the second retransmission
        // goes through clean.
        let event = FaultEvent {
            rank: 1,
            op_index: 0,
            kind: FaultKind::Corrupt {
                mode: CorruptMode::BitFlip,
            },
        };
        let plan = FaultPlan::from_events(vec![event, event]);
        let c = Cluster::with_faults(MeshShape::new(1, 2), MachineConfig::new_sunway(), plan);
        let out = c.run_fallible(|ctx| ctx.allreduce_sum(Scope::World, "sum", 4u64));
        for r in out {
            assert_eq!(r.expect("two rounds heal within budget"), 8);
        }
        let retrans = c.retransmit_log();
        assert_eq!(retrans.len(), 2, "both rounds are logged");
        assert_eq!(
            retrans.iter().map(|r| r.attempt).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(c.fault_log().len(), 2, "both duplicates fired");
    }

    #[test]
    fn persistent_corruption_exhausts_budget_and_escalates_typed() {
        use crate::fault::{CorruptMode, FaultEvent, FaultKind};
        // 1 initial + MAX_RETRANSMITS re-corruptions exhaust the
        // budget; the 5th duplicate stays for the retry run.
        let event = FaultEvent {
            rank: 0,
            op_index: 0,
            kind: FaultKind::Corrupt {
                mode: CorruptMode::BitFlip,
            },
        };
        let plan = FaultPlan::from_events(vec![event; 5]);
        let c = Cluster::with_faults(MeshShape::new(1, 2), MachineConfig::new_sunway(), plan);
        let results = c.run_fallible(|ctx| ctx.allreduce_sum(Scope::World, "sum", 4u64));
        for r in results {
            let failure = r.expect_err("persistent corruption must escalate");
            match &failure.kind {
                FailureKind::CorruptPayload {
                    from,
                    op_index,
                    attempts,
                    ..
                } => {
                    assert_eq!(*from, 0, "the corrupt sender is blamed");
                    assert_eq!(*op_index, 0);
                    assert_eq!(*attempts, MAX_RETRANSMITS);
                }
                other => panic!("expected CorruptPayload, got {other:?}"),
            }
            assert!(failure.is_root_cause());
        }
        assert_eq!(
            c.retransmit_log().len(),
            MAX_RETRANSMITS as usize,
            "every burned retransmit round is logged"
        );
        // The healed cluster retries; the one leftover duplicate is a
        // transient corruption absorbed by a single retransmission.
        let retry = c.run_fallible(|ctx| ctx.allreduce_sum(Scope::World, "sum", 4u64));
        for r in retry {
            assert_eq!(r.expect("retry heals the leftover event"), 8);
        }
        assert_eq!(c.retransmit_log().len(), MAX_RETRANSMITS as usize + 1);
    }

    #[test]
    fn reduce_scatter_and_allgather_categories_charged() {
        let c = small_cluster(1, 4);
        let out = c.run(|ctx| {
            ctx.allreduce_with(Scope::World, "hub", vec![0u64; 1024], None, |a, b| *a |= b);
            let acc = ctx.accumulator();
            (
                acc.total_with_prefix("comm.reduce_scatter").as_secs(),
                acc.total_with_prefix("comm.allgather").as_secs(),
            )
        });
        for (rs, ag) in out {
            assert!(rs > 0.0 && (rs - ag).abs() < 1e-15);
        }
    }
}
