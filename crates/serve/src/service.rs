//! The query service: bounded admission queue, deadline-driven batch
//! formation, batched execution with per-root fallback.
//!
//! State machine (documented in `docs/SERVE.md`):
//!
//! ```text
//!            submit()                tick()/drain()
//! client ──▶ [pending queue] ──▶ [batch of ≤ batch_max] ──▶ execute
//!               │  full?                                      │
//!               ▼                                             ▼
//!          reject (QueueFull)               all ranks Ok ── served
//!                                           rank lost ──── fallback:
//!                                                          per-root
//!                                                          recoverable
//!                                                          runs, then
//!                                                          served or
//!                                                          quarantined
//! ```
//!
//! Backpressure is explicit: a full queue rejects with a typed reason
//! instead of blocking, and the caller decides whether to retry after
//! ticking the service. Batch formation is deterministic — a batch
//! flushes when `batch_max` queries are pending or when the oldest
//! pending query has waited `flush_deadline` ticks — so tests can pin
//! occupancy exactly.
//!
//! Fault containment: a lost rank during a batch degrades *only that
//! batch's riders* — each rider falls back to its own checkpointed
//! single-source run with bounded retries
//! ([`GraphSession::run_root`], the loop the Graph 500 driver runs every
//! root through), and the resident [`GraphSession`] is never rebuilt or
//! invalidated.
//!
//! Above containment sits a **health state machine**
//! (`Healthy → Degraded → Quarantined → Recovering`, `docs/FAULTS.md`):
//! per-batch outcomes feed a sliding failure window; crossing the
//! threshold opens a circuit breaker that sheds new submissions with
//! typed `service_degraded` rejections (plus `retry_after_ticks`
//! hints) until a tick-driven recovery probe half-opens it and clean
//! batches close the loop. Queries may also carry a **deadline
//! budget** ([`BfsService::submit_with_deadline`]): one still queued
//! past its budget is evicted with a typed `deadline_exceeded` result
//! instead of consuming a batch slot. A seeded [`ChaosConfig`] can arm
//! live faults against the resident cluster at a query cadence — the
//! soak harness's chaos source.
//!
//! The graph itself can move under the service
//! ([`BfsService::apply_updates`], `docs/UPDATES.md`): update batches
//! commit only on the single service thread *between* query batches,
//! bump the session epoch, and every reply is stamped with the epoch
//! its snapshot was taken at. While committed inserts sit in the
//! session's delta, the batch engine still runs against the base CSRs and each
//! assembled result is patched by incremental repair into the exact
//! union-graph answer. A seeded [`UpdatePlan`] (`SUNBFS_UPDATE_PLAN`)
//! fires scripted update batches at executed-query milestones, the
//! same fire-once shape as the fault plan.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use sunbfs_common::{json_record, Edge, SplitMix64};
use sunbfs_core::{validate, BatchOutput, BfsOutput, EngineError, UNREACHED_DEPTH};
use sunbfs_mutate::UpdatePlan;
use sunbfs_net::{all_ranks_ok, CorruptMode, FaultEvent, FaultKind};

use crate::report::{BatchRecord, HealthTransition, QueryRecord, ServeReport, QUERY_RECORDS_KEPT};
use crate::session::{GraphSession, Quarantine, SessionError};
use crate::MAX_BATCH;

/// Service knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Pending queries the queue admits before rejecting.
    pub queue_capacity: usize,
    /// Widest batch to form (clamped to the engine's 64-root word).
    pub batch_max: usize,
    /// Ticks the oldest pending query waits before a partial batch
    /// flushes anyway.
    pub flush_deadline: u32,
    /// Retries a fallback (per-root) run gets before quarantine.
    pub max_root_retries: u32,
    /// Also run each batch's roots through the sequential single-source
    /// path and record the comparison (costs one extra SPMD pass per
    /// batch; for benchmarking, not serving).
    pub measure_baseline: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            batch_max: MAX_BATCH,
            flush_deadline: 4,
            max_root_retries: 2,
            measure_baseline: false,
        }
    }
}

// Thresholds of the service health state machine
// (`Healthy → Degraded → Quarantined → Recovering`, `docs/FAULTS.md`).

/// Sliding window of recent batches over which failures are judged.
const HEALTH_WINDOW: usize = 8;
/// Failed batches within the window that trip the circuit breaker
/// (`Degraded → Quarantined`).
const QUARANTINE_FAILURES: u32 = 3;
/// Quiet ticks a quarantined service waits before the recovery probe
/// half-opens the breaker (`Quarantined → Recovering`).
const PROBE_AFTER_TICKS: u32 = 16;
/// Consecutive clean batches that close the loop (`Recovering → Healthy`).
const RECOVERY_BATCHES: u32 = 2;

/// The service's health, as a closed state machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HealthState {
    /// No recent batch failures; full admission.
    #[default]
    Healthy,
    /// At least one recent batch degraded (fallback or quarantine);
    /// admission stays open while the window is watched.
    Degraded,
    /// The breaker is open: failures crossed the window threshold, and
    /// new queries are shed with typed `service_degraded` rejections
    /// until a recovery probe fires.
    Quarantined,
    /// Half-open: a probe (or a first clean batch) is letting traffic
    /// prove the service healthy again.
    Recovering,
}

impl HealthState {
    /// Stable label used in JSON replies and the report.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
            HealthState::Recovering => "recovering",
        }
    }
}

/// The health state machine: batch outcomes and ticks in, transitions
/// out. Pure bookkeeping — no clock, no I/O — so tests can script it.
/// [`Default`] is a healthy machine.
#[derive(Debug, Default)]
pub struct HealthMachine {
    state: HealthState,
    /// Outcomes of the last [`HEALTH_WINDOW`] batches (true = failed).
    window: VecDeque<bool>,
    consecutive_clean: u32,
    /// Tick of the most recent failure while quarantined (the probe
    /// timer's epoch).
    quarantined_at: u64,
    transitions: Vec<HealthTransition>,
}

impl HealthMachine {
    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Every transition so far, in order.
    pub fn transitions(&self) -> &[HealthTransition] {
        &self.transitions
    }

    fn goto(&mut self, to: HealthState, at_tick: u64, reason: String) {
        self.transitions.push(HealthTransition {
            from: self.state.label(),
            to: to.label(),
            at_tick,
            reason,
        });
        self.state = to;
    }

    fn window_failures(&self) -> u32 {
        self.window.iter().filter(|&&f| f).count() as u32
    }

    /// Record one executed batch (`failed` = it fell back to per-root
    /// recovery or quarantined a rider) at tick `now`.
    pub fn on_batch(&mut self, failed: bool, now: u64) {
        self.window.push_back(failed);
        while self.window.len() > HEALTH_WINDOW {
            self.window.pop_front();
        }
        if failed {
            self.consecutive_clean = 0;
        } else {
            self.consecutive_clean += 1;
        }
        match self.state {
            HealthState::Healthy => {
                if failed {
                    self.goto(
                        HealthState::Degraded,
                        now,
                        "batch degraded (fallback or quarantine)".into(),
                    );
                }
            }
            HealthState::Degraded => {
                if self.window_failures() >= QUARANTINE_FAILURES {
                    self.quarantined_at = now;
                    self.goto(
                        HealthState::Quarantined,
                        now,
                        format!(
                            "{} of last {} batches failed",
                            self.window_failures(),
                            self.window.len()
                        ),
                    );
                } else if !failed {
                    self.goto(HealthState::Recovering, now, "clean batch".into());
                }
            }
            HealthState::Recovering => {
                if failed {
                    self.quarantined_at = now;
                    self.goto(
                        HealthState::Quarantined,
                        now,
                        "batch failed during recovery".into(),
                    );
                } else if self.consecutive_clean >= RECOVERY_BATCHES {
                    self.window.clear();
                    self.goto(
                        HealthState::Healthy,
                        now,
                        format!("{} consecutive clean batches", self.consecutive_clean),
                    );
                }
            }
            HealthState::Quarantined => {
                // Pre-quarantine queue still drains; a failure re-arms
                // the probe timer, clean batches wait for the probe.
                if failed {
                    self.quarantined_at = now;
                }
            }
        }
    }

    /// Advance the probe timer to tick `now`.
    pub fn on_tick(&mut self, now: u64) {
        if self.state == HealthState::Quarantined
            && now.saturating_sub(self.quarantined_at) >= u64::from(PROBE_AFTER_TICKS)
        {
            self.window.clear();
            self.consecutive_clean = 0;
            self.goto(
                HealthState::Recovering,
                now,
                format!("recovery probe after {PROBE_AFTER_TICKS} quiet ticks"),
            );
        }
    }

    /// When the breaker is shedding load, the ticks a client should
    /// wait before retrying (until the next recovery probe).
    pub fn shed(&self, now: u64) -> Option<u32> {
        if self.state != HealthState::Quarantined {
            return None;
        }
        let waited = now.saturating_sub(self.quarantined_at);
        let left = u64::from(PROBE_AFTER_TICKS).saturating_sub(waited);
        Some(left.clamp(1, u64::from(u32::MAX)) as u32)
    }
}

/// A seeded live-chaos schedule: the service arms one fault against its
/// own cluster every `every_queries` executed queries, cycling panic /
/// straggler / corrupt kinds deterministically. Requires the session's
/// [`FaultPlan`](sunbfs_net::FaultPlan) to be
/// [`armed`](sunbfs_net::FaultPlan::armed) (or already non-empty) so
/// payload framing stays SPMD-consistent.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed of the deterministic rank/op-index placement stream.
    pub seed: u64,
    /// Arm one fault per this many executed queries.
    pub every_queries: u64,
    /// Stop arming after this many events (0 = unbounded). A bounded
    /// schedule leaves a clean tail so soaks can watch recovery close.
    pub max_events: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 42,
            every_queries: 64,
            max_events: 0,
        }
    }
}

/// Collective-index horizon chaos faults are placed in (`op_index`
/// drawn from `[0, CHAOS_HORIZON)`, so they fire early in the next
/// batch).
const CHAOS_HORIZON: u64 = 48;
/// Simulated seconds each armed chaos straggler delays its rank.
const CHAOS_STRAGGLER_SECS: f64 = 0.05;

/// Live-chaos bookkeeping between batches.
#[derive(Debug)]
struct ChaosState {
    cfg: ChaosConfig,
    rng: SplitMix64,
    /// Executed queries since the last armed event.
    since: u64,
    injected: u64,
    panics: u64,
    stragglers: u64,
    corruptions: u64,
}

/// Ticket for a submitted query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// Typed admission-control rejection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The pending queue is at capacity — back off and tick.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
        /// Ticks until the queue is expected to have room again: the
        /// next tick when a full batch is already waiting, otherwise
        /// the remaining partial-batch deadline. Clients should wait
        /// this many ticks before resubmitting instead of hot-looping.
        retry_after_ticks: u32,
    },
    /// The root is not a vertex of the resident graph.
    InvalidRoot {
        /// The rejected root.
        root: u64,
        /// Vertices in the resident graph.
        num_vertices: u64,
    },
    /// The health breaker is open ([`HealthState::Quarantined`]): the
    /// service is shedding load instead of queueing queries it would
    /// likely degrade.
    ServiceDegraded {
        /// The health state's stable label at rejection time.
        state: &'static str,
        /// Ticks until the next recovery probe — retry then.
        retry_after_ticks: u32,
    },
}

impl RejectReason {
    /// Stable label used in JSON replies and the report.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "queue_full",
            RejectReason::InvalidRoot { .. } => "invalid_root",
            RejectReason::ServiceDegraded { .. } => "service_degraded",
        }
    }

    /// The backoff hint, when this rejection is retryable at all.
    /// `QueueFull` clears after a flush, `ServiceDegraded` after a
    /// recovery probe; an invalid root never will.
    pub fn retry_after_ticks(&self) -> Option<u32> {
        match self {
            RejectReason::QueueFull {
                retry_after_ticks, ..
            }
            | RejectReason::ServiceDegraded {
                retry_after_ticks, ..
            } => Some(*retry_after_ticks),
            RejectReason::InvalidRoot { .. } => None,
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull {
                capacity,
                retry_after_ticks,
            } => {
                write!(
                    f,
                    "queue full (capacity {capacity}); retry after {retry_after_ticks} tick(s)"
                )
            }
            RejectReason::InvalidRoot { root, num_vertices } => {
                write!(f, "root {root} outside vertex range [0, {num_vertices})")
            }
            RejectReason::ServiceDegraded {
                state,
                retry_after_ticks,
            } => {
                write!(
                    f,
                    "service {state}: shedding load; retry after {retry_after_ticks} tick(s)"
                )
            }
        }
    }
}

/// Terminal status of a completed query.
#[derive(Clone, Debug)]
pub enum QueryStatus {
    /// The traversal completed; the result carries the parent tree.
    Served,
    /// Every recovery avenue was exhausted; no tree for this query.
    Quarantined(Quarantine),
    /// The query's deadline budget expired while it waited in the
    /// admission queue; it was evicted without consuming a batch slot.
    DeadlineExceeded {
        /// The budget it carried.
        deadline_ticks: u32,
        /// Ticks it actually waited before eviction.
        waited_ticks: u64,
    },
}

impl QueryStatus {
    /// Stable label used in JSON replies and the report.
    pub fn label(&self) -> &'static str {
        match self {
            QueryStatus::Served => "served",
            QueryStatus::Quarantined(_) => "quarantined",
            QueryStatus::DeadlineExceeded { .. } => "deadline_exceeded",
        }
    }
}

/// Handle to one query's global parent array (`n` entries,
/// [`sunbfs_common::INVALID_VERTEX`] where unreached): a batch's riders
/// share the slot arrays the engine wrote — rank-ordered, vertex-major,
/// `width` slots per vertex — and each handle names its root's slot, so
/// serving a tree copies nothing and [`ParentTree::to_vec`] is paid by
/// whoever wants the array. A handle pins its batch's parent slots
/// (`n × width × 8` bytes) until the last handle of the batch drops:
/// the TCP transport renders and drops every result before the next
/// batch starts; an in-process caller that keeps one tree for long
/// calls `to_vec()` and drops the handle.
#[derive(Clone)]
pub struct ParentTree {
    blocks: Arc<Vec<Vec<u64>>>,
    width: usize,
    slot: usize,
}

impl ParentTree {
    /// Slot `slot` of `blocks`. A contiguous array (fallback, repaired
    /// result) is one block of width 1.
    pub(crate) fn new(blocks: Arc<Vec<Vec<u64>>>, width: usize, slot: usize) -> Self {
        ParentTree {
            blocks,
            width,
            slot,
        }
    }

    /// Entries of the parent array (the graph's vertex count).
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.len() / self.width).sum()
    }

    /// True for a tree over no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The parent array, gathered out of the shared slots (O(n)).
    pub fn to_vec(&self) -> Vec<u64> {
        gather_slot(&self.blocks, self.width, self.slot, |p| p)
    }
}

impl std::fmt::Debug for ParentTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParentTree")
            .field("len", &self.len())
            .field("width", &self.width)
            .field("slot", &self.slot)
            .finish()
    }
}

/// A completed query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The ticket [`BfsService::submit`] returned.
    pub id: QueryId,
    /// The query's root vertex.
    pub root: u64,
    /// The batch this query rode in (`None` when it never rode one —
    /// deadline eviction happens before batch formation).
    pub batch_id: Option<u64>,
    /// Served or quarantined.
    pub status: QueryStatus,
    /// Handle to the global parent array; `None` unless served.
    pub parents: Option<ParentTree>,
    /// Vertices at each BFS depth (index = depth; root at 0).
    pub depth_histogram: Vec<u64>,
    /// Vertices reached.
    pub visited: u64,
    /// The engine's degree-sum estimate of traversed edges (duplicate
    /// generator edges count per entry).
    pub engine_traversed_edges: u64,
    /// Simulated seconds the serving traversal took (the batch's time
    /// for batched riders; the per-root time on the fallback path).
    pub sim_latency_s: f64,
    /// Wall-clock seconds the execution took on the host: the whole
    /// batch, assembly included, for batched riders (its
    /// [`BatchRecord::wall_seconds`]); the per-root run on the fallback
    /// path.
    pub wall_latency_s: f64,
    /// True when this query was served by the per-root recovery path
    /// instead of the batch engine.
    pub via_fallback: bool,
    /// The session epoch this query's snapshot was taken at (updates
    /// commit only between batches, so the stamp names a consistent
    /// graph version).
    pub epoch: u64,
}

struct Pending {
    id: QueryId,
    root: u64,
    /// Service tick at admission (deadline epoch).
    admitted_tick: u64,
    /// Optional deadline budget in ticks.
    deadline_ticks: Option<u32>,
}

json_record! {
    /// A point-in-time view of the service's health: the `health` reply
    /// is its fields behind the `reply` tag.
    #[derive(Clone, Debug)]
    pub struct HealthSnapshot {
        /// Current state's stable label.
        pub state: &'static str,
        /// Service ticks elapsed.
        pub ticks: u64,
        /// Pending (admitted, not yet executed) queries.
        pub queue_depth: usize,
        /// Queries served.
        pub served: u64,
        /// Queries quarantined.
        pub quarantined: u64,
        /// Queries evicted at their deadline.
        pub deadline_exceeded: u64,
        /// Submissions shed by the open breaker.
        pub rejected_degraded: u64,
        /// Every health transition so far, in order.
        pub transitions: Vec<HealthTransition>,
    }
}

/// The BFS query service over one resident [`GraphSession`].
pub struct BfsService {
    session: GraphSession,
    cfg: ServeConfig,
    pending: VecDeque<Pending>,
    /// Ticks the oldest pending query has waited.
    age: u32,
    /// Monotonic service clock ([`Self::tick`] calls).
    ticks: u64,
    next_id: u64,
    next_batch: u64,
    health: HealthMachine,
    chaos: Option<ChaosState>,
    update_plan: Option<UpdatePlan>,
    /// Queries executed so far — the clock scripted updates fire on.
    executed_queries: u64,
    report: ServeReport,
}

impl BfsService {
    /// Wrap a loaded session in service mechanics.
    pub fn new(session: GraphSession, cfg: ServeConfig) -> Self {
        let mut cfg = cfg;
        cfg.batch_max = cfg.batch_max.clamp(1, MAX_BATCH);
        cfg.queue_capacity = cfg.queue_capacity.max(1);
        let report = ServeReport {
            queue_capacity: cfg.queue_capacity,
            batch_max: cfg.batch_max,
            flush_deadline: cfg.flush_deadline,
            build_sim_seconds: session.build_sim_seconds,
            load_sim_seconds: session.load_sim_seconds,
            load_attempts: session.load_attempts,
            ..ServeReport::default()
        };
        BfsService {
            session,
            health: HealthMachine::default(),
            cfg,
            pending: VecDeque::new(),
            age: 0,
            ticks: 0,
            next_id: 0,
            next_batch: 0,
            chaos: None,
            update_plan: None,
            executed_queries: 0,
            report,
        }
    }

    /// Arm a seeded live-chaos schedule: before executing batches, the
    /// service injects faults into its own cluster's
    /// [`FaultPlan`](sunbfs_net::FaultPlan) at the configured query
    /// cadence. The session should have been built with
    /// [`FaultPlan::armed`](sunbfs_net::FaultPlan::armed) (injection on
    /// a still-empty unarmed plan is only safe between runs, which this
    /// single-threaded service guarantees — but an armed plan keeps
    /// payload framing on from the first batch, making runs uniform).
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(ChaosState {
            rng: SplitMix64::new(chaos.seed ^ 0xC4A0_5C4A_05C4_A05C),
            cfg: ChaosConfig {
                every_queries: chaos.every_queries.max(1),
                ..chaos
            },
            since: 0,
            injected: 0,
            panics: 0,
            stragglers: 0,
            corruptions: 0,
        });
        self
    }

    /// Arm a scripted update schedule: before each batch executes, any
    /// event whose executed-query milestone has passed fires its
    /// seeded edge batch through [`Self::apply_updates`], exactly once
    /// (the `SUNBFS_UPDATE_PLAN` grammar, `docs/UPDATES.md`).
    pub fn with_update_plan(mut self, plan: UpdatePlan) -> Self {
        self.update_plan = if plan.is_empty() { None } else { Some(plan) };
        self
    }

    /// The resident session (topology, fault log, partition stats).
    pub fn session(&self) -> &GraphSession {
        &self.session
    }

    /// Hand the resident session back (pending queries are dropped).
    pub fn into_session(self) -> GraphSession {
        self.session
    }

    /// Commit one batched edge-insert against the resident session and
    /// bump the epoch. Safe exactly because the service is
    /// single-threaded: callers (transport loop, update plan) only
    /// reach this between query batches, so in-flight queries never
    /// observe a half-applied update.
    ///
    /// # Errors
    /// [`SessionError`] when a triggered compaction loses ranks; the
    /// session keeps its pre-commit state.
    pub fn apply_updates(&mut self, edges: &[Edge]) -> Result<u64, SessionError> {
        match self.session.apply_updates(edges) {
            Ok(epoch) => {
                self.report.updates_applied += 1;
                self.report.update_edges += edges.len() as u64;
                self.report.epoch = epoch;
                self.report.compactions = self.session.compactions();
                Ok(epoch)
            }
            Err(e) => {
                self.report.updates_failed += 1;
                Err(e)
            }
        }
    }

    /// Fire every due scripted update (at most once each), charged by
    /// executed-query count. A commit that fails (chaos can kill the
    /// compaction it triggers) is counted and skipped — the plan's fire-once
    /// semantics are not re-armed, matching the fault plan's shape.
    fn fire_update_plan(&mut self) {
        let Some(plan) = self.update_plan.clone() else {
            return;
        };
        let root_max = self.session.num_vertices();
        while let Some(edges) = plan.fire(self.executed_queries, root_max) {
            let _ = self.apply_updates(&edges);
        }
    }

    /// The knobs this service runs with (after clamping).
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Ticks until the pending queue is expected to shrink: 1 when a
    /// full batch is already waiting (the next tick flushes it),
    /// otherwise the ticks left until the partial-batch deadline fires.
    fn retry_after_ticks(&self) -> u32 {
        if self.pending.len() >= self.cfg.batch_max {
            1
        } else {
            self.cfg.flush_deadline.saturating_sub(self.age).max(1)
        }
    }

    /// Pending (admitted, not yet executed) queries.
    pub fn queue_depth(&self) -> usize {
        self.pending.len()
    }

    /// The service clock: [`Self::tick`] calls so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Current health state.
    pub fn health(&self) -> HealthState {
        self.health.state()
    }

    /// Point-in-time health view for the `health` request.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            state: self.health.state().label(),
            ticks: self.ticks,
            queue_depth: self.pending.len(),
            served: self.report.served,
            quarantined: self.report.quarantined,
            deadline_exceeded: self.report.deadline_exceeded,
            rejected_degraded: self.report.rejected_degraded,
            transitions: self.health.transitions().to_vec(),
        }
    }

    /// Admit one query with no deadline budget.
    pub fn submit(&mut self, root: u64) -> Result<QueryId, RejectReason> {
        self.submit_with_deadline(root, None)
    }

    /// Admit one query, or reject with a typed reason. Admission never
    /// executes anything — traversal happens at [`Self::tick`] /
    /// [`Self::drain`] time. A query carrying `deadline_ticks` is
    /// evicted with a typed `deadline_exceeded` result if it is still
    /// queued after that many ticks (`0` = only a full-batch flush in
    /// the admission tick can serve it).
    pub fn submit_with_deadline(
        &mut self,
        root: u64,
        deadline_ticks: Option<u32>,
    ) -> Result<QueryId, RejectReason> {
        if let Some(hint) = self.health.shed(self.ticks) {
            self.report.rejected_degraded += 1;
            return Err(RejectReason::ServiceDegraded {
                state: self.health.state().label(),
                retry_after_ticks: hint,
            });
        }
        let n = self.session.num_vertices();
        if root >= n {
            self.report.rejected_invalid += 1;
            return Err(RejectReason::InvalidRoot {
                root,
                num_vertices: n,
            });
        }
        if self.pending.len() >= self.cfg.queue_capacity {
            self.report.rejected_full += 1;
            return Err(RejectReason::QueueFull {
                capacity: self.cfg.queue_capacity,
                retry_after_ticks: self.retry_after_ticks(),
            });
        }
        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.pending.push_back(Pending {
            id,
            root,
            admitted_tick: self.ticks,
            deadline_ticks,
        });
        self.report.submitted += 1;
        self.report.max_queue_depth = self.report.max_queue_depth.max(self.pending.len());
        Ok(id)
    }

    /// Advance the batch-formation clock one tick: flush every full
    /// batch, evict queries past their deadline budget, then flush a
    /// partial batch if the oldest pending query has waited
    /// `flush_deadline` ticks. Returns queries completed by this tick
    /// (served, quarantined, or deadline-evicted).
    pub fn tick(&mut self) -> Vec<QueryResult> {
        self.ticks += 1;
        let mut out = Vec::new();
        while self.pending.len() >= self.cfg.batch_max {
            out.extend(self.flush_one());
        }
        // Deadlines strike after full-batch flushes: an expiring query
        // that a ready batch would serve this tick still rides it.
        out.extend(self.evict_expired());
        if self.pending.is_empty() {
            self.age = 0;
        } else {
            self.age += 1;
            if self.age >= self.cfg.flush_deadline {
                out.extend(self.flush_one());
                self.age = 0;
            }
        }
        self.health.on_tick(self.ticks);
        out
    }

    /// Flush everything pending, regardless of flush deadlines — but
    /// queries past their own deadline budget are still evicted, not
    /// executed (the shutdown drain must not spend batch slots on
    /// replies nobody is waiting for).
    pub fn drain(&mut self) -> Vec<QueryResult> {
        let mut out = self.evict_expired();
        while !self.pending.is_empty() {
            out.extend(self.flush_one());
        }
        self.age = 0;
        out
    }

    /// Evict every pending query whose deadline budget expired, each
    /// into a typed `deadline_exceeded` result.
    fn evict_expired(&mut self) -> Vec<QueryResult> {
        let now = self.ticks;
        let epoch = self.session.epoch();
        let mut out = Vec::new();
        self.pending.retain(|p| {
            let Some(deadline) = p.deadline_ticks else {
                return true;
            };
            let waited = now.saturating_sub(p.admitted_tick);
            if waited < u64::from(deadline) {
                return true;
            }
            out.push(QueryResult {
                id: p.id,
                root: p.root,
                batch_id: None,
                status: QueryStatus::DeadlineExceeded {
                    deadline_ticks: deadline,
                    waited_ticks: waited,
                },
                parents: None,
                depth_histogram: Vec::new(),
                visited: 0,
                engine_traversed_edges: 0,
                sim_latency_s: 0.0,
                wall_latency_s: 0.0,
                via_fallback: false,
                epoch,
            });
            false
        });
        self.report.deadline_exceeded += out.len() as u64;
        for r in &out {
            self.record(r);
        }
        out
    }

    /// Keep `r`'s record among the most recent [`QUERY_RECORDS_KEPT`]
    /// (the older half goes when twice that many are held, so a
    /// long-lived server's report stays bounded and pushes amortised
    /// O(1)); the totals live in the report's counters.
    fn record(&mut self, r: &QueryResult) {
        let queries = &mut self.report.queries;
        if queries.len() >= 2 * QUERY_RECORDS_KEPT {
            queries.drain(..QUERY_RECORDS_KEPT);
        }
        queries.push(QueryRecord {
            id: r.id.0,
            root: r.root,
            batch_id: r.batch_id,
            status: r.status.label(),
            sim_latency_s: r.sim_latency_s,
            wall_latency_s: r.wall_latency_s,
            via_fallback: r.via_fallback,
        });
    }

    /// Snapshot of the service's observability report.
    pub fn report(&self) -> ServeReport {
        let mut r = self.report.clone();
        r.current_queue_depth = self.pending.len();
        r.ticks = self.ticks;
        r.health = self.health.state().label();
        r.health_transitions = self.health.transitions().to_vec();
        r
    }

    /// Form one batch from the queue head and execute it.
    fn flush_one(&mut self) -> Vec<QueryResult> {
        let take = self.pending.len().min(self.cfg.batch_max);
        let batch: Vec<Pending> = self.pending.drain(..take).collect();
        self.execute_batch(batch)
    }

    /// Arm the chaos schedule's next events against the live cluster,
    /// charged by executed-query count. Runs on the service thread
    /// between SPMD runs, so even an unarmed plan mutates safely.
    fn arm_chaos(&mut self, riders: usize) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        let num_ranks = self.session.num_ranks();
        chaos.since += riders as u64;
        let mut events = Vec::new();
        while chaos.since >= chaos.cfg.every_queries {
            chaos.since -= chaos.cfg.every_queries;
            if chaos.cfg.max_events > 0 && chaos.injected >= chaos.cfg.max_events {
                continue;
            }
            let rank = chaos.rng.next_below(num_ranks as u64) as usize;
            let op_index = chaos.rng.next_below(CHAOS_HORIZON);
            let kind = match chaos.injected % 4 {
                0 => {
                    chaos.panics += 1;
                    FaultKind::Panic
                }
                1 => {
                    chaos.stragglers += 1;
                    FaultKind::Straggler {
                        secs: CHAOS_STRAGGLER_SECS,
                    }
                }
                2 => {
                    chaos.corruptions += 1;
                    FaultKind::Corrupt {
                        mode: CorruptMode::BitFlip,
                    }
                }
                _ => {
                    chaos.corruptions += 1;
                    FaultKind::Corrupt {
                        mode: CorruptMode::Truncate,
                    }
                }
            };
            chaos.injected += 1;
            events.push(FaultEvent {
                rank,
                op_index,
                kind,
            });
        }
        if !events.is_empty() {
            self.session.cluster().fault_plan().inject(events);
        }
        self.report.chaos_injected = chaos.injected;
        self.report.chaos_panics = chaos.panics;
        self.report.chaos_stragglers = chaos.stragglers;
        self.report.chaos_corruptions = chaos.corruptions;
    }

    fn execute_batch(&mut self, batch: Vec<Pending>) -> Vec<QueryResult> {
        // Updates land strictly between batches: any scripted update
        // whose milestone has passed commits now, before this batch's
        // snapshot is taken.
        self.fire_update_plan();
        self.arm_chaos(batch.len());
        let batch_id = self.next_batch;
        self.next_batch += 1;
        let roots: Vec<u64> = batch.iter().map(|p| p.root).collect();
        let wall0 = Instant::now();
        // Engine errors are replicated: either every rank returned the
        // same Err, or every rank has a BatchOutput.
        let outs = all_ranks_ok(self.session.run_batch(&roots)).map(|outs| {
            outs.into_iter()
                .collect::<Result<Vec<BatchOutput>, EngineError>>()
        });
        let fallback = outs.is_err();
        let mut sim_seconds = 0.0f64;
        let mut results: Vec<QueryResult> = match outs {
            Ok(Ok(outs)) => {
                sim_seconds = outs.iter().fold(0.0, |m, o| m.max(o.stats.sim_seconds));
                self.assemble_batch(&batch, batch_id, outs, sim_seconds)
            }
            Ok(Err(e)) => {
                let epoch = self.session.epoch();
                let q = Quarantine::engine(e);
                batch
                    .iter()
                    .map(|p| quarantined_result(p, batch_id, q.clone(), 0.0, false, epoch))
                    .collect()
            }
            // A rank died mid-batch: the batch's riders fall back to
            // individually recoverable single-source runs. The session
            // itself stays resident — planned faults fire once, so the
            // healed cluster serves the fallback (and later batches).
            Err(_) => batch
                .iter()
                .map(|p| {
                    let r = self.serve_fallback(p, batch_id);
                    sim_seconds += r.sim_latency_s;
                    r
                })
                .collect(),
        };
        let wall_seconds = wall0.elapsed().as_secs_f64();
        // A batched rider waited for its whole batch, assembly included;
        // a fallback rider keeps the wall of its own recovery run.
        if !fallback {
            for r in &mut results {
                r.wall_latency_s = wall_seconds;
            }
        }
        self.executed_queries += batch.len() as u64;

        // Optional sequential baseline over the same roots.
        let seq_sim_seconds = if self.cfg.measure_baseline {
            self.measure_sequential(&roots)
        } else {
            None
        };

        let served = results
            .iter()
            .filter(|r| matches!(r.status, QueryStatus::Served))
            .count();
        let quarantined = (results.len() - served) as u64;
        self.report.served += served as u64;
        self.report.quarantined += quarantined;
        self.report.batch_sim_seconds += sim_seconds;
        if let Some(s) = seq_sim_seconds {
            *self.report.sequential_sim_seconds.get_or_insert(0.0) += s;
        }
        self.report.occupancy_histogram[crate::report::occupancy_bucket(batch.len())] += 1;
        if fallback {
            self.report.fallback_batches += 1;
        }
        // Health: a batch "failed" when it lost its engine run (rank
        // loss → fallback) or quarantined a rider.
        self.health
            .on_batch(fallback || quarantined > 0, self.ticks);
        self.report.batches.push(BatchRecord {
            batch_id,
            occupancy: batch.len(),
            sim_seconds,
            wall_seconds,
            fallback,
            served: served as u64,
            quarantined,
            seq_sim_seconds,
        });
        for r in &results {
            self.record(r);
        }
        results
    }

    /// Turn per-rank [`BatchOutput`]s into per-query results. A served
    /// batch costs its traversal: the slot arrays are taken apart by
    /// value, every rider's tree is a handle onto the one shared set of
    /// parent slots, and the depth census of all riders is one pass
    /// over the depth slots. Only a resident delta makes a rider's
    /// arrays contiguous, because repair needs them so.
    fn assemble_batch(
        &mut self,
        batch: &[Pending],
        batch_id: u64,
        mut outs: Vec<BatchOutput>,
        sim_seconds: f64,
    ) -> Vec<QueryResult> {
        let width = batch.len();
        // Replicated counters: rank 0 speaks for all.
        let stats = std::mem::take(&mut outs[0].stats);
        let (rank_parents, rank_depths): (Vec<_>, Vec<_>) =
            outs.into_iter().map(|o| (o.parents, o.depths)).unzip();
        let rank_parents = Arc::new(rank_parents);
        let trees = (0..width).map(|b| ParentTree::new(Arc::clone(&rank_parents), width, b));
        let riders: Vec<(ParentTree, Vec<u64>)> = if self.session.has_delta() {
            trees
                .enumerate()
                .map(|(b, tree)| {
                    let depths = gather_slot(&rank_depths, width, b, |d| match d {
                        UNREACHED_DEPTH => u64::MAX,
                        d => u64::from(d),
                    });
                    self.repair_and_count(tree.to_vec(), depths)
                })
                .collect()
        } else {
            // Iteration `k` stamps depth `k`, so the iteration count
            // bounds every depth of the batch.
            let histograms = depth_census(&rank_depths, width, stats.iterations.len());
            // The engine tallied parent slots, this is a census of
            // depth slots: two counts of the same trees.
            debug_assert!(histograms
                .iter()
                .map(|h| h.iter().sum::<u64>())
                .eq(stats.visited.iter().copied()));
            trees.zip(histograms).collect()
        };
        batch
            .iter()
            .zip(riders)
            .zip(stats.traversed_edges)
            .map(|((p, (tree, histogram)), edges)| {
                // The wall is the whole batch's: `execute_batch` stamps
                // it once this assembly is inside it.
                let latency = (sim_seconds, 0.0);
                self.finish_result(p, batch_id, tree, histogram, edges, latency, false)
            })
            .collect()
    }

    /// The step of every producer that holds a rider's arrays
    /// contiguously (a batch over a resident delta, the fallback path).
    /// The engine ran against the base CSRs; when a delta is
    /// resident, the tree is patched by incremental repair into the
    /// exact union-graph answer. Then the depth census of what is left.
    fn repair_and_count(
        &mut self,
        mut parents: Vec<u64>,
        mut depths: Vec<u64>,
    ) -> (ParentTree, Vec<u64>) {
        if self.session.has_delta() {
            let stats = self.session.repair_result(&mut parents, &mut depths);
            self.report.repaired_queries += 1;
            self.report.repaired_vertices += stats.improved;
        }
        let mut histogram: Vec<u64> = Vec::new();
        for &d in depths.iter().filter(|&&d| d != u64::MAX) {
            let d = d as usize;
            if histogram.len() <= d {
                histogram.resize(d + 1, 0);
            }
            histogram[d] += 1;
        }
        (ParentTree::new(Arc::new(vec![parents]), 1, 0), histogram)
    }

    /// The tail every served result shares, whichever engine entry
    /// point produced its tree and whichever census its histogram.
    #[allow(clippy::too_many_arguments)]
    fn finish_result(
        &self,
        p: &Pending,
        batch_id: u64,
        tree: ParentTree,
        depth_histogram: Vec<u64>,
        engine_traversed_edges: u64,
        (sim_latency_s, wall_latency_s): (f64, f64),
        via_fallback: bool,
    ) -> QueryResult {
        QueryResult {
            id: p.id,
            root: p.root,
            batch_id: Some(batch_id),
            status: QueryStatus::Served,
            parents: Some(tree),
            visited: depth_histogram.iter().sum(),
            depth_histogram,
            engine_traversed_edges,
            sim_latency_s,
            wall_latency_s,
            via_fallback,
            epoch: self.session.epoch(),
        }
    }

    /// Per-root recovery: [`GraphSession::run_root`] with the service's
    /// retry budget (no backoff — the service clock is ticks, not time).
    fn serve_fallback(&mut self, p: &Pending, batch_id: u64) -> QueryResult {
        let wall0 = Instant::now();
        let run = self
            .session
            .run_root(p.root, self.cfg.max_root_retries, &mut |_| {});
        let wall = wall0.elapsed().as_secs_f64();
        match run.result {
            Ok(outs) => self.assemble_single(p, batch_id, outs, wall),
            Err(q) => quarantined_result(p, batch_id, q, wall, true, self.session.epoch()),
        }
    }

    fn assemble_single(
        &mut self,
        p: &Pending,
        batch_id: u64,
        outs: Vec<BfsOutput>,
        wall_seconds: f64,
    ) -> QueryResult {
        let sim = outs.iter().fold(0.0f64, |m, o| m.max(o.stats.sim_seconds));
        let parents: Vec<u64> = outs
            .iter()
            .flat_map(|o| o.parents.iter().copied())
            .collect();
        // The single-source engine keeps no depth slots: deriving the
        // levels walks every parent chain, which doubles as the tree
        // check of the recovery path.
        match validate::levels_from_parents(p.root, &parents) {
            Ok(depths) => {
                let (tree, histogram) = self.repair_and_count(parents, depths);
                let edges = outs[0].stats.traversed_edges;
                let latency = (sim, wall_seconds);
                self.finish_result(p, batch_id, tree, histogram, edges, latency, true)
            }
            Err(e) => quarantined_result(
                p,
                batch_id,
                Quarantine {
                    label: "tree",
                    detail: format!("{e:?}"),
                },
                wall_seconds,
                true,
                self.session.epoch(),
            ),
        }
    }

    /// The sequential baseline: the same roots, one single-source
    /// traversal each (the driver's per-root loop shape). Returns the
    /// summed per-root simulated time, or `None` if a traversal failed
    /// mid-measurement.
    fn measure_sequential(&mut self, roots: &[u64]) -> Option<f64> {
        let mut total = 0.0;
        for &root in roots {
            let outs = all_ranks_ok(self.session.run_single(root)).ok()?;
            let mut sim = 0.0f64;
            for out in outs {
                sim = sim.max(out.ok()?.stats.sim_seconds);
            }
            total += sim;
        }
        Some(total)
    }
}

/// Global per-vertex array of root slot `b`, each entry passed through
/// `map`, from per-rank vertex-major slot arrays of `width` roots:
/// ranks own consecutive vertex blocks, so the rank arrays concatenate
/// in rank order. One useful slot per `width`: whoever calls this pays
/// for reading all of them.
fn gather_slot<T: Copy, U>(
    rank_slots: &[Vec<T>],
    width: usize,
    b: usize,
    map: impl Fn(T) -> U,
) -> Vec<U> {
    let n = rank_slots.iter().map(|slots| slots.len() / width).sum();
    let mut out = Vec::with_capacity(n);
    for slots in rank_slots {
        out.extend(slots.chunks_exact(width).map(|vertex| map(vertex[b])));
    }
    out
}

/// Depth census of a whole batch in one pass over its depth slots:
/// root `b`'s histogram (vertices per depth, its sum the visited count)
/// is row `b` of a `width × (levels + 2)` table without its trailing
/// zeros. `levels` bounds every stamped depth, so columns `0..=levels`
/// are the histogram and the last column takes [`UNREACHED_DEPTH`] — a
/// `min` and an add per slot.
fn depth_census(rank_depths: &[Vec<u32>], width: usize, levels: usize) -> Vec<Vec<u64>> {
    let cols = levels + 2;
    let unreached = u32::try_from(cols - 1).expect("MAX_ITERATIONS fits u32");
    let mut table = vec![0u64; width * cols];
    for depths in rank_depths {
        for vertex in depths.chunks_exact(width) {
            for (row, &d) in table.chunks_exact_mut(cols).zip(vertex) {
                debug_assert!(
                    d < unreached || d == UNREACHED_DEPTH,
                    "depth {d} > {levels}"
                );
                row[d.min(unreached) as usize] += 1;
            }
        }
    }
    table
        .chunks_exact(cols)
        .map(|row| {
            let reached = &row[..=levels];
            let deepest = reached.iter().rposition(|&count| count != 0);
            reached[..deepest.map_or(0, |d| d + 1)].to_vec()
        })
        .collect()
}

fn quarantined_result(
    p: &Pending,
    batch_id: u64,
    q: Quarantine,
    wall_seconds: f64,
    via_fallback: bool,
    epoch: u64,
) -> QueryResult {
    QueryResult {
        id: p.id,
        root: p.root,
        batch_id: Some(batch_id),
        status: QueryStatus::Quarantined(q),
        parents: None,
        depth_histogram: Vec::new(),
        visited: 0,
        engine_traversed_edges: 0,
        sim_latency_s: 0.0,
        wall_latency_s: wall_seconds,
        via_fallback,
        epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionConfig;
    use sunbfs_net::FaultPlan;

    #[test]
    fn parent_tree_gathers_its_slot_out_of_ragged_rank_blocks() {
        for width in [1usize, 3, 64] {
            // Vertices per rank, one rank owning none; slot `b` of
            // global vertex `v` holds `v * 100 + b`.
            let per_rank = [5usize, 0, 7, 2];
            let n: usize = per_rank.iter().sum();
            let mut next = 0u64;
            let blocks: Vec<Vec<u64>> = per_rank
                .iter()
                .map(|&owned| {
                    let block = (next..next + owned as u64)
                        .flat_map(|v| (0..width as u64).map(move |b| v * 100 + b));
                    next += owned as u64;
                    block.collect()
                })
                .collect();
            let blocks = Arc::new(blocks);
            for slot in 0..width {
                let tree = ParentTree::new(Arc::clone(&blocks), width, slot);
                let mut want = Vec::new();
                for v in 0..n {
                    want.push(v as u64 * 100 + slot as u64);
                }
                assert_eq!(tree.len(), n, "width {width} slot {slot}");
                assert!(!tree.is_empty());
                assert_eq!(tree.to_vec(), want, "width {width} slot {slot}");
            }
        }
        let none = ParentTree::new(Arc::new(vec![Vec::new()]), 1, 0);
        assert!(none.is_empty() && none.to_vec().is_empty());
        assert_eq!(
            format!("{none:?}"),
            "ParentTree { len: 0, width: 1, slot: 0 }"
        );
    }

    /// The per-root loop the census table replaced: gather root `b`'s
    /// depth slots, grow the histogram as depths appear.
    fn census_by_resize(rank_depths: &[Vec<u32>], width: usize, b: usize) -> Vec<u64> {
        let mut histogram: Vec<u64> = Vec::new();
        for d in gather_slot(rank_depths, width, b, |d| d) {
            if d == UNREACHED_DEPTH {
                continue;
            }
            if histogram.len() <= d as usize {
                histogram.resize(d as usize + 1, 0);
            }
            histogram[d as usize] += 1;
        }
        histogram
    }

    #[test]
    fn census_table_matches_the_per_root_count_on_real_batches() {
        for ranks in [4, 6] {
            let session = GraphSession::load(SessionConfig::small(9, ranks), FaultPlan::none())
                .expect("clean load");
            let run = |roots: &[u64]| -> Vec<BatchOutput> {
                session
                    .run_batch(roots)
                    .into_iter()
                    .map(|rank| rank.expect("no rank failure").expect("terminates"))
                    .collect()
            };
            // An isolated vertex and a well-connected one, found by
            // what the engine reaches from the first 64 vertices.
            let all: Vec<u64> = (0..64).collect();
            let reach = run(&all).swap_remove(0).stats.visited;
            let isolated = reach
                .iter()
                .position(|&v| v == 1)
                .expect("an isolated vertex") as u64;
            let hub = (0..64)
                .max_by_key(|&v| reach[v as usize])
                .expect("64 roots");
            for width in [1usize, 8, 64] {
                // Slot 0 the isolated root, the connected root twice.
                let mut roots: Vec<u64> = (0..width as u64).collect();
                roots[0] = isolated;
                if width > 1 {
                    roots[1] = hub;
                    roots[width - 1] = hub;
                }
                let mut outs = run(&roots);
                let stats = std::mem::take(&mut outs[0].stats);
                let rank_depths: Vec<Vec<u32>> = outs.into_iter().map(|o| o.depths).collect();
                let want: Vec<Vec<u64>> = (0..width)
                    .map(|b| census_by_resize(&rank_depths, width, b))
                    .collect();
                assert_eq!(want[0], vec![1], "an isolated root reaches itself only");
                let levels = stats.iterations.len();
                let label = format!("{ranks} ranks, width {width}");
                assert_eq!(depth_census(&rank_depths, width, levels), want, "{label}");
                // The tightest bound a caller may pass: the deepest
                // level of the batch lands in the last histogram column.
                let deepest = want.iter().map(Vec::len).max().expect("width >= 1") - 1;
                assert!(deepest <= levels, "{label}: iterations bound depths");
                assert_eq!(depth_census(&rank_depths, width, deepest), want, "{label}");
                let visited: Vec<u64> = want.iter().map(|h| h.iter().sum()).collect();
                assert_eq!(visited, stats.visited, "{label}: census vs engine tally");
                if width > 1 {
                    assert_eq!(want[1], want[width - 1], "{label}: duplicated root");
                }
            }
        }
    }

    // The health tests script the shipped thresholds: a window of 8
    // batches, 3 failures to quarantine, the probe after 16 quiet
    // ticks, 2 clean batches to recover.

    #[test]
    fn clean_batches_keep_the_machine_healthy() {
        let mut m = HealthMachine::default();
        for t in 1..10 {
            m.on_batch(false, t);
            m.on_tick(t);
        }
        assert_eq!(m.state(), HealthState::Healthy);
        assert!(m.transitions().is_empty());
        assert_eq!(m.shed(9), None);
    }

    #[test]
    fn failure_degrades_and_clean_batches_recover() {
        let mut m = HealthMachine::default();
        m.on_batch(true, 1);
        assert_eq!(m.state(), HealthState::Degraded);
        m.on_batch(false, 2);
        assert_eq!(m.state(), HealthState::Recovering);
        m.on_batch(false, 3);
        assert_eq!(m.state(), HealthState::Healthy);
        let path: Vec<(&str, &str)> = m.transitions().iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            path,
            vec![
                ("healthy", "degraded"),
                ("degraded", "recovering"),
                ("recovering", "healthy"),
            ]
        );
        assert!(m.transitions().iter().all(|t| t.at_tick >= 1));
    }

    #[test]
    fn window_failures_quarantine_and_probe_half_opens() {
        let mut m = HealthMachine::default();
        m.on_batch(true, 1);
        m.on_batch(true, 2);
        assert_eq!(m.state(), HealthState::Degraded, "2 of 8 failed");
        m.on_batch(true, 3);
        assert_eq!(m.state(), HealthState::Quarantined, "3 of 8 failed");
        // Shedding with a hint counting down to the probe.
        assert_eq!(m.shed(3), Some(16));
        assert_eq!(m.shed(5), Some(14));
        m.on_tick(18);
        assert_eq!(
            m.state(),
            HealthState::Quarantined,
            "15 ticks is not yet 16"
        );
        m.on_tick(19);
        assert_eq!(m.state(), HealthState::Recovering, "probe after 16 ticks");
        assert_eq!(m.shed(19), None);
        m.on_batch(false, 19);
        m.on_batch(false, 20);
        assert_eq!(m.state(), HealthState::Healthy);
    }

    #[test]
    fn failure_during_recovery_reopens_the_breaker() {
        let mut m = HealthMachine::default();
        m.on_batch(true, 1);
        m.on_batch(false, 2);
        assert_eq!(m.state(), HealthState::Recovering);
        m.on_batch(true, 3);
        assert_eq!(m.state(), HealthState::Quarantined);
        // A failing pre-quarantine batch re-arms the probe timer.
        m.on_batch(true, 6);
        m.on_tick(19);
        assert_eq!(m.state(), HealthState::Quarantined, "timer re-armed at 6");
        m.on_tick(22);
        assert_eq!(m.state(), HealthState::Recovering);
    }

    #[test]
    fn shed_hint_is_always_at_least_one_tick() {
        let mut m = HealthMachine::default();
        for _ in 0..3 {
            m.on_batch(true, 1);
        }
        assert_eq!(m.state(), HealthState::Quarantined);
        // Even past the nominal probe time, the hint floors at 1.
        assert_eq!(m.shed(100), Some(1));
    }

    #[test]
    fn reject_reasons_carry_labels_and_hints() {
        let r = RejectReason::ServiceDegraded {
            state: "quarantined",
            retry_after_ticks: 7,
        };
        assert_eq!(r.label(), "service_degraded");
        assert_eq!(r.retry_after_ticks(), Some(7));
        assert!(r.to_string().contains("retry after 7"));
        assert_eq!(
            QueryStatus::DeadlineExceeded {
                deadline_ticks: 3,
                waited_ticks: 4
            }
            .label(),
            "deadline_exceeded"
        );
    }
}
