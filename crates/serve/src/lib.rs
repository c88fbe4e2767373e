//! `sunbfs-serve` — the BFS query service.
//!
//! The ROADMAP's north star is a system that serves heavy query
//! traffic, not a one-shot benchmark. This crate closes that gap in
//! three layers:
//!
//! * [`GraphSession`] ([`session`]) — the **resident graph**: R-MAT
//!   generation and the 1.5D partition are built once and reused by
//!   every query; the simulated cluster survives across runs, and
//!   transient faults consumed by one query never invalidate the
//!   partition. A session can also be [saved](GraphSession::save) to
//!   and [opened](GraphSession::open) from the `sunbfs-store` paged
//!   file format (`docs/STORE.md`), so a restart pays file-open time
//!   instead of rebuild time ([`GraphSession::open_or_build`]).
//! * [`EngineScratch::run_batch`](sunbfs_core::EngineScratch::run_batch)
//!   (in `sunbfs-core`) — the **bit-parallel multi-source engine**: up
//!   to 64 roots share one traversal, packed as a `u64` frontier word
//!   per vertex, so the per-iteration fixed costs (hub syncs, heuristic
//!   collectives, bitmap sweeps) amortize across the batch.
//! * [`BfsService`] ([`service`]) — the **service mechanics**: bounded
//!   admission queue with typed rejections (backpressure), deadline-
//!   driven batch formation, per-query typed results (parent-array
//!   handle, depth histogram, served/quarantined status), per-root
//!   checkpointed fallback when a batch loses a rank, a health state
//!   machine with a load-shedding circuit breaker
//!   (`docs/FAULTS.md`), per-query deadline budgets, and a seeded
//!   [`ChaosConfig`] that arms live faults for soak testing.
//!
//! The service is reachable over one wire protocol ([`proto`] —
//! newline-delimited JSON with typed parse errors) through the
//! concurrent TCP server of [`net`] (accept loop with a connection
//! cap, per-connection deadlines, one deterministic service thread —
//! the only place a request is interpreted — and graceful
//! drain-on-shutdown); `examples/bfs_server.rs` is its command line.
//! The protocol carries only serving verbs: the graph is sized and
//! built (or opened) at startup, from that command line, which
//! `sunbfs::cli` validates like every other binary's.
//! [`loadgen`] is the wire client — a
//! blocking line client and the paced load generator — and [`soak`]
//! runs the whole stack in-process under that load in three profiles
//! (`load`, `chaos`, `update`), each writing one artifact section.
//!
//! Observability lives in [`ServeReport`] ([`report`]), which renders
//! as the `serve` section of the metrics JSON.
//!
//! The graph is **live** (`docs/UPDATES.md`): batched edge inserts
//! commit through [`GraphSession::apply_updates`] /
//! [`BfsService::apply_updates`] — or the wire's `update` command —
//! bumping a monotone epoch that stamps every reply. Committed inserts
//! sit in the session's delta (`sunbfs-mutate`), query results
//! are patched by incremental BFS repair, and the delta compacts back
//! into the base CSRs on promotion or size triggers.

pub mod loadgen;
pub mod net;
pub mod proto;
pub mod report;
pub mod service;
pub mod session;
pub mod soak;

/// Widest batch the engine's frontier word can carry.
pub const MAX_BATCH: usize = sunbfs_core::MAX_BATCH_ROOTS;

pub use loadgen::{run_loadgen, LatencySummary, LineClient, LoadgenConfig, LoadgenReport, Target};
pub use net::{serve, JoinOutcome, NetConfig, NetSummary, TcpServer};
pub use proto::{parse_request, ProtoError, Request, MAX_REQUEST_BYTES};
pub use report::{
    occupancy_bucket, BatchRecord, HealthTransition, QueryRecord, ServeReport, OCCUPANCY_LABELS,
    QUERY_RECORDS_KEPT,
};
pub use service::{
    BfsService, ChaosConfig, HealthMachine, HealthSnapshot, HealthState, ParentTree, QueryId,
    QueryResult, QueryStatus, RejectReason, ServeConfig,
};
pub use session::{
    GraphSession, LoadError, Quarantine, RootTraversal, SessionConfig, SessionError, StoreActivity,
    DELTA_COMPACT_THRESHOLD,
};
pub use soak::{
    recovery_episodes, run_soak, Profile, RepairRounds, RepairTiming, SoakConfig, SoakReport,
};
pub use sunbfs_mutate::{RepairStats, UpdateEvent, UpdatePlan};
pub use sunbfs_store::{StoreError, StoreHeader, StoreInfo};
