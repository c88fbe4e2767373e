//! `sunbfs-core` — the distributed BFS engine of the paper.
//!
//! The primary contribution: direction-optimizing breadth-first search
//! over the 3-level degree-aware 1.5D partition, with
//!
//! * **sub-iteration direction optimization** (§4.2) — each of the six
//!   subgraph components picks push/pull independently per iteration
//!   ([`config`]), driven by either fixed count-ratio thresholds or the
//!   measured-degree heuristic family ([`DirectionHeuristic`]),
//! * **CG-aware core-subgraph segmenting** (§4.3) — the EH2EH pull
//!   probes source activeness through an LDM-distributed bit vector,
//! * **OCS-RMA messaging** (§4.4) — all remote-edge messages are
//!   bucketed on-chip before `alltoallv`, with hierarchical forwarding
//!   for the global L2L exchange,
//! * **delayed reduction of delegated parents** and **edge-aware
//!   vertex-cut balancing** (§5, [`balance`]),
//! * full Graph 500 validation and a sequential reference ([`validate`]),
//! * **iteration-level checkpoint/resume** ([`checkpoint`]) — every
//!   completed iteration snapshots the loop state so a faulted root
//!   resumes from its last verified checkpoint instead of restarting
//!   (the `checkpoints` store of [`EngineScratch::run_bfs`]).
//!
//! Entry points, one per lane, on the rank's [`EngineScratch`]:
//! [`EngineScratch::run_bfs`], called SPMD from every rank of a
//! [`sunbfs_net::Cluster`] with the rank's [`sunbfs_part::RankPartition`],
//! and [`EngineScratch::run_batch`], which runs the same schedule for up
//! to 64 roots in one pass (one engine, two frontier element types).

#![warn(missing_docs)]

pub mod balance;
pub mod batch;
pub mod checkpoint;
pub mod config;
pub mod costing;
pub mod engine;
mod lane;
pub mod stats;
pub mod validate;

pub use batch::{BatchOutput, BatchRunStats, MAX_BATCH_ROOTS, UNREACHED_DEPTH};
pub use checkpoint::{CheckpointState, CheckpointStore, ResumeStats};
pub use config::{choose_measured, Component, Direction, DirectionHeuristic, EngineConfig};
pub use engine::{BfsOutput, EngineError, EngineScratch};
pub use stats::{BfsRunStats, IterationStats, SubIterationStats};
pub use validate::{reference_bfs, validate_parents, ValidationError};
