//! Simulated supercomputer interconnect for `sunbfs`.
//!
//! The paper's BFS runs on 103,912 New Sunway nodes joined by an
//! oversubscribed fat tree (§3.2). Mature Rust MPI/RMA bindings for
//! this communication pattern do not exist, so this crate *is* the
//! substrate: an in-process SPMD runtime in which
//!
//! * each simulated rank is an OS thread ([`Cluster::run`]),
//! * ranks communicate exclusively through MPI-style collectives on
//!   [`RankCtx`] (`alltoallv`, `allgatherv`, `allreduce_with`,
//!   `barrier`) that really move the bytes,
//! * every collective charges analytic network time from the actual
//!   byte volumes and the mesh/supernode topology ([`cost`]), and
//!   records entry skew as load imbalance — producing the same
//!   time-breakdown categories as the paper's Figure 11.
//!
//! The topology follows §4.1: ranks form an `R × C` mesh whose **rows
//! map to supernodes**; row traffic enjoys full NIC bandwidth while
//! column/global traffic pays the 8× fat-tree oversubscription.

//!
//! Failure is a first-class citizen: a [`FaultPlan`] injects
//! deterministic rank panics, straggler delays, and payload corruption
//! at chosen collective indices, and [`Cluster::run_fallible`] returns
//! typed per-rank [`RankFailure`]s (injected faults, [`SpmdViolation`]
//! contract breaches, poisoned-barrier teardown) instead of tearing the
//! whole process down — the substrate for the driver's per-root
//! retry/quarantine loop.
//!
//! Exchanges are self-healing: a collective carries vectors (or
//! per-destination vectors) of [`Wire`] elements, so every payload it
//! accepts can be framed, and with a live fault plan every deposit
//! carries a length + FNV-1a checksum [`frame::Frame`]; a mismatch
//! after the deposit barrier triggers bounded in-place retransmission
//! of just the corrupted deposit (logged in
//! [`Cluster::retransmit_log`]), escalating to a typed
//! [`FailureKind::CorruptPayload`] only when the corruption persists
//! past the budget.

#![warn(missing_docs)]

pub mod barrier;
pub mod cluster;
pub mod cost;
pub mod fault;
pub mod frame;
pub mod topology;

pub use barrier::{BarrierPoisoned, PoisonBarrier};
pub use cluster::{
    all_ranks_ok, Cluster, CommOpStats, CommStats, FailureKind, RankCtx, RankFailure,
    RetransmitRecord, SpmdViolation, SpmdViolationKind,
};
pub use cost::Scope;
pub use fault::{CorruptMode, FaultEvent, FaultKind, FaultPlan, FaultRecord, FaultSpec};
pub use frame::{fnv1a, Damage, Fnv1a, Frame, Wire, WordReader, WordWriter};
pub use topology::{MeshShape, Topology};
