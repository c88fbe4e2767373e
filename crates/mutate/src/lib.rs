//! `sunbfs-mutate` — live graph mutations over the static 1.5D partition.
//!
//! The paper's partition is built once and traversed forever; this crate
//! turns it into a **living graph** without giving up determinism or the
//! byte-identity contracts the rest of the workspace pins:
//!
//! * [`Delta`] ([`delta`]) — the inserts committed since the last
//!   compaction: the canonical commit log and the undirected adjacency
//!   it adds, one per session. Inserting a batch reports **class
//!   promotions** — endpoints whose degree crossed `h_threshold` /
//!   `e_threshold` — so the session can compact before the replicated
//!   hub directory goes stale.
//! * [`UnionAdjacency`] ([`union`]) — a read-only adjacency view over
//!   base CSRs plus the delta, usable because the simulated cluster keeps
//!   every rank's partition in one address space. It backs both the
//!   sequential reference traversal ([`UnionAdjacency::full_bfs`]) and
//!   the repair pass.
//! * [`repair_in_place`] ([`repair`]) — **incremental BFS repair**:
//!   given a cached result computed at an older epoch and the committed
//!   insert batches since, re-expand only from endpoints whose depth
//!   improves instead of recomputing from the root. Inserts can only
//!   shrink distances, so relaxing the new edges to a fixpoint is exact;
//!   the equivalence tests pin depth-identity against a full recompute.
//! * [`UpdatePlan`] ([`plan`]) — a seeded `SUNBFS_UPDATE_PLAN` schedule
//!   grammar (`seed@42;insert@8:16`) reusing the `FaultPlan` fire-once
//!   machinery, so soaks and tests commit the same update batches at the
//!   same points in the query stream on every run.
//!
//! Epoch bookkeeping itself lives on `GraphSession` in `sunbfs-serve`
//! (`docs/UPDATES.md`); this crate supplies the mechanisms.

#![warn(missing_docs)]

pub mod delta;
pub mod plan;
pub mod repair;
pub mod union;

pub use delta::{canonical_edge_set, Delta};
pub use plan::{generate_batch, UpdateEvent, UpdatePlan};
pub use repair::{repair_in_place, RepairStats};
pub use union::UnionAdjacency;
