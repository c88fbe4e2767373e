//! 3-level degree-aware 1.5D graph partitioning (§4.1) — the paper's
//! central data-layout contribution — plus its degenerate baselines.
//!
//! Vertices are classified by degree into **E** / **H** / **L** and the
//! edge set splits into six components with different storage and
//! communication disciplines:
//!
//! | component | storage | messaging |
//! |---|---|---|
//! | `EH2EH` | 2D-partitioned over the mesh by hub-id ranges | none (delegates) |
//! | `E2L`, `L2E` | owner of L | none (E is global) |
//! | `H2L` | row(owner L) × col(owner H) intersection | intra-row |
//! | `L2H` | owner of L | intra-row (folded into delegate sync) |
//! | `L2L` | owner of the source | global, hierarchically forwarded |
//!
//! Baselines are *configurations*, exactly as §4.1 observes: with
//! `|H| = 0` ([`Thresholds::heavy_only`]) the scheme degenerates to 1D
//! partitioning with heavy delegates; with `|L| = 0`
//! ([`Thresholds::all_hubs`]) it degenerates to 2D partitioning with
//! vertex reordering; [`Thresholds::none`] yields vanilla 1D.

pub mod builder;
pub mod csr;
pub mod directory;
pub mod distribution;

pub use builder::{build_1p5d, row_vertex_range, ComponentStats, OwnedHubs, RankPartition};
pub use csr::Csr;
pub use directory::{HubDirectory, Thresholds, VertexClass};
pub use distribution::VertexDistribution;
