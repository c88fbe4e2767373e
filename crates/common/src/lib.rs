//! Shared primitives for the `sunbfs` workspace.
//!
//! This crate holds the small, dependency-free building blocks used by
//! every other crate in the reproduction of *"Scaling Graph Traversal to
//! 281 Trillion Edges with 40 Million Cores"* (PPoPP 2022):
//!
//! * [`types`] — vertex/edge identifiers and the global graph header,
//! * [`bitmap`] — dense bit vectors (the frontier/visited representation),
//! * [`hist`] — logarithmic histograms for degree-distribution studies,
//! * [`rng`] — a deterministic SplitMix64/xoshiro-style generator used in
//!   hot paths where pulling in `rand` machinery would dominate,
//! * [`timing`] — simulated-time accounting shared by the chip and
//!   network cost models,
//! * [`pool`] — the bounded intra-rank worker pool (the CPE analogue)
//!   that the hot kernels route through, sized by `SUNBFS_WORKERS`,
//! * [`json`] — hand-rolled JSON emission for the observability layer
//!   (the build environment has no crates.io access, so no serde).

#![warn(missing_docs)]

pub mod bitmap;
pub mod hist;
pub mod json;
pub mod machine;
pub mod pool;
pub mod rng;
pub mod timing;
pub mod types;

pub use bitmap::Bitmap;
pub use hist::LogHistogram;
pub use json::{JsonObject, JsonValue, ToJson, MAX_PARSE_DEPTH};
pub use machine::MachineConfig;
pub use pool::PoolStats;
pub use rng::{LabelScrambler, SplitMix64};
pub use timing::{Category, CategoryMap, SimTime, TimeAccumulator};
pub use types::{Edge, GlobalGraphHeader, VertexId, INVALID_VERTEX};
