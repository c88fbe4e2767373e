//! # sunbfs
//!
//! A from-scratch Rust reproduction of **"Scaling Graph Traversal to
//! 281 Trillion Edges with 40 Million Cores"** (Cao et al., PPoPP
//! 2022): Graph 500-conforming breadth-first search built on 3-level
//! degree-aware 1.5D graph partitioning, sub-iteration direction
//! optimization, CG-aware core-subgraph segmenting, and on-chip sorting
//! with RMA — over a simulated New Sunway supercomputer (SW26010-Pro
//! chips + oversubscribed fat tree).
//!
//! The workspace is layered:
//!
//! * [`common`] — bitmaps, RNG, histograms, machine constants,
//! * [`rmat`] — the Graph 500 Kronecker generator,
//! * [`net`] — the SPMD cluster runtime with costed collectives,
//! * [`sunway`] — the SW26010-Pro chip simulator (OCS-RMA, LDM segmenting),
//! * [`sort`] — PARADIS in-place radix sort + PSRS global sort,
//! * [`part`] — the 1.5D partitioner and its degenerate baselines,
//! * [`core`] — the BFS engine itself (single-source and the
//!   bit-parallel multi-source batch variant),
//! * [`store`] — the persistent partition store: a paged, checksummed
//!   on-disk format so a restart opens the graph file instead of
//!   regenerating and repartitioning it (`docs/STORE.md`),
//! * [`mutate`] — live graph mutations: one delta per session (the
//!   commit log and the adjacency it adds) for epoch-versioned
//!   edge-insert batches, incremental BFS repair, and
//!   delta-into-base compaction (`docs/UPDATES.md`),
//! * [`serve`] — the session-persistent partition (build or open once,
//!   traverse many) and the BFS query service on top of it: a bounded
//!   admission queue with multi-source batching,
//! * [`driver`] — the end-to-end Graph 500 benchmark pipeline: one
//!   resident session, every root traversed on it, each tree validated,
//!   one report. A root that fails — lost ranks past the retry budget,
//!   an engine error, a failed validation — is quarantined in the
//!   report, never an `Err`.
//! * [`cli`] — the one knob reader of the example binaries: a graph is
//!   sized from the command line that launches it, and a bad knob is
//!   refused by name with exit code 2.
//!
//! There is no general vertex-program framework (the paper's §8 future
//! work): BFS is the boolean, monotone semiring the engine's lanes are
//! built on, and programs with values and re-activation would fork it.
//!
//! ## Quickstart
//!
//! ```
//! use sunbfs::driver::{run_benchmark, RunConfig};
//!
//! let report = run_benchmark(&RunConfig::small_test(10, 4)).expect("benchmark must pass");
//! assert!(report.mean_gteps() > 0.0);
//! assert!(report.validated);
//! ```

pub mod cli;
pub mod driver;
pub mod metrics;

pub use sunbfs_common as common;
pub use sunbfs_core as core;
pub use sunbfs_mutate as mutate;
pub use sunbfs_net as net;
pub use sunbfs_part as part;
pub use sunbfs_rmat as rmat;
pub use sunbfs_serve as serve;
pub use sunbfs_sort as sort;
pub use sunbfs_store as store;
pub use sunbfs_sunway as sunway;
