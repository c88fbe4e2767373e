//! The inputs a seed stands for: session configuration, the generated
//! edge list, the oracle over it, and the root pool.

use sunbfs::common::{Edge, MachineConfig, SplitMix64};
use sunbfs::core::EngineConfig;
use sunbfs::net::MeshShape;
use sunbfs::part::Thresholds;
use sunbfs::serve::SessionConfig;

use crate::oracle::Oracle;

/// Roots a Graph 500 loop cycles through.
pub const G500_ROOTS: usize = 64;
/// Roots the query streams draw from (the first [`G500_ROOTS`] are the
/// Graph 500 list). Small enough that the oracle answers each once.
pub const ROOT_POOL: usize = 256;

/// The one configuration every workload runs: 2x2 mesh, edge factor 16,
/// thresholds 256/64, the measured direction heuristic, Sunway machine
/// constants. Only scale and seed vary.
pub fn session_config(scale: u32, seed: u64) -> SessionConfig {
    SessionConfig {
        scale,
        edge_factor: 16,
        mesh: MeshShape::new(2, 2),
        thresholds: Thresholds::new(256, 64),
        engine: EngineConfig::default(),
        machine: MachineConfig::new_sunway(),
        seed,
        // No faults are planned, so a failed build is a bug to report,
        // not something to retry past.
        max_load_attempts: 1,
    }
}

pub struct Graph {
    pub cfg: SessionConfig,
    pub edges: Vec<Edge>,
    pub oracle: Oracle,
    /// [`ROOT_POOL`] distinct vertices of degree >= 1, drawn from the seed.
    pub roots: Vec<u64>,
}

impl Graph {
    pub fn generate(scale: u32, seed: u64) -> Graph {
        let cfg = session_config(scale, seed);
        let params = cfg.rmat();
        let edges = sunbfs::rmat::generate_edges(&params);
        let oracle = Oracle::build(params.num_vertices(), &edges);
        let roots = draw_roots(&oracle, seed);
        Graph {
            cfg,
            edges,
            oracle,
            roots,
        }
    }

    pub fn num_vertices(&self) -> u64 {
        self.oracle.num_vertices()
    }
}

fn draw_roots(oracle: &Oracle, seed: u64) -> Vec<u64> {
    let n = oracle.num_vertices();
    let connected = (0..n).filter(|&v| oracle.degree(v) > 0).count();
    assert!(
        connected >= ROOT_POOL,
        "graph has only {connected} vertices with an edge; the root pool needs {ROOT_POOL}"
    );
    let mut rng = SplitMix64::new(seed).split(0x726f_6f74);
    let mut roots = Vec::with_capacity(ROOT_POOL);
    while roots.len() < ROOT_POOL {
        let v = rng.next_below(n);
        if oracle.degree(v) > 0 && !roots.contains(&v) {
            roots.push(v);
        }
    }
    roots
}
