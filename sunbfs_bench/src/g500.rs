//! The Graph 500 loop: one caller, closed loop, `run_single` over the
//! fixed root list of a resident session, every k-th traversal put
//! through the Graph 500 validator.

use std::time::Instant;

use sunbfs::common::INVALID_VERTEX;
use sunbfs::core::{validate, BfsOutput};
use sunbfs::serve::GraphSession;

use crate::graph::{Graph, G500_ROOTS};
use crate::host::{Gate, StealSampler};
use crate::stats::{harmonic_mean, percentile_of, Stat};
use crate::trace::{Tracer, ROOT};
use crate::Checks;

/// Roots whose depths are compared with the oracle's, vertex by vertex,
/// after the timed loop.
const DEPTH_CHECKED_ROOTS: usize = 8;

struct Traversal {
    done_s: f64,
    seconds: f64,
    /// Graph 500 traversed-edge count of the root (from the oracle).
    edges: u64,
    levels: u64,
    /// Adjacency entries the engine scanned, all ranks.
    scanned: u64,
}

/// Counts of one root's traversal that repeat exactly for a seed.
#[derive(Clone, Copy, Default)]
struct RootCounts {
    levels: u64,
    scanned: u64,
    pushes: u64,
    sim_seconds: f64,
    sim_gteps: f64,
    collectives: u64,
    bytes: u64,
}

pub struct Run {
    gate: Gate,
    traversals: Vec<Traversal>,
    validate_parents_ms: Vec<f64>,
    component_edges_ms: Vec<f64>,
    /// First traversal of each root of the list, in list order.
    first_pass: Vec<RootCounts>,
}

/// One traversal with every rank's output, or why there is none.
fn traverse(session: &GraphSession, root: u64) -> Result<Vec<BfsOutput>, String> {
    session
        .run_single(root)
        .into_iter()
        .map(|rank| match rank {
            Ok(Ok(out)) => Ok(out),
            Ok(Err(e)) => Err(format!("engine error at root {root}: {e}")),
            Err(f) => Err(format!("rank failure at root {root}: {f:?}")),
        })
        .collect()
}

/// Ranks own consecutive vertex blocks, so the global parent array is
/// the rank outputs in rank order.
fn gather_parents(outs: &[BfsOutput]) -> Vec<u64> {
    outs.iter()
        .flat_map(|o| o.parents.iter().copied())
        .collect()
}

fn counts(outs: &[BfsOutput], edges: u64) -> RootCounts {
    let s0 = &outs[0].stats;
    let sim_seconds = outs.iter().map(|o| o.stats.sim_seconds).fold(0.0, f64::max);
    RootCounts {
        levels: s0.iterations.len() as u64,
        scanned: scanned(outs),
        pushes: s0
            .iterations
            .iter()
            .flat_map(|it| it.directions)
            .filter(|d| matches!(d, sunbfs::core::Direction::Push))
            .count() as u64,
        sim_seconds,
        sim_gteps: edges as f64 / sim_seconds / 1e9,
        collectives: s0.comm.entries().map(|(_, c)| c.count).sum(),
        bytes: outs
            .iter()
            .flat_map(|o| o.stats.comm.entries().map(|(_, c)| c.bytes))
            .sum(),
    }
}

fn scanned(outs: &[BfsOutput]) -> u64 {
    outs.iter()
        .flat_map(|o| o.stats.iterations.iter().map(|it| it.scanned_edges))
        .sum()
}

/// Run the loop for `seconds` (longer while the box is noisy, see
/// [`StealSampler::enough`]), and in any case once over the whole root
/// list, so the exact per-root counts always cover all of it.
pub fn run(
    session: &GraphSession,
    graph: &Graph,
    seconds: f64,
    validate_every: usize,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Run {
    let roots = &graph.roots[..G500_ROOTS];
    let n = graph.num_vertices();
    let mut traversals = Vec::new();
    let mut validate_parents_ms = Vec::new();
    let mut component_edges_ms = Vec::new();
    let mut first_pass = Vec::with_capacity(roots.len());
    let t0 = Instant::now();
    let sampler = StealSampler::start(t0, seconds);
    let mut i = 0usize;
    while i < roots.len() || !sampler.enough() {
        // Every validation shifts the list by one, so the validated
        // traversals walk over all roots instead of every k-th one.
        let root = roots[(i + i / validate_every) % roots.len()];
        let op = i as u64;
        tracer.scope("harness::traversal", ROOT, op, |span| {
            let t = Instant::now();
            let result = tracer.scope("core::run_single", span, op, |_| traverse(session, root));
            let seconds = t.elapsed().as_secs_f64();
            let done_s = t0.elapsed().as_secs_f64();
            let outs = match result {
                Ok(outs) => outs,
                Err(why) => return checks.fail(why),
            };
            let stats = &outs[0].stats;
            checks.expect(stats.visited_vertices == graph.oracle.reach(root), || {
                format!(
                    "root {root}: engine visited {} vertices, oracle {}",
                    stats.visited_vertices,
                    graph.oracle.reach(root)
                )
            });
            let edges = graph.oracle.reach_edges(root);
            if i < roots.len() {
                first_pass.push(counts(&outs, edges));
            }
            traversals.push(Traversal {
                done_s,
                seconds,
                edges,
                levels: stats.iterations.len() as u64,
                scanned: scanned(&outs),
            });
            if (i + 1).is_multiple_of(validate_every) {
                let parents = gather_parents(&outs);
                let t = Instant::now();
                let verdict = tracer.scope("core::validate_parents", span, op, |_| {
                    validate::validate_parents(n, &graph.edges, root, &parents)
                });
                validate_parents_ms.push(t.elapsed().as_secs_f64() * 1e3);
                checks.expect(verdict.is_ok(), || {
                    format!("root {root}: Graph 500 validation failed: {verdict:?}")
                });
                let t = Instant::now();
                let m = tracer.scope("core::component_edges", span, op, |_| {
                    validate::component_edges(&graph.edges, &parents)
                });
                component_edges_ms.push(t.elapsed().as_secs_f64() * 1e3);
                checks.expect(m == edges, || {
                    format!("root {root}: component_edges {m}, oracle {edges}")
                });
            }
        });
        i += 1;
    }
    let gate = sampler.finish();
    for &root in &roots[..DEPTH_CHECKED_ROOTS] {
        check_depths(session, graph, root, checks);
    }
    Run {
        gate,
        traversals,
        validate_parents_ms,
        component_edges_ms,
        first_pass,
    }
}

/// Off the clock: the engine's tree must give every vertex the depth
/// the oracle's BFS gives it.
fn check_depths(session: &GraphSession, graph: &Graph, root: u64, checks: &mut Checks) {
    let parents = match traverse(session, root) {
        Ok(outs) => gather_parents(&outs),
        Err(why) => return checks.fail(why),
    };
    let equal = validate::levels_from_parents(root, &parents)
        .is_ok_and(|levels| graph.oracle.agrees_with_levels(root, &levels));
    checks.expect(equal, || {
        format!("root {root}: depths differ from the oracle's")
    });
    checks.expect(
        parents.iter().filter(|&&p| p != INVALID_VERTEX).count() as u64 == graph.oracle.reach(root),
        || format!("root {root}: parent count differs from the oracle's reach"),
    );
}

impl Run {
    pub fn gate(&self) -> &Gate {
        &self.gate
    }

    fn kept(&self) -> impl Iterator<Item = &Traversal> {
        self.traversals.iter().filter(|t| self.gate.keeps(t.done_s))
    }

    pub fn root_ms(&self, p: f64) -> Stat {
        percentile_of(self.kept().map(|t| t.seconds * 1e3).collect(), p)
    }

    /// Traversals per second of traversal time (validation excluded),
    /// the median over the kept windows.
    pub fn roots_per_s(&self) -> Stat {
        self.rate(|_| 1.0)
    }

    /// Graph 500 traversed edges over traversal seconds, 10^6/s.
    pub fn traverse_meps(&self) -> Stat {
        self.rate(|t| t.edges as f64 / 1e6)
    }

    /// Median over the kept windows of `amount` per traversal second.
    fn rate(&self, amount: impl Fn(&Traversal) -> f64) -> Stat {
        let samples: Vec<_> = self
            .traversals
            .iter()
            .map(|t| (t.done_s, amount(t), t.seconds))
            .collect();
        self.gate.median_rate(&samples, false)
    }

    pub fn ms_per_level_p50(&self) -> Stat {
        percentile_of(
            self.kept()
                .map(|t| t.seconds * 1e3 / t.levels.max(1) as f64)
                .collect(),
            50.0,
        )
    }

    pub fn ns_per_scanned_edge(&self) -> Stat {
        let scanned: u64 = self.kept().map(|t| t.scanned).sum();
        let seconds: f64 = self.kept().map(|t| t.seconds).sum();
        (seconds * 1e9 / scanned.max(1) as f64, self.kept().count())
    }

    pub fn validate_parents_ms_p50(&self) -> Stat {
        percentile_of(self.validate_parents_ms.clone(), 50.0)
    }

    pub fn component_edges_ms_p50(&self) -> Stat {
        percentile_of(self.component_edges_ms.clone(), 50.0)
    }

    fn first_pass_mean(&self, f: impl Fn(&RootCounts) -> f64) -> Stat {
        let n = self.first_pass.len();
        (
            self.first_pass.iter().map(f).sum::<f64>() / n.max(1) as f64,
            n,
        )
    }

    pub fn levels_per_root(&self) -> Stat {
        self.first_pass_mean(|c| c.levels as f64)
    }

    pub fn scanned_edges_per_root(&self) -> Stat {
        self.first_pass_mean(|c| c.scanned as f64)
    }

    /// Share of the per-level component decisions that chose push.
    pub fn push_share(&self) -> Stat {
        let pushes: u64 = self.first_pass.iter().map(|c| c.pushes).sum();
        let decisions: u64 = self.first_pass.iter().map(|c| c.levels * 6).sum();
        (
            pushes as f64 / decisions.max(1) as f64,
            self.first_pass.len(),
        )
    }

    pub fn sim_s_per_root(&self) -> Stat {
        self.first_pass_mean(|c| c.sim_seconds)
    }

    /// Harmonic-mean simulated GTEPS over the root list — the model's
    /// number, not the host's; any change is a model change.
    pub fn sim_gteps(&self) -> Stat {
        let v: Vec<f64> = self.first_pass.iter().map(|c| c.sim_gteps).collect();
        (harmonic_mean(&v), v.len())
    }

    pub fn collectives_per_root(&self) -> Stat {
        self.first_pass_mean(|c| c.collectives as f64)
    }

    pub fn bytes_per_root(&self) -> Stat {
        self.first_pass_mean(|c| c.bytes as f64)
    }
}
