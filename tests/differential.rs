//! One differential harness over every way this repository reaches a
//! BFS tree: the per-root loop (through `GraphSession::run_root` and
//! through `run_benchmark`), `BfsService` batches, a session opened
//! from its store file, a session mutated then repaired or compacted,
//! and checkpoint-resumed or fault-healed traversals.
//!
//! Every root of every scenario is checked against one oracle built
//! from the edge list alone — the generator's edges plus the batch the
//! scenario committed, never the partition the engine built:
//! `reference_bfs` supplies the depths, `validate_parents` checks the
//! tree, and the census of the reference depths must equal the served
//! depth histogram and visited count. A scenario that runs with more
//! than one worker, from a store file or under a fault must also serve
//! byte for byte what its twin serves: the same scenario on one worker,
//! built, fault-free.
//!
//! A scenario is a pure function of its seed. The sweep runs `CORPUS`
//! first, then the generated seeds; every scenario is printed before it
//! runs, so a failure shows the scenario and its seed, and adding that
//! seed to `CORPUS` keeps it in every later sweep.

mod common;

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

use sunbfs::common::{pool, Edge, SplitMix64};
use sunbfs::core::validate::{levels_from_parents, reference_bfs, validate_parents};
use sunbfs::core::{Direction, DirectionHeuristic, EngineConfig};
use sunbfs::driver::{pick_roots, run_benchmark, FaultSpec, RunConfig};
use sunbfs::mutate::generate_batch;
use sunbfs::net::{FaultEvent, FaultPlan, MeshShape};
use sunbfs::part::Thresholds;
use sunbfs::rmat::{degrees, generate_edges};
use sunbfs::serve::{BfsService, GraphSession, QueryStatus, ServeConfig, SessionConfig};

use common::census;

/// Regression corpus, run before the generated seeds. 48, 67 and 82
/// each caught pool chunks merged out of order, which only the worker
/// twin can see.
const CORPUS: &[u64] = &[48, 67, 82];

/// Generated seeds, run after the corpus.
const GENERATED: std::ops::Range<u64> = 1..25;

const MESHES: [(usize, usize); 6] = [(1, 1), (1, 6), (6, 1), (2, 2), (2, 3), (3, 3)];
const HEURISTICS: [DirectionHeuristic; 2] =
    [DirectionHeuristic::Fixed, DirectionHeuristic::Measured];
const WORKERS: [usize; 4] = [1, 2, 4, 7];
/// Batch width of a `BfsService` path; 0 is the per-root loop.
const WIDTHS: [usize; 4] = [0, 1, 8, 64];
const UPDATES: [Updates; 3] = [Updates::None, Updates::Overlay, Updates::Promotion];
const FAULTS: [Fault; 4] = [Fault::None, Fault::Straggler, Fault::Bitflip, Fault::Panic];

/// Set once any traversal split a scan into more than one pool chunk.
static SPLIT: AtomicBool = AtomicBool::new(false);

fn regimes() -> [Thresholds; 6] {
    [
        Thresholds::new(128, 32),
        Thresholds::new(256, 64),
        Thresholds::new(256, 16),
        Thresholds::none(),
        Thresholds::heavy_only(64),
        Thresholds::all_hubs(1 << 20),
    ]
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Updates {
    None,
    /// One batch that leaves every endpoint in its degree class.
    Overlay,
    /// A fan that promotes a vertex, so its commit compacts.
    Promotion,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    None,
    Straggler,
    Bitflip,
    /// A rank panics mid-traversal: kill, then resume from a checkpoint.
    Panic,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Scenario {
    seed: u64,
    scale: u32,
    graph_seed: u64,
    mesh: (usize, usize),
    thresholds: Thresholds,
    heuristic: DirectionHeuristic,
    sub_iteration: bool,
    segmenting: bool,
    workers: usize,
    width: usize,
    store: bool,
    updates: Updates,
    fault: Fault,
}

impl Scenario {
    fn new(seed: u64) -> Scenario {
        let mut rng = SplitMix64::new(seed);
        let mut pick = |len: usize| rng.next_below(len as u64) as usize;
        let mesh = MESHES[pick(6)];
        let thresholds = regimes()[pick(6)];
        // Half the scenarios run serially; the others staff the pool,
        // which splits a scan only past 256 vertices per rank.
        let (workers, scale) = match pick(2) {
            0 => (1, 8 + pick(3) as u32),
            _ => {
                let split = (257 * mesh.0 * mesh.1).next_power_of_two();
                (WORKERS[1 + pick(3)], split.trailing_zeros().max(9))
            }
        };
        let width = WIDTHS[pick(4)];
        let mut updates = UPDATES[pick(3)];
        if thresholds == Thresholds::none() && updates == Updates::Promotion {
            updates = Updates::Overlay; // no class to promote into
        }
        let mut fault = FAULTS[pick(4)];
        if width > 0 && fault == Fault::Panic {
            fault = Fault::None; // a batch that loses a rank falls back to the per-root loop
        }
        Scenario {
            seed,
            scale,
            graph_seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            mesh,
            thresholds,
            heuristic: HEURISTICS[pick(2)],
            sub_iteration: pick(2) == 1,
            segmenting: pick(2) == 1,
            workers,
            width,
            store: pick(2) == 1,
            updates,
            fault,
        }
    }

    /// Each dimension's value and how many values it has, for the
    /// coverage assert.
    fn values(&self) -> [(String, usize); 10] {
        [
            (format!("{:?}", self.mesh), MESHES.len()),
            (format!("{:?}", self.thresholds), regimes().len()),
            (format!("{:?}", self.heuristic), HEURISTICS.len()),
            (format!("{}", self.sub_iteration), 2),
            (format!("{}", self.segmenting), 2),
            (format!("{}", self.workers), WORKERS.len()),
            (format!("{}", self.width), WIDTHS.len()),
            (format!("{}", self.store), 2),
            (format!("{:?}", self.updates), UPDATES.len()),
            (format!("{:?}", self.fault), FAULTS.len()),
        ]
    }

    /// The same scenario on one worker, built rather than opened and
    /// fault-free: what this one must serve byte for byte.
    fn twin(&self) -> Scenario {
        Scenario {
            workers: 1,
            store: false,
            fault: Fault::None,
            ..*self
        }
    }

    fn session_config(&self) -> SessionConfig {
        SessionConfig {
            scale: self.scale,
            mesh: MeshShape::new(self.mesh.0, self.mesh.1),
            thresholds: self.thresholds,
            engine: EngineConfig {
                heuristic: self.heuristic,
                sub_iteration: self.sub_iteration,
                segmenting: self.segmenting,
            },
            seed: self.graph_seed,
            ..SessionConfig::small(self.scale, 1)
        }
    }

    /// The scenario's fault on a traversal collective (op 0 is
    /// `heur.totals`, which always carries a payload to corrupt).
    fn fault_events(&self) -> Vec<FaultEvent> {
        let rank = self.seed % (self.mesh.0 * self.mesh.1) as u64;
        let plan = match self.fault {
            Fault::None => return Vec::new(),
            Fault::Straggler => format!("straggle@{rank}:1:0.001"),
            Fault::Bitflip => format!("corrupt@{rank}:0:bitflip"),
            Fault::Panic => format!("panic@{rank}:{}", 6 + self.seed % 8),
        };
        FaultPlan::parse(&plan).expect("a well-formed plan")
    }

    /// The batch the scenario commits, chosen from the base graph's
    /// degrees (which is also how the build classes vertices).
    fn update_batch(&self, n: u64, base: &[Edge]) -> Vec<Edge> {
        let degree = degrees(n, base);
        let class = |v: u64, add: u64| {
            let d = u64::from(degree[v as usize]) + add;
            self.thresholds.class_of_degree(d)
        };
        match self.updates {
            Updates::None => Vec::new(),
            Updates::Overlay => {
                let mut used = vec![false; n as usize];
                let mut quiet = |e: &Edge| {
                    let ok = !e.is_self_loop()
                        && [e.u, e.v]
                            .iter()
                            .all(|&v| !used[v as usize] && class(v, 0) == class(v, 1));
                    if ok {
                        (used[e.u as usize], used[e.v as usize]) = (true, true);
                    }
                    ok
                };
                let batch = generate_batch(self.seed, 0, 1024, n);
                batch.into_iter().filter(|e| quiet(e)).take(24).collect()
            }
            Updates::Promotion => {
                let fan = u64::from(self.thresholds.h.min(64)) + 8;
                let hub = (0..n)
                    .find(|&v| class(v, 0) != class(v, fan))
                    .expect("a light vertex");
                (1..=fan)
                    .map(|i| Edge::new(hub, (hub + 3 * i) % n))
                    .collect()
            }
        }
    }
}

/// What one root served: parents, depth histogram, visited count and
/// (per-root loop only) the direction trace.
type Root = (Vec<u64>, Vec<u64>, u64, Vec<[Direction; 6]>);

/// The one oracle: reference BFS and the validator over `edges`, the
/// generator's edge list plus the committed batch.
fn check(label: &str, n: u64, edges: &[Edge], root: u64, out: &Root) {
    let (parents, histogram, visited, _) = out;
    let (_, depths) = reference_bfs(n, edges, root);
    validate_parents(n, edges, root, parents)
        .unwrap_or_else(|e| panic!("{label}: root {root}: invalid tree: {e:?}"));
    let levels = levels_from_parents(root, parents);
    assert_eq!(levels.as_ref(), Ok(&depths), "{label}: root {root}: depths");
    let census = census(&depths);
    assert_eq!(histogram, &census, "{label}: root {root}: histogram");
    let reached = census.iter().sum::<u64>();
    assert_eq!(*visited, reached, "{label}: root {root}: visited");
}

/// Build (or open) the scenario's session, commit its batch, arm its
/// fault and serve its roots through its path.
fn serve(s: &Scenario, batch: &[Edge], roots: &[u64]) -> (Vec<Root>, GraphSession) {
    let label = format!("{s:?}");
    let overlay = s.updates == Updates::Overlay;
    pool::set_workers(s.workers);
    let cfg = s.session_config();
    let mut session = GraphSession::load(cfg, FaultPlan::none()).expect("load");
    if s.store {
        let path = store_path(s);
        let info = session.save(&path).expect("save");
        assert_eq!(info.file_bytes, info.pages * 4096, "{label}");
        session = GraphSession::open(&path, cfg, FaultPlan::none()).expect("open");
    }
    if !batch.is_empty() {
        let compactions = session.compactions();
        assert_eq!(session.apply_updates(batch).expect("commit"), 1, "{label}");
        assert_eq!(session.has_delta(), overlay, "{label}");
        assert_eq!(session.compactions() > compactions, !overlay, "{label}");
    }
    session.cluster().fault_plan().inject(s.fault_events());

    let (served, session) = if s.width == 0 {
        let served = roots.iter().map(|&root| {
            let run = session.run_root(root, 2, &mut |_| {});
            let outs = run.result.unwrap_or_else(|q| panic!("{label}: {q:?}"));
            let mut parents: Vec<u64> = outs.iter().flat_map(|o| o.parents.clone()).collect();
            let stats = &outs[0].stats;
            let subs = || stats.iterations.iter().flat_map(|it| &it.subs);
            let masses = subs().map(|s| s.frontier_edges + s.unexplored_edges);
            let measured = s.heuristic == DirectionHeuristic::Measured;
            assert_eq!(masses.sum::<u64>() > 0, measured, "{label}: masses");
            if subs().any(|s| s.pool.chunks > 1) {
                SPLIT.store(true, Ordering::Relaxed);
            }
            let mut depths = levels_from_parents(root, &parents).expect("a tree");
            let mut visited = stats.visited_vertices;
            if session.has_delta() {
                session.repair_result(&mut parents, &mut depths);
                visited = depths.iter().filter(|&&d| d != u64::MAX).count() as u64;
            }
            let trace = stats.iterations.iter().map(|it| it.directions).collect();
            (parents, census(&depths), visited, trace)
        });
        (served.collect(), session)
    } else {
        let serve_cfg = ServeConfig {
            queue_capacity: roots.len(),
            batch_max: s.width,
            ..ServeConfig::default()
        };
        let mut svc = BfsService::new(session, serve_cfg);
        for &root in roots {
            svc.submit(root).expect("admit");
        }
        let mut results = svc.drain();
        results.sort_by_key(|r| r.id);
        assert_eq!(results.len(), roots.len(), "{label}");
        let served = results.into_iter().zip(roots).map(|(r, &root)| {
            assert!(matches!(r.status, QueryStatus::Served), "{label}: {r:?}");
            assert!(!r.via_fallback, "{label}: a healed batch stays batched");
            assert_eq!((r.root, r.epoch), (root, u64::from(!batch.is_empty())));
            let parents = r.parents.expect("a tree").to_vec();
            (parents, r.depth_histogram, r.visited, Vec::new())
        });
        let served = served.collect();
        let repaired = if overlay { roots.len() as u64 } else { 0 };
        assert_eq!(svc.report().repaired_queries, repaired, "{label}");
        (served, svc.into_session())
    };
    let fired = session.cluster().fault_log().len();
    let faulted = s.fault != Fault::None;
    assert_eq!(fired, usize::from(faulted), "{label}: fault fired");
    assert_eq!(session.has_delta(), overlay, "{label}: no compaction");
    (served, session)
}

fn store_path(s: &Scenario) -> std::path::PathBuf {
    let name = format!("sunbfs_differential_{}_{}.sbfs", std::process::id(), s.seed);
    std::env::temp_dir().join(name)
}

/// The per-root loop through the driver over the base graph: the same
/// roots validate and, with no batch committed, visit what the session
/// served.
fn benchmark(s: &Scenario, roots: &[u64], served: &[Root]) {
    let label = format!("{s:?} run_benchmark");
    let one = |kind: Fault| u32::from(s.fault == kind);
    let report = run_benchmark(&RunConfig {
        scale: s.scale,
        mesh: MeshShape::new(s.mesh.0, s.mesh.1),
        thresholds: s.thresholds,
        engine: s.session_config().engine,
        seed: s.graph_seed,
        num_roots: roots.len(),
        validate: true,
        faults: FaultSpec {
            seed: s.seed,
            panics: one(Fault::Panic),
            stragglers: one(Fault::Straggler),
            corruptions: one(Fault::Bitflip),
            straggler_secs: 1e-3,
            horizon: 8,
        },
        load_graph: s
            .store
            .then(|| store_path(s).to_string_lossy().into_owned()),
        ..RunConfig::default()
    })
    .expect(&label);
    assert!(report.validated, "{label}");
    assert_eq!(report.runs.len(), roots.len(), "{label}");
    for ((run, &root), out) in report.runs.iter().zip(roots).zip(served) {
        assert_eq!(run.root, root, "{label}");
        if s.updates == Updates::None {
            assert_eq!(run.visited_vertices, out.2, "{label}: root {root}");
        }
    }
}

/// One `#[test]` for the whole sweep: `pool::set_workers` is
/// process-global, so worker counts must change sequentially.
#[test]
fn every_path_matches_the_oracle() {
    let mut seen: [BTreeSet<String>; 10] = Default::default();
    for seed in CORPUS.iter().copied().chain(GENERATED) {
        let s = Scenario::new(seed);
        let label = format!("{s:?}");
        eprintln!("scenario {label}");
        let params = s.session_config().rmat();
        let n = params.num_vertices();
        let mut edges = generate_edges(&params);
        let batch = s.update_batch(n, &edges);
        edges.extend_from_slice(&batch);
        let roots = pick_roots(&params, s.width.max(4)).expect("roots");

        let (served, session) = serve(&s, &batch, &roots);
        for (&root, out) in roots.iter().zip(&served) {
            check(&label, n, &edges, root, out);
        }
        // The session's own sequential view of the union graph.
        for &root in roots.iter().take(3).filter(|_| !batch.is_empty()) {
            let (parents, depths) = session.union_bfs(root);
            let histogram = census(&depths);
            let reached = histogram.iter().sum();
            let union = (parents, histogram, reached, Vec::new());
            check(&format!("{label} union_bfs"), n, &edges, root, &union);
        }
        let twin = s.twin();
        if twin != s {
            let (want, _) = serve(&twin, &batch, &roots);
            assert!(served == want, "{label}: differs from its twin {twin:?}");
        }
        if s.width == 0 {
            benchmark(&s, &roots, &served);
        }
        std::fs::remove_file(store_path(&s)).ok();
        for (seen, (value, _)) in seen.iter_mut().zip(s.values()) {
            seen.insert(value);
        }
    }
    pool::set_workers(0);
    let sizes = Scenario::new(0).values().map(|(_, size)| size);
    for (seen, size) in seen.iter().zip(sizes) {
        assert_eq!(seen.len(), size, "a dimension missed a value: {seen:?}");
    }
    let split = SPLIT.load(Ordering::Relaxed);
    assert!(split, "no scenario split a scan into pool chunks");
}
