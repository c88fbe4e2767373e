//! The differential harness the root integration tests share: one
//! oracle over every way this repository reaches a BFS tree — the
//! per-root loop (through `GraphSession::run_root` and through
//! `run_benchmark`), `BfsService` batches, a session opened from its
//! store file, a session mutated then repaired or compacted, and
//! checkpoint-resumed or fault-healed traversals.
//!
//! Every root of every scenario is checked against one oracle built
//! from the edge list alone — the generator's edges plus the batches
//! the scenario committed, never the partition the engine built: a
//! plain serial BFS over that list supplies the depths,
//! `validate_parents` checks the tree, and the census of the reference
//! depths must equal the served depth histogram and visited count. A
//! scenario that runs with more than one worker, from a store file or
//! under a fault must also serve byte for byte what its twin serves:
//! the same scenario on one worker, built, fault-free. The riders of a
//! batch that a rank panic sent to the per-root loop must serve what
//! the per-root twin serves for them.
//!
//! `tests/differential.rs` draws scenarios from seeds; the per-feature
//! tests pin theirs with [`Scenario::pinned`] and compare what [`run`]
//! returns — each root's parent [`fingerprint`] and direction
//! [`trace`] — with their goldens. A test that needs a session of its
//! own takes it from [`Scenario::load`] rather than building a
//! partition by hand.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use sunbfs::common::{pool, Edge};
use sunbfs::core::validate::{levels_from_parents, validate_parents};
use sunbfs::core::{Direction, DirectionHeuristic, EngineConfig};
use sunbfs::driver::{pick_roots, run_benchmark, FaultSpec, RunConfig};
use sunbfs::mutate::{canonical_edge_set, generate_batch};
use sunbfs::net::{FaultEvent, FaultPlan, MeshShape};
use sunbfs::part::Thresholds;
use sunbfs::rmat::{degrees, generate_edges};
use sunbfs::serve::{
    BfsService, GraphSession, QueryResult, QueryStatus, ServeConfig, SessionConfig,
};
use sunbfs::store::encode_store;

/// Set once any traversal split a scan into more than one pool chunk.
pub static SPLIT: AtomicBool = AtomicBool::new(false);

/// `pool::set_workers` is process-global: a scenario holds this lock
/// while it runs, and so does any other test of its binary that
/// staffs the pool, so no concurrent test restaffs it underneath. It
/// guards no data, so a test that failed holding it poisons nothing.
static POOL: Mutex<()> = Mutex::new(());

pub fn pool_lock() -> MutexGuard<'static, ()> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One commit of a scenario's update schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Commit {
    /// A batch that leaves every endpoint in its degree class, so it
    /// stays in the overlay.
    Quiet,
    /// A fan that promotes a vertex, so its commit compacts.
    Fan,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    None,
    Straggler,
    Bitflip,
    /// A rank panics mid-traversal: the per-root loop kills and resumes
    /// from a checkpoint, a batch falls back to the per-root loop.
    Panic,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scenario {
    /// Picks the fault's rank and op and the quiet batch's edges.
    pub seed: u64,
    pub scale: u32,
    pub graph_seed: u64,
    pub mesh: (usize, usize),
    pub thresholds: Thresholds,
    pub heuristic: DirectionHeuristic,
    pub sub_iteration: bool,
    pub segmenting: bool,
    pub workers: usize,
    /// Batch width of a `BfsService` path; 0 is the per-root loop.
    pub width: usize,
    /// How many roots are served.
    pub roots: usize,
    /// Serve the `roots` lowest-id vertices of nonzero degree instead
    /// of `pick_roots`' roots: the roots the heuristic goldens were
    /// captured at. `run_benchmark` serves only `pick_roots`' roots, so
    /// such a scenario does not run it.
    pub lowest_roots: bool,
    pub store: bool,
    pub updates: &'static [Commit],
    pub fault: Fault,
}

/// What one root served: parents, depth histogram, visited count, the
/// direction trace (per-root loop only) and whether its batch lost a
/// rank and fell back to the per-root loop.
type Served = (Vec<u64>, Vec<u64>, u64, Vec<[Direction; 6]>, bool);

impl Scenario {
    /// An explicit scenario: the default engine on one worker serving one
    /// root through the per-root loop of a built session, with no update
    /// and no fault; `seed` seeds the graph and the scenario. Struct
    /// update sets the rest.
    pub fn pinned(scale: u32, mesh: (usize, usize), thresholds: Thresholds, seed: u64) -> Self {
        let engine = EngineConfig::default();
        Scenario {
            seed,
            scale,
            graph_seed: seed,
            mesh,
            thresholds,
            heuristic: engine.heuristic,
            sub_iteration: engine.sub_iteration,
            segmenting: engine.segmenting,
            workers: 1,
            width: 0,
            roots: 1,
            lowest_roots: false,
            store: false,
            updates: &[],
            fault: Fault::None,
        }
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

    /// The scenario's session, built fault-free; the caller sets the
    /// pool's workers.
    pub fn load(&self) -> GraphSession {
        GraphSession::load(self.session_config(), FaultPlan::none()).expect("load")
    }

    /// The roots the scenario serves, in order.
    pub fn roots(&self) -> Vec<u64> {
        let params = self.session_config().rmat();
        if !self.lowest_roots {
            return pick_roots(&params, self.roots).expect("roots");
        }
        let degree = degrees(params.num_vertices(), &generate_edges(&params));
        let connected = (0..params.num_vertices()).filter(|&v| degree[v as usize] > 0);
        connected.take(self.roots).collect()
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

    /// The batches the scenario commits, in order, each chosen from the
    /// degrees of the graph it lands on (which is also how the build
    /// and the overlay class vertices).
    fn commits(&self, n: u64, base: &[Edge]) -> Vec<Vec<Edge>> {
        let mut graph = base.to_vec();
        let mut commits = Vec::new();
        for &commit in self.updates {
            let degree = degrees(n, &graph);
            let class = |v: u64, add: u64| {
                let d = u64::from(degree[v as usize]) + add;
                self.thresholds.class_of_degree(d)
            };
            let batch: Vec<Edge> = if commit == Commit::Quiet {
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
            } else {
                let fan = u64::from(self.thresholds.h.min(64)) + 8;
                let hub = (0..n)
                    .find(|&v| class(v, 0) != class(v, fan))
                    .expect("a light vertex");
                (1..=fan)
                    .map(|i| Edge::new(hub, (hub + 3 * i) % n))
                    .collect()
            };
            graph.extend_from_slice(&batch);
            commits.push(batch);
        }
        commits
    }
}

/// Reference depths from each of `roots`: a plain serial BFS over an
/// adjacency list built once from `edges`.
fn reference(n: u64, edges: &[Edge], roots: &[u64]) -> Vec<Vec<u64>> {
    let mut adjacency = vec![Vec::new(); n as usize];
    for e in edges {
        adjacency[e.u as usize].push(e.v);
        adjacency[e.v as usize].push(e.u);
    }
    let bfs = |root: u64| {
        let mut depths = vec![u64::MAX; n as usize];
        depths[root as usize] = 0;
        let mut queue = VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &v in &adjacency[u as usize] {
                if depths[v as usize] == u64::MAX {
                    depths[v as usize] = depths[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        depths
    };
    roots.iter().map(|&root| bfs(root)).collect()
}

/// The one oracle over `edges`, the generator's edge list plus the
/// committed batches: the reference `depths` from `root` and the
/// Graph 500 validator.
fn check(label: &str, edges: &[Edge], root: u64, depths: &[u64], out: &Served) {
    let (parents, histogram, visited, ..) = out;
    validate_parents(depths.len() as u64, edges, root, parents)
        .unwrap_or_else(|e| panic!("{label}: root {root}: invalid tree: {e:?}"));
    let levels = levels_from_parents(root, parents);
    assert_eq!(levels.as_deref(), Ok(depths), "{label}: root {root}");
    let census = census(depths);
    assert_eq!(histogram, &census, "{label}: root {root}: histogram");
    let reached = census.iter().sum::<u64>();
    assert_eq!(*visited, reached, "{label}: root {root}: visited");
}

/// Build (or open) the scenario's session, commit its batches (checking
/// `union_bfs` after each), arm its fault and serve `roots` through its
/// path.
fn serve(s: &Scenario, base: &[Edge], commits: &[Vec<Edge>], roots: &[u64]) -> Vec<Served> {
    let label = format!("{s:?}");
    pool::set_workers(s.workers);
    let cfg = s.session_config();
    let n = cfg.rmat().num_vertices();
    let mut session = s.load();
    if s.store {
        let path = store_path(s);
        let info = session.save(&path).expect("save");
        assert_eq!(info.file_bytes, info.pages * 4096, "{label}");
        let built = encode_store(&cfg.store_header(), session.partitions());
        session = GraphSession::open(&path, cfg, FaultPlan::none()).expect("open");
        let opened = encode_store(&cfg.store_header(), session.partitions());
        assert!(
            opened == built,
            "{label}: the opened partition is not the built one"
        );
    }
    let mut edges = base.to_vec();
    for (i, (batch, &commit)) in commits.iter().zip(s.updates).enumerate() {
        let compactions = session.compactions();
        let epoch = session.apply_updates(batch).expect("commit");
        let label = format!("{label} commit {i}");
        assert_eq!(epoch, i as u64 + 1, "{label}: epoch");
        let compacts = commit == Commit::Fan;
        assert_eq!(session.has_delta(), !compacts, "{label}: overlay");
        assert_eq!(session.compactions() > compactions, compacts, "{label}");
        edges.extend_from_slice(batch);
        // The session's own sequential view of the union graph.
        let some = &roots[..roots.len().min(3)];
        for (&root, want) in some.iter().zip(reference(n, &edges, some)) {
            let (parents, depths) = session.union_bfs(root);
            let histogram = census(&depths);
            let visited = histogram.iter().sum();
            let union = (parents, histogram, visited, Vec::new(), false);
            check(&format!("{label} union_bfs"), &edges, root, &want, &union);
        }
    }
    if !commits.is_empty() {
        // The committed session holds exactly the generator's edges
        // plus the batches.
        let proper = edges.iter().filter(|e| !e.is_self_loop());
        let mut union: Vec<Edge> = proper.map(|e| e.canonical()).collect();
        union.sort_unstable();
        union.dedup();
        let held = canonical_edge_set(session.partitions(), session.delta_log());
        let held = held.into_iter().map(|(u, v)| Edge::new(u, v));
        assert!(held.eq(union), "{label}: the session's union graph");
    }
    let overlay = session.has_delta();
    session.cluster().fault_plan().inject(s.fault_events());

    let (served, session) = if s.width == 0 {
        let served = roots.iter().map(|&root| {
            let run = session.run_root(root, 2, &mut |_| {});
            let outs = run.result.unwrap_or_else(|q| panic!("{label}: {q:?}"));
            let mut parents: Vec<u64> = outs.iter().flat_map(|o| o.parents.clone()).collect();
            let stats = &outs[0].stats;
            let subs = || stats.iterations.iter().flat_map(|it| &it.subs);
            let frontier = subs().any(|s| s.frontier_edges > 0);
            let unexplored = subs().any(|s| s.unexplored_edges > 0);
            let measured = s.heuristic == DirectionHeuristic::Measured;
            assert_eq!([frontier, unexplored], [measured; 2], "{label}: masses");
            if subs().any(|s| s.pool.chunks > 1) {
                SPLIT.store(true, Ordering::Relaxed);
            }
            let mut depths = levels_from_parents(root, &parents).expect("a tree");
            let mut visited = stats.visited_vertices;
            if overlay {
                session.repair_result(&mut parents, &mut depths);
                visited = depths.iter().filter(|&&d| d != u64::MAX).count() as u64;
            }
            let trace = stats.iterations.iter().map(|it| it.directions).collect();
            (parents, census(&depths), visited, trace, false)
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
        // A batch falls back whole or not at all; only a panic makes one.
        let batch = |r: &QueryResult| (r.batch_id, r.via_fallback);
        let fell: BTreeSet<_> = results.iter().map(batch).collect();
        let batches: BTreeSet<_> = fell.iter().map(|b| b.0).collect();
        assert_eq!(fell.len(), batches.len(), "{label}: fell back in part");
        let fell = fell.iter().filter(|b| b.1).count() as u64;
        let panics = u64::from(s.fault == Fault::Panic);
        let fallback_batches = svc.report().fallback_batches;
        assert_eq!((fell, fallback_batches), (panics, panics), "{label}");
        let repaired = if overlay { roots.len() as u64 } else { 0 };
        assert_eq!(svc.report().repaired_queries, repaired, "{label}");
        let served = results.into_iter().zip(roots).map(|(r, &root)| {
            assert!(matches!(r.status, QueryStatus::Served), "{label}: {r:?}");
            let epoch = commits.len() as u64;
            assert_eq!((r.root, r.epoch), (root, epoch), "{label}");
            let parents = r.parents.expect("a tree").to_vec();
            let (histogram, visited) = (r.depth_histogram, r.visited);
            (parents, histogram, visited, Vec::new(), r.via_fallback)
        });
        (served.collect(), svc.into_session())
    };
    let fired = session.cluster().fault_log().len();
    let faulted = s.fault != Fault::None;
    assert_eq!(fired, usize::from(faulted), "{label}: fault fired");
    assert_eq!(session.has_delta(), overlay, "{label}: no compaction");
    served
}

fn store_path(s: &Scenario) -> std::path::PathBuf {
    let name = format!("sunbfs_differential_{}_{}.sbfs", std::process::id(), s.seed);
    std::env::temp_dir().join(name)
}

/// The per-root loop through the driver over the base graph: the same
/// roots validate and, with no batch committed, visit what the session
/// served.
fn benchmark(s: &Scenario, roots: &[u64], served: &[Served]) {
    let label = format!("{s:?} run_benchmark");
    let one = |kind: Fault| u32::from(s.fault == kind);
    let load_graph = s
        .store
        .then(|| store_path(s).to_string_lossy().into_owned());
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
        load_graph,
        ..RunConfig::default()
    })
    .expect(&label);
    assert!(report.validated, "{label}");
    assert_eq!(report.runs.len(), roots.len(), "{label}");
    for ((run, &root), out) in report.runs.iter().zip(roots).zip(served) {
        assert_eq!(run.root, root, "{label}");
        if s.updates.is_empty() {
            assert_eq!(run.visited_vertices, out.2, "{label}: root {root}");
        }
    }
}

/// What [`run`] served for one root: the [`fingerprint`] of its parents
/// and its direction [`trace`] (empty on a batch path).
#[derive(Debug, PartialEq)]
pub struct Outcome {
    pub parents: u64,
    pub trace: String,
}

/// Run each scenario, in order and under the pool lock, and return what
/// each served for each of its roots. Its twin is served and checked
/// first, and kept while the next scenarios share it; a scenario that
/// is not its own twin must serve exactly what the twin served. A
/// per-root scenario of `pick_roots`' roots also runs them through
/// `run_benchmark`. Every scenario is printed before it runs, so a
/// failure shows the scenario that failed.
pub fn run(scenarios: &[Scenario]) -> Vec<Vec<Outcome>> {
    let mut twin: Option<(Scenario, Vec<Served>)> = None;
    let mut benchmarked = None;
    let mut outcomes = Vec::new();
    for s in scenarios {
        let _pool = pool_lock();
        let label = format!("{s:?}");
        eprintln!("scenario {label}");
        let params = s.session_config().rmat();
        let n = params.num_vertices();
        let base = generate_edges(&params);
        let commits = s.commits(n, &base);
        let edges = [base.clone(), commits.concat()].concat();
        let roots = s.roots();
        assert_eq!(roots.len(), s.roots, "{label}: too few connected roots");
        // Serve and check `picked` of the roots.
        let checked = |t: &Scenario, picked: &[usize]| {
            let roots: Vec<u64> = picked.iter().map(|&i| roots[i]).collect();
            let served = serve(t, &base, &commits, &roots);
            let depths = reference(n, &edges, &roots);
            for ((&root, depths), out) in roots.iter().zip(&depths).zip(&served) {
                check(&format!("{t:?}"), &edges, root, depths, out);
            }
            served
        };
        if twin.as_ref().map(|t| t.0) != Some(s.twin()) {
            let all: Vec<usize> = (0..roots.len()).collect();
            twin = Some((s.twin(), checked(&s.twin(), &all)));
        }
        let want = &twin.as_ref().expect("a twin").1;
        let mut served = want.clone();
        if *s != s.twin() {
            served = serve(s, &base, &commits, &roots);
            let (fell, kept): (Vec<usize>, Vec<usize>) =
                (0..roots.len()).partition(|&i| served[i].4);
            for i in kept {
                assert!(served[i] == want[i], "{label}: root {} vs twin", roots[i]);
            }
            // A batch that lost a rank serves what the per-root loop does.
            if !fell.is_empty() {
                let per_root = Scenario {
                    width: 0,
                    ..s.twin()
                };
                for (&i, p) in fell.iter().zip(checked(&per_root, &fell)) {
                    let f = &served[i];
                    let same = (&f.0, &f.1, f.2) == (&p.0, &p.1, p.2);
                    assert!(same, "{label}: root {} vs per-root twin", roots[i]);
                }
            }
        }
        // The driver's per-root loop is the same at every worker count.
        let serial = Scenario { workers: 1, ..*s };
        if s.width == 0 && !s.lowest_roots && benchmarked != Some(serial) {
            benchmark(s, &roots, want);
            benchmarked = Some(serial);
        }
        std::fs::remove_file(store_path(s)).ok();
        pool::set_workers(0);
        let outcome = |(parents, _, _, directions, _): &Served| Outcome {
            parents: fingerprint(parents),
            trace: trace(directions.iter().copied()),
        };
        outcomes.push(served.iter().map(outcome).collect());
    }
    outcomes
}

/// [`fnv1a`] over the little-endian words: the fingerprint the goldens
/// of parent arrays are kept in.
pub fn fingerprint(words: &[u64]) -> u64 {
    fnv1a(words.iter().flat_map(|w| w.to_le_bytes()))
}

/// FNV-1a with the reference offset basis and prime. Not
/// `sunbfs::net::fnv1a`: that one multiplies by `0x1000_0000_01b3`,
/// not the reference `0x100_0000_01b3`, so it cannot reproduce the
/// goldens of `heuristic_equivalence`.
pub fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// One char per component per iteration, 'P' for pull and 'p' for
/// push, iterations joined with '.': how the goldens keep a direction
/// trace.
pub fn trace(directions: impl Iterator<Item = [Direction; 6]>) -> String {
    let iteration = |dirs: [Direction; 6]| -> String {
        let letter = |d: Direction| if d == Direction::Pull { 'P' } else { 'p' };
        dirs.into_iter().map(letter).collect()
    };
    directions.map(iteration).collect::<Vec<_>>().join(".")
}

/// Vertices per depth (index = depth) of a depth array; `u64::MAX`
/// marks an unreached vertex and is not counted.
fn census(depths: &[u64]) -> Vec<u64> {
    let mut histogram = Vec::new();
    for &d in depths.iter().filter(|&&d| d != u64::MAX) {
        histogram.resize(histogram.len().max(d as usize + 1), 0);
        histogram[d as usize] += 1;
    }
    histogram
}
