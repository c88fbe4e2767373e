//! `sunbfs_bench` — the host-time benchmark of sunbfs.
//!
//! Four workloads, each its own process:
//! `sunbfs_bench --workload NAME --seed N --seconds S --trace 0|1`.
//! It measures host wall time only, from outside, by timing calls into
//! each layer's public functions; checks every output against a serial
//! oracle; prints every metric by name with its unit; and ends with one
//! JSON line (`correct`, `attempted`, `failed`, `metrics`). With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones, from a run with a span around every call into a
//! layer plus one-off probes of each layer. See `README.md` beside the
//! manifest for what each workload and metric is for.

mod g500;
mod graph;
mod host;
mod loadgen;
mod oracle;
mod probes;
mod report;
mod stats;
mod tcp;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sunbfs::net::FaultPlan;
use sunbfs::serve::{GraphSession, SessionConfig, TcpServer};

use graph::Graph;
use host::Gate;
use report::{Metric, Metrics, RunRecord, END_TO_END, EXACT, PER_LAYER};
use stats::Stat;
use tcp::Kind;
use trace::{Tracer, ROOT};

/// Where the store file, the run records and the trace go, relative to
/// the directory the benchmark is started in (the repository root).
const OUT_DIR: &str = "sunbfs_bench/out";

/// An untraced run sets up again and again until it has this many
/// set-ups free of steal and at least [`SETUP_MIN_SECONDS`] of set-up
/// time in all (a SCALE-10 build is 10 ms; three of them are no
/// sample), but gives up at [`SETUP_MAX_SECONDS`] (five builds at
/// SCALE 18) or [`SETUP_MAX_REPEATS`]. `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 0.5;
const SETUP_MAX_SECONDS: f64 = 9.0;
const SETUP_MAX_REPEATS: usize = 50;

/// In a traced run the workload's own loop runs for a third of
/// `--seconds`; the other two loops run this long each, as probes.
const PROBE_SECONDS: f64 = 2.0;

/// Scale of the serving workloads, and the cap on the scale the
/// serving-side probes run at in a traced Graph 500 run (a 64-wide
/// batch at SCALE 18 takes seconds; the probes need repetitions).
const SERVE_SCALE: u32 = 14;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    G500 { scale: u32 },
    Serve(Kind),
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("g500_s18", Workload::G500 { scale: 18 }),
    ("g500_s10", Workload::G500 { scale: 10 }),
    ("serve_sat_s14", Workload::Serve(Kind::Sat)),
    ("serve_mixed_s14", Workload::Serve(Kind::Mixed)),
];

impl Workload {
    fn scale(self) -> u32 {
        match self {
            Workload::G500 { scale } => scale,
            Workload::Serve(_) => SERVE_SCALE,
        }
    }
}

/// Traversals between two validated ones. A validation costs as much
/// as ~70 traversals; at SCALE 18 that is over two seconds, so there it
/// happens once per pass over the root list, which leaves the loop
/// enough traversals to take percentiles of.
fn validate_every(scale: u32) -> usize {
    if scale >= 16 {
        graph::G500_ROOTS
    } else {
        8
    }
}

/// Correctness bookkeeping: operations attempted, operations failed,
/// and the first few reasons.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one operation; it failed unless `ok`.
    pub fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(why());
        }
    }

    /// Count one failed operation.
    pub fn fail(&mut self, why: String) {
        self.expect(false, || why);
    }

    pub fn note(&mut self, why: String) {
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    /// Internal: build the workload's graph, save it here and exit (a
    /// run starts itself this way to get a store file some *other*
    /// process wrote, as a restarted server finds it).
    provision: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut provision = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => traced = Some(number()?),
            "--provision" => provision = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, w)| w)
        .ok_or(format!("unknown workload {name}"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced: match traced.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            _ => return Err("--trace is 0 or 1".into()),
        },
        provision,
    })
}

fn load(cfg: SessionConfig) -> Result<GraphSession, String> {
    GraphSession::load(cfg, FaultPlan::none()).map_err(|e| e.to_string())
}

/// Build the graph once and save it, so that a set-up can open it —
/// what a restarted server does. Not part of `setup_s`.
fn provision_store(cfg: SessionConfig, path: &Path) -> Result<(), String> {
    load(cfg)?.save(path).map_err(|e| e.to_string())?;
    Ok(())
}

/// [`provision_store`] in a child process, so that the build's memory
/// never shows in this process's peak: the mixed workload measures a
/// server that only ever opened the file.
fn provision_in_child(args: &Args, path: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(["--workload", &args.name, "--seed", &args.seed.to_string()])
        .args(["--seconds", "1", "--trace", "0", "--provision"])
        .arg(path)
        .status()
        .map_err(|e| format!("starting the provisioning child: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("the provisioning child failed: {status}"))
    }
}

/// What a set-up leaves ready for the timed loop.
enum Ready {
    Session(Box<GraphSession>),
    Server(TcpServer),
}

/// Build the graph, wrap it in the service, bind.
fn serve_built(graph: &Graph, kind: Kind) -> Result<TcpServer, String> {
    tcp::start(load(graph.cfg)?, kind).map_err(|e| format!("bind: {e}"))
}

/// Open the graph from the store file, wrap it in the service, bind.
fn serve_opened(graph: &Graph, store: &Path, kind: Kind) -> Result<TcpServer, String> {
    let session = GraphSession::open(store, graph.cfg, FaultPlan::none())
        .map_err(|e| format!("open {}: {e}", store.display()))?;
    tcp::start(session, kind).map_err(|e| format!("bind: {e}"))
}

/// One set-up, the thing `setup_s` times: build the resident graph
/// (Graph 500, saturated serving) or open it from the store file (mixed
/// serving), then wrap it in the service and bind.
fn set_up(workload: Workload, graph: &Graph, store: &Path) -> Result<Ready, String> {
    Ok(match workload {
        Workload::G500 { .. } => Ready::Session(Box::new(load(graph.cfg)?)),
        Workload::Serve(Kind::Sat) => Ready::Server(serve_built(graph, Kind::Sat)?),
        Workload::Serve(Kind::Mixed) => Ready::Server(serve_opened(graph, store, Kind::Mixed)?),
    })
}

/// What the timed loop of a workload reports, whichever loop it was.
struct LoopStats {
    op_ms_p50: Stat,
    op_ms_p90: Stat,
    ops_per_s: Stat,
    traverse_meps: Stat,
    /// The highest percentile the sample supports (ten samples beyond
    /// it), and the latency there.
    tail: Option<(f64, f64)>,
    gate: Gate,
}

fn tail(samples: usize, op_ms: impl Fn(f64) -> Stat) -> Option<(f64, f64)> {
    stats::supported_tail(samples).map(|p| (p, op_ms(p).0))
}

fn g500_stats(run: &g500::Run) -> LoopStats {
    LoopStats {
        op_ms_p50: run.root_ms(50.0),
        op_ms_p90: run.root_ms(90.0),
        ops_per_s: run.roots_per_s(),
        traverse_meps: run.traverse_meps(),
        tail: tail(run.root_ms(50.0).1, |p| run.root_ms(p)),
        gate: run.gate().clone(),
    }
}

fn tcp_stats(run: &tcp::Run) -> LoopStats {
    LoopStats {
        op_ms_p50: run.query_ms(50.0),
        op_ms_p90: run.query_ms(90.0),
        ops_per_s: run.qps(),
        traverse_meps: run.traverse_meps(),
        tail: tail(run.query_ms(50.0).1, |p| run.query_ms(p)),
        gate: run.gate().clone(),
    }
}

/// The counts of a Graph 500 loop that repeat exactly for a seed.
fn put_exact_counts(m: &mut Metrics, run: &g500::Run) {
    m.put("core.engine.levels_per_root", run.levels_per_root());
    m.put(
        "core.engine.scanned_edges_per_root",
        run.scanned_edges_per_root(),
    );
    m.put("core.engine.push_share", run.push_share());
    m.put("core.engine.sim_s_per_root", run.sim_s_per_root());
    m.put("core.engine.sim_gteps", run.sim_gteps());
    m.put("net.collectives_per_root", run.collectives_per_root());
    m.put("net.bytes_per_root", run.bytes_per_root());
}

/// What a run hands to `main`.
struct Outcome {
    metrics: Vec<Metric>,
    noisy: bool,
    /// Counts that repeat exactly for the seed, traced or not.
    exact: Vec<Metric>,
}

/// Has `setup_s` enough set-ups behind it?
fn enough_setups(setups: &[(f64, f64)]) -> bool {
    let clean = setups.iter().filter(|s| s.1 <= host::STEAL_LIMIT).count();
    let total: f64 = setups.iter().map(|s| s.0).sum();
    (clean >= SETUP_REPEATS && total >= SETUP_MIN_SECONDS)
        || total >= SETUP_MAX_SECONDS
        || setups.len() >= SETUP_MAX_REPEATS
}

/// The untraced run: set up, run the loop for the whole of `--seconds`,
/// set up some more times for a median, report the end-to-end metrics.
fn run_untraced(args: &Args, checks: &mut Checks) -> Result<Outcome, String> {
    let tracer = Tracer::new(false);
    let graph = Graph::generate(args.workload.scale(), args.seed);
    let store = store_path(args);
    if args.workload == Workload::Serve(Kind::Mixed) {
        provision_in_child(args, &store)?;
    }
    // (seconds, steal share) of every set-up.
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let timed_set_up = |setups: &mut Vec<(f64, f64)>| {
        let (ready, seconds, steal) =
            host::timed_with_steal(|| set_up(args.workload, &graph, &store));
        setups.push((seconds, steal));
        ready
    };

    let seconds = args.seconds as f64;
    let mut exact = Metrics::new(PER_LAYER);
    let stats = match (timed_set_up(&mut setups)?, args.workload) {
        (Ready::Session(session), Workload::G500 { scale }) => {
            let run = g500::run(
                &session,
                &graph,
                seconds,
                validate_every(scale),
                &tracer,
                checks,
            );
            put_exact_counts(&mut exact, &run);
            g500_stats(&run)
        }
        (Ready::Server(server), Workload::Serve(kind)) => {
            let run = tcp::drive(server, &graph, kind, seconds, args.seed, &tracer, checks);
            tcp_stats(&run)
        }
        _ => unreachable!("set_up returns what the workload's loop takes"),
    };
    while !enough_setups(&setups) {
        match timed_set_up(&mut setups)? {
            Ready::Server(server) => tcp::stop(server),
            Ready::Session(_) => {}
        }
    }
    let _ = std::fs::remove_file(&store);
    // The same rule as for loop windows: set-ups the hypervisor stole
    // from do not count, unless none is left.
    let mut setup_s: Vec<f64> = setups
        .iter()
        .filter(|s| s.1 <= host::STEAL_LIMIT)
        .map(|s| s.0)
        .collect();
    if setup_s.is_empty() {
        setup_s = setups.iter().map(|s| s.0).collect();
    }

    let mut m = Metrics::new(END_TO_END);
    m.put("op_ms_p50", stats.op_ms_p50);
    m.put("op_ms_p90", stats.op_ms_p90);
    m.put("ops_per_s", stats.ops_per_s);
    m.put("traverse_meps", stats.traverse_meps);
    // One set-up and `--seconds` of the loop: what one start of the
    // program needs. Read then, before the further set-ups, whose
    // leftovers in the allocator would otherwise decide the peak.
    m.set("peak_rss_mb", stats.gate.peak_rss_mb, 1);
    m.set("setup_s", stats::median(&setup_s), setup_s.len());
    print_context(&stats);
    Ok(Outcome {
        metrics: m.finish(),
        noisy: stats.gate.noisy,
        exact: exact.into_partial(),
    })
}

/// What the metric table has no row for: the box, and the highest
/// latency percentile this run's sample supports.
fn print_context(stats: &LoopStats) {
    let gate = &stats.gate;
    println!(
        "host: steal {:.4}, {} clean windows of {:.0} s, noisy {}, {} cores",
        gate.steal_share(),
        gate.clean_windows(),
        gate.end_s(),
        gate.noisy,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    if let Some((p, ms)) = stats.tail {
        println!("op_ms tail: p{p} = {ms:.6} ms (n={})", stats.op_ms_p50.1);
    }
}

/// The traced run: one set-up made of visible layer calls, the
/// workload's own loop for a third of `--seconds` with spans on, the
/// other loops and every layer probe, then the per-layer metrics.
fn run_traced(args: &Args, checks: &mut Checks) -> Result<Outcome, String> {
    let calib_before = host::calib_ms();
    let tracer = Tracer::new(true);
    let mut m = Metrics::new(PER_LAYER);
    let graph = Graph::generate(args.workload.scale(), args.seed);
    // The serving side runs on the workload's own graph unless that is
    // too large for probes with repetitions.
    let small = (graph.cfg.scale > SERVE_SCALE).then(|| Graph::generate(SERVE_SCALE, args.seed));
    let serve_graph = small.as_ref().unwrap_or(&graph);
    let store = store_path(args);
    let own = args.seconds as f64 / 3.0;
    let seconds_of = |w: Workload| {
        if w == args.workload {
            own
        } else {
            PROBE_SECONDS
        }
    };

    let session = tracer.scope("harness::setup", ROOT, 0, |span| {
        probes::build_by_layer(&mut m, &tracer, span, &graph);
        tracer.scope("serve::GraphSession::load", span, 0, |_| load(graph.cfg))
    })?;

    let scale = graph.cfg.scale;
    let g = g500::run(
        &session,
        &graph,
        seconds_of(Workload::G500 { scale }),
        validate_every(scale),
        &tracer,
        checks,
    );
    drop(session);
    let sat = tcp::drive(
        serve_built(serve_graph, Kind::Sat)?,
        serve_graph,
        Kind::Sat,
        seconds_of(Workload::Serve(Kind::Sat)),
        args.seed,
        &tracer,
        checks,
    );
    provision_store(serve_graph.cfg, &store)?;
    let mixed = tcp::drive(
        serve_opened(serve_graph, &store, Kind::Mixed)?,
        serve_graph,
        Kind::Mixed,
        seconds_of(Workload::Serve(Kind::Mixed)),
        args.seed,
        &tracer,
        checks,
    );

    put_exact_counts(&mut m, &g);
    m.put("core.engine.root_ms_p50", g.root_ms(50.0));
    m.put("core.engine.ms_per_level_p50", g.ms_per_level_p50());
    m.put("core.engine.ns_per_scanned_edge", g.ns_per_scanned_edge());
    m.put("core.engine.traverse_meps", g.traverse_meps());
    m.put("core.validate.parents_ms_p50", g.validate_parents_ms_p50());
    m.put(
        "core.validate.component_edges_ms_p50",
        g.component_edges_ms_p50(),
    );
    m.put("serve.service.batch_width_mean", sat.batch_width_mean());
    m.put("serve.service.batch_wall_ms_p50", sat.batch_wall_ms_p50());
    m.put(
        "serve.service.batches",
        (sat.report.batches.len() as f64, 1),
    );
    m.put("serve.sat.qps", sat.qps());
    m.put("serve.sat.query_ms_p50", sat.query_ms(50.0));
    m.put("serve.sat.query_ms_p90", sat.query_ms(90.0));
    m.put("serve.mixed.query_ms_p50", mixed.query_ms(50.0));
    m.put("serve.mixed.query_ms_p90", mixed.query_ms(90.0));
    m.put("serve.mixed.late_share", mixed.late_share());
    m.put("serve.mixed.update_ms_p50", mixed.update_ms_p50());
    m.put("serve.mixed.batch_width_mean", mixed.batch_width_mean());
    m.put("serve.net.ack_ms_p50", mixed.ack_ms_p50());
    m.put(
        "serve.net.result_after_ack_ms_p50",
        mixed.result_after_ack_ms_p50(),
    );
    m.put(
        "serve.net.rejected",
        ((sat.rejected + mixed.rejected) as f64, 1),
    );
    m.put("gen.lag_ms_p99", mixed.lag_ms_p99());

    probes::sort(&mut m, &tracer, args.seed, checks);
    probes::net(&mut m, &tracer, checks);
    probes::sunway(&mut m, &tracer, args.seed, checks);
    probes::reference_bfs(&mut m, &tracer, &graph, checks);
    let served = probes::session(
        &mut m,
        &tracer,
        load(serve_graph.cfg)?,
        serve_graph,
        &store,
        checks,
    );
    let served = served.ok_or("the service probe served nothing to encode")?;
    probes::wire(&mut m, &tracer, &served, checks);

    let stats = match args.workload {
        Workload::G500 { .. } => g500_stats(&g),
        Workload::Serve(Kind::Sat) => tcp_stats(&sat),
        Workload::Serve(Kind::Mixed) => tcp_stats(&mixed),
    };
    m.set("host.steal_share", stats.gate.steal_share(), 1);
    m.set("host.windows_clean", stats.gate.clean_windows() as f64, 1);
    m.set("host.noisy", f64::from(u8::from(stats.gate.noisy)), 1);
    m.set("host.calib_ms", (calib_before + host::calib_ms()) / 2.0, 2);
    m.put("trace.op_ms_p50", stats.op_ms_p50);
    set_trace_metrics(&mut m, &tracer, args)?;
    print_context(&stats);
    let metrics = m.finish();
    let exact = metrics
        .iter()
        .filter(|m| EXACT.contains(&m.name))
        .cloned()
        .collect();
    Ok(Outcome {
        metrics,
        noisy: stats.gate.noisy,
        exact,
    })
}

/// `trace.*` and `self_s.*` from the recorded spans, and the NDJSON file.
fn set_trace_metrics(m: &mut Metrics, tracer: &Tracer, args: &Args) -> Result<(), String> {
    let spans = tracer.spans();
    let self_s = trace::self_times(&spans);
    let covered = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .zip(&self_s)
            .filter(|(s, _)| s.name == name && s.end_ns > s.start_ns)
            .map(|(s, own)| 1.0 - own * 1e9 / (s.end_ns - s.start_ns) as f64)
            .collect()
    };
    let op_span = match args.workload {
        Workload::G500 { .. } => "harness::traversal",
        Workload::Serve(_) => "client::query",
    };
    let ops = covered(op_span);
    m.set("trace.spans", spans.len() as f64, 1);
    m.set(
        "trace.setup_covered_share",
        stats::median(&covered("harness::setup")),
        1,
    );
    m.set("trace.op_covered_share", stats::median(&ops), ops.len());
    let by_layer = trace::self_time_by_layer(&spans);
    for (name, _) in PER_LAYER {
        if let Some(layer) = name.strip_prefix("self_s.") {
            let n = spans
                .iter()
                .filter(|s| trace::layer_of(s.name) == layer)
                .count();
            m.set(name, by_layer.get(layer).copied().unwrap_or(0.0), n);
        }
    }
    let path = Path::new(OUT_DIR).join(format!("{}.trace.ndjson", args.name));
    std::fs::write(&path, trace::to_ndjson(&spans)).map_err(|e| format!("{}: {e}", path.display()))
}

fn store_path(args: &Args) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{}-{}.store", args.name, args.seed))
}

fn main() -> ExitCode {
    // Only the built-in defaults apply (one pool worker, no fault or
    // update plan), whatever the caller's environment holds. Nothing
    // else runs yet, so changing the environment is safe.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SUNBFS_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sunbfs_bench: {e}");
            eprintln!("usage: sunbfs_bench --workload NAME --seed N --seconds S --trace 0|1");
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            eprintln!("workloads: {}", names.join(" "));
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("sunbfs_bench: {OUT_DIR}: {e} (start it in the repository root)");
        return ExitCode::from(2);
    }
    if let Some(path) = &args.provision {
        let cfg = graph::session_config(args.workload.scale(), args.seed);
        return match provision_store(cfg, path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("sunbfs_bench: provisioning {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    let mut checks = Checks::default();
    let outcome = if args.traced {
        run_traced(&args, &mut checks)
    } else {
        run_untraced(&args, &mut checks)
    };
    let Outcome {
        metrics,
        noisy,
        exact,
    } = match outcome {
        Ok(done) => done,
        Err(e) => {
            eprintln!("sunbfs_bench: {}: {e}", args.name);
            return ExitCode::FAILURE;
        }
    };
    let correct = checks.failed == 0;
    for why in &checks.failures {
        eprintln!("sunbfs_bench: FAILED: {why}");
    }
    let record = RunRecord {
        workload: &args.name,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        correct,
        attempted: checks.attempted,
        failed: checks.failed,
        noisy,
        failures: &checks.failures,
        metrics: &metrics,
        exact: &exact,
    };
    let path =
        Path::new(OUT_DIR).join(format!("{}.trace{}.json", args.name, u8::from(args.traced)));
    if let Err(e) = std::fs::write(&path, record.to_json().render_pretty()) {
        eprintln!("sunbfs_bench: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    print!("{}", report::table(&metrics));
    println!(
        "{}",
        report::result_line(correct, checks.attempted, checks.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
