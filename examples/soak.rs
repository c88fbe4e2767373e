//! `soak` — drive the serving stack under paced client load and write
//! the run's artifact. One driver, three profiles:
//!
//! * `soak load` — paced load against a fault-free service sized to
//!   saturate (16-slot queue): the `serve_load` saturation artifact.
//!   With `--addr HOST:PORT` the load goes to an external `bfs_server`
//!   instead, which is told to shut down afterwards (`--no-shutdown`
//!   leaves it running).
//! * `soak chaos` — a seeded fault schedule injects rank panics,
//!   stragglers and payload corruption into the live batched traversal
//!   while clients with deadline budgets and hint-honoring retries stay
//!   connected: the `serve_chaos` availability artifact.
//! * `soak update` — first times incremental BFS repair against full
//!   recompute over `--rounds` committed edge-insert batches, then
//!   serves a session with an update plan armed (`SUNBFS_UPDATE_PLAN`
//!   grammar, default `insert@8:32;insert@24:32`) under load with wire
//!   updates interleaved: the `update_soak` live-mutation artifact.
//!
//! Every profile runs in-process on an ephemeral port
//! (`sunbfs::serve::run_soak`), prints
//! `{"schema_version":11,"<section>":{...}}` (tables in
//! `docs/METRICS.md`) and writes it to `--json PATH` when given.
//!
//! ```text
//! cargo run --release --example soak -- chaos \
//!     --scale 14 --ranks 8 --qps 300 --duration 4 --json SERVE_CHAOS_14.json
//! ```
//!
//! Flags and per-profile defaults: `docs/SERVE.md` (soak profiles).
//!
//! Exit status: 0 when the profile's gate held
//! (`SoakReport::passed`), 1 on a gate failure or a connect/bind
//! error, 2 on an unknown profile or flag or a knob the shared reader
//! (`sunbfs::cli`) refuses (`--scale 70`) — so CI can gate on the
//! process status alone.

use std::time::Duration;

use sunbfs::cli::{self, Flags, U32, U64};
use sunbfs::metrics::soak_artifact;
use sunbfs::mutate::UpdatePlan;
use sunbfs::serve::{
    recovery_episodes, run_loadgen, run_soak, ChaosConfig, LineClient, LoadgenConfig, NetConfig,
    Profile, RepairRounds, ServeConfig, SessionConfig, SoakConfig, SoakReport, Target,
};

const USAGE: &str = "usage: soak <load|chaos|update> [--scale N] [--ranks N] [--conns N] \
    [--qps N] [--duration SECS] [--seed N] [--settle-secs N] [--deadline-ticks N] \
    [--retry-max N] [--update-every N] [--update-batch N] [--json PATH]
  load:   [--addr HOST:PORT [--root-max N] [--tick-hint-ms N] [--no-shutdown]]
  chaos:  [--chaos-every N] [--chaos-max-events N] [--availability-gate F] \
    [--recovery-gate-ticks N]
  update: [--rounds N] [--batch N] [--roots N]";

struct Cli {
    cfg: SoakConfig,
    /// `--addr`: the external server a `load` run drives instead, and
    /// whether to tell it to shut down afterwards.
    external: Option<(Target, bool)>,
    json_path: Option<String>,
}

/// The profile's default set (scale and ranks are filled in by `parse`).
fn defaults(profile: Profile) -> Result<SoakConfig, String> {
    let fast_tick = NetConfig {
        tick_interval: Duration::from_millis(2),
        ..NetConfig::default()
    };
    let mut cfg = SoakConfig {
        profile,
        session: SessionConfig::small(14, 4),
        serve: ServeConfig::default(),
        net: NetConfig::default(),
        load: LoadgenConfig::default(),
        chaos: ChaosConfig {
            every_queries: 48,
            max_events: 4,
            ..ChaosConfig::default()
        },
        availability_gate: 0.90,
        recovery_gate_ticks: 20_000,
        update_plan: UpdatePlan::none(),
        repair: RepairRounds {
            rounds: 6,
            batch: 64,
            roots: 8,
        },
    };
    match profile {
        Profile::Load => {
            cfg.serve.queue_capacity = 16;
            cfg.serve.flush_deadline = 128;
        }
        Profile::Chaos => {
            cfg.net = fast_tick;
            cfg.load.qps = 300;
            cfg.load.duration = Duration::from_secs(4);
            cfg.load.deadline_ticks = Some(400);
            cfg.load.retry_max = 3;
        }
        Profile::Update => {
            cfg.net = fast_tick;
            cfg.load.qps = 300;
            cfg.load.duration = Duration::from_secs(2);
            cfg.load.update_every = 16;
            cfg.update_plan = match UpdatePlan::from_env() {
                Ok(Some(plan)) => plan,
                Ok(None) => UpdatePlan::parse("insert@8:32;insert@24:32")?,
                Err(e) => return Err(format!("bad SUNBFS_UPDATE_PLAN: {e}")),
            };
        }
    }
    Ok(cfg)
}

fn parse(args: &[String]) -> Result<Cli, String> {
    use Profile::{Chaos, Load, Update};
    let profile = match args.first().map(String::as_str) {
        Some("load") => Load,
        Some("chaos") => Chaos,
        Some("update") => Update,
        other => return Err(format!("expected a profile, got {other:?}")),
    };
    let mut cfg = defaults(profile)?;
    let (mut scale, mut ranks) = (None, None);
    let (mut addr, mut root_max, mut tick_ms, mut shutdown) = (None, None, None, true);
    let mut json_path = None;
    // Each connection costs the load generator two threads; a server
    // admits no more than its default connection cap.
    let max_conns = NetConfig::default().max_connections as u64;
    let mut flags = Flags::new(&args[1..]);
    while let Some(arg) = flags.next() {
        match arg {
            "--scale" => scale = Some(flags.num(U64)?),
            "--ranks" => ranks = Some(flags.num(U64)?),
            "--conns" => cfg.load.connections = flags.num(1..=max_conns)? as usize,
            "--qps" => cfg.load.qps = flags.num(1..=u64::MAX)?,
            "--duration" => cfg.load.duration = Duration::from_secs(flags.num(U64)?),
            "--seed" => {
                cfg.load.seed = flags.num(U64)?;
                cfg.chaos.seed = cfg.load.seed;
            }
            "--settle-secs" => cfg.load.settle_timeout = Duration::from_secs(flags.num(U64)?),
            "--deadline-ticks" => cfg.load.deadline_ticks = Some(flags.num(U32)? as u32),
            "--retry-max" => cfg.load.retry_max = flags.num(U32)? as u32,
            "--update-every" => cfg.load.update_every = flags.num(U64)?,
            "--update-batch" => cfg.load.update_batch = flags.num(1..=u64::MAX)? as usize,
            "--json" => json_path = Some(flags.value()?.to_string()),
            "--addr" if profile == Load => addr = Some(flags.value()?.to_string()),
            "--root-max" if profile == Load => root_max = Some(flags.num(U64)?),
            "--tick-hint-ms" if profile == Load => tick_ms = Some(flags.num(1..=u64::MAX)?),
            "--no-shutdown" if profile == Load => shutdown = false,
            "--chaos-every" if profile == Chaos => {
                cfg.chaos.every_queries = flags.num(1..=u64::MAX)?
            }
            "--chaos-max-events" if profile == Chaos => cfg.chaos.max_events = flags.num(U64)?,
            "--availability-gate" if profile == Chaos => {
                let raw = flags.value()?;
                cfg.availability_gate = raw
                    .parse::<f64>()
                    .map_err(|_| format!("--availability-gate needs a float, got {raw:?}"))?;
            }
            "--recovery-gate-ticks" if profile == Chaos => {
                cfg.recovery_gate_ticks = flags.num(U64)?;
            }
            "--rounds" if profile == Update => cfg.repair.rounds = flags.num(1..=u64::MAX)?,
            "--batch" if profile == Update => cfg.repair.batch = flags.num(1..=u64::MAX)?,
            "--roots" if profile == Update => cfg.repair.roots = flags.num(1..=u64::MAX)? as usize,
            other => return Err(format!("unknown argument {other:?} for this profile")),
        }
    }
    // An external server is described by hand; the in-process one is
    // sized here and everything about it is read off it.
    let sized = scale.is_some() || ranks.is_some();
    let described = root_max.is_some() || tick_ms.is_some() || !shutdown;
    match addr {
        Some(_) if sized => return Err("--scale/--ranks size the in-process server".into()),
        None if described => {
            return Err("--root-max/--tick-hint-ms/--no-shutdown need --addr".into())
        }
        _ => {}
    }
    let ranks = ranks.unwrap_or(if profile == Chaos { 8 } else { 4 });
    cfg.session = cli::sized_session(scale.unwrap_or(14), ranks, 256, 64)?;
    let external = addr.map(|addr| {
        let target = Target {
            addr,
            root_max: root_max.unwrap_or(1 << 10),
            tick: Duration::from_millis(tick_ms.unwrap_or(10)),
        };
        (target, shutdown)
    });
    Ok(Cli {
        cfg,
        external,
        json_path,
    })
}

/// The run's summary line on stderr (what the profile did not arm
/// reads as its neutral value), and on a failed gate the accounting
/// behind the verdict.
fn summarize(name: &str, r: &SoakReport) {
    let l = &r.load;
    eprintln!(
        "soak {name}: offered {} ({:.0}/s) accepted {} served {} rejected_full {} retried {} \
         retry_ok {} deadline_exceeded {} updates {}/{} final_epoch {} p50 {:.1}ms p99 {:.1}ms \
         p999 {:.1}ms | availability {:.4} injected {} recovery (episodes, max ticks) {:?} \
         final {} states {:?} | repair speedup {:.1}x violations {} torn_reads {}",
        l.offered,
        l.offered_qps,
        l.accepted,
        l.served,
        l.rejected_full,
        l.retried,
        l.retry_successes,
        l.deadline_exceeded,
        l.updates_committed,
        l.updates_offered,
        l.final_epoch,
        l.latency.p50_ms,
        l.latency.p99_ms,
        l.latency.p999_ms,
        r.serve.availability(),
        r.serve.chaos_injected,
        recovery_episodes(&r.serve.health_transitions),
        r.final_health,
        r.observed_states,
        r.repair.repair_speedup(),
        r.repair.equivalence_violations,
        l.epoch_regressions,
    );
    if !r.passed() {
        eprintln!(
            "soak {name}: GATE FAILURE — lost {} dup {} unacked {} protocol_errors {} \
             write_errors {} epoch_regressions {} recovered {} server_panic {:?}",
            l.lost_replies,
            l.duplicate_replies,
            l.unacked,
            l.protocol_errors,
            l.write_errors,
            l.epoch_regressions,
            r.recovered(),
            r.join_error,
        );
    }
}

/// Drive the external server at `target`, then (unless told not to)
/// ask it to shut down and wait for it to drain and close.
fn run_external(cfg: &SoakConfig, target: &Target, shutdown: bool) -> std::io::Result<SoakReport> {
    let load = run_loadgen(target, &cfg.load)?;
    if shutdown {
        let mut client = LineClient::connect(&target.addr, Duration::from_secs(30))?;
        client.send(r#"{"cmd":"shutdown"}"#)?;
        while client.recv().is_ok() {}
    }
    Ok(SoakReport::client_only(cfg.clone(), load))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).unwrap_or_else(|msg| cli::refuse(format_args!("{msg}\n{USAGE}")));
    let name = &args[0];
    let cfg = &cli.cfg;
    eprintln!(
        "soak {name}: {} conns, {} q/s for {:?}",
        cfg.load.connections, cfg.load.qps, cfg.load.duration
    );
    let report = match &cli.external {
        Some((target, shutdown)) => run_external(cfg, target, *shutdown),
        None => run_soak(cfg),
    }
    .unwrap_or_else(|e| {
        eprintln!("soak {name}: {e}");
        std::process::exit(1);
    });
    let rendered = soak_artifact(&report).render_pretty();
    println!("{rendered}");
    if let Some(path) = &cli.json_path {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("soak {name}: writing {path} failed: {e}");
            std::process::exit(1);
        }
    }
    summarize(name, &report);
    if !report.passed() {
        std::process::exit(1);
    }
}
