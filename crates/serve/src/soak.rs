//! The soak driver: one in-process run of the whole serving stack under
//! paced client load, in three profiles.
//!
//! [`run_soak`] loads a resident session, serves it over TCP on an
//! ephemeral port, polls the `health` request from a side connection
//! while [`run_loadgen`] offers the configured load, feeds the service
//! clean traffic until it is `healthy` again if it left that state,
//! shuts down gracefully, and folds the client view, the service's own
//! report, the transport summary and the profile's gates into one
//! [`SoakReport`]. The [`Profile`] decides what else is armed and which
//! section of the metrics JSON (`docs/METRICS.md`) the report renders
//! as:
//!
//! * [`Profile::Load`] — nothing armed; `serve_load`, the client view.
//! * [`Profile::Chaos`] — the session is built with an **armed** fault
//!   plan and a seeded [`ChaosConfig`] fires rank panics, stragglers and
//!   payload corruption against live traffic; `serve_chaos`, gated on
//!   availability and recovery time.
//! * [`Profile::Update`] — first a repair-vs-recompute timing over
//!   committed edge-insert rounds on a session of its own, then the
//!   served run with an [`UpdatePlan`] armed beside wire updates
//!   interleaved into the load; `update_soak`, gated on equivalence,
//!   speedup and epoch monotonicity.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sunbfs_common::{JsonValue, SplitMix64, ToJson};
use sunbfs_mutate::{generate_batch, repair_in_place, UnionAdjacency, UpdatePlan};
use sunbfs_net::FaultPlan;

use crate::loadgen::{run_loadgen, LineClient, LoadgenConfig, LoadgenReport, Target};
use crate::net::{serve, JoinOutcome, NetConfig, NetSummary};
use crate::report::{HealthTransition, ServeReport};
use crate::service::{BfsService, ChaosConfig, ServeConfig};
use crate::session::{GraphSession, SessionConfig};

/// How often the side connection polls the `health` request.
const HEALTH_POLL: Duration = Duration::from_millis(25);
/// Wall-clock bound on driving the service back to `healthy` after the
/// load window closes.
const RECOVERY_TIMEOUT: Duration = Duration::from_secs(60);

/// What a soak arms against the served session, and with it the
/// artifact section its report renders as and the gate it must pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Paced load against a fault-free, read-mostly service.
    Load,
    /// Live faults from [`SoakConfig::chaos`].
    Chaos,
    /// [`SoakConfig::repair`] rounds, then [`SoakConfig::update_plan`]
    /// armed under update-interleaved load.
    Update,
}

/// The repair-vs-recompute step of [`Profile::Update`].
#[derive(Clone, Copy, Debug)]
pub struct RepairRounds {
    /// Update batches to commit.
    pub rounds: u64,
    /// Edges per committed batch.
    pub batch: u64,
    /// Cached root results repaired after every commit.
    pub roots: usize,
}

/// Knobs for one soak run ([`run_soak`]).
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// What is armed, which section is written, which gate applies.
    pub profile: Profile,
    /// The resident graph to serve.
    pub session: SessionConfig,
    /// Service knobs (health thresholds included).
    pub serve: ServeConfig,
    /// Transport knobs.
    pub net: NetConfig,
    /// The offered load.
    pub load: LoadgenConfig,
    /// [`Profile::Chaos`]: the seeded fault schedule the service arms
    /// against itself. Bound `max_events` so the soak tail is
    /// chaos-free and recovery can close.
    pub chaos: ChaosConfig,
    /// [`Profile::Chaos`]: minimum acceptable `served / completed`.
    pub availability_gate: f64,
    /// [`Profile::Chaos`]: longest acceptable recovery episode, in
    /// service ticks.
    pub recovery_gate_ticks: u64,
    /// [`Profile::Update`]: the scripted update schedule
    /// (`SUNBFS_UPDATE_PLAN` grammar, `docs/UPDATES.md`).
    pub update_plan: UpdatePlan,
    /// [`Profile::Update`]: the repair-vs-recompute rounds.
    pub repair: RepairRounds,
}

/// What the repair-vs-recompute rounds measured.
#[derive(Clone, Debug, Default)]
pub struct RepairTiming {
    /// Batches committed.
    pub updates_applied: u64,
    /// Edges across all committed batches.
    pub update_edges: u64,
    /// Session epoch after the last commit.
    pub final_epoch: u64,
    /// Delta compactions the commits triggered.
    pub compactions: u64,
    /// Total wall time in `repair_in_place`, milliseconds.
    pub repair_ms: f64,
    /// Total wall time recomputing the same results from scratch.
    pub recompute_ms: f64,
    /// Cached results repaired (roots × rounds).
    pub repaired_roots: u64,
    /// Vertices whose depth a repair improved.
    pub repaired_vertices: u64,
    /// Repaired results whose depths differ from the recompute — must
    /// be 0.
    pub equivalence_violations: u64,
    /// Total wall time inside `apply_updates`, seconds.
    pub apply_seconds: f64,
}

impl RepairTiming {
    /// `recompute_ms / repair_ms`: > 1 means incremental repair wins.
    pub fn repair_speedup(&self) -> f64 {
        self.recompute_ms / self.repair_ms.max(1e-6)
    }
}

/// What one soak saw, end to end: the load generator's view, the
/// service's own report, the transport summary, and what the side
/// connection observed of the health machine.
#[derive(Debug)]
pub struct SoakReport {
    /// The configuration that ran (profile, gates, echoed knobs).
    pub config: SoakConfig,
    /// The client-side view of the run.
    pub load: LoadgenReport,
    /// The service's own report (empty when the service thread died,
    /// or the server was not ours).
    pub serve: ServeReport,
    /// The transport summary.
    pub net: NetSummary,
    /// [`Profile::Update`]: the repair-vs-recompute measurement.
    pub repair: RepairTiming,
    /// Deduped health-state sequence the side poller observed.
    pub observed_states: Vec<String>,
    /// Health state at shutdown.
    pub final_health: String,
    /// A server thread's panic payload, when one panicked (automatic
    /// failure).
    pub join_error: Option<String>,
}

impl SoakReport {
    /// The report of a run against somebody else's server: only the
    /// client saw anything.
    pub fn client_only(config: SoakConfig, load: LoadgenReport) -> SoakReport {
        SoakReport {
            config,
            load,
            serve: ServeReport::default(),
            net: NetSummary::default(),
            repair: RepairTiming::default(),
            observed_states: Vec::new(),
            final_health: String::new(),
            join_error: None,
        }
    }

    /// True when the service ended the run `healthy` with every server
    /// thread alive.
    pub fn recovered(&self) -> bool {
        self.final_health == "healthy" && self.join_error.is_none()
    }

    /// Exactly-once client accounting and no server thread lost.
    pub fn clean_drain(&self) -> bool {
        self.load.clean() && self.join_error.is_none()
    }

    /// The profile's verdict. `Load`: the accounting invariants.
    /// `Chaos`: no crash, clean accounting, availability at or above
    /// the gate, recovered to `healthy`, every recovery episode inside
    /// the tick budget. `Update`: repair depth-identical to and no
    /// slower than recompute, no epoch regression, a clean drain, and
    /// at least one wire update committed.
    pub fn passed(&self) -> bool {
        match self.config.profile {
            Profile::Load => self.load.clean(),
            Profile::Chaos => {
                self.clean_drain()
                    && self.serve.availability() >= self.config.availability_gate
                    && self.recovered()
                    && recovery_episodes(&self.serve.health_transitions).1
                        <= self.config.recovery_gate_ticks
            }
            Profile::Update => {
                self.repair.equivalence_violations == 0
                    && self.repair.repair_speedup() >= 1.0
                    && self.clean_drain()
                    && self.load.updates_committed > 0
            }
        }
    }

    /// The artifact section this run writes (`docs/METRICS.md`): its
    /// name and its body.
    pub fn section(&self) -> (&'static str, JsonValue) {
        match self.config.profile {
            Profile::Load => ("serve_load", self.load.to_json()),
            Profile::Chaos => ("serve_chaos", self.chaos_json()),
            Profile::Update => ("update_soak", self.update_json()),
        }
    }

    fn chaos_json(&self) -> JsonValue {
        let (episodes, max_ticks) = recovery_episodes(&self.serve.health_transitions);
        let states = self.observed_states.iter().map(|s| s.as_str().into());
        JsonValue::object()
            .field("availability", self.serve.availability())
            .field("availability_gate", self.config.availability_gate)
            .field("recovery_episodes", episodes)
            .field("max_recovery_ticks", max_ticks)
            .field("recovery_gate_ticks", self.config.recovery_gate_ticks)
            .field("observed_states", JsonValue::Array(states.collect()))
            .field("final_health", self.final_health.as_str())
            .field("recovered", self.recovered())
            .field("server_panicked", self.join_error.is_some())
            .field("join_error", self.join_error.as_deref())
            .field("passed", self.passed())
            .field("load", self.load.to_json())
            // Aggregates only: a soak records thousands of queries, and
            // the committed artifact must stay reviewable.
            .field("serve", self.serve.to_summary_json())
            .field("net", self.net.to_json())
            .build()
    }

    fn update_json(&self) -> JsonValue {
        let (cfg, a) = (&self.config, &self.repair);
        let apply_seconds = a.apply_seconds.max(1e-9);
        JsonValue::object()
            .field("scale", u64::from(cfg.session.scale))
            .field("ranks", cfg.session.mesh.num_ranks() as u64)
            .field("rounds", cfg.repair.rounds)
            .field("batch_edges", cfg.repair.batch)
            .field("roots", cfg.repair.roots as u64)
            .field("seed", cfg.load.seed)
            .field("updates_applied", a.updates_applied)
            .field("update_edges", a.update_edges)
            .field("final_epoch", a.final_epoch)
            .field("compactions", a.compactions)
            .field("repair_ms", a.repair_ms)
            .field("recompute_ms", a.recompute_ms)
            .field("repair_speedup", a.repair_speedup())
            .field("updates_per_sec", a.updates_applied as f64 / apply_seconds)
            .field("edges_per_sec", a.update_edges as f64 / apply_seconds)
            .field("repaired_roots", a.repaired_roots)
            .field("repaired_vertices", a.repaired_vertices)
            .field("equivalence_violations", a.equivalence_violations)
            .field("plan_events", cfg.update_plan.events().len() as u64)
            .field("torn_reads", self.load.epoch_regressions)
            .field("clean_drain", self.clean_drain())
            .field("passed", self.passed())
            .field("load", self.load.to_json())
            .field("serve", self.serve.to_summary_json())
            .build()
    }
}

/// `(episodes, longest in ticks)`: every span of a health transition
/// log from leaving `healthy` to re-reaching it. A run that never got
/// back is not an episode — [`SoakReport::recovered`] catches it.
pub fn recovery_episodes(transitions: &[HealthTransition]) -> (u64, u64) {
    let mut episodes = 0u64;
    let mut max_ticks = 0u64;
    let mut left_at: Option<u64> = None;
    for t in transitions {
        if t.from == "healthy" && left_at.is_none() {
            left_at = Some(t.at_tick);
        }
        if t.to == "healthy" {
            if let Some(start) = left_at.take() {
                episodes += 1;
                max_ticks = max_ticks.max(t.at_tick.saturating_sub(start));
            }
        }
    }
    (episodes, max_ticks)
}

fn load_session(cfg: SessionConfig, plan: FaultPlan) -> io::Result<GraphSession> {
    GraphSession::load(cfg, plan).map_err(|e| io::Error::other(format!("session load: {e}")))
}

/// Commit `rounds` seeded batches against a session of its own,
/// repairing cached root results after every commit and checking each
/// one depth-identical against a full recompute over the same union
/// adjacency.
fn repair_vs_recompute(cfg: &SoakConfig) -> io::Result<RepairTiming> {
    let seed = cfg.load.seed;
    let mut session = load_session(cfg.session, FaultPlan::none())?;
    let n = session.num_vertices();
    let mut rng = SplitMix64::new(seed ^ 0xA5A5_5A5A);
    let mut cache: Vec<(u64, Vec<u64>, Vec<u64>)> = (0..cfg.repair.roots)
        .map(|_| {
            let root = rng.next_below(n);
            let adj = UnionAdjacency::new(session.partitions(), session.delta());
            let (parents, depths) = adj.full_bfs(root);
            (root, parents, depths)
        })
        .collect();

    let mut out = RepairTiming::default();
    for round in 0..cfg.repair.rounds {
        let batch = generate_batch(seed, round, cfg.repair.batch, n);
        let t0 = Instant::now();
        session
            .apply_updates(&batch)
            .map_err(|e| io::Error::other(format!("apply round {round}: {e}")))?;
        out.apply_seconds += t0.elapsed().as_secs_f64();
        out.updates_applied += 1;
        out.update_edges += batch.len() as u64;

        // The union view after this commit — identical whether the
        // round's edges still sit in the delta or a promotion /
        // threshold trigger already compacted them into the base.
        let adj = UnionAdjacency::new(session.partitions(), session.delta());
        for (root, parents, depths) in &mut cache {
            let t0 = Instant::now();
            let stats = repair_in_place(&adj, &batch, parents, depths);
            out.repair_ms += t0.elapsed().as_secs_f64() * 1e3;
            out.repaired_roots += 1;
            out.repaired_vertices += stats.improved;

            let t0 = Instant::now();
            let (_, fresh_depths) = adj.full_bfs(*root);
            out.recompute_ms += t0.elapsed().as_secs_f64() * 1e3;
            if *depths != fresh_depths {
                out.equivalence_violations += 1;
                eprintln!("soak: EQUIVALENCE VIOLATION root {root} round {round}");
            }
        }
    }
    out.final_epoch = session.epoch();
    out.compactions = session.compactions();
    Ok(out)
}

/// The side connection: poll `{"cmd":"health"}` every [`HEALTH_POLL`]
/// and record the deduped state sequence. Once the load is done, keep
/// going only while the service is anywhere but `healthy`, feeding it a
/// small clean batch per poll — quarantine probes fire on idle ticks by
/// themselves, but `Recovering → Healthy` needs clean traffic to prove —
/// until it is back (or [`RECOVERY_TIMEOUT`] passes). Returns the
/// sequence.
fn watch_health(addr: &str, load_done: &AtomicBool) -> Vec<String> {
    let mut seen: Vec<String> = Vec::new();
    let mut give_up = None;
    if let Ok(mut client) = LineClient::connect(addr, Duration::from_secs(2)) {
        'poll: while client.send(r#"{"cmd":"health"}"#).is_ok() {
            // Replies to an earlier recovery batch come first; skip them.
            let state = loop {
                let Ok(reply) = client.recv() else {
                    break 'poll;
                };
                if let Some(state) = reply.get("state").and_then(JsonValue::as_str) {
                    break state.to_string();
                }
            };
            if seen.last() != Some(&state) {
                seen.push(state);
            }
            if load_done.load(Ordering::SeqCst) {
                let give_up = *give_up.get_or_insert(Instant::now() + RECOVERY_TIMEOUT);
                if seen.last().is_some_and(|s| s == "healthy") || Instant::now() >= give_up {
                    break;
                }
                let batch = client.send(r#"{"cmd":"batch","roots":[0,1,2,3]}"#);
                if batch.is_err() || client.send(r#"{"cmd":"drain"}"#).is_err() {
                    break;
                }
            }
            std::thread::sleep(HEALTH_POLL);
        }
    }
    seen
}

/// Run one soak in-process: build the session (with an armed fault plan
/// for [`Profile::Chaos`]), serve it over TCP with the profile's chaos
/// schedule or update plan, offer load while watching health from the
/// side, let recovery close, shut down gracefully, and fold every view
/// into a [`SoakReport`].
///
/// # Errors
/// Session build, listener setup and client connect errors; everything
/// after the load connects folds into the report instead.
pub fn run_soak(cfg: &SoakConfig) -> io::Result<SoakReport> {
    let repair = match cfg.profile {
        Profile::Update => repair_vs_recompute(cfg)?,
        Profile::Load | Profile::Chaos => RepairTiming::default(),
    };
    // An armed plan keeps payload framing SPMD-consistent when chaos
    // events are injected mid-run.
    let plan = if cfg.profile == Profile::Chaos {
        FaultPlan::armed()
    } else {
        FaultPlan::none()
    };
    let svc = BfsService::new(load_session(cfg.session, plan)?, cfg.serve);
    let svc = match cfg.profile {
        Profile::Load => svc,
        Profile::Chaos => svc.with_chaos(cfg.chaos),
        Profile::Update => svc.with_update_plan(cfg.update_plan.clone()),
    };
    let server = serve(svc, "127.0.0.1:0", cfg.net)?;
    // Everything the clients must know is read off the server just started.
    let target = Target {
        addr: server.local_addr().to_string(),
        root_max: 1 << cfg.session.scale,
        tick: cfg.net.tick_interval,
    };
    let load_done = AtomicBool::new(false);
    let (load, observed_states) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| watch_health(&target.addr, &load_done));
        let load = run_loadgen(&target, &cfg.load);
        load_done.store(true, Ordering::SeqCst);
        (load, watcher.join().expect("health watcher panicked"))
    });
    server.shutdown();
    let JoinOutcome {
        service,
        summary: net,
        service_join_error,
        accept_join_error,
    } = server.join();
    let load = load?;

    if load.unacked + load.lost_replies > 0 {
        eprintln!(
            "soak: the server delivered {} results, dropped {}, drained {} at shutdown",
            net.results_delivered, net.results_dropped, net.shutdown_drained
        );
    }
    let join_error = service_join_error.or(accept_join_error);
    let (serve, final_health) = match &service {
        Some(svc) => (svc.report(), svc.health().label().to_string()),
        None => Default::default(),
    };
    Ok(SoakReport {
        config: cfg.clone(),
        load,
        serve,
        net,
        repair,
        observed_states,
        final_health,
        join_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_episodes_measure_healthy_round_trips() {
        let t = |from: &'static str, to: &'static str, at_tick: u64| HealthTransition {
            from,
            to,
            at_tick,
            reason: String::new(),
        };
        assert_eq!(recovery_episodes(&[]), (0, 0));
        // One full round trip of 9 ticks, one of 4.
        let trail = vec![
            t("healthy", "degraded", 10),
            t("degraded", "quarantined", 12),
            t("quarantined", "recovering", 17),
            t("recovering", "healthy", 19),
            t("healthy", "degraded", 30),
            t("degraded", "recovering", 32),
            t("recovering", "healthy", 34),
        ];
        assert_eq!(recovery_episodes(&trail), (2, 9));
        // Never recovered: no episode closes.
        let open = vec![t("healthy", "degraded", 5)];
        assert_eq!(recovery_episodes(&open), (0, 0));
    }
}
