//! The two serving loops: an in-process `serve::net::serve` over a
//! resident session, driven over real TCP by the benchmark's own load
//! generator, every reply checked against the oracle.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sunbfs::serve::{
    serve, BfsService, GraphSession, NetConfig, ServeConfig, ServeReport, TcpServer,
};

use crate::graph::Graph;
use crate::host::{Gate, StealSampler};
use crate::loadgen::{run_connection, Answered, ConnResult, Mode, Plan, Update};
use crate::oracle::{insert_edge, Answer};
use crate::stats::{percentile_of, Stat};
use crate::trace::Tracer;
use crate::Checks;

/// Generator threads, one connection each (the box has two cores).
pub const CONNS: usize = 2;
/// Closed loop: queries in flight per connection. Two connections
/// together fill one 64-lane batch.
pub const SAT_WINDOW: usize = 32;
/// Open loop: offered queries per second over all connections. About
/// half of what the same server configuration saturates at (see the
/// README), so queues stay short and latency is flush wait + batch.
pub const MIXED_QPS: f64 = 40.0;
/// Open loop: one update after this many queries, per connection.
pub const MIXED_UPDATE_EVERY: u64 = 10;
/// A query answered later than this after it was due counts as late.
pub const LATE_MS: f64 = 250.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop, read-only, batches kept full.
    Sat,
    /// Open loop at a fixed rate, updates beside the reads.
    Mixed,
}

impl Kind {
    fn mode(self) -> Mode {
        match self {
            Kind::Sat => Mode::Closed { window: SAT_WINDOW },
            Kind::Mixed => Mode::Open {
                qps: MIXED_QPS / CONNS as f64,
                update_every: MIXED_UPDATE_EVERY,
            },
        }
    }

    /// The server side of the traffic mix. The service clock ticks per
    /// request, so with one query per line the default flush deadline
    /// (4 ticks) never lets a batch grow past a few lanes; a
    /// throughput-tuned deployment raises it to the batch width, a
    /// latency-tuned one keeps the default.
    fn serve_config(self) -> ServeConfig {
        match self {
            Kind::Sat => ServeConfig {
                flush_deadline: 64,
                ..ServeConfig::default()
            },
            Kind::Mixed => ServeConfig::default(),
        }
    }
}

/// Wrap a session in the service and bind it to a loopback port — the
/// last step of set-up.
pub fn start(session: GraphSession, kind: Kind) -> std::io::Result<TcpServer> {
    let service = BfsService::new(session, kind.serve_config());
    serve(service, "127.0.0.1:0", NetConfig::default())
}

/// Stop a server nothing was sent to (a set-up repetition).
pub fn stop(server: TcpServer) {
    server.shutdown();
    server.join();
}

struct Query {
    seen: Answered,
    /// Traversed edges of the correct answer; `None` for a wrong reply.
    edges: Option<u64>,
}

pub struct Run {
    gate: Gate,
    queries: Vec<Query>,
    updates: Vec<Update>,
    lag_ms: Vec<f64>,
    sent: u64,
    pub rejected: u64,
    pub report: ServeReport,
}

/// Drive `server` for `seconds`, shut it down, check every reply.
pub fn drive(
    server: TcpServer,
    graph: &Graph,
    kind: Kind,
    seconds: f64,
    seed: u64,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Run {
    let t0 = Instant::now();
    let sampler = StealSampler::start(t0, seconds);
    let stop = AtomicBool::new(false);
    let addr = server.local_addr();
    let conns: Vec<ConnResult> = std::thread::scope(|scope| {
        let stop = &stop;
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| {
                scope.spawn(move || {
                    run_connection(&Plan {
                        addr,
                        mode: kind.mode(),
                        conn,
                        conns: CONNS,
                        t0,
                        stop,
                        seed,
                        roots: &graph.roots,
                        num_vertices: graph.num_vertices(),
                        tracer,
                    })
                })
            })
            .collect();
        while !sampler.enough() {
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::SeqCst);
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    // The windows cover the sending phase and the settle time after it.
    let gate = sampler.finish();
    server.shutdown();
    let outcome = server.join();
    checks.expect(!outcome.panicked(), || {
        format!(
            "server thread panicked: {:?} {:?}",
            outcome.service_join_error, outcome.accept_join_error
        )
    });
    let report = outcome
        .service
        .as_ref()
        .map(BfsService::report)
        .unwrap_or_default();

    let mut run = Run {
        gate,
        queries: Vec::new(),
        updates: Vec::new(),
        lag_ms: Vec::new(),
        sent: 0,
        rejected: 0,
        report,
    };
    let mut answered = Vec::new();
    for c in conns {
        // Every offered query is answered, rejected or lost — once.
        checks.expect(
            c.sent == c.answered.len() as u64 + c.rejected + c.lost,
            || "a connection's queries do not add up to answered + rejected + lost".into(),
        );
        // Answered queries and acknowledged updates are counted when
        // they are verified; the rest failed here and now.
        for (what, count) in [
            ("rejected queries", c.rejected),
            ("lost queries", c.lost),
            ("unexpected replies", c.unexpected),
            ("malformed replies", c.malformed),
            ("lost updates", c.updates_lost),
        ] {
            if count > 0 {
                checks.attempted += count;
                checks.failed += count;
                checks.note(format!("{count} {what}"));
            }
        }
        for e in c.errors {
            checks.fail(format!("connection error: {e}"));
        }
        run.sent += c.sent;
        run.rejected += c.rejected;
        run.lag_ms.extend(c.lag_ms);
        run.updates.extend(c.updates);
        answered.extend(c.answered);
    }
    run.queries = verify(graph, answered, &run.updates, run.report.epoch, checks);
    run
}

/// Check every reply against the oracle on the union graph at the
/// reply's epoch, rebuilt from the updates the harness itself sent.
fn verify(
    graph: &Graph,
    mut answered: Vec<Answered>,
    updates: &[Update],
    final_epoch: u64,
    checks: &mut Checks,
) -> Vec<Query> {
    let mut commits: Vec<(u64, &Update)> = Vec::new();
    for u in updates {
        checks.expect(u.epoch.is_some(), || "an update was refused".into());
        commits.extend(u.epoch.map(|e| (e, u)));
    }
    commits.sort_by_key(|(e, _)| *e);
    // Commits are serialized on the service thread: epochs 1, 2, 3, ...
    let contiguous = commits
        .iter()
        .enumerate()
        .all(|(i, (e, _))| *e == i as u64 + 1);
    checks.expect(contiguous && final_epoch == commits.len() as u64, || {
        format!(
            "commit epochs are not 1..={}: final epoch {final_epoch}",
            commits.len()
        )
    });

    answered.sort_by_key(|a| a.epoch);
    let mut inserted = BTreeMap::new();
    let mut applied = 0;
    let mut cache: HashMap<(u64, u64), Answer> = HashMap::new();
    answered
        .into_iter()
        .map(|seen| {
            while applied < commits.len() && commits[applied].0 <= seen.epoch {
                for &e in &commits[applied].1.edges {
                    insert_edge(&mut inserted, e);
                }
                applied += 1;
            }
            let want = cache
                .entry((seen.root, seen.epoch))
                .or_insert_with(|| graph.oracle.answer(seen.root, &inserted));
            let right = seen.status == "served"
                && seen.epoch <= final_epoch
                && seen.visited == want.visited
                && seen.depth_histogram == want.depth_histogram;
            checks.expect(right, || {
                format!(
                    "root {} at epoch {}: status {}, visited {} (oracle {})",
                    seen.root, seen.epoch, seen.status, seen.visited, want.visited
                )
            });
            let edges = right.then_some(want.edges);
            Query { seen, edges }
        })
        .collect()
}

impl Run {
    pub fn gate(&self) -> &Gate {
        &self.gate
    }

    fn kept(&self) -> impl Iterator<Item = &Query> {
        self.queries
            .iter()
            .filter(|q| q.edges.is_some() && self.gate.keeps(q.seen.done_s))
    }

    /// Latency from the instant the query was due (closed loop: sent).
    pub fn query_ms(&self, pct: f64) -> Stat {
        percentile_of(
            self.kept()
                .map(|q| (q.seen.done_s - q.seen.due_s) * 1e3)
                .collect(),
            pct,
        )
    }

    /// Correct answers per second: the median over the kept windows.
    pub fn qps(&self) -> Stat {
        self.rate(|_| 1.0)
    }

    /// Graph 500 traversed edges of the correct answers per second,
    /// 10^6/s, over the same windows.
    pub fn traverse_meps(&self) -> Stat {
        self.rate(|edges| edges as f64 / 1e6)
    }

    /// Median over the kept windows of `amount(edges)` of the correct
    /// answers per window second.
    fn rate(&self, amount: impl Fn(u64) -> f64) -> Stat {
        let samples: Vec<_> = self
            .queries
            .iter()
            .filter_map(|q| Some((q.seen.done_s, amount(q.edges?), 0.0)))
            .collect();
        self.gate.median_rate(&samples, true)
    }

    /// Sent queries not answered correctly within [`LATE_MS`] of being
    /// due, over sent.
    pub fn late_share(&self) -> Stat {
        let on_time = self
            .queries
            .iter()
            .filter(|q| q.edges.is_some() && (q.seen.done_s - q.seen.due_s) * 1e3 <= LATE_MS)
            .count() as u64;
        (
            (self.sent - on_time) as f64 / self.sent.max(1) as f64,
            self.sent as usize,
        )
    }

    /// Update line written to `committed`.
    pub fn update_ms_p50(&self) -> Stat {
        percentile_of(
            self.updates
                .iter()
                .filter(|u| u.epoch.is_some() && self.gate.keeps(u.done_s))
                .map(|u| (u.done_s - u.sent_s) * 1e3)
                .collect(),
            50.0,
        )
    }

    /// Query line written to `accepted`.
    pub fn ack_ms_p50(&self) -> Stat {
        percentile_of(
            self.kept()
                .map(|q| (q.seen.ack_s - q.seen.sent_s) * 1e3)
                .collect(),
            50.0,
        )
    }

    pub fn result_after_ack_ms_p50(&self) -> Stat {
        percentile_of(
            self.kept()
                .map(|q| (q.seen.done_s - q.seen.ack_s) * 1e3)
                .collect(),
            50.0,
        )
    }

    /// How late the open-loop generator sent, ms (all zero samples in a
    /// closed loop, which has no schedule).
    pub fn lag_ms_p99(&self) -> Stat {
        percentile_of(self.lag_ms.clone(), 99.0)
    }

    pub fn batch_width_mean(&self) -> Stat {
        let b = &self.report.batches;
        (
            b.iter().map(|b| b.occupancy as f64).sum::<f64>() / b.len().max(1) as f64,
            b.len(),
        )
    }

    pub fn batch_wall_ms_p50(&self) -> Stat {
        percentile_of(
            self.report
                .batches
                .iter()
                .map(|b| b.wall_seconds * 1e3)
                .collect(),
            50.0,
        )
    }
}
