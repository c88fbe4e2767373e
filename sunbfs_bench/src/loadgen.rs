//! The benchmark's own load generator.
//!
//! Speaks the `docs/SERVE.md` wire protocol directly (it does not use
//! `serve::loadgen`, which the program is free to rewrite): one thread
//! per connection, either a closed loop that keeps a window of queries
//! in flight, or an open loop that sends on a fixed schedule whatever
//! the server does. Open-loop latency is stamped from the instant a
//! query was *due*, and how late the generator itself ran is reported.
//! Every offered query ends in exactly one of answered / rejected /
//! lost.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sunbfs::common::{Edge, JsonValue, SplitMix64};

use crate::trace::{Tracer, ROOT};

/// Edges per `update` request.
pub const UPDATE_EDGES: usize = 4;

/// How long after the sending phase a connection waits for replies
/// still owed before it counts them lost.
const SETTLE: Duration = Duration::from_secs(5);

#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// Keep `window` queries in flight; send the next when one returns.
    Closed { window: usize },
    /// Send a query every `1 / qps` seconds, and one update of
    /// [`UPDATE_EDGES`] edges after every `update_every` queries.
    Open { qps: f64, update_every: u64 },
}

/// What one connection needs to know.
pub struct Plan<'a> {
    pub addr: SocketAddr,
    pub mode: Mode,
    /// Index of this connection among `conns`; staggers open-loop
    /// schedules so the connections do not fire together.
    pub conn: usize,
    pub conns: usize,
    /// The loop's time origin (shared by all connections).
    pub t0: Instant,
    /// Sending stops when this is set.
    pub stop: &'a AtomicBool,
    pub seed: u64,
    /// Roots queries are drawn from.
    pub roots: &'a [u64],
    /// Vertices of the graph; update endpoints are drawn below it.
    pub num_vertices: u64,
    pub tracer: &'a Tracer,
}

/// One answered query, as the client saw it. Times are seconds after
/// the loop's origin.
#[derive(Clone, Debug)]
pub struct Answered {
    pub root: u64,
    pub due_s: f64,
    pub sent_s: f64,
    pub ack_s: f64,
    pub done_s: f64,
    pub status: String,
    pub visited: u64,
    pub depth_histogram: Vec<u64>,
    pub epoch: u64,
}

#[derive(Clone, Debug)]
pub struct Update {
    pub edges: Vec<Edge>,
    pub sent_s: f64,
    pub done_s: f64,
    /// The epoch the commit produced; `None` when the server refused.
    pub epoch: Option<u64>,
}

#[derive(Default)]
pub struct ConnResult {
    /// Queries offered.
    pub sent: u64,
    pub answered: Vec<Answered>,
    pub rejected: u64,
    /// Offered, neither answered nor rejected when the settle time ran out.
    pub lost: u64,
    /// Replies nothing was waiting for (a duplicate or unknown id).
    pub unexpected: u64,
    /// Lines that are not a reply of the protocol, or out of order.
    pub malformed: u64,
    pub updates_sent: u64,
    pub updates: Vec<Update>,
    pub updates_lost: u64,
    /// How late each open-loop query left, ms.
    pub lag_ms: Vec<f64>,
    /// I/O errors that ended the connection early.
    pub errors: Vec<String>,
}

enum Sent {
    Query {
        root: u64,
        due: Instant,
        sent: Instant,
    },
    Update {
        edges: Vec<Edge>,
        sent: Instant,
    },
}

struct InFlight {
    root: u64,
    due: Instant,
    sent: Instant,
    ack: Instant,
}

struct Conn<'a> {
    plan: &'a Plan<'a>,
    stream: TcpStream,
    inbuf: Vec<u8>,
    rng: SplitMix64,
    /// Requests whose `accepted`/`rejected`/`committed` line is still
    /// owed; the server acknowledges a connection's requests in order.
    awaiting_ack: VecDeque<Sent>,
    in_flight: HashMap<u64, InFlight>,
    out: ConnResult,
}

pub fn run_connection(plan: &Plan<'_>) -> ConnResult {
    let stream = match TcpStream::connect(plan.addr) {
        Ok(s) => s,
        Err(e) => {
            return ConnResult {
                errors: vec![format!("connect: {e}")],
                ..ConnResult::default()
            }
        }
    };
    let _ = stream.set_nodelay(true);
    let mut conn = Conn {
        plan,
        stream,
        inbuf: Vec::new(),
        rng: SplitMix64::new(plan.seed).split(0x636f_6e6e + plan.conn as u64),
        awaiting_ack: VecDeque::new(),
        in_flight: HashMap::new(),
        out: ConnResult::default(),
    };
    if let Err(e) = conn.drive() {
        conn.out.errors.push(e.to_string());
    }
    conn.out.lost = (conn.in_flight.len()
        + conn
            .awaiting_ack
            .iter()
            .filter(|s| matches!(s, Sent::Query { .. }))
            .count()) as u64;
    conn.out.updates_lost = conn
        .awaiting_ack
        .iter()
        .filter(|s| matches!(s, Sent::Update { .. }))
        .count() as u64;
    conn.out
}

impl Conn<'_> {
    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.plan.t0).as_secs_f64()
    }

    fn owed(&self) -> usize {
        self.awaiting_ack.len() + self.in_flight.len()
    }

    fn drive(&mut self) -> std::io::Result<()> {
        let (period, update_every) = match self.plan.mode {
            Mode::Open { qps, update_every } => (Duration::from_secs_f64(1.0 / qps), update_every),
            Mode::Closed { .. } => (Duration::ZERO, 0),
        };
        // Connection c of k fires c/k of a period after connection 0.
        let mut next_due =
            self.plan.t0 + period.mul_f64(self.plan.conn as f64 / self.plan.conns as f64);
        let mut stopped_at = None;
        loop {
            let mut wait = Duration::from_millis(50);
            if stopped_at.is_none() && self.plan.stop.load(Ordering::SeqCst) {
                stopped_at = Some(Instant::now());
            }
            match stopped_at {
                None => match self.plan.mode {
                    Mode::Closed { window } => {
                        while self.owed() < window {
                            self.send_query(Instant::now())?;
                        }
                    }
                    Mode::Open { .. } => {
                        while next_due <= Instant::now() {
                            self.send_query(next_due)?;
                            if update_every > 0 && self.out.sent.is_multiple_of(update_every) {
                                self.send_update()?;
                            }
                            next_due += period;
                        }
                        wait = wait.min(next_due.saturating_duration_since(Instant::now()));
                    }
                },
                Some(_) if self.owed() == 0 => return Ok(()),
                Some(at) if at.elapsed() > SETTLE => return Ok(()),
                Some(_) => {}
            }
            self.read_replies(wait.max(Duration::from_micros(200)))?;
        }
    }

    fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    fn send_query(&mut self, due: Instant) -> std::io::Result<()> {
        let root = self.plan.roots[self.rng.next_below(self.plan.roots.len() as u64) as usize];
        self.send_line(&format!("{{\"cmd\":\"query\",\"root\":{root}}}"))?;
        let sent = Instant::now();
        if matches!(self.plan.mode, Mode::Open { .. }) {
            let lag = sent.saturating_duration_since(due);
            self.out.lag_ms.push(lag.as_secs_f64() * 1e3);
        }
        self.out.sent += 1;
        self.awaiting_ack.push_back(Sent::Query { root, due, sent });
        Ok(())
    }

    fn send_update(&mut self) -> std::io::Result<()> {
        let n = self.plan.num_vertices;
        let edges: Vec<Edge> = (0..UPDATE_EDGES)
            .map(|_| Edge::new(self.rng.next_below(n), self.rng.next_below(n)))
            .collect();
        let pairs: Vec<String> = edges.iter().map(|e| format!("[{},{}]", e.u, e.v)).collect();
        self.send_line(&format!(
            "{{\"cmd\":\"update\",\"edges\":[{}]}}",
            pairs.join(",")
        ))?;
        self.out.updates_sent += 1;
        self.awaiting_ack.push_back(Sent::Update {
            edges,
            sent: Instant::now(),
        });
        Ok(())
    }

    /// Wait up to `wait` for bytes, then handle every complete line.
    fn read_replies(&mut self, wait: Duration) -> std::io::Result<()> {
        self.stream.set_read_timeout(Some(wait))?;
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        let now = Instant::now();
        let mut start = 0;
        while let Some(len) = self.inbuf[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.inbuf[start..start + len]).into_owned();
            start += len + 1;
            self.handle_line(&line, now);
        }
        self.inbuf.drain(..start);
        Ok(())
    }

    fn handle_line(&mut self, line: &str, now: Instant) {
        let Ok(reply) = JsonValue::parse(line) else {
            self.out.malformed += 1;
            return;
        };
        let kind = reply.get("reply").and_then(JsonValue::as_str).unwrap_or("");
        let num = |key: &str| reply.get(key).and_then(JsonValue::as_u64);
        match kind {
            "accepted" | "rejected" => {
                let Some(Sent::Query { root, due, sent }) = self.awaiting_ack.pop_front() else {
                    self.out.malformed += 1;
                    return;
                };
                if num("root") != Some(root) {
                    self.out.malformed += 1;
                } else if kind == "rejected" {
                    self.out.rejected += 1;
                } else if let Some(id) = num("id") {
                    let ack = now;
                    self.in_flight.insert(
                        id,
                        InFlight {
                            root,
                            due,
                            sent,
                            ack,
                        },
                    );
                } else {
                    self.out.malformed += 1;
                }
            }
            "result" => {
                let Some(q) = num("id").and_then(|id| self.in_flight.remove(&id)) else {
                    self.out.unexpected += 1;
                    return;
                };
                let histogram = reply
                    .get("depth_histogram")
                    .and_then(JsonValue::as_array)
                    .map(|a| a.iter().filter_map(JsonValue::as_u64).collect());
                let status = reply.get("status").and_then(JsonValue::as_str);
                let (Some(depth_histogram), Some(status), Some(visited), Some(epoch)) =
                    (histogram, status, num("visited"), num("epoch"))
                else {
                    self.out.malformed += 1;
                    return;
                };
                if num("root") != Some(q.root) {
                    self.out.malformed += 1;
                    return;
                }
                let tr = self.plan.tracer;
                let op = (self.plan.conn as u64) << 32 | self.out.answered.len() as u64;
                let span = tr.record("client::query", ROOT, op, q.due, now);
                tr.record("client::send", span, op, q.due, q.sent);
                tr.record("client::ack", span, op, q.sent, q.ack);
                tr.record("client::result", span, op, q.ack, now);
                self.out.answered.push(Answered {
                    root: q.root,
                    due_s: self.secs(q.due),
                    sent_s: self.secs(q.sent),
                    ack_s: self.secs(q.ack),
                    done_s: self.secs(now),
                    status: status.to_string(),
                    visited,
                    depth_histogram,
                    epoch,
                });
            }
            "committed" | "update_rejected" => {
                let Some(Sent::Update { edges, sent }) = self.awaiting_ack.pop_front() else {
                    self.out.malformed += 1;
                    return;
                };
                let epoch = if kind == "committed" {
                    num("epoch")
                } else {
                    None
                };
                let op = (self.plan.conn as u64) << 32 | 1 << 31 | self.out.updates.len() as u64;
                self.plan
                    .tracer
                    .record("client::update", ROOT, op, sent, now);
                self.out.updates.push(Update {
                    edges,
                    sent_s: self.secs(sent),
                    done_s: self.secs(now),
                    epoch,
                });
            }
            _ => self.out.malformed += 1,
        }
    }
}
