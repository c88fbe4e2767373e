//! The wire client: a blocking line-protocol client ([`LineClient`])
//! and the closed-duration open-loop load generator built beside it.
//!
//! [`run_loadgen`] opens N connections and offers a configured total
//! queries/sec for a configured duration, then settles (waits for every
//! outstanding reply for as long as replies keep arriving), closes its
//! connections, and folds what it saw into a [`LoadgenReport`] —
//! accepted/rejected counts, rejection classes, backoff-hint coverage,
//! and p50/p99/p999 end-to-end latency. The report renders as the
//! `serve_load` section of the metrics JSON (`docs/METRICS.md`);
//! [`run_soak`](crate::soak::run_soak) embeds it in every soak profile.
//!
//! Clients honor the server's `retry_after_ticks` backoff hints: a
//! rejection that carries one is re-offered after the hinted wait (up
//! to [`LoadgenConfig::retry_max`] attempts) instead of being counted
//! terminal on first sight, which is how a well-behaved client rides
//! out a quarantined service.
//!
//! Accounting invariants the overload tests pin:
//!
//! * every offered query is acknowledged exactly once (`unacked == 0`),
//! * every accepted query gets exactly one result
//!   (`lost_replies == 0`, `duplicate_replies == 0`),
//! * a reply line is never malformed (`protocol_errors == 0`).

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sunbfs_common::{json_record, JsonValue, SplitMix64};

/// Extra wall time after the offered-load window in which pending
/// retries are still drained before the run settles.
const RETRY_GRACE: Duration = Duration::from_secs(2);

/// A blocking client of the line protocol: one JSON request or reply
/// per line. The soak driver's side connections and the serve tests
/// talk to the server through it.
pub struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineClient {
    /// Connect; every [`recv`](Self::recv) waits at most `deadline`.
    ///
    /// # Errors
    /// The connect / socket-option errors of the underlying stream.
    pub fn connect(addr: impl ToSocketAddrs, deadline: Duration) -> io::Result<LineClient> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(deadline))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(LineClient { writer, reader })
    }

    /// Write one request line (the newline is added here).
    ///
    /// # Errors
    /// The socket's write error.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// The next non-blank reply line, parsed.
    ///
    /// # Errors
    /// `UnexpectedEof` when the server closed the connection, the
    /// socket's timeout error when the deadline passed first, and
    /// `InvalidData` for a line that is not JSON.
    pub fn recv(&mut self) -> io::Result<JsonValue> {
        read_reply(&mut self.reader)
    }
}

/// The next non-blank line of `reader`, parsed (errors as
/// [`LineClient::recv`] documents them).
fn read_reply(reader: &mut BufReader<TcpStream>) -> io::Result<JsonValue> {
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        if !line.trim().is_empty() {
            return JsonValue::parse(line.trim())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
        }
    }
}

/// What a client must know about the server it drives.
/// [`run_soak`](crate::soak::run_soak) reads all three off the server it
/// started; only an external server has to be described by hand.
#[derive(Clone, Debug)]
pub struct Target {
    /// Server address, e.g. `127.0.0.1:4700`.
    pub addr: String,
    /// Vertices of the served graph: roots and update endpoints are
    /// drawn uniformly from `[0, root_max)`.
    pub root_max: u64,
    /// Wall-clock length of one idle server tick
    /// (`NetConfig::tick_interval`), which turns a `retry_after_ticks`
    /// hint into a backoff sleep.
    pub tick: Duration,
}

/// The load one run offers.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Connections to open; offered load is split evenly across them.
    pub connections: usize,
    /// Total offered queries/sec across all connections.
    pub qps: u64,
    /// How long to offer load.
    pub duration: Duration,
    /// Deterministic root sequence seed.
    pub seed: u64,
    /// How long the run waits *without a single reply arriving* before
    /// it gives up on the replies still outstanding.
    pub settle_timeout: Duration,
    /// Attach this deadline budget to every offered query.
    pub deadline_ticks: Option<u32>,
    /// Times a rejected query carrying a `retry_after_ticks` hint is
    /// re-offered before the rejection counts as terminal (0 = never
    /// retry).
    pub retry_max: u32,
    /// Interleave one `{"cmd":"update",...}` edge-insert batch into the
    /// paced query stream every N queries per connection (0 = never,
    /// the read-only behavior). Update replies use their own distinct
    /// shapes (`committed` / `update_rejected`), so interleaving them
    /// never perturbs the query-offer accounting invariants.
    pub update_every: u64,
    /// Edges per interleaved update batch (drawn off the same seeded
    /// stream as the roots).
    pub update_batch: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            connections: 4,
            qps: 200,
            duration: Duration::from_secs(3),
            seed: 42,
            settle_timeout: Duration::from_secs(30),
            deadline_ticks: None,
            retry_max: 0,
            update_every: 0,
            update_batch: 4,
        }
    }
}

json_record! {
    /// End-to-end latency distribution (accepted → result), milliseconds.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct LatencySummary {
        /// Samples (== queries that went accepted → result).
        pub count: u64,
        /// Fastest sample.
        pub min_ms: f64,
        /// Arithmetic mean.
        pub mean_ms: f64,
        /// Median.
        pub p50_ms: f64,
        /// 99th percentile.
        pub p99_ms: f64,
        /// 99.9th percentile.
        pub p999_ms: f64,
        /// Slowest sample.
        pub max_ms: f64,
    }
}

impl LatencySummary {
    fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
        let n = samples.len();
        let pct = |q: f64| {
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            samples[idx]
        };
        LatencySummary {
            count: n as u64,
            min_ms: samples[0],
            mean_ms: samples.iter().sum::<f64>() / n as f64,
            p50_ms: pct(0.50),
            p99_ms: pct(0.99),
            p999_ms: pct(0.999),
            max_ms: samples[n - 1],
        }
    }
}

json_record! {
    /// What one load run saw, end to end. Renders as the `serve_load`
    /// JSON section.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct LoadgenReport {
        /// Connections opened.
        pub connections: u64,
        /// Configured total offered queries/sec.
        pub target_qps: u64,
        /// Configured offered-load window, seconds.
        pub duration_s: f64,
        /// Observed wall time of the whole run (offer + settle), seconds.
        pub elapsed_s: f64,
        /// Query lines actually written.
        pub offered: u64,
        /// `offered / duration_s`.
        pub offered_qps: f64,
        /// Queries the server admitted.
        pub accepted: u64,
        /// `accepted / duration_s`.
        pub accepted_qps: f64,
        /// Rejections with reason `queue_full`.
        pub rejected_full: u64,
        /// Rejections with reason `client_backlog`.
        pub rejected_backlog: u64,
        /// Rejections with reason `shutting_down`.
        pub rejected_shutdown: u64,
        /// Rejections with reason `service_degraded` (the health breaker).
        pub rejected_degraded: u64,
        /// Rejections with any other reason (e.g. `invalid_root`).
        pub rejected_other: u64,
        /// Rejections that carried a non-null `retry_after_ticks` hint.
        pub rejects_with_hint: u64,
        /// Every rejection reply seen, terminal or retried (the terminal
        /// `rejected_*` classes exclude retried ones when retry is on).
        pub rejections_seen: u64,
        /// Rejected offers re-sent after honoring their backoff hint.
        pub retried: u64,
        /// Retried offers the server eventually accepted.
        pub retry_successes: u64,
        /// Retries still waiting out their backoff when the run ended
        /// (terminal: they were never re-offered).
        pub retries_abandoned: u64,
        /// Results with status `served`.
        pub served: u64,
        /// Results with status `quarantined`.
        pub quarantined: u64,
        /// Results with status `deadline_exceeded`.
        pub deadline_exceeded: u64,
        /// Of the served results, ones that rode per-root fallback
        /// (salvaged from a degraded batch).
        pub salvaged: u64,
        /// Accepted queries that never got a result — must be 0.
        pub lost_replies: u64,
        /// Offered queries never acknowledged at all — must be 0.
        pub unacked: u64,
        /// Results for ids not awaiting one — must be 0.
        pub duplicate_replies: u64,
        /// Error replies or unparseable reply lines — must be 0.
        pub protocol_errors: u64,
        /// Query lines that failed to write.
        pub write_errors: u64,
        /// `{"cmd":"update"}` batches written into the paced stream.
        pub updates_offered: u64,
        /// Update batches the server committed (`reply":"committed"`).
        pub updates_committed: u64,
        /// Edges across all committed batches (the server's own count).
        pub update_edges: u64,
        /// Update batches refused with `update_rejected`.
        pub updates_rejected: u64,
        /// Epoch values (on `committed` and `result` replies) that went
        /// *backwards* on a connection — the torn-read proxy; must be 0.
        pub epoch_regressions: u64,
        /// Highest epoch observed on any reply.
        pub final_epoch: u64,
        /// End-to-end accepted→result latency distribution.
        pub latency: LatencySummary,
    }
}

impl LoadgenReport {
    /// True when every accounting invariant held: nothing lost,
    /// nothing duplicated, nothing malformed, nothing unacknowledged.
    pub fn clean(&self) -> bool {
        self.lost_replies == 0
            && self.duplicate_replies == 0
            && self.protocol_errors == 0
            && self.unacked == 0
            && self.write_errors == 0
            && self.epoch_regressions == 0
    }
}

/// One offered query: awaiting its accepted/rejected acknowledgment in
/// the ack FIFO, or rejected and waiting out its backoff hint in the
/// retry queue.
struct Offer {
    root: u64,
    /// Retries already spent on this root (0 = first offer).
    attempts: u32,
    /// When it was sent (ack FIFO) or is due for re-sending (retry queue).
    at: Instant,
}

/// Send times and in-flight ids shared between one connection's sender
/// and receiver. Replies to one connection arrive in submission order
/// for the accepted/rejected acknowledgment (the service thread is a
/// single serialized stream), so a FIFO of send timestamps matches
/// acks to offers; results carry ids and match through the map. The
/// retry queue flows the other way: the receiver parks rejected offers
/// whose hint it honors, the sender re-offers them when due.
#[derive(Default)]
struct ConnShared {
    /// Offers awaiting accepted/rejected, in send order.
    awaiting_ack: Mutex<VecDeque<Offer>>,
    /// Accepted id → send instant, awaiting its result.
    awaiting_result: Mutex<HashMap<u64, Instant>>,
    /// Rejected offers waiting out their backoff before re-sending.
    retry_queue: Mutex<VecDeque<Offer>>,
}

impl ConnShared {
    /// `(unacknowledged offers, accepted queries without a result)`.
    fn outstanding(&self) -> (usize, usize) {
        (
            lock(&self.awaiting_ack).len(),
            lock(&self.awaiting_result).len(),
        )
    }
}

/// What every connection of one run tallies into: the report's
/// counters directly, plus the raw latency samples behind its summary.
#[derive(Default)]
struct Tally {
    report: LoadgenReport,
    latency_ms: Vec<f64>,
}

/// Lock a mutex of this module. None is ever held across a call that
/// can panic, so poisoning means a load thread already died of a bug.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a loadgen thread panicked holding this lock")
}

/// Fold one stamped epoch into the monotonicity check: a reply carrying
/// an epoch older than one already observed on its connection (`last`)
/// means the snapshot went backwards (a torn read — impossible while
/// commits serialize on the service thread).
fn observe_epoch(report: &mut LoadgenReport, last: &mut u64, epoch: u64) {
    if epoch < *last {
        report.epoch_regressions += 1;
    }
    *last = (*last).max(epoch);
    report.final_epoch = report.final_epoch.max(epoch);
}

/// Render one update line: a batch of edge inserts drawn from the
/// seeded stream, e.g. `{"cmd":"update","edges":[[3,9],[0,5]]}`.
fn update_line(rng: &mut SplitMix64, batch: usize, root_max: u64) -> String {
    let n = root_max.max(2);
    let edges: Vec<String> = (0..batch.max(1))
        .map(|_| format!("[{},{}]", rng.next_below(n), rng.next_below(n)))
        .collect();
    format!("{{\"cmd\":\"update\",\"edges\":[{}]}}\n", edges.join(","))
}

/// Render one query line, with the configured deadline budget if any.
fn query_line(root: u64, deadline_ticks: Option<u32>) -> String {
    match deadline_ticks {
        Some(d) => format!("{{\"cmd\":\"query\",\"root\":{root},\"deadline_ticks\":{d}}}\n"),
        None => format!("{{\"cmd\":\"query\",\"root\":{root}}}\n"),
    }
}

/// Offer one root: record it in the ack FIFO, then write the line.
/// Recording first means the receiver can never see the ack while the
/// FIFO is still empty. Returns false on a write error (offer undone).
fn offer_root(
    stream: &mut TcpStream,
    shared: &ConnShared,
    root: u64,
    attempts: u32,
    deadline_ticks: Option<u32>,
) -> bool {
    let line = query_line(root, deadline_ticks);
    lock(&shared.awaiting_ack).push_back(Offer {
        root,
        attempts,
        at: Instant::now(),
    });
    if stream.write_all(line.as_bytes()).is_err() {
        lock(&shared.awaiting_ack).pop_back();
        return false;
    }
    true
}

/// Re-offer every due retry. Returns false on a write error.
fn drain_due_retries(stream: &mut TcpStream, shared: &ConnShared, offered: &mut u64) -> bool {
    loop {
        let item = {
            let mut q = lock(&shared.retry_queue);
            match q.front() {
                Some(r) if r.at <= Instant::now() => q.pop_front(),
                _ => None,
            }
        };
        let Some(r) = item else { return true };
        // Retries keep their original deadline-free shape: the query
        // already waited out a backoff, a fresh deadline would be
        // misleadingly generous and none at all matches a client that
        // still wants the answer.
        if !offer_root(stream, shared, r.root, r.attempts, None) {
            return false;
        }
        *offered += 1;
    }
}

/// Pace one connection's share of the offered load, add what was
/// written to the run's tally, and hand the socket back.
fn sender_loop(
    mut stream: TcpStream,
    shared: &ConnShared,
    tally: &Mutex<Tally>,
    mut rng: SplitMix64,
    root_max: u64,
    cfg: &LoadgenConfig,
) -> TcpStream {
    let interval = Duration::from_secs_f64(cfg.connections.max(1) as f64 / cfg.qps.max(1) as f64);
    let start = Instant::now();
    let mut offered = 0u64;
    let mut updates_offered = 0u64;
    let mut paced = 0u64;
    let mut alive = true;
    while alive && start.elapsed() < cfg.duration {
        alive = drain_due_retries(&mut stream, shared, &mut offered);
        // Interleave a live edge-insert batch into the paced stream.
        // Its reply shapes are distinct from the query offer/result
        // shapes, so the ack FIFO stays query-only.
        if alive && cfg.update_every > 0 && paced > 0 && paced.is_multiple_of(cfg.update_every) {
            let line = update_line(&mut rng, cfg.update_batch, root_max);
            alive = stream.write_all(line.as_bytes()).is_ok();
            updates_offered += u64::from(alive);
        }
        alive = alive
            && offer_root(
                &mut stream,
                shared,
                rng.next_below(root_max.max(1)),
                0,
                cfg.deadline_ticks,
            );
        if alive {
            offered += 1;
            paced += 1;
            let target = start + interval.mul_f64(paced as f64);
            std::thread::sleep(target.saturating_duration_since(Instant::now()));
        }
    }
    // Post-window retry drain: rejected offers still waiting out their
    // backoff get their re-send before the run settles. Bounded by the
    // grace window — retries are capped per offer, so this terminates.
    let grace_deadline = Instant::now() + RETRY_GRACE;
    while alive && cfg.retry_max > 0 {
        alive = drain_due_retries(&mut stream, shared, &mut offered);
        let idle = lock(&shared.retry_queue).is_empty() && shared.outstanding().0 == 0;
        if idle || Instant::now() >= grace_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // Flush whatever partial batch our last queries are sitting in.
    let _ = stream.write_all(b"{\"cmd\":\"drain\"}\n");
    let mut t = lock(tally);
    t.report.offered += offered;
    t.report.updates_offered += updates_offered;
    t.report.write_errors += u64::from(!alive);
    stream
}

/// Read one connection's replies until EOF, tallying each into the
/// run's shared report.
fn receiver_loop(
    stream: TcpStream,
    shared: &ConnShared,
    tally: &Mutex<Tally>,
    retry_max: u32,
    tick: Duration,
) {
    let mut reader = BufReader::new(stream);
    // Highest epoch this connection has seen on any stamped reply.
    let mut last_epoch = 0u64;
    loop {
        let reply = read_reply(&mut reader);
        let mut guard = lock(tally);
        let Tally { report, latency_ms } = &mut *guard;
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                report.protocol_errors += 1;
                continue;
            }
            Err(_) => break,
        };
        let num = |key: &str| reply.get(key).and_then(JsonValue::as_u64);
        let text = |key: &str| reply.get(key).and_then(JsonValue::as_str);
        match text("reply") {
            Some("accepted") => {
                let offer = lock(&shared.awaiting_ack).pop_front();
                match (offer, num("id")) {
                    (Some(offer), Some(id)) => {
                        lock(&shared.awaiting_result).insert(id, offer.at);
                        report.accepted += 1;
                        report.retry_successes += u64::from(offer.attempts > 0);
                    }
                    _ => report.protocol_errors += 1,
                }
            }
            Some("rejected") => {
                let Some(offer) = lock(&shared.awaiting_ack).pop_front() else {
                    report.protocol_errors += 1;
                    continue;
                };
                report.rejections_seen += 1;
                let hint = num("retry_after_ticks");
                report.rejects_with_hint += u64::from(hint.is_some());
                // Honor the backoff hint with bounded retry; only a
                // rejection we won't (or can't) retry is terminal.
                if let Some(ticks) = hint.filter(|_| offer.attempts < retry_max) {
                    report.retried += 1;
                    lock(&shared.retry_queue).push_back(Offer {
                        root: offer.root,
                        attempts: offer.attempts + 1,
                        at: Instant::now() + tick.mul_f64(ticks.max(1) as f64),
                    });
                    continue;
                }
                match text("reason") {
                    Some("queue_full") => report.rejected_full += 1,
                    Some("client_backlog") => report.rejected_backlog += 1,
                    Some("shutting_down") => report.rejected_shutdown += 1,
                    Some("service_degraded") => report.rejected_degraded += 1,
                    _ => report.rejected_other += 1,
                }
            }
            Some("result") => {
                let Some(id) = num("id") else {
                    report.protocol_errors += 1;
                    continue;
                };
                if let Some(epoch) = num("epoch") {
                    observe_epoch(report, &mut last_epoch, epoch);
                }
                let Some(t0) = lock(&shared.awaiting_result).remove(&id) else {
                    report.duplicate_replies += 1;
                    continue;
                };
                latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                match text("status") {
                    Some("served") => {
                        report.served += 1;
                        let fallback = reply.get("via_fallback").and_then(JsonValue::as_bool);
                        report.salvaged += u64::from(fallback == Some(true));
                    }
                    Some("deadline_exceeded") => report.deadline_exceeded += 1,
                    _ => report.quarantined += 1,
                }
            }
            // Update acknowledgments: distinct shapes by design, so
            // they never pop the query-offer FIFO.
            Some("committed") => {
                report.updates_committed += 1;
                report.update_edges += num("edges").unwrap_or_default();
                match num("epoch") {
                    Some(epoch) => observe_epoch(report, &mut last_epoch, epoch),
                    None => report.protocol_errors += 1,
                }
            }
            Some("update_rejected") => report.updates_rejected += 1,
            // Lifecycle acknowledgments, not per-query accounting.
            Some("drained" | "shutting_down" | "shutdown" | "stats" | "health") => {}
            Some(_) | None => report.protocol_errors += 1,
        }
    }
}

/// Drive one configured load run against a listening server.
///
/// # Errors
/// Connection setup errors; a run that connects always returns a
/// report (individual socket failures surface as its counters).
pub fn run_loadgen(target: &Target, cfg: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let started = Instant::now();
    let connections = cfg.connections.max(1);
    // One socket per connection, with a handle for each of its two
    // threads; the senders hand theirs back to end the run with.
    let mut streams = Vec::with_capacity(connections);
    for _ in 0..connections {
        let stream = TcpStream::connect(&target.addr)?;
        streams.push((stream.try_clone()?, stream));
    }
    let shareds: Vec<ConnShared> = (0..connections).map(|_| ConnShared::default()).collect();
    let tally = Mutex::new(Tally::default());
    let tick = target.tick.max(Duration::from_millis(1));

    let settle_end = std::thread::scope(|scope| {
        let (mut receivers, mut senders) = (Vec::new(), Vec::new());
        for (i, (read_half, write_half)) in streams.into_iter().enumerate() {
            let (shared, tally) = (&shareds[i], &tally);
            receivers.push(
                scope.spawn(move || receiver_loop(read_half, shared, tally, cfg.retry_max, tick)),
            );
            let rng = SplitMix64::new(cfg.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            senders.push(
                scope.spawn(move || {
                    sender_loop(write_half, shared, tally, rng, target.root_max, cfg)
                }),
            );
        }
        let streams: Vec<TcpStream> = senders
            .into_iter()
            .map(|s| s.join().expect("sender thread panicked"))
            .collect();

        // Settle: wait until every offer is acknowledged and every
        // accepted query has its result. The deadline is progress-based
        // — it runs out only after `settle_timeout` without a single
        // reply — so a server that is slow but still answering is never
        // booked as having lost what it had not sent yet.
        let mut last = (0, 0);
        let mut deadline = Instant::now();
        let settle_end = loop {
            let left = shareds
                .iter()
                .map(ConnShared::outstanding)
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
            if left == (0, 0) {
                break "every reply arrived";
            }
            if receivers.iter().all(|r| r.is_finished()) {
                break "the server closed every connection";
            }
            if left != last {
                last = left;
                deadline = Instant::now() + cfg.settle_timeout;
            } else if Instant::now() >= deadline {
                break "the settle timeout passed without a reply";
            }
            std::thread::sleep(Duration::from_millis(20));
        };

        // Closing the sockets ends the receivers (EOF).
        for s in &streams {
            let _ = s.shutdown(Shutdown::Both);
        }
        settle_end
    });

    let Tally {
        mut report,
        latency_ms,
    } = tally.into_inner().expect("load threads are joined");
    report.connections = connections as u64;
    report.target_qps = cfg.qps;
    report.duration_s = cfg.duration.as_secs_f64();
    for s in &shareds {
        let (unacked, unanswered) = s.outstanding();
        report.unacked += unacked as u64;
        report.lost_replies += unanswered as u64;
        report.retries_abandoned += lock(&s.retry_queue).len() as u64;
    }
    if report.unacked + report.lost_replies > 0 {
        eprintln!(
            "loadgen: {} offers unacknowledged and {} accepted queries unanswered when settling \
             ended because {settle_end} (settle timeout {:?})",
            report.unacked, report.lost_replies, cfg.settle_timeout
        );
        for (i, s) in shareds.iter().enumerate() {
            let mut ids: Vec<u64> = lock(&s.awaiting_result).keys().copied().collect();
            ids.sort_unstable();
            eprintln!(
                "loadgen:   connection {i}: {} unacknowledged, {} unanswered ids {:?}",
                s.outstanding().0,
                ids.len(),
                &ids[..ids.len().min(32)]
            );
        }
    }
    report.latency = LatencySummary::from_samples(latency_ms);
    report.elapsed_s = started.elapsed().as_secs_f64();
    let window = report.duration_s.max(1e-9);
    report.offered_qps = report.offered as f64 / window;
    report.accepted_qps = report.accepted as f64 / window;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_lines_carry_the_deadline_budget() {
        assert_eq!(query_line(7, None), "{\"cmd\":\"query\",\"root\":7}\n");
        assert_eq!(
            query_line(7, Some(3)),
            "{\"cmd\":\"query\",\"root\":7,\"deadline_ticks\":3}\n"
        );
    }

    #[test]
    fn update_lines_are_valid_update_requests() {
        let mut rng = SplitMix64::new(7);
        let line = update_line(&mut rng, 3, 64);
        let parsed = crate::proto::parse_request(line.trim()).expect("parses");
        match parsed {
            crate::proto::Request::Update { edges } => {
                assert_eq!(edges.len(), 3);
                assert!(edges.iter().all(|&(u, v)| u < 64 && v < 64));
            }
            other => panic!("expected an update request, got {other:?}"),
        }
    }

    #[test]
    fn epoch_regressions_count_backwards_stamps_and_gate_clean() {
        let (mut report, mut last) = (LoadgenReport::default(), 0);
        for e in [1, 2, 2, 5] {
            observe_epoch(&mut report, &mut last, e);
        }
        assert_eq!((report.epoch_regressions, last), (0, 5));
        observe_epoch(&mut report, &mut last, 3);
        assert_eq!((report.epoch_regressions, last), (1, 5));
        assert_eq!(report.final_epoch, 5);
        assert!(!report.clean(), "a torn read must fail the clean gate");
    }

    /// A server that acknowledges at once but answers one result per
    /// `gap`: slower than the settle timeout in total, never silent for
    /// that long. Returns how many queries it answered.
    fn trickling_server(listener: std::net::TcpListener, gap: Duration) -> u64 {
        let (stream, _) = listener.accept().expect("accept");
        let mut client = LineClient {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        };
        let mut accepted = 0u64;
        while let Ok(request) = client.recv() {
            match request.get("cmd").and_then(JsonValue::as_str) {
                Some("query") => {
                    let ack = format!("{{\"reply\":\"accepted\",\"id\":{accepted}}}");
                    client.send(&ack).expect("ack");
                    accepted += 1;
                }
                Some("drain") => break,
                other => panic!("unexpected request {other:?}"),
            }
        }
        for id in 0..accepted {
            std::thread::sleep(gap);
            let result = format!("{{\"reply\":\"result\",\"id\":{id},\"status\":\"served\"}}");
            client.send(&result).expect("result");
        }
        // Hold the connection until the client ends the run.
        let _ = client.recv();
        accepted
    }

    #[test]
    fn settle_outlives_a_slow_server_that_never_goes_silent() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let target = Target {
            addr: listener.local_addr().expect("addr").to_string(),
            root_max: 64,
            tick: Duration::from_millis(1),
        };
        let gap = Duration::from_millis(50);
        let settle_timeout = 5 * gap;
        let server = std::thread::spawn(move || trickling_server(listener, gap));
        let report = run_loadgen(
            &target,
            &LoadgenConfig {
                connections: 1,
                qps: 100,
                duration: Duration::from_millis(100),
                settle_timeout,
                ..LoadgenConfig::default()
            },
        )
        .expect("run");
        let answered = server.join().expect("server thread");
        assert!(
            gap * answered as u32 > settle_timeout,
            "the server must take longer than the settle timeout in total ({answered} results)"
        );
        assert_eq!(report.accepted, answered);
        assert_eq!(report.served, answered, "every trickled result counts");
        assert!(report.clean(), "nothing may be booked as lost: {report:?}");
    }
}
