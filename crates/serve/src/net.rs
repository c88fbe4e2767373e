//! The concurrent TCP transport for [`BfsService`].
//!
//! Topology: one nonblocking accept loop (hard connection limit), one
//! reader thread and one writer thread per connection, and **one**
//! service thread that owns the [`BfsService`] — every connection is
//! multiplexed onto the same deterministic `submit`/`tick`/`drain`
//! clock through a bounded event channel, so admission order (and
//! therefore batch formation) is a single serialized stream no matter
//! how many clients are connected.
//!
//! Robustness contract (`docs/SERVE.md`):
//!
//! * **Slow or dead clients never wedge the engine.** Readers run
//!   under a read deadline (an idle client is disconnected), writers
//!   under a write deadline, and the service thread only ever
//!   `try_send`s replies — a client whose reply buffer is full is
//!   disconnected, its results counted as dropped, and the tick loop
//!   moves on.
//! * **Overload degrades predictably.** Admission rejections carry the
//!   service's typed [`RejectReason`](crate::service::RejectReason)
//!   plus its `retry_after_ticks` hint; a per-connection in-flight cap
//!   (`client_backlog`) keeps one greedy client from monopolizing the
//!   queue; the bounded event channel applies natural TCP backpressure
//!   when readers outrun the service thread.
//! * **Graceful shutdown loses nothing.** A `shutdown` command (or
//!   [`TcpServer::shutdown`]) stops the accept loop, absorbs in-transit
//!   requests for a quiet-window grace period (rejecting new queries
//!   with `shutting_down`), drains every admitted query, flushes every
//!   reply, then sends each surviving connection a final
//!   `{"reply":"shutdown"}` and exits. Every accepted query gets
//!   exactly one reply.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sunbfs_common::{json_record, Edge, JsonValue};

use crate::proto::{self, ProtoError, Request, MAX_REQUEST_BYTES};
use crate::service::{BfsService, QueryResult, QueryStatus, RejectReason};

/// Events in flight between connections and the service thread. The
/// channel is bounded: readers block when the service falls behind,
/// which stalls their sockets — backpressure by TCP itself.
const EVENT_QUEUE: usize = 1024;

/// Per-connection reply buffer (lines); a full buffer marks the client
/// slow and disconnects it. Also the most lines one socket write
/// carries.
const REPLY_BUFFER: usize = 1024;

/// Transport knobs. [`ServeConfig`](crate::service::ServeConfig) governs
/// admission and batch formation; this governs everything socket-side.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Hard cap on simultaneously connected clients; connection
    /// attempts beyond it get one `refused` error line and a close.
    pub max_connections: usize,
    /// Per-connection cap on accepted-but-unanswered queries; beyond
    /// it submissions are rejected with reason `client_backlog`.
    pub inflight_cap: usize,
    /// Read deadline per connection: a client idle this long is
    /// considered dead and disconnected.
    pub read_timeout: Duration,
    /// Write deadline per connection: a client that stops consuming
    /// replies for this long is disconnected.
    pub write_timeout: Duration,
    /// Service-thread clock: one [`BfsService::tick`] fires whenever
    /// this long passes without an event.
    pub tick_interval: Duration,
    /// Shutdown quiet window: in-transit events are still absorbed
    /// until the channel has been silent this long.
    pub shutdown_grace: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 64,
            inflight_cap: 128,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
            tick_interval: Duration::from_millis(10),
            shutdown_grace: Duration::from_millis(200),
        }
    }
}

json_record! {
    /// What the transport saw over its lifetime, returned by
    /// [`TcpServer::join`] next to the service's own
    /// [`ServeReport`](crate::report::ServeReport).
    #[derive(Clone, Debug, Default)]
    pub struct NetSummary {
        /// Connections accepted (readers spawned).
        pub connections: u64,
        /// Connections refused at the `max_connections` cap.
        pub refused_connections: u64,
        /// Request lines received (well-formed or not).
        pub requests: u64,
        /// Lines refused with a typed [`ProtoError`].
        pub protocol_errors: u64,
        /// Queries admitted into the service queue.
        pub accepted: u64,
        /// Queries rejected by the service ([`RejectReason`](crate::service::RejectReason)).
        pub rejected: u64,
        /// Queries rejected at the per-connection in-flight cap.
        pub rejected_backlog: u64,
        /// Queries rejected because shutdown was already draining.
        pub rejected_shutdown: u64,
        /// Queries rejected by the health circuit breaker
        /// (`service_degraded`; also counted in `rejected`).
        pub rejected_degraded: u64,
        /// Results delivered to their connection's reply buffer.
        pub results_delivered: u64,
        /// Results whose connection was gone (or slow) at delivery time.
        pub results_dropped: u64,
        /// Of the routed results, queries that were served.
        pub results_served: u64,
        /// Of the routed results, queries quarantined after recovery.
        pub results_quarantined: u64,
        /// Of the routed results, queries evicted past their deadline.
        pub results_deadline_exceeded: u64,
        /// Queries still pending at shutdown that the final drain flushed.
        pub shutdown_drained: u64,
        /// Health transitions the service recorded over this lifetime.
        pub health_transitions: u64,
        /// Health state label at shutdown (empty when the service thread
        /// panicked before it could report).
        pub final_health: String,
        /// Update batches committed over the wire.
        pub updates_committed: u64,
        /// Edges across every committed wire update.
        pub update_edges: u64,
        /// Update requests refused (draining, out-of-range vertex, or a
        /// failed commit).
        pub updates_rejected: u64,
        /// Session epoch at shutdown (0 = the graph was never mutated).
        pub final_epoch: u64,
    }
}

/// Everything a connection or the listener can tell the service thread.
enum Event {
    /// A connection was accepted; `tx` is its reply buffer and `writer`
    /// the thread draining it onto the socket.
    Connected {
        conn: u64,
        tx: SyncSender<String>,
        writer: JoinHandle<()>,
    },
    /// One request line arrived (already parsed, maybe into an error).
    Request {
        conn: u64,
        parsed: Result<Request, ProtoError>,
    },
    /// The connection's reader exited (EOF, deadline, socket error).
    Disconnected { conn: u64 },
    /// [`TcpServer::shutdown`] wants a graceful exit.
    Stop,
}

#[derive(Default)]
struct AcceptCounters {
    connections: AtomicU64,
    refused: AtomicU64,
}

/// What [`TcpServer::join`] hands back. A panicked service or accept
/// thread is a *typed* outcome here — never a propagated panic — so
/// the caller can still emit a final shutdown summary line.
pub struct JoinOutcome {
    /// The service, when its thread returned cleanly (`None` when it
    /// panicked — the resident session died with it).
    pub service: Option<BfsService>,
    /// The transport summary. Connection counters are filled in even
    /// when the service thread panicked.
    pub summary: NetSummary,
    /// The service thread's panic payload, when it panicked.
    pub service_join_error: Option<String>,
    /// The accept thread's panic payload, when it panicked.
    pub accept_join_error: Option<String>,
}

impl JoinOutcome {
    /// True when any server thread panicked instead of exiting.
    pub fn panicked(&self) -> bool {
        self.service_join_error.is_some() || self.accept_join_error.is_some()
    }

    /// The clean `(service, summary)` pair, for callers (tests, mostly)
    /// that treat any thread panic as their own failure.
    ///
    /// # Panics
    /// When a server thread panicked.
    pub fn expect_clean(self) -> (BfsService, NetSummary) {
        if let Some(e) = &self.service_join_error {
            panic!("service thread panicked: {e}");
        }
        if let Some(e) = &self.accept_join_error {
            panic!("accept thread panicked: {e}");
        }
        let svc = self.service.expect("clean join always carries the service");
        (svc, self.summary)
    }
}

/// Render a `JoinHandle::join` panic payload as best we can.
fn panic_payload(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A running TCP server. Dropping it does **not** stop the threads —
/// call [`TcpServer::shutdown`] then [`TcpServer::join`] (or have a
/// client send `{"cmd":"shutdown"}` and just [`TcpServer::join`]).
pub struct TcpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    event_tx: SyncSender<Event>,
    counters: Arc<AcceptCounters>,
    accept_handle: JoinHandle<()>,
    service_handle: JoinHandle<(BfsService, NetSummary)>,
}

impl TcpServer {
    /// The bound address (use port 0 to let the OS pick).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Request a graceful shutdown: stop accepting, drain in-flight,
    /// flush replies. Returns immediately; [`TcpServer::join`] waits.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.event_tx.send(Event::Stop);
    }

    /// Wait for the server to finish (a `shutdown` command from a
    /// client, or a prior [`TcpServer::shutdown`] call) and return the
    /// typed [`JoinOutcome`]. A panicked service or accept thread shows
    /// up as a `*_join_error` string — never as a propagated panic — so
    /// the caller can still report connection counters and a final
    /// shutdown summary.
    pub fn join(self) -> JoinOutcome {
        let TcpServer {
            stop,
            event_tx,
            counters,
            accept_handle,
            service_handle,
            ..
        } = self;
        let (service, mut summary, service_join_error) = match service_handle.join() {
            Ok((svc, summary)) => (Some(svc), summary, None),
            Err(p) => (None, NetSummary::default(), Some(panic_payload(p))),
        };
        stop.store(true, Ordering::SeqCst);
        drop(event_tx);
        let accept_join_error = accept_handle.join().err().map(panic_payload);
        summary.connections = counters.connections.load(Ordering::SeqCst);
        summary.refused_connections = counters.refused.load(Ordering::SeqCst);
        JoinOutcome {
            service,
            summary,
            service_join_error,
            accept_join_error,
        }
    }
}

/// Bind `addr` and serve `service` over it until shutdown.
///
/// # Errors
/// The bind/configure errors of the underlying listener.
pub fn serve(service: BfsService, addr: &str, cfg: NetConfig) -> io::Result<TcpServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(AcceptCounters::default());
    let (event_tx, event_rx) = mpsc::sync_channel::<Event>(EVENT_QUEUE);

    let accept_handle = {
        let stop = Arc::clone(&stop);
        let counters = Arc::clone(&counters);
        let event_tx = event_tx.clone();
        std::thread::spawn(move || accept_loop(&listener, cfg, &stop, &event_tx, &counters))
    };
    let service_handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            ServiceLoop {
                svc: service,
                cfg,
                stop,
                conns: HashMap::new(),
                routes: HashMap::new(),
                retired_writers: Vec::new(),
                draining: false,
                summary: NetSummary::default(),
            }
            .run(&event_rx)
        })
    };
    Ok(TcpServer {
        local_addr,
        stop,
        event_tx,
        counters,
        accept_handle,
        service_handle,
    })
}

fn accept_loop(
    listener: &TcpListener,
    cfg: NetConfig,
    stop: &AtomicBool,
    event_tx: &SyncSender<Event>,
    counters: &AcceptCounters,
) {
    let live = Arc::new(AtomicUsize::new(0));
    let mut next_conn = 0u64;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                next_conn += 1;
                if live.load(Ordering::SeqCst) >= cfg.max_connections {
                    counters.refused.fetch_add(1, Ordering::SeqCst);
                    refuse(stream, cfg.max_connections);
                    continue;
                }
                counters.connections.fetch_add(1, Ordering::SeqCst);
                live.fetch_add(1, Ordering::SeqCst);
                if spawn_connection(stream, next_conn, cfg, event_tx, &live).is_err() {
                    live.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// One error line and a close for a connection beyond the cap.
fn refuse(mut stream: TcpStream, max: usize) {
    let line = proto::error_reply(format!("connection limit ({max}) reached"), "refused").render();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.shutdown(Shutdown::Both);
}

/// Set the deadlines and spawn the reader + writer pair.
fn spawn_connection(
    stream: TcpStream,
    conn: u64,
    cfg: NetConfig,
    event_tx: &SyncSender<Event>,
    live: &Arc<AtomicUsize>,
) -> io::Result<()> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(cfg.read_timeout))?;
    let write_half = stream.try_clone()?;
    write_half.set_write_timeout(Some(cfg.write_timeout))?;
    let (reply_tx, reply_rx) = mpsc::sync_channel::<String>(REPLY_BUFFER);
    // The service thread owns the writer's handle next to its sender:
    // it joins every writer before it returns, so the process cannot
    // exit ahead of a reply that was handed to one. (Should the send
    // fail the service is gone, the event drops both, and the writer
    // exits on its closed channel.)
    let writer = std::thread::spawn(move || writer_loop(write_half, &reply_rx));
    let connected = Event::Connected {
        conn,
        tx: reply_tx,
        writer,
    };
    event_tx
        .send(connected)
        .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "service thread gone"))?;
    let event_tx = event_tx.clone();
    let live = Arc::clone(live);
    std::thread::spawn(move || {
        reader_loop(stream, conn, &event_tx);
        let _ = event_tx.send(Event::Disconnected { conn });
        live.fetch_sub(1, Ordering::SeqCst);
    });
    Ok(())
}

/// Drain the reply buffer onto the socket, one write per burst: the
/// reply that woke the writer plus every further one already buffered
/// (at most [`REPLY_BUFFER`] lines, each with its newline), so the
/// acks and results of a batch leave in a few segments instead of two
/// syscalls per line. On exit (channel closed by the service thread, or the
/// write deadline fired) shut the socket down both ways, which also
/// unblocks this connection's reader.
fn writer_loop(mut stream: TcpStream, rx: &Receiver<String>) {
    let mut burst = String::new();
    while let Ok(first) = rx.recv() {
        burst.clear();
        for line in std::iter::once(first)
            .chain(rx.try_iter())
            .take(REPLY_BUFFER)
        {
            burst.push_str(&line);
            burst.push('\n');
        }
        if stream.write_all(burst.as_bytes()).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

enum LineRead {
    Line(String),
    Oversized(usize),
    Eof,
    /// Socket error — including the read deadline on an idle client.
    Dead,
}

/// Read one newline-terminated line without ever buffering more than
/// [`MAX_REQUEST_BYTES`] of it — a client streaming an endless line
/// cannot balloon server memory.
fn read_bounded_line(reader: &mut BufReader<TcpStream>) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (done, used) = {
            let available = match reader.fill_buf() {
                Ok(b) => b,
                Err(_) => return LineRead::Dead,
            };
            if available.is_empty() {
                return if buf.is_empty() {
                    LineRead::Eof
                } else {
                    // Final unterminated line before EOF still counts.
                    LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
                };
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    buf.extend_from_slice(&available[..i]);
                    (true, i + 1)
                }
                None => {
                    buf.extend_from_slice(available);
                    (false, available.len())
                }
            }
        };
        reader.consume(used);
        if buf.len() > MAX_REQUEST_BYTES {
            return LineRead::Oversized(buf.len());
        }
        if done {
            return LineRead::Line(String::from_utf8_lossy(&buf).into_owned());
        }
    }
}

fn reader_loop(stream: TcpStream, conn: u64, event_tx: &SyncSender<Event>) {
    let mut reader = BufReader::new(stream);
    loop {
        match read_bounded_line(&mut reader) {
            LineRead::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let parsed = proto::parse_request(&line);
                let fatal = parsed.as_ref().err().is_some_and(ProtoError::is_fatal);
                if event_tx.send(Event::Request { conn, parsed }).is_err() || fatal {
                    break;
                }
            }
            LineRead::Oversized(bytes) => {
                // Framing is lost — report the typed error, then drop
                // the connection.
                let _ = event_tx.send(Event::Request {
                    conn,
                    parsed: Err(ProtoError::Oversized {
                        bytes,
                        max: MAX_REQUEST_BYTES,
                    }),
                });
                break;
            }
            LineRead::Eof | LineRead::Dead => break,
        }
    }
}

struct ConnState {
    tx: SyncSender<String>,
    in_flight: usize,
    writer: JoinHandle<()>,
}

/// The single thread that owns the [`BfsService`] and its clock.
struct ServiceLoop {
    svc: BfsService,
    cfg: NetConfig,
    stop: Arc<AtomicBool>,
    conns: HashMap<u64, ConnState>,
    /// QueryId → connection, for routing results back.
    routes: HashMap<u64, u64>,
    /// Writers of connections already removed whose thread may still be
    /// inside a (deadline-bounded) socket write; joined at shutdown.
    retired_writers: Vec<JoinHandle<()>>,
    draining: bool,
    summary: NetSummary,
}

impl ServiceLoop {
    fn run(mut self, rx: &Receiver<Event>) -> (BfsService, NetSummary) {
        loop {
            match rx.recv_timeout(self.cfg.tick_interval) {
                Ok(Event::Stop) => break,
                Ok(ev) => {
                    if self.handle(ev) {
                        break;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    let done = self.svc.tick();
                    self.route(done);
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.shutdown(rx);
        (self.svc, self.summary)
    }

    /// Handle one event; `true` means a client asked for shutdown.
    fn handle(&mut self, ev: Event) -> bool {
        match ev {
            Event::Connected { conn, tx, writer } => {
                let state = ConnState {
                    tx,
                    in_flight: 0,
                    writer,
                };
                self.conns.insert(conn, state);
                false
            }
            Event::Disconnected { conn } => {
                self.remove_conn(conn);
                false
            }
            Event::Request { conn, parsed } => {
                self.summary.requests += 1;
                match parsed {
                    Ok(req) => self.handle_request(conn, req),
                    Err(e) => {
                        self.summary.protocol_errors += 1;
                        self.send(conn, &proto::proto_error_reply(&e));
                        false
                    }
                }
            }
            Event::Stop => true,
        }
    }

    fn handle_request(&mut self, conn: u64, req: Request) -> bool {
        match req {
            Request::Query {
                root,
                deadline_ticks,
            } => {
                self.submit_root(conn, root, deadline_ticks);
                let done = self.svc.tick();
                self.route(done);
                false
            }
            Request::Batch {
                roots,
                deadline_ticks,
            } => {
                for root in roots {
                    self.submit_root(conn, root, deadline_ticks);
                }
                let done = self.svc.tick();
                self.route(done);
                false
            }
            Request::Update { edges } => {
                self.handle_update(conn, &edges);
                false
            }
            Request::Health => {
                let reply = proto::health_reply(&self.svc.health_snapshot());
                self.send(conn, &reply);
                false
            }
            Request::Stats => {
                let reply = proto::stats_reply(&self.svc.report());
                self.send(conn, &reply);
                false
            }
            Request::Drain => {
                let done = self.svc.drain();
                self.route(done);
                let reply = proto::drained_reply(self.svc.queue_depth());
                self.send(conn, &reply);
                false
            }
            Request::Shutdown => {
                let reply = proto::shutting_down_reply(self.svc.queue_depth());
                self.send(conn, &reply);
                true
            }
        }
    }

    /// Commit one wire update batch, or refuse it with the distinct
    /// `update_rejected` reply (never the query-offer `rejected` shape,
    /// which would corrupt client-side offer accounting). Commits run
    /// here on the single service thread, between query batches —
    /// that serialization is the snapshot-consistency guarantee.
    fn handle_update(&mut self, conn: u64, edges: &[(u64, u64)]) {
        if self.draining {
            self.summary.updates_rejected += 1;
            let reply = proto::update_rejected_reply("draining", "server is draining for shutdown");
            self.send(conn, &reply);
            return;
        }
        let n = self.svc.session().num_vertices();
        if let Some(&(u, v)) = edges.iter().find(|&&(u, v)| u >= n || v >= n) {
            self.summary.updates_rejected += 1;
            let detail = format!("edge ({u}, {v}) outside vertex range [0, {n})");
            let reply = proto::update_rejected_reply("invalid_vertex", &detail);
            self.send(conn, &reply);
            return;
        }
        let batch: Vec<Edge> = edges.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        match self.svc.apply_updates(&batch) {
            Ok(epoch) => {
                self.summary.updates_committed += 1;
                self.summary.update_edges += batch.len() as u64;
                let reply =
                    proto::committed_reply(epoch, batch.len(), self.svc.session().compactions());
                self.send(conn, &reply);
            }
            Err(e) => {
                self.summary.updates_rejected += 1;
                let reply = proto::update_rejected_reply("commit_failed", &e.to_string());
                self.send(conn, &reply);
            }
        }
    }

    fn submit_root(&mut self, conn: u64, root: u64, deadline_ticks: Option<u32>) {
        if self.draining {
            self.summary.rejected_shutdown += 1;
            let reply = proto::rejected_reply(
                root,
                "shutting_down",
                "server is draining for shutdown",
                None,
            );
            self.send(conn, &reply);
            return;
        }
        let backlog = self.conns.get(&conn).map_or(0, |c| c.in_flight);
        if backlog >= self.cfg.inflight_cap {
            self.summary.rejected_backlog += 1;
            let detail = format!(
                "{backlog} queries in flight on this connection (cap {})",
                self.cfg.inflight_cap
            );
            let reply = proto::rejected_reply(root, "client_backlog", &detail, Some(1));
            self.send(conn, &reply);
            return;
        }
        match self.svc.submit_with_deadline(root, deadline_ticks) {
            Ok(id) => {
                self.summary.accepted += 1;
                if let Some(c) = self.conns.get_mut(&conn) {
                    c.in_flight += 1;
                }
                self.routes.insert(id.0, conn);
                let reply = proto::accepted_reply(id.0, root, self.svc.queue_depth());
                self.send(conn, &reply);
            }
            Err(reason) => {
                self.summary.rejected += 1;
                if matches!(reason, RejectReason::ServiceDegraded { .. }) {
                    self.summary.rejected_degraded += 1;
                }
                let reply = proto::rejection_reply(root, &reason);
                self.send(conn, &reply);
            }
        }
    }

    /// Deliver completed queries to whoever submitted them.
    fn route(&mut self, results: Vec<QueryResult>) {
        for r in results {
            match r.status {
                QueryStatus::Served => self.summary.results_served += 1,
                QueryStatus::Quarantined(_) => self.summary.results_quarantined += 1,
                QueryStatus::DeadlineExceeded { .. } => self.summary.results_deadline_exceeded += 1,
            }
            let Some(conn) = self.routes.remove(&r.id.0) else {
                self.summary.results_dropped += 1;
                continue;
            };
            if let Some(c) = self.conns.get_mut(&conn) {
                c.in_flight = c.in_flight.saturating_sub(1);
            }
            if self.send(conn, &proto::result_reply(&r)) {
                self.summary.results_delivered += 1;
            } else {
                self.summary.results_dropped += 1;
            }
        }
    }

    /// Non-blocking reply delivery. A full buffer means the writer is
    /// stuck behind its deadline on a slow client — disconnect it
    /// rather than ever blocking the service thread.
    fn send(&mut self, conn: u64, reply: &JsonValue) -> bool {
        let Some(c) = self.conns.get(&conn) else {
            return false;
        };
        match c.tx.try_send(reply.render()) {
            Ok(()) => true,
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.remove_conn(conn);
                false
            }
        }
    }

    /// Forget a connection: drop its reply sender, which ends its
    /// writer as soon as the writer is out of its current socket write,
    /// and keep the writer's handle for the join at shutdown. Joining
    /// here could stall the service thread behind a slow client's write
    /// deadline; writers that have already exited are reaped instead,
    /// so the list holds only threads still inside that deadline.
    fn remove_conn(&mut self, conn: u64) {
        if let Some(c) = self.conns.remove(&conn) {
            self.retired_writers.retain(|w| !w.is_finished());
            self.retired_writers.push(c.writer);
        }
    }

    /// Graceful exit: absorb in-transit events until the channel goes
    /// quiet (bounded by a hard deadline), drain every admitted query,
    /// deliver the results, and hand each survivor a final
    /// `{"reply":"shutdown"}` line.
    fn shutdown(&mut self, rx: &Receiver<Event>) {
        self.stop.store(true, Ordering::SeqCst);
        self.draining = true;
        let hard_deadline = Instant::now() + self.cfg.shutdown_grace * 10 + Duration::from_secs(1);
        while Instant::now() < hard_deadline {
            match rx.recv_timeout(self.cfg.shutdown_grace) {
                Ok(Event::Stop) => continue,
                Ok(ev) => {
                    self.handle(ev);
                }
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
            }
        }
        let done = self.svc.drain();
        self.summary.shutdown_drained = done.len() as u64;
        self.route(done);
        let snap = self.svc.health_snapshot();
        self.summary.health_transitions = snap.transitions.len() as u64;
        self.summary.final_health = snap.state.to_string();
        self.summary.final_epoch = self.svc.session().epoch();
        let farewell = proto::shutdown_reply(self.summary.shutdown_drained).render();
        // Dropping a reply sender lets its writer flush the buffer and
        // close the socket; joining the writers (each bounded by
        // `write_timeout`) means that by the time this thread returns —
        // and the process may exit — every farewell is on its socket.
        for (_, c) in self.conns.drain() {
            let _ = c.tx.try_send(farewell.clone());
            self.retired_writers.push(c.writer);
        }
        for writer in self.retired_writers.drain(..) {
            // A writer that panicked has nothing left to flush.
            let _ = writer.join();
        }
    }
}
