//! TCP transport tests: the robustness contract of `sunbfs_serve::net`.
//!
//! The acceptance bar (ISSUE 7): with offered load ≥ 2× what the
//! service admits, the server stays alive, rejections carry
//! `retry_after_ticks`, every accepted query gets exactly one reply,
//! and graceful shutdown drains all in-flight queries with no lost
//! replies. Plus the perimeter: connection caps, typed protocol
//! errors, idle-client deadlines, and per-connection in-flight caps.

use std::time::{Duration, Instant};

use sunbfs_common::JsonValue;
use sunbfs_serve::{run_loadgen, LineClient, LoadgenConfig, NetConfig, ServeConfig};

mod common;
use common::{connect, start, str_field, target};

fn reply_kind(v: &JsonValue) -> &str {
    str_field(v, "reply")
}

/// True when the server closed the connection (a `recv` that merely
/// timed out does not count).
fn closed(client: &mut LineClient) -> bool {
    use std::io::ErrorKind::{TimedOut, WouldBlock};
    matches!(client.recv(), Err(e) if !matches!(e.kind(), TimedOut | WouldBlock))
}

#[test]
fn roundtrip_query_stats_drain_and_shutdown_over_tcp() {
    let server = start(8, 4, ServeConfig::default(), NetConfig::default());
    let mut c = connect(&server);

    // flush_deadline 4 at a 10ms tick: the result follows the accepted
    // reply within a few clock ticks without an explicit drain.
    c.send(r#"{"cmd":"query","root":1}"#).unwrap();
    let accepted = c.recv().unwrap();
    assert_eq!(reply_kind(&accepted), "accepted");
    assert_eq!(accepted.get("root").and_then(JsonValue::as_u64), Some(1));
    let result = c.recv().unwrap();
    assert_eq!(reply_kind(&result), "result");
    assert_eq!(
        result.get("status").and_then(JsonValue::as_str),
        Some("served")
    );

    c.send(r#"{"cmd":"stats"}"#).unwrap();
    let stats = c.recv().unwrap();
    assert_eq!(reply_kind(&stats), "stats");
    assert_eq!(
        stats
            .get("serve")
            .and_then(|s| s.get("served"))
            .and_then(JsonValue::as_u64),
        Some(1)
    );

    // The graph is sized at startup: `load` is an unknown verb of the
    // wire, refused, and the connection goes on serving.
    c.send(r#"{"cmd":"load","scale":8}"#).unwrap();
    let err = c.recv().unwrap();
    assert_eq!(reply_kind(&err), "error");
    assert_eq!(
        err.get("kind").and_then(JsonValue::as_str),
        Some("unknown_cmd")
    );
    assert!(!str_field(&err, "detail").contains("stdin"), "got {err:?}");
    c.send(r#"{"cmd":"query","root":2}"#).unwrap();
    assert_eq!(reply_kind(&c.recv().unwrap()), "accepted");
    let result = c.recv().unwrap();
    assert_eq!(reply_kind(&result), "result");
    assert_eq!(str_field(&result, "status"), "served");

    c.send(r#"{"cmd":"shutdown"}"#).unwrap();
    assert_eq!(reply_kind(&c.recv().unwrap()), "shutting_down");
    assert_eq!(reply_kind(&c.recv().unwrap()), "shutdown");
    assert!(closed(&mut c), "server closes after shutdown");

    let (svc, summary) = server.join().expect_clean();
    assert_eq!(summary.connections, 1);
    assert_eq!(summary.accepted, 2);
    assert_eq!(summary.results_delivered, 2);
    assert_eq!(summary.results_dropped, 0);
    // The `load` line, like any unknown verb.
    assert_eq!(summary.protocol_errors, 1);
    assert_eq!(svc.report().served, 2);
}

/// The tentpole acceptance test: sustained offered load at least 2× the
/// admitted rate degrades into typed rejections with backoff hints —
/// never lost replies, never a dead server.
#[test]
fn overload_degrades_predictably_and_server_survives() {
    // The tick clock advances once per arriving request, so with the
    // flush deadline far beyond the queue capacity the pending queue
    // sits at capacity for most of each formation window — at most 8 of
    // every ~64 offered queries are admitted, and scale-13 batches take
    // tens of milliseconds in a debug build on top of that.
    let net_cfg = NetConfig {
        tick_interval: Duration::from_millis(5),
        ..NetConfig::default()
    };
    let server = start(
        13,
        4,
        ServeConfig {
            queue_capacity: 8,
            batch_max: 64,
            flush_deadline: 64,
            ..ServeConfig::default()
        },
        net_cfg,
    );
    let report = run_loadgen(
        &target(&server, 13, net_cfg),
        &LoadgenConfig {
            connections: 4,
            qps: 1000,
            duration: Duration::from_secs(2),
            seed: 7,
            settle_timeout: Duration::from_secs(60),
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen run");

    // Accounting invariants: exactly-once replies, nothing malformed.
    assert!(report.clean(), "invariants violated: {report:?}");
    assert_eq!(report.served + report.quarantined, report.accepted);
    assert_eq!(report.quarantined, 0);
    assert_eq!(report.latency.count, report.served);

    // Predictable degradation: ≥ 2× overload produced queue-full
    // rejections, and every one carried the backoff hint.
    assert!(
        report.offered >= 2 * report.accepted,
        "offered {} must be ≥ 2× accepted {}",
        report.offered,
        report.accepted
    );
    assert!(
        report.rejected_full > 0,
        "saturation must reject: {report:?}"
    );
    assert!(
        report.rejects_with_hint >= report.rejected_full + report.rejected_backlog,
        "queue_full/client_backlog rejections must carry retry_after_ticks: {report:?}"
    );
    assert!(report.latency.p50_ms <= report.latency.p99_ms);
    assert!(report.latency.p99_ms <= report.latency.p999_ms);

    // The server survived the storm: a fresh connection still serves.
    let mut c = connect(&server);
    c.send(r#"{"cmd":"query","root":1}"#).unwrap();
    assert_eq!(reply_kind(&c.recv().unwrap()), "accepted");
    let result = c.recv().unwrap();
    assert_eq!(reply_kind(&result), "result");
    assert_eq!(
        result.get("status").and_then(JsonValue::as_str),
        Some("served")
    );
    c.send(r#"{"cmd":"shutdown"}"#).unwrap();
    server.shutdown();
    let (_svc, summary) = server.join().expect_clean();
    assert_eq!(summary.results_dropped, 0, "no lost replies: {summary:?}");
    assert_eq!(summary.accepted, report.accepted + 1);
    assert_eq!(summary.results_delivered, report.served + 1);
    assert_eq!(summary.protocol_errors, 0);
}

#[test]
fn shutdown_drains_every_inflight_query_exactly_once() {
    // A far-away flush deadline: nothing flushes on its own, so the
    // five accepted queries are still pending when shutdown arrives.
    let server = start(
        8,
        4,
        ServeConfig {
            batch_max: 64,
            flush_deadline: 1_000_000,
            ..ServeConfig::default()
        },
        NetConfig::default(),
    );
    let mut c = connect(&server);
    for root in 1u64..=5 {
        c.send(&format!("{{\"cmd\":\"query\",\"root\":{root}}}"))
            .unwrap();
        assert_eq!(reply_kind(&c.recv().unwrap()), "accepted");
    }
    c.send(r#"{"cmd":"shutdown"}"#).unwrap();
    assert_eq!(reply_kind(&c.recv().unwrap()), "shutting_down");

    // Exactly the five results, then the final shutdown line, then EOF.
    let mut roots = Vec::new();
    for _ in 0..5 {
        let r = c.recv().unwrap();
        assert_eq!(reply_kind(&r), "result");
        assert_eq!(r.get("status").and_then(JsonValue::as_str), Some("served"));
        roots.push(r.get("root").and_then(JsonValue::as_u64).unwrap());
    }
    roots.sort_unstable();
    assert_eq!(roots, vec![1, 2, 3, 4, 5]);
    let bye = c.recv().unwrap();
    assert_eq!(reply_kind(&bye), "shutdown");
    assert_eq!(bye.get("drained").and_then(JsonValue::as_u64), Some(5));
    assert!(closed(&mut c), "no further replies after shutdown");

    let (svc, summary) = server.join().expect_clean();
    assert_eq!(summary.shutdown_drained, 5);
    assert_eq!(summary.results_delivered, 5);
    assert_eq!(summary.results_dropped, 0);
    assert_eq!(svc.report().current_queue_depth, 0);
}

/// The service thread joins every connection's writer before it
/// returns, so once `join` is back each socket already holds its
/// `shutdown` line and the close behind it: a read that refuses to wait
/// gets both. (In process the detached-writer race mostly hid behind
/// the accept thread's exit; ci.sh checks it where it bites, at process
/// exit.)
#[test]
fn farewell_is_on_every_socket_when_join_returns() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let server = start(8, 4, ServeConfig::default(), NetConfig::default());
    let addr = server.local_addr();
    // Three connections, none reading a whole reply before `join`: one
    // with a query in flight, one quiet, one that asks for the shutdown.
    let mut socks: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
    socks[0]
        .write_all(b"{\"cmd\":\"query\",\"root\":1}\n")
        .unwrap();
    // A connection is owed a farewell once the service thread has seen
    // its `Connected` event. The accept thread sends those in accept
    // order, so the first reply byte on the last two sockets proves all
    // three are registered before the shutdown is asked for.
    socks[1].write_all(b"{\"cmd\":\"health\"}\n").unwrap();
    socks[2].write_all(b"{\"cmd\":\"health\"}\n").unwrap();
    for s in &mut socks[1..] {
        let mut byte = [0u8; 1];
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        s.read_exact(&mut byte).unwrap();
    }
    socks[2].write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();

    let (_svc, summary) = server.join().expect_clean();
    assert_eq!(summary.connections, 3);
    for (i, s) in socks.iter_mut().enumerate() {
        s.set_nonblocking(true).unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text)
            .unwrap_or_else(|e| panic!("connection {i}: no EOF on the socket yet ({e})"));
        let last = text.lines().last().expect("at least the farewell");
        let bye = JsonValue::parse(last).expect("farewell is JSON");
        assert_eq!(reply_kind(&bye), "shutdown", "connection {i}: {text:?}");
    }
}

/// Replies leave in bursts (one write for everything buffered): 300
/// queries pipelined on one connection must still come back as 600
/// separate lines, each a complete JSON object (`recv` refuses anything
/// else), acks in send order, every query answered once.
#[test]
fn pipelined_replies_keep_their_framing_and_order() {
    const QUERIES: u64 = 300;
    let server = start(
        8,
        4,
        ServeConfig {
            queue_capacity: 512,
            flush_deadline: 64,
            ..ServeConfig::default()
        },
        NetConfig {
            inflight_cap: 512,
            ..NetConfig::default()
        },
    );
    let mut c = connect(&server);
    let root_of = |q: u64| (q * 7 + 3) % 256;
    for q in 0..QUERIES {
        c.send(&format!("{{\"cmd\":\"query\",\"root\":{}}}", root_of(q)))
            .unwrap();
    }
    c.send(r#"{"cmd":"drain"}"#).unwrap();

    let (mut acked, mut answered) = (Vec::new(), Vec::new());
    loop {
        let reply = c.recv().expect("a complete JSON line");
        let id = reply.get("id").and_then(JsonValue::as_u64);
        match reply_kind(&reply) {
            "accepted" => {
                let root = reply.get("root").and_then(JsonValue::as_u64);
                assert_eq!(
                    root,
                    Some(root_of(acked.len() as u64)),
                    "acks in send order"
                );
                acked.push(id.expect("an ack names its query"));
            }
            "result" => {
                assert_eq!(str_field(&reply, "status"), "served");
                answered.push(id.expect("a result names its query"));
            }
            "drained" => break,
            other => panic!("unexpected {other} reply: {}", reply.render()),
        }
    }
    assert_eq!(acked.len() as u64, QUERIES);
    assert!(acked.windows(2).all(|w| w[0] < w[1]), "tickets ascend");
    answered.sort_unstable();
    assert_eq!(answered, acked, "every query answered exactly once");

    server.shutdown();
    let (_svc, summary) = server.join().expect_clean();
    assert_eq!(summary.results_delivered, QUERIES);
    assert_eq!(summary.results_dropped, 0);
}

#[test]
fn connection_cap_refuses_excess_clients_with_a_typed_error() {
    let server = start(
        8,
        4,
        ServeConfig::default(),
        NetConfig {
            max_connections: 2,
            ..NetConfig::default()
        },
    );
    let mut c1 = connect(&server);
    let mut c2 = connect(&server);
    // A stats round-trip proves both connections are registered before
    // the third attempt arrives.
    for c in [&mut c1, &mut c2] {
        c.send(r#"{"cmd":"stats"}"#).unwrap();
        assert_eq!(reply_kind(&c.recv().unwrap()), "stats");
    }
    let mut c3 = connect(&server);
    let refusal = c3.recv().unwrap();
    assert_eq!(reply_kind(&refusal), "error");
    assert_eq!(
        refusal.get("kind").and_then(JsonValue::as_str),
        Some("refused")
    );
    assert!(closed(&mut c3), "refused connection is closed");

    // The registered clients are unaffected.
    c1.send(r#"{"cmd":"query","root":3}"#).unwrap();
    assert_eq!(reply_kind(&c1.recv().unwrap()), "accepted");
    assert_eq!(reply_kind(&c1.recv().unwrap()), "result");

    server.shutdown();
    let (_svc, summary) = server.join().expect_clean();
    assert_eq!(summary.connections, 2);
    assert_eq!(summary.refused_connections, 1);
}

#[test]
fn malformed_unknown_and_oversized_lines_get_typed_errors() {
    let server = start(8, 4, ServeConfig::default(), NetConfig::default());
    let mut c = connect(&server);

    c.send("this is not json").unwrap();
    let e = c.recv().unwrap();
    assert_eq!(reply_kind(&e), "error");
    assert_eq!(e.get("kind").and_then(JsonValue::as_str), Some("bad_json"));

    c.send(r#"{"cmd":"frobnicate"}"#).unwrap();
    let e = c.recv().unwrap();
    assert_eq!(
        e.get("kind").and_then(JsonValue::as_str),
        Some("unknown_cmd")
    );

    c.send(r#"{"cmd":"query","root":"seven"}"#).unwrap();
    let e = c.recv().unwrap();
    assert_eq!(
        e.get("kind").and_then(JsonValue::as_str),
        Some("bad_request")
    );

    // Recoverable errors leave the connection usable.
    c.send(r#"{"cmd":"query","root":7}"#).unwrap();
    assert_eq!(reply_kind(&c.recv().unwrap()), "accepted");
    assert_eq!(reply_kind(&c.recv().unwrap()), "result");

    // An oversized line loses framing: typed error, then disconnect.
    let huge = format!(
        "{{\"cmd\":\"query\",\"root\":1,\"pad\":\"{}\"}}",
        "x".repeat(sunbfs_serve::MAX_REQUEST_BYTES)
    );
    c.send(&huge).unwrap();
    let e = c.recv().unwrap();
    assert_eq!(reply_kind(&e), "error");
    assert_eq!(e.get("kind").and_then(JsonValue::as_str), Some("oversized"));
    assert!(closed(&mut c), "oversized sender is disconnected");

    // The server itself is unharmed: a new connection still serves.
    let mut c2 = connect(&server);
    c2.send(r#"{"cmd":"query","root":2}"#).unwrap();
    assert_eq!(reply_kind(&c2.recv().unwrap()), "accepted");
    assert_eq!(reply_kind(&c2.recv().unwrap()), "result");

    server.shutdown();
    let (_svc, summary) = server.join().expect_clean();
    assert_eq!(summary.protocol_errors, 4);
    assert_eq!(summary.results_dropped, 0);
}

#[test]
fn idle_clients_hit_the_read_deadline_and_are_disconnected() {
    let server = start(
        8,
        4,
        ServeConfig::default(),
        NetConfig {
            read_timeout: Duration::from_millis(200),
            ..NetConfig::default()
        },
    );
    let mut idle = connect(&server);
    let t0 = Instant::now();
    // Send nothing: the read deadline must cut us loose (EOF), long
    // before any test-harness timeout.
    assert!(closed(&mut idle), "idle connection must be closed");
    assert!(
        t0.elapsed() >= Duration::from_millis(150),
        "closed before the deadline could have fired"
    );
    assert!(t0.elapsed() < Duration::from_secs(30));

    // The engine never noticed: a live client still gets served.
    let mut live = connect(&server);
    live.send(r#"{"cmd":"query","root":5}"#).unwrap();
    assert_eq!(reply_kind(&live.recv().unwrap()), "accepted");
    assert_eq!(reply_kind(&live.recv().unwrap()), "result");
    server.shutdown();
    let (_svc, summary) = server.join().expect_clean();
    assert_eq!(summary.connections, 2);
}

#[test]
fn per_connection_inflight_cap_rejects_with_a_backoff_hint() {
    let server = start(
        8,
        4,
        ServeConfig {
            batch_max: 64,
            flush_deadline: 1_000_000,
            ..ServeConfig::default()
        },
        NetConfig {
            inflight_cap: 2,
            ..NetConfig::default()
        },
    );
    let mut c = connect(&server);
    c.send(r#"{"cmd":"query","root":1}"#).unwrap();
    assert_eq!(reply_kind(&c.recv().unwrap()), "accepted");
    c.send(r#"{"cmd":"query","root":2}"#).unwrap();
    assert_eq!(reply_kind(&c.recv().unwrap()), "accepted");

    // Two unanswered queries on this connection: the third is refused
    // for fairness even though the service queue itself has room.
    c.send(r#"{"cmd":"query","root":3}"#).unwrap();
    let rejected = c.recv().unwrap();
    assert_eq!(reply_kind(&rejected), "rejected");
    assert_eq!(
        rejected.get("reason").and_then(JsonValue::as_str),
        Some("client_backlog")
    );
    assert_eq!(
        rejected
            .get("retry_after_ticks")
            .and_then(JsonValue::as_u64),
        Some(1)
    );

    // Draining completes the two in-flight queries and frees the cap.
    c.send(r#"{"cmd":"drain"}"#).unwrap();
    assert_eq!(reply_kind(&c.recv().unwrap()), "result");
    assert_eq!(reply_kind(&c.recv().unwrap()), "result");
    assert_eq!(reply_kind(&c.recv().unwrap()), "drained");
    c.send(r#"{"cmd":"query","root":3}"#).unwrap();
    assert_eq!(reply_kind(&c.recv().unwrap()), "accepted");

    server.shutdown();
    let (_svc, summary) = server.join().expect_clean();
    assert_eq!(summary.rejected_backlog, 1);
    assert_eq!(summary.accepted, 3);
}
