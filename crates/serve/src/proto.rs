//! The newline-delimited-JSON wire protocol of the TCP server.
//!
//! One JSON object per line in each direction. Requests parse into a
//! typed [`Request`]; anything malformed parses into a typed
//! [`ProtoError`] instead of a stringly error, so tests can pin the
//! failure class. Replies are built here too — one serializer per reply
//! shape — so the bytes of a `result` line depend on its
//! [`QueryResult`] alone.
//!
//! Every reply carries a `"reply"` discriminator. Rejections carry the
//! admission reason plus an optional `retry_after_ticks` backoff hint
//! (see [`RejectReason::retry_after_ticks`]); error replies carry a
//! stable `kind` label after the human-readable `detail`.

use sunbfs_common::{JsonValue, ToJson};

use crate::report::ServeReport;
use crate::service::{HealthSnapshot, QueryResult, QueryStatus, RejectReason};
use crate::session::GraphSession;

/// Hard cap on one request line. A line that exceeds it is refused
/// with [`ProtoError::Oversized`] — and, over TCP, disconnected,
/// because the line framing can no longer be trusted.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// One parsed client request. The graph is not among them: the server
/// builds (or opens) it at startup, from its command line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Submit one root.
    Query {
        /// The requested BFS root.
        root: u64,
        /// Optional deadline budget: ticks the query may wait in the
        /// queue before eviction with a `deadline_exceeded` result.
        deadline_ticks: Option<u32>,
    },
    /// Submit many roots at once.
    Batch {
        /// The requested BFS roots, in submission order.
        roots: Vec<u64>,
        /// Optional deadline budget applied to every root in the batch.
        deadline_ticks: Option<u32>,
    },
    /// Commit one batched edge-insert against the live graph; the
    /// reply carries the new epoch.
    Update {
        /// Edges to insert, as `[u, v]` endpoint pairs.
        edges: Vec<(u64, u64)>,
    },
    /// Ask for the service's health state and transition history.
    Health,
    /// Ask for the full [`ServeReport`].
    Stats,
    /// Flush every pending query now.
    Drain,
    /// Graceful shutdown: stop accepting, drain in-flight, flush
    /// replies, exit.
    Shutdown,
}

/// Why a request line was refused, as a closed set of classes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The line exceeds [`MAX_REQUEST_BYTES`]. Fatal over TCP: the
    /// reader can no longer find the next line boundary safely.
    Oversized {
        /// Bytes seen before giving up (may undercount the line).
        bytes: usize,
        /// The configured cap.
        max: usize,
    },
    /// The line is not one well-formed JSON document.
    BadJson {
        /// The parser's message (byte offset of the offense).
        detail: String,
    },
    /// The object has no `"cmd"` string field.
    MissingCmd,
    /// The `"cmd"` names no known command.
    UnknownCmd {
        /// The unknown command verb.
        cmd: String,
    },
    /// A known command with a missing, mistyped, or out-of-range
    /// field. Mistyped knobs refuse the whole command — never a
    /// silent fall-back to the default value.
    BadRequest {
        /// What was wrong, naming the field.
        detail: String,
    },
}

impl ProtoError {
    /// Stable machine-readable class label (the reply's `kind`).
    pub fn label(&self) -> &'static str {
        match self {
            ProtoError::Oversized { .. } => "oversized",
            ProtoError::BadJson { .. } => "bad_json",
            ProtoError::MissingCmd => "missing_cmd",
            ProtoError::UnknownCmd { .. } => "unknown_cmd",
            ProtoError::BadRequest { .. } => "bad_request",
        }
    }

    /// True when the connection cannot continue after this error
    /// (framing is lost, so the peer must reconnect).
    pub fn is_fatal(&self) -> bool {
        matches!(self, ProtoError::Oversized { .. })
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Oversized { bytes, max } => {
                write!(
                    f,
                    "request line of {bytes}+ bytes exceeds the {max}-byte cap"
                )
            }
            ProtoError::BadJson { detail } => write!(f, "bad JSON: {detail}"),
            ProtoError::MissingCmd => write!(f, "missing \"cmd\" field"),
            ProtoError::UnknownCmd { cmd } => write!(f, "unknown cmd {cmd:?}"),
            ProtoError::BadRequest { detail } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Parse one request line into a typed [`Request`].
///
/// # Errors
/// A typed [`ProtoError`] naming the failure class.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    if line.len() > MAX_REQUEST_BYTES {
        return Err(ProtoError::Oversized {
            bytes: line.len(),
            max: MAX_REQUEST_BYTES,
        });
    }
    let cmd = JsonValue::parse(line).map_err(|detail| ProtoError::BadJson { detail })?;
    match cmd.get("cmd").and_then(JsonValue::as_str) {
        Some("query") => match cmd.get("root").and_then(JsonValue::as_u64) {
            Some(root) => Ok(Request::Query {
                root,
                deadline_ticks: deadline_knob(&cmd)?,
            }),
            None => Err(ProtoError::BadRequest {
                detail: "query needs a numeric \"root\"".into(),
            }),
        },
        Some("batch") => {
            let Some(items) = cmd.get("roots").and_then(JsonValue::as_array) else {
                return Err(ProtoError::BadRequest {
                    detail: "batch needs a \"roots\" array".into(),
                });
            };
            let mut roots = Vec::with_capacity(items.len());
            for v in items {
                match v.as_u64() {
                    Some(root) => roots.push(root),
                    None => {
                        return Err(ProtoError::BadRequest {
                            detail: format!("non-numeric root {}", v.render()),
                        })
                    }
                }
            }
            Ok(Request::Batch {
                roots,
                deadline_ticks: deadline_knob(&cmd)?,
            })
        }
        Some("update") => {
            let Some(items) = cmd.get("edges").and_then(JsonValue::as_array) else {
                return Err(ProtoError::BadRequest {
                    detail: "update needs an \"edges\" array of [u, v] pairs".into(),
                });
            };
            if items.is_empty() {
                return Err(ProtoError::BadRequest {
                    detail: "update \"edges\" must not be empty".into(),
                });
            }
            let mut edges = Vec::with_capacity(items.len());
            for v in items {
                let pair = v.as_array().and_then(|p| match p {
                    [u, w] => Some((u.as_u64()?, w.as_u64()?)),
                    _ => None,
                });
                match pair {
                    Some(e) => edges.push(e),
                    None => {
                        return Err(ProtoError::BadRequest {
                            detail: format!(
                                "update edge must be a [u, v] pair of unsigned \
                                 integers, got {}",
                                v.render()
                            ),
                        })
                    }
                }
            }
            Ok(Request::Update { edges })
        }
        Some("health") => Ok(Request::Health),
        Some("stats") => Ok(Request::Stats),
        Some("drain") => Ok(Request::Drain),
        Some("shutdown") => Ok(Request::Shutdown),
        Some(other) => Err(ProtoError::UnknownCmd { cmd: other.into() }),
        None => Err(ProtoError::MissingCmd),
    }
}

/// The optional `deadline_ticks` budget on a `query`/`batch`. Absent
/// means no deadline; present but mistyped or out of `u32` range is a
/// refusal, like every other knob.
fn deadline_knob(cmd: &JsonValue) -> Result<Option<u32>, ProtoError> {
    match cmd.get("deadline_ticks") {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) if n <= u64::from(u32::MAX) => Ok(Some(n as u32)),
            Some(n) => Err(ProtoError::BadRequest {
                detail: format!("\"deadline_ticks\" must fit in u32, got {n}"),
            }),
            None => Err(ProtoError::BadRequest {
                detail: format!(
                    "\"deadline_ticks\" must be an unsigned integer, got {}",
                    v.render()
                ),
            }),
        },
    }
}

/// A generic `{"reply":"error","detail":...,"kind":...}` refusal.
pub fn error_reply(detail: impl Into<String>, kind: &'static str) -> JsonValue {
    JsonValue::object()
        .field("reply", "error")
        .field("detail", detail.into())
        .field("kind", kind)
        .build()
}

/// The error reply for a typed protocol failure.
pub fn proto_error_reply(e: &ProtoError) -> JsonValue {
    error_reply(e.to_string(), e.label())
}

/// The acknowledgment for an admitted query.
pub fn accepted_reply(id: u64, root: u64, queue_depth: usize) -> JsonValue {
    JsonValue::object()
        .field("reply", "accepted")
        .field("id", id)
        .field("root", root)
        .field("queue_depth", queue_depth as u64)
        .build()
}

/// A rejection with an arbitrary reason label and an optional backoff
/// hint (the transport layers add reasons of their own — per-client
/// backlog caps, shutdown — on top of the service's [`RejectReason`]s).
pub fn rejected_reply(
    root: u64,
    reason: &str,
    detail: &str,
    retry_after_ticks: Option<u32>,
) -> JsonValue {
    JsonValue::object()
        .field("reply", "rejected")
        .field("root", root)
        .field("reason", reason)
        .field("detail", detail)
        .field("retry_after_ticks", retry_after_ticks)
        .build()
}

/// The rejection reply for a typed service-level [`RejectReason`],
/// surfacing its backoff hint when it has one.
pub fn rejection_reply(root: u64, reason: &RejectReason) -> JsonValue {
    rejected_reply(
        root,
        reason.label(),
        &reason.to_string(),
        reason.retry_after_ticks(),
    )
}

/// Render a completed query (histogram and parent handle length, not
/// the full parent array — trees at serving scale dwarf a reply line).
pub fn result_reply(r: &QueryResult) -> JsonValue {
    let mut o = JsonValue::object()
        .field("reply", "result")
        .field("id", r.id.0)
        .field("root", r.root)
        .field("batch_id", r.batch_id)
        .field("status", r.status.label())
        .field("visited", r.visited)
        .field(
            "depth_histogram",
            JsonValue::Array(
                r.depth_histogram
                    .iter()
                    .map(|&c| JsonValue::from(c))
                    .collect(),
            ),
        )
        .field(
            "parents_len",
            r.parents.as_ref().map_or(0, |p| p.len()) as u64,
        )
        .field("sim_latency_s", r.sim_latency_s)
        .field("via_fallback", r.via_fallback)
        .field("epoch", r.epoch);
    match &r.status {
        QueryStatus::Quarantined(q) => {
            o = o
                .field("quarantine", q.label)
                .field("detail", q.detail.clone());
        }
        QueryStatus::DeadlineExceeded {
            deadline_ticks,
            waited_ticks,
        } => {
            o = o
                .field("deadline_ticks", u64::from(*deadline_ticks))
                .field("waited_ticks", *waited_ticks);
        }
        QueryStatus::Served => {}
    }
    o.build()
}

/// The acknowledgment for a committed update batch: the epoch the
/// commit produced and the session's compaction count after it.
pub fn committed_reply(epoch: u64, edges: usize, compactions: u64) -> JsonValue {
    JsonValue::object()
        .field("reply", "committed")
        .field("epoch", epoch)
        .field("edges", edges as u64)
        .field("compactions", compactions)
        .build()
}

/// The refusal for an update that could not commit (service draining,
/// or the routing pass lost ranks). Deliberately *not* the `rejected`
/// reply shape — that one acknowledges a queued query offer, and
/// reusing it would corrupt client-side offer accounting.
pub fn update_rejected_reply(reason: &str, detail: &str) -> JsonValue {
    JsonValue::object()
        .field("reply", "update_rejected")
        .field("reason", reason)
        .field("detail", detail)
        .build()
}

/// The `health` reply: the `reply` tag, then the snapshot's fields —
/// current state, tick clock, per-class counters, and the full
/// transition history.
pub fn health_reply(h: &HealthSnapshot) -> JsonValue {
    let JsonValue::Object(mut fields) = h.to_json() else {
        unreachable!("a record renders as an object");
    };
    fields.insert(0, ("reply".to_string(), "health".into()));
    JsonValue::Object(fields)
}

/// The `stats` reply wrapping the full [`ServeReport`].
pub fn stats_reply(report: &ServeReport) -> JsonValue {
    JsonValue::object()
        .field("reply", "stats")
        .field("serve", report.to_json())
        .build()
}

/// The acknowledgment after a `drain`.
pub fn drained_reply(queue_depth: usize) -> JsonValue {
    JsonValue::object()
        .field("reply", "drained")
        .field("queue_depth", queue_depth as u64)
        .build()
}

/// What a load did — size, attempts, store activity — as
/// `bfs_server` nests it in its `listening` line.
pub fn loaded_reply(session: &GraphSession) -> JsonValue {
    let cfg = session.config();
    JsonValue::object()
        .field("reply", "loaded")
        .field("scale", u64::from(cfg.scale))
        .field("ranks", cfg.mesh.num_ranks() as u64)
        .field("vertices", session.num_vertices())
        .field("build_sim_seconds", session.build_sim_seconds)
        .field("load_sim_seconds", session.load_sim_seconds)
        .field("load_attempts", u64::from(session.load_attempts))
        .field("store", session.store.as_ref().map(ToJson::to_json))
        .build()
}

/// The immediate acknowledgment of a `shutdown` request (sent before
/// the drain starts; the final [`shutdown_reply`] follows it).
pub fn shutting_down_reply(queue_depth: usize) -> JsonValue {
    JsonValue::object()
        .field("reply", "shutting_down")
        .field("queue_depth", queue_depth as u64)
        .build()
}

/// The final reply of a graceful shutdown, after every in-flight query
/// has been drained and its result flushed.
pub fn shutdown_reply(drained: u64) -> JsonValue {
    JsonValue::object()
        .field("reply", "shutdown")
        .field("drained", drained)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ParentTree, QueryId};
    use std::sync::Arc;

    #[test]
    fn well_formed_requests_parse() {
        assert!(matches!(
            parse_request(r#"{"cmd":"query","root":7}"#),
            Ok(Request::Query {
                root: 7,
                deadline_ticks: None
            })
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"query","root":7,"deadline_ticks":4}"#),
            Ok(Request::Query {
                root: 7,
                deadline_ticks: Some(4)
            })
        ));
        match parse_request(r#"{"cmd":"batch","roots":[1,2,3],"deadline_ticks":0}"#) {
            Ok(Request::Batch {
                roots,
                deadline_ticks,
            }) => {
                assert_eq!(roots, vec![1, 2, 3]);
                assert_eq!(deadline_ticks, Some(0));
            }
            other => panic!("expected batch, got {other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"cmd":"health"}"#),
            Ok(Request::Health)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"stats"}"#),
            Ok(Request::Stats)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"drain"}"#),
            Ok(Request::Drain)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
    }

    #[test]
    fn update_requests_parse_and_refuse_typed() {
        match parse_request(r#"{"cmd":"update","edges":[[1,2],[3,4]]}"#) {
            Ok(Request::Update { edges }) => assert_eq!(edges, vec![(1, 2), (3, 4)]),
            other => panic!("expected update, got {other:?}"),
        }
        for (line, needle) in [
            (r#"{"cmd":"update"}"#, "\"edges\" array"),
            (r#"{"cmd":"update","edges":[]}"#, "must not be empty"),
            (r#"{"cmd":"update","edges":[[1]]}"#, "[u, v] pair"),
            (r#"{"cmd":"update","edges":[[1,2,3]]}"#, "[u, v] pair"),
            (r#"{"cmd":"update","edges":[[1,"2"]]}"#, "[u, v] pair"),
            (r#"{"cmd":"update","edges":[7]}"#, "[u, v] pair"),
        ] {
            match parse_request(line) {
                Err(ProtoError::BadRequest { detail }) => {
                    assert!(
                        detail.contains(needle),
                        "{line}: {detail:?} lacks {needle:?}"
                    )
                }
                other => panic!("{line} must be BadRequest, got {other:?}"),
            }
        }
    }

    #[test]
    fn update_replies_carry_epoch_and_a_distinct_shape() {
        let js = committed_reply(3, 16, 1).render();
        assert!(
            js.starts_with(r#"{"reply":"committed","epoch":3,"edges":16,"compactions":1"#),
            "got {js}"
        );
        let js = update_rejected_reply("draining", "shutdown in progress").render();
        assert!(
            js.starts_with(r#"{"reply":"update_rejected","reason":"draining""#),
            "got {js}"
        );
        // Never the query-offer rejection shape.
        assert!(!js.contains(r#""reply":"rejected""#), "got {js}");
    }

    #[test]
    fn malformed_lines_are_typed_bad_json() {
        for bad in ["", "not json", "{", r#"{"cmd":}"#] {
            match parse_request(bad) {
                Err(ProtoError::BadJson { .. }) => {}
                other => panic!("{bad:?} must be BadJson, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_and_missing_commands_are_typed() {
        match parse_request(r#"{"cmd":"zap"}"#) {
            Err(ProtoError::UnknownCmd { cmd }) => assert_eq!(cmd, "zap"),
            other => panic!("expected UnknownCmd, got {other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"root":1}"#),
            Err(ProtoError::MissingCmd)
        ));
        // A non-string cmd is "missing" — there is no verb to dispatch.
        assert!(matches!(
            parse_request(r#"{"cmd":3}"#),
            Err(ProtoError::MissingCmd)
        ));
    }

    #[test]
    fn oversized_lines_are_fatal() {
        let line = format!(
            r#"{{"cmd":"query","root":1,"pad":"{}"}}"#,
            "x".repeat(MAX_REQUEST_BYTES)
        );
        let err = parse_request(&line).expect_err("oversized must refuse");
        assert!(matches!(err, ProtoError::Oversized { .. }));
        assert!(err.is_fatal());
        assert_eq!(err.label(), "oversized");
        // Every other class keeps the connection usable.
        assert!(!ProtoError::MissingCmd.is_fatal());
    }

    #[test]
    fn bad_fields_refuse_the_whole_command() {
        for (line, needle) in [
            (r#"{"cmd":"query"}"#, "numeric \"root\""),
            (r#"{"cmd":"query","root":"5"}"#, "numeric \"root\""),
            (r#"{"cmd":"batch"}"#, "\"roots\" array"),
            (r#"{"cmd":"batch","roots":[1,"2"]}"#, "non-numeric root"),
            (
                r#"{"cmd":"query","root":1,"deadline_ticks":"4"}"#,
                "unsigned integer",
            ),
            (
                r#"{"cmd":"batch","roots":[1],"deadline_ticks":4294967296}"#,
                "must fit in u32",
            ),
        ] {
            match parse_request(line) {
                Err(ProtoError::BadRequest { detail }) => {
                    assert!(
                        detail.contains(needle),
                        "{line}: {detail:?} lacks {needle:?}"
                    )
                }
                other => panic!("{line} must be BadRequest, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejection_replies_carry_the_backoff_hint() {
        let full = RejectReason::QueueFull {
            capacity: 8,
            retry_after_ticks: 3,
        };
        let js = rejection_reply(5, &full).render();
        assert!(js.contains(r#""reason":"queue_full""#), "got {js}");
        assert!(js.contains(r#""retry_after_ticks":3"#), "got {js}");

        let invalid = RejectReason::InvalidRoot {
            root: 99,
            num_vertices: 64,
        };
        let js = rejection_reply(99, &invalid).render();
        assert!(js.contains(r#""reason":"invalid_root""#), "got {js}");
        assert!(js.contains(r#""retry_after_ticks":null"#), "got {js}");
    }

    #[test]
    fn reply_shapes_carry_their_discriminators() {
        assert!(accepted_reply(1, 2, 3)
            .render()
            .starts_with(r#"{"reply":"accepted","id":1,"root":2,"queue_depth":3"#));
        assert!(drained_reply(0)
            .render()
            .starts_with(r#"{"reply":"drained"#));
        assert!(shutting_down_reply(2)
            .render()
            .starts_with(r#"{"reply":"shutting_down","queue_depth":2"#));
        assert!(shutdown_reply(7)
            .render()
            .starts_with(r#"{"reply":"shutdown","drained":7"#));
        let err = proto_error_reply(&ProtoError::MissingCmd).render();
        assert!(
            err.starts_with(
                r#"{"reply":"error","detail":"missing \"cmd\" field","kind":"missing_cmd""#
            ),
            "got {err}"
        );
    }

    #[test]
    fn result_replies_render_status_and_quarantine_detail() {
        let served = QueryResult {
            id: QueryId(4),
            root: 9,
            batch_id: Some(1),
            status: QueryStatus::Served,
            parents: Some(ParentTree::new(Arc::new(vec![vec![0, 1]]), 1, 0)),
            depth_histogram: vec![1, 1],
            visited: 2,
            engine_traversed_edges: 3,
            sim_latency_s: 0.5,
            wall_latency_s: 0.1,
            via_fallback: false,
            epoch: 2,
        };
        let js = result_reply(&served).render();
        assert!(js.contains(r#""status":"served""#), "got {js}");
        assert!(js.contains(r#""epoch":2"#), "got {js}");
        assert!(js.contains(r#""parents_len":2"#), "got {js}");
        assert!(!js.contains("quarantine"), "got {js}");

        let mut bad = served;
        bad.status = QueryStatus::Quarantined(crate::Quarantine {
            label: "engine",
            detail: "boom".into(),
        });
        bad.parents = None;
        let js = result_reply(&bad).render();
        assert!(js.contains(r#""status":"quarantined""#), "got {js}");
        assert!(js.contains(r#""quarantine":"engine""#), "got {js}");
        assert!(js.contains(r#""detail":"boom""#), "got {js}");
    }

    #[test]
    fn deadline_exceeded_results_render_budget_and_wait() {
        let evicted = QueryResult {
            id: QueryId(11),
            root: 3,
            batch_id: None,
            status: QueryStatus::DeadlineExceeded {
                deadline_ticks: 2,
                waited_ticks: 3,
            },
            parents: None,
            depth_histogram: Vec::new(),
            visited: 0,
            engine_traversed_edges: 0,
            sim_latency_s: 0.0,
            wall_latency_s: 0.0,
            via_fallback: false,
            epoch: 0,
        };
        let js = result_reply(&evicted).render();
        assert!(js.contains(r#""status":"deadline_exceeded""#), "got {js}");
        assert!(js.contains(r#""batch_id":null"#), "got {js}");
        assert!(js.contains(r#""deadline_ticks":2"#), "got {js}");
        assert!(js.contains(r#""waited_ticks":3"#), "got {js}");
    }

    #[test]
    fn health_replies_carry_state_and_transitions() {
        let snap = HealthSnapshot {
            state: "recovering",
            ticks: 40,
            transitions: vec![crate::report::HealthTransition {
                from: "healthy",
                to: "degraded",
                at_tick: 12,
                reason: "batch 3 fell back".into(),
            }],
            queue_depth: 2,
            served: 10,
            quarantined: 1,
            deadline_exceeded: 2,
            rejected_degraded: 5,
        };
        let js = health_reply(&snap).render();
        assert!(
            js.starts_with(r#"{"reply":"health","state":"recovering""#),
            "got {js}"
        );
        assert!(js.contains(r#""ticks":40"#), "got {js}");
        assert!(js.contains(r#""rejected_degraded":5"#), "got {js}");
        assert!(js.contains(r#""from":"healthy""#), "got {js}");
        assert!(js.contains(r#""to":"degraded""#), "got {js}");
    }

    #[test]
    fn degraded_rejections_carry_state_and_hint() {
        let shed = RejectReason::ServiceDegraded {
            state: "quarantined",
            retry_after_ticks: 9,
        };
        let js = rejection_reply(5, &shed).render();
        assert!(js.contains(r#""reason":"service_degraded""#), "got {js}");
        assert!(js.contains(r#""retry_after_ticks":9"#), "got {js}");
        assert!(js.contains("quarantined"), "got {js}");
    }
}
