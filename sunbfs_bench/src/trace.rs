//! Spans around the calls the harness makes into each layer.
//!
//! A span is (name, start, end, parent, op id). Spans stay in memory
//! and are written as NDJSON when the run ends. A layer's self time is
//! its span's length minus the part its child spans cover. With the
//! tracer off every call is a branch and nothing is recorded.
//!
//! Span names are `layer::call`; the part before `::` is the layer the
//! self time is charged to.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; [`ROOT`] means "no parent".
pub type SpanId = u32;

/// The parent of top-level spans.
pub const ROOT: SpanId = 0;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// The operation (traversal, query, update) the span belongs to;
    /// spans of one operation share it.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span; `f` receives the span's id to parent its
    /// own children on.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.enabled {
            return f(ROOT);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        self.push(id, name, parent, op, start, Instant::now());
        out
    }

    /// Record an interval that is not a call scope (a request in flight
    /// between two socket events); returns its id for children.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(id, name, parent, op, start, end);
        id
    }

    fn push(
        &self,
        id: SpanId,
        name: &'static str,
        parent: SpanId,
        op: u64,
        s: Instant,
        e: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
            .push(Span {
                id,
                parent,
                op,
                name,
                start_ns: ns(s),
                end_ns: ns(e),
            });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
            .clone()
    }
}

/// Self time of every span, seconds, in the order of `spans`: its
/// length minus the union of its children's intervals (children may run
/// in parallel threads and overlap, and are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: BTreeMap<SpanId, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e9
        })
        .collect()
}

/// The layer a span name is charged to: the part before `::`.
pub fn layer_of(name: &str) -> &str {
    name.split("::").next().unwrap_or(name)
}

/// Self time summed per layer, seconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(layer_of(s.name)).or_insert(0.0) += t;
    }
    out
}

/// One JSON object per span, one per line.
pub fn to_ndjson(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let spans = vec![
            span(1, ROOT, "harness::root", 0, 10_000_000_000),
            // Two overlapping children (parallel rank threads) and one apart.
            span(2, 1, "part::build_1p5d", 1_000_000_000, 4_000_000_000),
            span(3, 1, "part::build_1p5d", 2_000_000_000, 5_000_000_000),
            span(4, 1, "core::run_single", 6_000_000_000, 7_000_000_000),
            // A grandchild only shortens its own parent.
            span(5, 4, "net::exchange", 6_200_000_000, 6_700_000_000),
            // A child that overhangs its parent is clipped to it.
            span(6, 1, "store::save_file", 9_500_000_000, 12_000_000_000),
        ];
        let t = self_times(&spans);
        assert!((t[0] - 4.5).abs() < 1e-9, "{t:?}");
        assert!((t[1] - 3.0).abs() < 1e-9);
        assert!((t[3] - 0.5).abs() < 1e-9);
        assert!((t[4] - 0.5).abs() < 1e-9);
        let by = self_time_by_layer(&spans);
        assert!((by["harness"] - 4.5).abs() < 1e-9);
        assert!((by["part"] - 6.0).abs() < 1e-9);
        assert!((by["core"] - 0.5).abs() < 1e-9);
        assert!((by["net"] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn scopes_nest_and_share_the_op_id() {
        let tr = Tracer::new(true);
        let inner = tr.scope("harness::op", ROOT, 7, |op| {
            tr.scope("core::run_single", op, 7, |id| id)
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.id == inner).unwrap();
        let parent = spans.iter().find(|s| s.id == child.parent).unwrap();
        assert_eq!(parent.name, "harness::op");
        assert_eq!((child.op, parent.op), (7, 7));
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.scope("core::run_single", ROOT, 1, |id| id), ROOT);
        tr.record("client::ack", ROOT, 1, Instant::now(), Instant::now());
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn ndjson_has_one_parseable_line_per_span() {
        let text = to_ndjson(&[span(1, ROOT, "rmat::generate_chunk", 5, 9)]);
        assert_eq!(text.lines().count(), 1);
        let v = sunbfs::common::JsonValue::parse(text.trim()).unwrap();
        assert_eq!(
            v.get("name").and_then(|n| n.as_str()),
            Some("rmat::generate_chunk")
        );
        assert_eq!(v.get("end_ns").and_then(|n| n.as_u64()), Some(9));
    }
}
