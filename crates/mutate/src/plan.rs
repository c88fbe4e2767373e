//! Seeded, fire-once update schedules (`SUNBFS_UPDATE_PLAN`).
//!
//! A plan is parsed once from a compact grammar and each event fires
//! exactly once — one atomic compare-exchange per event, on a flag
//! every clone shares — so a schedule threaded through a soak or a test
//! commits the same insert batches at the same points in the query
//! stream on every run. (`FaultPlan` in `sunbfs-net` is built
//! differently: one queue of pending events, consumed under a lock and
//! never cloned.)
//!
//! Grammar — `;`-separated events:
//!
//! ```text
//! seed@<u64>                     RNG seed for generated batches (default 42)
//! insert@<after_queries>:<edges> commit <edges> seeded inserts once
//!                                <after_queries> queries have been served
//! ```
//!
//! Example: `SUNBFS_UPDATE_PLAN="seed@7;insert@8:16;insert@32:64"`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sunbfs_common::{Edge, SplitMix64};

/// One scheduled insert batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateEvent {
    /// Fires once at least this many queries have been served.
    pub after_queries: u64,
    /// Edges in the generated batch.
    pub edges: u64,
}

/// A parsed, fire-once update schedule.
///
/// Cloning shares the fire state: an event fired through any clone
/// stays fired everywhere.
#[derive(Clone, Debug, Default)]
pub struct UpdatePlan {
    seed: u64,
    events: Vec<UpdateEvent>,
    fired: Arc<Vec<AtomicBool>>,
}

impl UpdatePlan {
    /// The empty schedule.
    pub fn none() -> Self {
        UpdatePlan::default()
    }

    /// Build a schedule from explicit events.
    pub fn from_events(seed: u64, events: Vec<UpdateEvent>) -> Self {
        let fired = Arc::new(events.iter().map(|_| AtomicBool::new(false)).collect());
        UpdatePlan {
            seed,
            events,
            fired,
        }
    }

    /// Parse the `SUNBFS_UPDATE_PLAN` grammar.
    ///
    /// # Errors
    /// A human-readable description of the first malformed event.
    pub fn parse(s: &str) -> Result<UpdatePlan, String> {
        let mut seed = 42u64;
        let mut events = Vec::new();
        for part in s.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (verb, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("update event '{part}' is missing '@'"))?;
            let fields: Vec<&str> = rest.split(':').collect();
            match verb.trim() {
                "seed" => {
                    if fields.len() != 1 {
                        return Err(format!("update event '{part}' needs one field"));
                    }
                    seed = fields[0]
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("update event '{part}' has a bad seed"))?;
                }
                "insert" => {
                    if fields.len() != 2 {
                        return Err(format!(
                            "update event '{part}' needs 2 ':'-separated fields, got {}",
                            fields.len()
                        ));
                    }
                    let after_queries = fields[0]
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("update event '{part}' has a bad query count"))?;
                    let edges = fields[1]
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("update event '{part}' has a bad edge count"))?;
                    if edges == 0 {
                        return Err(format!("update event '{part}' inserts zero edges"));
                    }
                    events.push(UpdateEvent {
                        after_queries,
                        edges,
                    });
                }
                other => return Err(format!("unknown update verb '{other}' in '{part}'")),
            }
        }
        Ok(UpdatePlan::from_events(seed, events))
    }

    /// Read `SUNBFS_UPDATE_PLAN` from the environment.
    ///
    /// # Errors
    /// The variable is set but does not parse.
    pub fn from_env() -> Result<Option<UpdatePlan>, String> {
        match std::env::var("SUNBFS_UPDATE_PLAN") {
            Ok(s) => UpdatePlan::parse(&s).map(Some),
            Err(_) => Ok(None),
        }
    }

    /// The scheduled events, in declaration order.
    pub fn events(&self) -> &[UpdateEvent] {
        &self.events
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events not yet fired.
    pub fn pending(&self) -> usize {
        self.fired
            .iter()
            .filter(|f| !f.load(Ordering::Acquire))
            .count()
    }

    /// Fire the first due, unfired event: once at least `queries_done`
    /// queries have been served, generate its seeded insert batch with
    /// endpoints drawn uniformly below `root_max`. Each event fires
    /// exactly once across all clones; the generated batch depends only
    /// on the plan seed and the event's position, never on timing.
    pub fn fire(&self, queries_done: u64, root_max: u64) -> Option<Vec<Edge>> {
        for (i, e) in self.events.iter().enumerate() {
            if e.after_queries > queries_done {
                continue;
            }
            if self.fired[i]
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(generate_batch(self.seed, i as u64, e.edges, root_max));
            }
        }
        None
    }
}

/// The deterministic insert batch for event `index` of a plan with
/// `seed`: `edges` pairs drawn uniformly below `root_max` (self loops
/// redrawn once, then kept — a commit skips them anyway).
pub fn generate_batch(seed: u64, index: u64, edges: u64, root_max: u64) -> Vec<Edge> {
    let mut rng = SplitMix64::new(seed ^ (index + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let max = root_max.max(2);
    (0..edges)
        .map(|_| {
            let u = rng.next_below(max);
            let mut v = rng.next_below(max);
            if v == u {
                v = rng.next_below(max);
            }
            Edge::new(u, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips_and_rejects_malformed_events() {
        let plan = UpdatePlan::parse("seed@7; insert@8:16; insert@32:64").expect("parses");
        assert_eq!(
            plan.events(),
            &[
                UpdateEvent {
                    after_queries: 8,
                    edges: 16
                },
                UpdateEvent {
                    after_queries: 32,
                    edges: 64
                },
            ]
        );
        assert_eq!(plan.pending(), 2);
        for bad in [
            "insert@8",
            "insert@8:0",
            "insert@x:4",
            "seed@8:1",
            "grow@1:2",
            "insert",
        ] {
            assert!(UpdatePlan::parse(bad).is_err(), "'{bad}' should not parse");
        }
        assert!(UpdatePlan::parse("").expect("empty parses").is_empty());
    }

    #[test]
    fn events_fire_exactly_once_and_in_order_of_readiness() {
        let plan = UpdatePlan::parse("insert@4:8;insert@10:2").expect("parses");
        assert!(plan.fire(3, 100).is_none());
        let first = plan.fire(4, 100).expect("first event due");
        assert_eq!(first.len(), 8);
        assert!(plan.fire(4, 100).is_none(), "first event already consumed");
        let second = plan.fire(10, 100).expect("second event due");
        assert_eq!(second.len(), 2);
        assert!(plan.fire(u64::MAX, 100).is_none());
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn generated_batches_are_deterministic_and_bounded() {
        let a = generate_batch(7, 0, 32, 1 << 10);
        let b = generate_batch(7, 0, 32, 1 << 10);
        assert_eq!(a, b);
        assert!(a.iter().all(|e| e.u < (1 << 10) && e.v < (1 << 10)));
        let c = generate_batch(7, 1, 32, 1 << 10);
        assert_ne!(a, c, "events draw from distinct streams");
    }

    #[test]
    fn clones_share_fire_state() {
        let plan = UpdatePlan::parse("insert@0:4").expect("parses");
        let clone = plan.clone();
        assert!(clone.fire(0, 16).is_some());
        assert!(plan.fire(0, 16).is_none(), "fired through the clone");
    }
}
