//! Deterministic fault injection for the SPMD runtime.
//!
//! The paper's run spans 103,912 nodes — a scale where rank loss,
//! stragglers, and corrupted messages are operational reality. This
//! module lets a test (or a chaos-minded operator) script those
//! failures *deterministically*: a [`FaultPlan`] names, per rank, the
//! collective call index at which a fault fires and what kind it is.
//!
//! Three fault kinds model the three failure classes:
//!
//! * [`FaultKind::Panic`] — the rank dies on entry to the collective
//!   (node loss). The runtime unwinds with a typed
//!   [`crate::FailureKind::Injected`] after poisoning all barriers, so
//!   the rest of the cluster tears down instead of deadlocking.
//! * [`FaultKind::Straggler`] — the rank is delayed before the
//!   collective. The delay is charged to the rank's *simulated* clock
//!   (so every other rank records it as `comm.imbalance` skew, exactly
//!   like a slow node in Figure 11) and, capped, to real time so the
//!   thread interleaving also skews.
//! * [`FaultKind::Corrupt`] — the rank's payload is bit-flipped or
//!   truncated before deposit, exercising the exchange layer's payload
//!   framing (checksum verification + bounded retransmit) rather than
//!   sailing through to the Graph 500 validator.
//!
//! Every event fires **at most once per cluster lifetime**
//! (transient-fault model): a retry of the same SPMD run on the same
//! [`crate::Cluster`] will not re-hit a consumed fault, which is what
//! makes bounded retry-with-backoff in the driver meaningful.
//!
//! Duplicate `(rank, op_index)` events are legal and meaningful: each
//! occurrence is an independent transient event, consumed one per
//! [`FaultPlan::fire`] call in queue order. Listing the same
//! corruption N times therefore models a *persistent* fault — each
//! retransmission of the deposit re-fires the next duplicate, so N−1
//! retransmit attempts are defeated before the exchange either heals
//! (N ≤ its retransmit budget) or escalates to a typed
//! `CorruptPayload` failure.
//!
//! Event lists come from three places, in driver precedence order:
//! explicit events in the `SUNBFS_FAULT_PLAN` environment variable
//! ([`FaultPlan::from_env`], which refuses a rank outside the mesh), a
//! seeded [`FaultSpec`] carried by the run configuration
//! ([`FaultPlan::generate`]), or none. [`FaultPlan::from_events`]
//! queues a list for a new cluster; [`FaultPlan::inject`] queues one on
//! a live cluster.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use sunbfs_common::{json_record, JsonValue, SplitMix64, ToJson};

use crate::cost::Scope;

/// How a payload is corrupted before deposit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptMode {
    /// XOR the low bit of the first element (silent data corruption).
    BitFlip,
    /// Drop the last element (length/contract corruption).
    Truncate,
}

/// What one planned fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The rank panics on entry to the collective.
    Panic,
    /// The rank is delayed `secs` simulated seconds before the
    /// collective (plus a capped real-time sleep).
    Straggler {
        /// Simulated delay in seconds.
        secs: f64,
    },
    /// The rank's payload is corrupted before deposit.
    Corrupt {
        /// Corruption flavor.
        mode: CorruptMode,
    },
}

impl FaultKind {
    /// Stable label used in logs and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::Corrupt {
                mode: CorruptMode::BitFlip,
            } => "corrupt.bitflip",
            FaultKind::Corrupt {
                mode: CorruptMode::Truncate,
            } => "corrupt.truncate",
        }
    }
}

/// One planned injection: `kind` fires on `rank` at that rank's
/// `op_index`-th collective call (0-based, all scopes counted together
/// in program order) within one SPMD run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Global rank the fault targets.
    pub rank: usize,
    /// 0-based collective call index on that rank within one run.
    pub op_index: u64,
    /// What fires.
    pub kind: FaultKind,
}

json_record! {
    /// Seeded, `Copy` recipe for generating a [`FaultPlan`] — the form a
    /// run configuration carries. All counts zero means "no faults".
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct FaultSpec {
        /// Seed of the deterministic event-placement stream.
        pub seed: u64,
        /// Number of injected rank panics.
        pub panics: u32,
        /// Number of injected straggler delays.
        pub stragglers: u32,
        /// Number of injected payload corruptions.
        pub corruptions: u32,
        /// Simulated seconds each straggler is delayed.
        pub straggler_secs: f64,
        /// Collective-index horizon events are scattered over (`op_index`
        /// is drawn from `[0, horizon)`; `0` is treated as `1`).
        pub horizon: u64,
    }
}

impl FaultSpec {
    /// No faults.
    pub const NONE: FaultSpec = FaultSpec {
        seed: 0,
        panics: 0,
        stragglers: 0,
        corruptions: 0,
        straggler_secs: 0.0,
        horizon: 0,
    };

    /// True when the spec plans no events at all.
    pub fn is_none(&self) -> bool {
        self.panics == 0 && self.stragglers == 0 && self.corruptions == 0
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::NONE
    }
}

/// A deterministic schedule of fault injections: one queue of pending
/// events, each consumed by the first [`FaultPlan::fire`] that matches
/// it (transient-fault model).
///
/// The queue starts as the events the plan was built from; events
/// added later through [`FaultPlan::inject`] — by the driver after a
/// load, or by a chaos harness against a cluster that is already
/// serving — join its tail, so they fire after any earlier event at the
/// same `(rank, op_index)`. The exchange layer decides per run whether
/// payload framing is active by asking [`FaultPlan::is_empty`], and
/// every rank of one SPMD run must see the same answer: a plan
/// [`armed`](FaultPlan::armed) for live injection reports non-empty
/// from the start, so injection can race a run without desynchronizing
/// the ranks; on an unarmed plan, `inject` must only be called between
/// runs.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Events not yet fired, in fire order.
    pending: Mutex<Vec<FaultEvent>>,
    /// Set by a non-empty plan, by [`FaultPlan::armed`] or by the first
    /// non-empty injection, and never cleared.
    live: AtomicBool,
}

impl FaultPlan {
    /// The empty plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan pre-armed for live injection: it schedules nothing
    /// yet, but reports non-empty so the exchange layer keeps payload
    /// framing on and [`FaultPlan::inject`] is safe at any time.
    pub fn armed() -> Self {
        FaultPlan {
            live: AtomicBool::new(true),
            ..FaultPlan::default()
        }
    }

    /// A plan firing exactly `events`.
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        let plan = FaultPlan::none();
        plan.inject(events);
        plan
    }

    /// Deterministically place `spec`'s events over `nranks` ranks and
    /// the spec's collective-index horizon. Identical `(spec, nranks)`
    /// always yields the identical schedule.
    pub fn generate(spec: &FaultSpec, nranks: usize) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        if spec.is_none() || nranks == 0 {
            return events;
        }
        let mut rng = SplitMix64::new(spec.seed ^ 0xFA_07_1E_C7);
        let horizon = spec.horizon.max(1);
        let mut place = |kind: FaultKind, count: u32, events: &mut Vec<FaultEvent>| {
            for _ in 0..count {
                events.push(FaultEvent {
                    rank: rng.next_below(nranks as u64) as usize,
                    op_index: rng.next_below(horizon),
                    kind,
                });
            }
        };
        place(FaultKind::Panic, spec.panics, &mut events);
        place(
            FaultKind::Straggler {
                secs: spec.straggler_secs,
            },
            spec.stragglers,
            &mut events,
        );
        for i in 0..spec.corruptions {
            let mode = if i % 2 == 0 {
                CorruptMode::BitFlip
            } else {
                CorruptMode::Truncate
            };
            place(FaultKind::Corrupt { mode }, 1, &mut events);
        }
        events
    }

    /// Parse an explicit event list:
    /// `panic@<rank>:<idx>;straggle@<rank>:<idx>:<secs>;corrupt@<rank>:<idx>:<bitflip|truncate>`
    /// (events separated by `;`, whitespace ignored). A straggler delay
    /// must be a finite number of seconds ≥ 0.
    ///
    /// Duplicate `(rank, op_index)` specs are accepted, not rejected:
    /// each occurrence fires once, in listed order (see [`Self::fire`]).
    /// `corrupt@0:3:bitflip;corrupt@0:3:bitflip` is the grammar for a
    /// persistent corruption that also defeats the first retransmit.
    pub fn parse(s: &str) -> Result<Vec<FaultEvent>, String> {
        let mut events = Vec::new();
        for part in s.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (verb, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("fault event '{part}' is missing '@'"))?;
            let fields: Vec<&str> = rest.split(':').collect();
            let need = |n: usize| -> Result<(), String> {
                if fields.len() == n {
                    Ok(())
                } else {
                    Err(format!(
                        "fault event '{part}' needs {n} ':'-separated fields, got {}",
                        fields.len()
                    ))
                }
            };
            let rank = fields
                .first()
                .and_then(|f| f.trim().parse::<usize>().ok())
                .ok_or_else(|| format!("fault event '{part}' has a bad rank"))?;
            let op_index = fields
                .get(1)
                .and_then(|f| f.trim().parse::<u64>().ok())
                .ok_or_else(|| format!("fault event '{part}' has a bad op index"))?;
            let kind = match verb.trim() {
                "panic" => {
                    need(2)?;
                    FaultKind::Panic
                }
                "straggle" => {
                    need(3)?;
                    let secs = fields[2]
                        .trim()
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| {
                            format!("fault event '{part}' needs a delay of finite seconds >= 0")
                        })?;
                    FaultKind::Straggler { secs }
                }
                "corrupt" => {
                    need(3)?;
                    let mode = match fields[2].trim() {
                        "bitflip" => CorruptMode::BitFlip,
                        "truncate" => CorruptMode::Truncate,
                        other => {
                            return Err(format!(
                                "fault event '{part}' has unknown corrupt mode '{other}'"
                            ))
                        }
                    };
                    FaultKind::Corrupt { mode }
                }
                other => return Err(format!("unknown fault verb '{other}' in '{part}'")),
            };
            events.push(FaultEvent {
                rank,
                op_index,
                kind,
            });
        }
        Ok(events)
    }

    /// Read `SUNBFS_FAULT_PLAN` from the environment for a cluster of
    /// `nranks` ranks; `Ok(None)` when unset, `Err` when set but
    /// unparsable or naming a rank outside the mesh (such an event
    /// could never fire, yet its panic would stop every run).
    pub fn from_env(nranks: usize) -> Result<Option<Vec<FaultEvent>>, String> {
        let Ok(s) = std::env::var("SUNBFS_FAULT_PLAN") else {
            return Ok(None);
        };
        let events = FaultPlan::parse(&s)?;
        if let Some(e) = events.iter().find(|e| e.rank >= nranks) {
            return Err(format!(
                "fault event on rank {} at collective {} is outside the {nranks}-rank mesh",
                e.rank, e.op_index
            ));
        }
        Ok(Some(events))
    }

    /// True when the plan never held an event and is not armed for
    /// live injection. The exchange layer keys payload framing off
    /// this, so it is monotone: once false, false forever.
    pub fn is_empty(&self) -> bool {
        !self.live.load(Ordering::Acquire)
    }

    /// Append `events` to the queue: each fires exactly once at its
    /// `(rank, op_index)`, after every event already queued there.
    ///
    /// Safe at any time on an [`armed`](FaultPlan::armed) plan (or once
    /// anything was already planned/injected). On a plan that is still
    /// empty and unarmed, call only between SPMD runs — the first
    /// non-empty injection flips [`FaultPlan::is_empty`], and every
    /// rank of one run must agree on it.
    pub fn inject(&self, events: impl IntoIterator<Item = FaultEvent>) {
        let mut pending = self.pending();
        pending.extend(events);
        if !pending.is_empty() {
            self.live.store(true, Ordering::Release);
        }
    }

    fn pending(&self) -> MutexGuard<'_, Vec<FaultEvent>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The collective index at which a run started now meets its first
    /// pending panic: the smallest `op_index` of a `(rank, op_index)`
    /// pair whose next [`Self::fire`] returns [`FaultKind::Panic`].
    /// The cluster snapshots it per run so that *every* rank stops at
    /// that collective, not just the ranks sharing the victim's scope.
    pub fn next_panic_op(&self) -> Option<u64> {
        let pending = self.pending();
        // `fire` hands out one event per call, in queue order: only the
        // first pending event of a pair is the one its next fire returns.
        let mut pairs: Vec<(usize, u64)> = Vec::new();
        let mut next: Option<u64> = None;
        for e in pending.iter() {
            if pairs.contains(&(e.rank, e.op_index)) {
                continue;
            }
            pairs.push((e.rank, e.op_index));
            if e.kind == FaultKind::Panic {
                next = Some(next.map_or(e.op_index, |n| n.min(e.op_index)));
            }
        }
        next
    }

    /// Consume and return the first pending event matching
    /// `(rank, op_index)`. Each event fires at most once per plan (and
    /// the plan lives as long as its cluster), so retried runs observe
    /// a transient fault exactly once.
    ///
    /// Duplicate `(rank, op_index)` events each fire once, in queue
    /// order — one `fire` call consumes exactly one. The exchange
    /// layer's retransmit path calls `fire` again for the replacement
    /// deposit, so duplicates are the mechanism for persistent faults.
    pub fn fire(&self, rank: usize, op_index: u64) -> Option<FaultKind> {
        let mut pending = self.pending();
        let i = pending
            .iter()
            .position(|e| e.rank == rank && e.op_index == op_index)?;
        Some(pending.remove(i).kind)
    }
}

/// One fault that actually fired, as recorded in the cluster's log.
#[derive(Clone, Debug)]
pub struct FaultRecord {
    /// Rank the fault fired on.
    pub rank: usize,
    /// Collective call index it fired at.
    pub op_index: u64,
    /// Scope of the collective.
    pub scope: Scope,
    /// Op tag of the collective.
    pub op: String,
    /// What fired.
    pub kind: FaultKind,
    /// The rank's simulated clock when it fired.
    pub sim_seconds: f64,
    /// Whether the fault had an effect: a corruption is logged but not
    /// applied only when the payload had nothing to damage (a barrier,
    /// an empty vector).
    pub applied: bool,
}

impl ToJson for FaultRecord {
    fn to_json(&self) -> JsonValue {
        let secs = match self.kind {
            FaultKind::Straggler { secs } => secs,
            _ => 0.0,
        };
        JsonValue::object()
            .field("rank", self.rank)
            .field("op_index", self.op_index)
            .field("scope", self.scope.to_json())
            .field("op", self.op.as_str())
            .field("kind", self.kind.label())
            .field("secs", secs)
            .field("applied", self.applied)
            .field("sim_seconds", self.sim_seconds)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(s: &str) -> FaultPlan {
        FaultPlan::from_events(FaultPlan::parse(s).expect("a valid plan"))
    }

    #[test]
    fn generate_is_deterministic_and_respects_counts() {
        let spec = FaultSpec {
            seed: 7,
            panics: 2,
            stragglers: 1,
            corruptions: 3,
            straggler_secs: 0.25,
            horizon: 10,
        };
        let a = FaultPlan::generate(&spec, 8);
        let b = FaultPlan::generate(&spec, 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert!(a.iter().all(|e| e.rank < 8 && e.op_index < 10));
        let c = FaultPlan::generate(&FaultSpec { seed: 8, ..spec }, 8);
        assert_ne!(a, c, "seed must matter");
        assert!(FaultPlan::generate(&FaultSpec::NONE, 8).is_empty());
    }

    #[test]
    fn parse_accepts_all_verbs_and_rejects_garbage() {
        let p = FaultPlan::parse("panic@1:5; straggle@0:3:0.002 ;corrupt@2:4:bitflip").unwrap();
        assert_eq!(
            p,
            [
                FaultEvent {
                    rank: 1,
                    op_index: 5,
                    kind: FaultKind::Panic
                },
                FaultEvent {
                    rank: 0,
                    op_index: 3,
                    kind: FaultKind::Straggler { secs: 0.002 }
                },
                FaultEvent {
                    rank: 2,
                    op_index: 4,
                    kind: FaultKind::Corrupt {
                        mode: CorruptMode::BitFlip
                    }
                },
            ]
        );
        assert!(FaultPlan::parse("explode@1:2").is_err());
        assert!(FaultPlan::parse("panic@x:2").is_err());
        assert!(FaultPlan::parse("corrupt@1:2:sideways").is_err());
        assert!(FaultPlan::parse("panic@1:2:3").is_err(), "arity checked");
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_refuses_a_negative_delay() {
        let err = FaultPlan::parse("straggle@0:0:-1").unwrap_err();
        assert!(err.contains("finite seconds >= 0"), "{err}");
        assert_eq!(
            FaultPlan::parse("straggle@0:0:0").unwrap()[0].kind,
            FaultKind::Straggler { secs: 0.0 }
        );
    }

    #[test]
    fn parse_refuses_a_non_finite_delay() {
        for plan in ["straggle@0:0:NaN", "straggle@0:0:inf"] {
            let err = FaultPlan::parse(plan).unwrap_err();
            assert!(err.contains("finite seconds >= 0"), "{err}");
        }
    }

    #[test]
    fn events_fire_exactly_once() {
        let p = plan("panic@1:5");
        assert_eq!(p.fire(0, 5), None);
        assert_eq!(p.fire(1, 4), None);
        assert_eq!(p.fire(1, 5), Some(FaultKind::Panic));
        assert_eq!(
            p.fire(1, 5),
            None,
            "transient: consumed events stay consumed"
        );
    }

    #[test]
    fn duplicate_specs_fire_once_each_in_listed_order() {
        let events =
            FaultPlan::parse("corrupt@0:3:bitflip; corrupt@0:3:truncate; corrupt@0:3:bitflip")
                .expect("duplicates are accepted, not rejected");
        assert_eq!(events.len(), 3);
        let p = FaultPlan::from_events(events);
        assert_eq!(
            p.fire(0, 3),
            Some(FaultKind::Corrupt {
                mode: CorruptMode::BitFlip
            })
        );
        assert_eq!(
            p.fire(0, 3),
            Some(FaultKind::Corrupt {
                mode: CorruptMode::Truncate
            }),
            "second duplicate fires second, in listed order"
        );
        assert_eq!(
            p.fire(0, 3),
            Some(FaultKind::Corrupt {
                mode: CorruptMode::BitFlip
            })
        );
        assert_eq!(p.fire(0, 3), None, "all duplicates consumed");
    }

    #[test]
    fn next_panic_op_is_the_first_panic_a_fire_would_return() {
        let panic_at = |rank, op_index| FaultEvent {
            rank,
            op_index,
            kind: FaultKind::Panic,
        };
        let p = FaultPlan::from_events(vec![
            // (0, 3): the straggler is listed first, so the next fire
            // of that pair is not a panic.
            FaultEvent {
                rank: 0,
                op_index: 3,
                kind: FaultKind::Straggler { secs: 0.1 },
            },
            panic_at(0, 3),
            panic_at(1, 9),
        ]);
        assert_eq!(p.next_panic_op(), Some(9));
        p.inject([panic_at(2, 5)]);
        assert_eq!(p.next_panic_op(), Some(5), "live-injected events count");
        assert!(p.fire(0, 3).is_some());
        assert_eq!(p.next_panic_op(), Some(3), "now the pair's next fire");
        for (rank, op) in [(0, 3), (2, 5), (1, 9)] {
            assert_eq!(p.fire(rank, op), Some(FaultKind::Panic));
        }
        assert_eq!(p.next_panic_op(), None);
        assert_eq!(FaultPlan::none().next_panic_op(), None);
    }

    #[test]
    fn injected_events_fire_once_and_keep_framing_stable() {
        let p = FaultPlan::armed();
        assert!(!p.is_empty(), "armed plans keep framing on from birth");
        assert_eq!(p.fire(0, 0), None);
        p.inject([FaultEvent {
            rank: 1,
            op_index: 3,
            kind: FaultKind::Panic,
        }]);
        assert_eq!(p.next_panic_op(), Some(3), "the injected event is pending");
        assert_eq!(p.fire(1, 2), None);
        assert_eq!(p.fire(1, 3), Some(FaultKind::Panic));
        assert_eq!(p.fire(1, 3), None, "injected events are transient too");
        assert_eq!(p.next_panic_op(), None, "and consumed once fired");
        assert!(!p.is_empty(), "is_empty is monotone once armed/injected");
    }

    #[test]
    fn injection_on_an_unarmed_plan_flips_is_empty_once() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        p.inject([FaultEvent {
            rank: 0,
            op_index: 0,
            kind: FaultKind::Straggler { secs: 0.1 },
        }]);
        assert!(!p.is_empty());
        assert_eq!(p.fire(0, 0), Some(FaultKind::Straggler { secs: 0.1 }));
        assert!(!p.is_empty(), "consumption never re-empties the plan");
    }

    #[test]
    fn static_events_outrank_injected_duplicates() {
        let p = plan("corrupt@0:3:truncate");
        p.inject([FaultEvent {
            rank: 0,
            op_index: 3,
            kind: FaultKind::Corrupt {
                mode: CorruptMode::BitFlip,
            },
        }]);
        assert_eq!(
            p.fire(0, 3),
            Some(FaultKind::Corrupt {
                mode: CorruptMode::Truncate
            }),
            "planned events consume first"
        );
        assert_eq!(
            p.fire(0, 3),
            Some(FaultKind::Corrupt {
                mode: CorruptMode::BitFlip
            })
        );
        assert_eq!(p.fire(0, 3), None);
    }
}
