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
//!   (node loss). The runtime converts it into a typed
//!   [`InjectedFault`] unwind that poisons all barriers, so the rest of
//!   the cluster tears down instead of deadlocking.
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
//! Every planned event fires **at most once per cluster lifetime**
//! (transient-fault model): a retry of the same SPMD run on the same
//! [`crate::Cluster`] will not re-hit a consumed fault, which is what
//! makes bounded retry-with-backoff in the driver meaningful.
//!
//! Duplicate `(rank, op_index)` events are legal and meaningful: each
//! occurrence is an independent transient event, consumed one per
//! [`FaultPlan::fire`] call in listed order. Listing the same
//! corruption N times therefore models a *persistent* fault — each
//! retransmission of the deposit re-fires the next duplicate, so N−1
//! retransmit attempts are defeated before the exchange either heals
//! (N ≤ its retransmit budget) or escalates to a typed
//! `CorruptPayload` failure.
//!
//! Plans come from three places, in driver precedence order:
//! explicit events in the `SUNBFS_FAULT_PLAN` environment variable
//! ([`FaultPlan::parse`]), a seeded [`FaultSpec`] carried by the run
//! configuration ([`FaultPlan::generate`]), or none.

use std::sync::atomic::{AtomicBool, Ordering};

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

/// A deterministic schedule of fault injections, with per-event
/// fired-once bookkeeping (transient-fault model).
///
/// Besides the static schedule fixed at construction, a plan can be
/// **armed** for live injection ([`FaultPlan::armed`]): events added
/// later through [`FaultPlan::inject`] — by a chaos harness, against a
/// cluster that is already serving — fire exactly once each, like
/// planned ones. Arming matters for safety: the exchange layer decides
/// per collective whether payload framing is active by asking
/// [`FaultPlan::is_empty`], and every rank of one SPMD run must see
/// the same answer. An armed plan reports non-empty from the start, so
/// injection can race a run without desynchronizing the ranks; on an
/// unarmed plan, `inject` must only be called between runs.
#[derive(Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    fired: Vec<AtomicBool>,
    /// Live-injected events, each consumed by its first matching fire.
    injected: std::sync::Mutex<Vec<FaultEvent>>,
    /// Events ever injected (never decremented: once live injection has
    /// happened — or was armed for — framing stays on for the cluster's
    /// lifetime, keeping the per-exchange `is_empty` check stable).
    injected_ever: std::sync::atomic::AtomicU64,
    /// Pre-declares live injection so `is_empty` is false from birth.
    armed: bool,
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
            armed: true,
            ..FaultPlan::default()
        }
    }

    /// A plan firing exactly `events`.
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        let fired = events.iter().map(|_| AtomicBool::new(false)).collect();
        FaultPlan {
            events,
            fired,
            ..FaultPlan::default()
        }
    }

    /// Deterministically place `spec`'s events over `nranks` ranks and
    /// the spec's collective-index horizon. Identical `(spec, nranks)`
    /// always yields the identical schedule.
    pub fn generate(spec: &FaultSpec, nranks: usize) -> Self {
        if spec.is_none() || nranks == 0 {
            return FaultPlan::none();
        }
        let mut rng = SplitMix64::new(spec.seed ^ 0xFA_07_1E_C7);
        let horizon = spec.horizon.max(1);
        let mut events = Vec::new();
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
        FaultPlan::from_events(events)
    }

    /// Parse an explicit event list:
    /// `panic@<rank>:<idx>;straggle@<rank>:<idx>:<secs>;corrupt@<rank>:<idx>:<bitflip|truncate>`
    /// (events separated by `;`, whitespace ignored).
    ///
    /// Duplicate `(rank, op_index)` specs are accepted, not rejected:
    /// each occurrence fires once, in listed order (see [`Self::fire`]).
    /// `corrupt@0:3:bitflip;corrupt@0:3:bitflip` is the grammar for a
    /// persistent corruption that also defeats the first retransmit.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
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
                        .map_err(|_| format!("fault event '{part}' has a bad delay"))?;
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
        Ok(FaultPlan::from_events(events))
    }

    /// Read `SUNBFS_FAULT_PLAN` from the environment; `Ok(None)` when
    /// unset, `Err` when set but unparsable.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("SUNBFS_FAULT_PLAN") {
            Ok(s) => FaultPlan::parse(&s).map(Some),
            Err(_) => Ok(None),
        }
    }

    /// The planned events (fired or not). Live-injected events are not
    /// listed here — see [`FaultPlan::injected_ever`].
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when no events are planned, none were ever injected, and
    /// the plan is not armed for live injection. The exchange layer
    /// keys payload framing off this, so it is monotone: once false,
    /// false forever.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && !self.armed && self.injected_ever.load(Ordering::Acquire) == 0
    }

    /// Arm `events` on a live plan: each fires exactly once at its
    /// `(rank, op_index)`, like a planned event, then is consumed.
    ///
    /// Safe at any time on an [`armed`](FaultPlan::armed) plan (or once
    /// anything was already planned/injected). On a plan that is still
    /// empty and unarmed, call only between SPMD runs — the first
    /// injection flips [`FaultPlan::is_empty`], and every rank of one
    /// run must agree on it.
    pub fn inject(&self, events: impl IntoIterator<Item = FaultEvent>) {
        let mut pending = self.injected.lock().expect("fault plan lock poisoned");
        let before = pending.len();
        pending.extend(events);
        let added = (pending.len() - before) as u64;
        self.injected_ever.fetch_add(added, Ordering::AcqRel);
    }

    /// Live-injected events not yet consumed by a fire.
    pub fn injected_pending(&self) -> usize {
        self.injected
            .lock()
            .expect("fault plan lock poisoned")
            .len()
    }

    /// Events ever live-injected (fired or not).
    pub fn injected_ever(&self) -> u64 {
        self.injected_ever.load(Ordering::Acquire)
    }

    /// The collective index at which a run started now meets its first
    /// planned panic: the smallest `op_index` of a `(rank, op_index)`
    /// pair whose next [`Self::fire`] returns [`FaultKind::Panic`].
    /// The cluster snapshots it per run so that *every* rank stops at
    /// that collective, not just the ranks sharing the victim's scope.
    pub fn next_panic_op(&self) -> Option<u64> {
        let injected = self.injected.lock().expect("fault plan lock poisoned");
        let planned = self.events.iter().zip(&self.fired);
        let pending = planned
            .filter(|(_, fired)| !fired.load(Ordering::Acquire))
            .map(|(e, _)| e)
            .chain(injected.iter());
        // `fire` hands out one event per call, in listed order: only the
        // first pending event of a pair is the one its next fire returns.
        let mut pairs: Vec<(usize, u64)> = Vec::new();
        let mut next: Option<u64> = None;
        for e in pending {
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

    /// Consume and return the first unfired event matching
    /// `(rank, op_index)`. Each event fires at most once per plan (and
    /// the plan lives as long as its cluster), so retried runs observe
    /// a transient fault exactly once.
    ///
    /// Duplicate `(rank, op_index)` events each fire once, in listed
    /// order — one `fire` call consumes exactly one. The exchange
    /// layer's retransmit path calls `fire` again for the replacement
    /// deposit, so duplicates are the mechanism for persistent faults.
    pub fn fire(&self, rank: usize, op_index: u64) -> Option<FaultKind> {
        for (e, fired) in self.events.iter().zip(&self.fired) {
            if e.rank == rank
                && e.op_index == op_index
                && fired
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return Some(e.kind);
            }
        }
        // Live-injected events: consumed (removed) on fire, so each is
        // a transient fault exactly like a planned one. The lock is
        // only contended when a plan is non-empty, i.e. when framing
        // overhead is already being paid.
        if self.injected_ever.load(Ordering::Acquire) > 0 {
            let mut pending = self.injected.lock().expect("fault plan lock poisoned");
            if let Some(i) = pending
                .iter()
                .position(|e| e.rank == rank && e.op_index == op_index)
            {
                return Some(pending.remove(i).kind);
            }
        }
        None
    }
}

/// The typed unwind payload of an injected [`FaultKind::Panic`]:
/// [`crate::Cluster::run_fallible`] downcasts it back into a
/// [`crate::RankFailure`] so the driver sees a structured failure, not
/// a stringly panic.
#[derive(Clone, Debug)]
pub struct InjectedFault {
    /// Rank that was killed.
    pub rank: usize,
    /// Collective call index at which it died.
    pub op_index: u64,
    /// Op tag of the collective it died entering.
    pub op: String,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected panic on rank {} at collective {} ('{}')",
            self.rank, self.op_index, self.op
        )
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
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 6);
        assert!(a.events().iter().all(|e| e.rank < 8 && e.op_index < 10));
        let c = FaultPlan::generate(&FaultSpec { seed: 8, ..spec }, 8);
        assert_ne!(a.events(), c.events(), "seed must matter");
        assert!(FaultPlan::generate(&FaultSpec::NONE, 8).is_empty());
    }

    #[test]
    fn parse_accepts_all_verbs_and_rejects_garbage() {
        let p = FaultPlan::parse("panic@1:5; straggle@0:3:0.002 ;corrupt@2:4:bitflip").unwrap();
        assert_eq!(
            p.events(),
            &[
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
    fn events_fire_exactly_once() {
        let p = FaultPlan::parse("panic@1:5").unwrap();
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
        let p = FaultPlan::parse("corrupt@0:3:bitflip; corrupt@0:3:truncate; corrupt@0:3:bitflip")
            .expect("duplicates are accepted, not rejected");
        assert_eq!(p.events().len(), 3);
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
        assert_eq!(p.injected_pending(), 1);
        assert_eq!(p.fire(1, 2), None);
        assert_eq!(p.fire(1, 3), Some(FaultKind::Panic));
        assert_eq!(p.fire(1, 3), None, "injected events are transient too");
        assert_eq!(p.injected_pending(), 0);
        assert_eq!(p.injected_ever(), 1);
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
        let p = FaultPlan::parse("corrupt@0:3:truncate").unwrap();
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
