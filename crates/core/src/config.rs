//! Engine configuration and direction heuristics (§4.2).
//!
//! Direction-optimizing BFS switches between top-down (*push*) and
//! bottom-up (*pull*) per iteration. The paper refines this to
//! **sub-iteration direction optimization**: each of the six subgraph
//! components chooses its direction independently, with two heuristics:
//!
//! * node-local components (EH2EH, E2L, L2E) look only at the *source
//!   active ratio* — pull workload cannot be estimated from destination
//!   counts because early exit truncates it,
//! * node-crossing components (H2L, L2H, L2L) compare the active-source
//!   ratio against the unvisited-destination ratio, which "directly
//!   reflect the number of messages required to communicate".
//!
//! Two *heuristic families* drive those decisions (see
//! [`DirectionHeuristic`] and `docs/KERNELS.md`):
//!
//! * **fixed** — the original count-ratio thresholds ([`ALPHA_LOCAL`] /
//!   [`BETA_CROSSING`]), kept byte-identical for reproducibility;
//! * **measured** — the Beamer/Buluç direction-optimizing heuristic on
//!   *measured degree masses*: switch to pull when the frontier's edge
//!   mass `m_f` exceeds the unexplored edge mass `m_u / α`, switch back
//!   to push when the frontier shrinks below `n / β` vertices, with
//!   hysteresis (the previous direction breaks ties). The masses come
//!   from the degree sums the engine already tracks per sub-iteration.
//!
//! The thresholds are constants, tuned once for the machine as the
//! paper tunes its per-class thresholds (§4.2).

use sunbfs_common::{JsonValue, ToJson};

/// Fixed heuristic: a node-local component pulls when its source active
/// ratio exceeds this.
pub const ALPHA_LOCAL: f64 = 0.03;
/// Fixed heuristic: a crossing component pulls when
/// `unvisited_dst_ratio < BETA_CROSSING * active_src_ratio`.
pub const BETA_CROSSING: f64 = 1.0;
/// Fixed heuristic, vanilla mode: the whole iteration pulls when the
/// global active ratio exceeds this.
pub const VANILLA_ALPHA: f64 = 0.03;
/// Measured heuristic: enter pull when
/// `frontier_edge_mass * ALPHA_MEASURED > unexplored_edge_mass`
/// (Beamer's α; tuned on the simulated Sunway cost model, where
/// collectives dominate and later pull entry wins; Beamer's
/// shared-memory value is 14).
pub const ALPHA_MEASURED: f64 = 3.0;
/// Measured heuristic: return to push when the class frontier holds
/// fewer than `total / BETA_MEASURED` vertices (Beamer's β; tuned like
/// [`ALPHA_MEASURED`], Beamer's value is 24).
pub const BETA_MEASURED: f64 = 6.0;

/// Traversal direction of one sub-iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Direction {
    /// Top-down: scan active sources, write destinations.
    #[default]
    Push,
    /// Bottom-up: scan unvisited destinations, probe sources; early
    /// exit on first hit.
    Pull,
}

impl ToJson for Direction {
    fn to_json(&self) -> JsonValue {
        JsonValue::from(match self {
            Direction::Push => "push",
            Direction::Pull => "pull",
        })
    }
}

/// The six subgraph components in their §4.2 execution order
/// (higher-degree source/destination first).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Component {
    /// Hub ↔ hub core subgraph (2D-partitioned).
    Eh2Eh,
    /// E → L.
    E2L,
    /// L → E.
    L2E,
    /// H → L.
    H2L,
    /// L → H.
    L2H,
    /// L → L.
    L2L,
}

impl Component {
    /// All components in execution order.
    pub const ALL: [Component; 6] = [
        Component::Eh2Eh,
        Component::E2L,
        Component::L2E,
        Component::H2L,
        Component::L2H,
        Component::L2L,
    ];

    /// Short name used in time-accounting categories.
    pub fn name(self) -> &'static str {
        match self {
            Component::Eh2Eh => "EH2EH",
            Component::E2L => "E2L",
            Component::L2E => "L2E",
            Component::H2L => "H2L",
            Component::L2H => "L2H",
            Component::L2L => "L2L",
        }
    }
}

/// Which family of push/pull decision rules the engine runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DirectionHeuristic {
    /// Fixed count-ratio thresholds ([`ALPHA_LOCAL`] / [`BETA_CROSSING`]):
    /// reproduces the pre-measured direction schedule exactly, byte for
    /// byte — collectives, payloads, parents, and depths included.
    Fixed,
    /// Measured-degree heuristics with hysteresis ([`choose_measured`]):
    /// frontier edge mass vs. unexplored edge mass per vertex class,
    /// using [`ALPHA_MEASURED`] / [`BETA_MEASURED`]. The default.
    #[default]
    Measured,
}

impl DirectionHeuristic {
    /// Stable lowercase name (JSON reports, `SUNBFS_DIRECTION`).
    pub fn name(self) -> &'static str {
        match self {
            DirectionHeuristic::Fixed => "fixed",
            DirectionHeuristic::Measured => "measured",
        }
    }

    /// Parse the `SUNBFS_DIRECTION` spelling; `None` on anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fixed" => Some(DirectionHeuristic::Fixed),
            "measured" => Some(DirectionHeuristic::Measured),
            _ => None,
        }
    }
}

/// Engine configuration. Defaults enable every technique of the paper;
/// the ablation benches (Figure 15) toggle them off one at a time.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Per-component direction selection (§4.2). When off, one global
    /// direction per iteration (vanilla direction optimization — the
    /// Figure 15 baseline).
    pub sub_iteration: bool,
    /// CG-aware core-subgraph segmenting for the EH2EH pull (§4.3).
    /// When off, probes cost GLD main-memory latency instead of RMA.
    pub segmenting: bool,
    /// Which decision family is in force ([`DirectionHeuristic`]).
    pub heuristic: DirectionHeuristic,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            sub_iteration: true,
            segmenting: true,
            heuristic: DirectionHeuristic::default(),
        }
    }
}

impl EngineConfig {
    /// The Figure 15 baseline: vanilla direction optimization, no
    /// segmenting.
    pub fn baseline() -> Self {
        EngineConfig {
            sub_iteration: false,
            segmenting: false,
            ..Default::default()
        }
    }

    /// Baseline plus sub-iteration direction optimization (Figure 15
    /// middle bar).
    pub fn with_sub_iteration() -> Self {
        EngineConfig {
            segmenting: false,
            ..Default::default()
        }
    }
}

/// Direction for a node-local component from its source activity.
pub fn choose_local(active_src: u64, total_src: u64) -> Direction {
    if total_src == 0 {
        return Direction::Push;
    }
    if active_src as f64 / total_src as f64 > ALPHA_LOCAL {
        Direction::Pull
    } else {
        Direction::Push
    }
}

/// Direction for a node-crossing component by comparing the expected
/// message counts of the two directions.
pub fn choose_crossing(
    active_src: u64,
    total_src: u64,
    unvisited_dst: u64,
    total_dst: u64,
) -> Direction {
    if total_src == 0 || total_dst == 0 {
        return Direction::Push;
    }
    let active_ratio = active_src as f64 / total_src as f64;
    let unvisited_ratio = unvisited_dst as f64 / total_dst as f64;
    if unvisited_ratio < BETA_CROSSING * active_ratio {
        Direction::Pull
    } else {
        Direction::Push
    }
}

/// Measured-degree direction decision with hysteresis (the
/// direction-optimizing BFS rule of Beamer et al., per vertex class):
///
/// * in **push**, switch to pull when the frontier's measured edge mass
///   exceeds the unexplored edge mass scaled by α:
///   `m_f > m_u / ALPHA_MEASURED`;
/// * in **pull**, return to push when the class frontier has shrunk
///   below `total / BETA_MEASURED` vertices.
///
/// `frontier_edges` / `unexplored_edges` are global degree-mass sums
/// for the deciding class (`m_f` / `m_u`); `active` / `total` are its
/// frontier and class vertex counts. An empty class or empty frontier
/// always pushes (the scan is a no-op either way).
pub fn choose_measured(
    prev: Direction,
    frontier_edges: u64,
    unexplored_edges: u64,
    active: u64,
    total: u64,
) -> Direction {
    if total == 0 || active == 0 {
        return Direction::Push;
    }
    match prev {
        Direction::Push => {
            if frontier_edges as f64 * ALPHA_MEASURED > unexplored_edges as f64 {
                Direction::Pull
            } else {
                Direction::Push
            }
        }
        Direction::Pull => {
            if (active as f64) < total as f64 / BETA_MEASURED {
                Direction::Push
            } else {
                Direction::Pull
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_ordered_by_degree_level() {
        assert_eq!(Component::ALL[0], Component::Eh2Eh);
        assert_eq!(Component::ALL[5], Component::L2L);
    }

    #[test]
    fn local_heuristic_switches_on_density() {
        assert_eq!(choose_local(1, 1000), Direction::Push);
        assert_eq!(choose_local(500, 1000), Direction::Pull);
        assert_eq!(choose_local(0, 0), Direction::Push);
    }

    #[test]
    fn crossing_heuristic_compares_ratios() {
        // Sparse frontier, nearly everything unvisited → push.
        assert_eq!(choose_crossing(10, 1000, 990, 1000), Direction::Push);
        // Dense frontier, few unvisited → pull.
        assert_eq!(choose_crossing(600, 1000, 50, 1000), Direction::Pull);
        // Empty classes never pull.
        assert_eq!(choose_crossing(0, 0, 5, 10), Direction::Push);
    }

    #[test]
    fn measured_heuristic_enters_and_exits_pull_with_hysteresis() {
        // Push holds while the frontier mass is small relative to m_u/α.
        assert_eq!(
            choose_measured(Direction::Push, 10, 10_000, 5, 1000),
            Direction::Push
        );
        // m_f·α > m_u → enter pull.
        assert_eq!(
            choose_measured(Direction::Push, 4000, 10_000, 200, 1000),
            Direction::Pull
        );
        // In pull, a still-large frontier stays pull even if masses
        // dropped (hysteresis: the push rule is not re-evaluated).
        assert_eq!(
            choose_measured(Direction::Pull, 1, 10_000, 500, 1000),
            Direction::Pull
        );
        // Frontier below n/β → back to push.
        assert_eq!(
            choose_measured(Direction::Pull, 1000, 10, 10, 1000),
            Direction::Push
        );
        // Empty class or empty frontier never pulls.
        assert_eq!(
            choose_measured(Direction::Pull, 9, 9, 5, 0),
            Direction::Push
        );
        assert_eq!(
            choose_measured(Direction::Push, 9, 0, 0, 100),
            Direction::Push
        );
    }

    #[test]
    fn heuristic_names_and_parse_round_trip() {
        for h in [DirectionHeuristic::Fixed, DirectionHeuristic::Measured] {
            assert_eq!(DirectionHeuristic::parse(h.name()), Some(h));
        }
        assert_eq!(DirectionHeuristic::parse("auto"), None);
        assert_eq!(DirectionHeuristic::parse("Fixed"), None, "strict spelling");
        assert_eq!(
            EngineConfig::default().heuristic,
            DirectionHeuristic::Measured
        );
    }

    #[test]
    fn ablation_constructors() {
        let b = EngineConfig::baseline();
        assert!(!b.sub_iteration && !b.segmenting);
        let s = EngineConfig::with_sub_iteration();
        assert!(s.sub_iteration && !s.segmenting);
        let full = EngineConfig::default();
        assert!(full.sub_iteration && full.segmenting);
    }
}
