//! Per-rank insert overlays and the SPMD routing pass that fills them.
//!
//! A [`DeltaPartition`] shadows the nine component CSRs of a
//! `RankPartition` with small sorted adjacency maps, keyed exactly the
//! way the base CSRs are keyed (hub ids for the `_by_hub` sides, global
//! vertex ids for the `_by_local` / `l2l` sides). Inserts reach their
//! storage ranks through [`route_update_batch`], which replays step 3
//! of `build_1p5d` restricted to the committed batch: same component
//! decisions, same destination ranks, same `alltoallv` exchange — so
//! the overlay is SPMD-consistent and deterministic by construction.
//!
//! **Class promotions.** Component routing consults the *replicated hub
//! directory built at partition time*; an insert that pushes a vertex
//! across `h_threshold` or `e_threshold` would change its class and
//! silently mis-bucket later inserts. The routing pass therefore counts
//! effective degrees (base + prior delta + this batch) at the owners
//! and reports every owned vertex whose effective class outranks its
//! directory class. The caller (the session) reacts by compacting: the
//! delta merges into the base CSRs via a fresh `build_1p5d` over the
//! union edge list, which rebuilds the directory with the promoted
//! vertex in its new class.

use std::collections::BTreeMap;

use sunbfs_common::Edge;
use sunbfs_net::{RankCtx, Scope};
use sunbfs_part::{RankPartition, Thresholds, VertexClass};

/// Strict ordering of the degree classes: a vertex only ever *promotes*
/// under inserts (degrees never shrink).
fn class_order(c: VertexClass) -> u8 {
    match c {
        VertexClass::E => 2,
        VertexClass::H => 1,
        VertexClass::L => 0,
    }
}

/// The class a vertex of degree `deg` belongs to under `thresholds`.
fn class_of_degree(deg: u64, thresholds: Thresholds) -> VertexClass {
    if deg >= thresholds.e as u64 {
        VertexClass::E
    } else if deg >= thresholds.h as u64 {
        VertexClass::H
    } else {
        VertexClass::L
    }
}

/// What one rank received from one routed update batch: component
/// entries addressed to this rank, degree increments for its owned
/// vertices, and the owned vertices whose class the batch promoted.
#[derive(Clone, Debug, Default)]
pub struct DeltaUpdate {
    /// The receiving rank.
    pub rank: usize,
    /// EH2EH entries `(src hub id, dst hub id)`, both orientations
    /// routed 2D like the base `eh_by_src`.
    pub eh: Vec<(u64, u64)>,
    /// E↔L entries `(hub id, local vertex)` at the local's owner.
    pub el: Vec<(u64, u64)>,
    /// H→L copies `(hub id, local vertex)` at the intermediate rank.
    pub h2l: Vec<(u64, u64)>,
    /// L→H copies `(hub id, local vertex)` at the local's owner.
    pub lh: Vec<(u64, u64)>,
    /// L↔L entries `(src, dst)`, both orientations at the src owners.
    pub l2l: Vec<(u64, u64)>,
    /// Degree added to each owned vertex by this batch.
    pub degree_increments: Vec<(u64, u32)>,
    /// Owned vertices whose effective degree class now outranks their
    /// directory class — a non-empty list forces compaction.
    pub promoted: Vec<u64>,
}

/// Per-rank insert overlay mirroring the base component CSRs.
///
/// Adjacency lists are kept sorted and deduplicated, so iteration order
/// is deterministic and independent of commit order.
#[derive(Clone, Debug, Default)]
pub struct DeltaPartition {
    /// The rank this overlay shadows.
    pub rank: usize,
    eh_by_src: BTreeMap<u64, Vec<u64>>,
    el_by_hub: BTreeMap<u64, Vec<u64>>,
    el_by_local: BTreeMap<u64, Vec<u64>>,
    h2l_by_local: BTreeMap<u64, Vec<u64>>,
    lh_by_hub: BTreeMap<u64, Vec<u64>>,
    lh_by_local: BTreeMap<u64, Vec<u64>>,
    l2l: BTreeMap<u64, Vec<u64>>,
    degree_increments: BTreeMap<u64, u32>,
    entries: u64,
}

fn push_sorted(map: &mut BTreeMap<u64, Vec<u64>>, key: u64, val: u64) {
    let list = map.entry(key).or_default();
    match list.binary_search(&val) {
        Ok(_) => {}
        Err(pos) => list.insert(pos, val),
    }
}

impl DeltaPartition {
    /// An empty overlay for `rank`.
    pub fn new(rank: usize) -> Self {
        DeltaPartition {
            rank,
            ..DeltaPartition::default()
        }
    }

    /// True when no insert has been merged since the last compaction.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Component entries stored (an undirected edge may account for up
    /// to two, exactly like the base CSR accounting).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Degree this overlay has added to owned vertex `v`.
    pub fn degree_increment(&self, v: u64) -> u32 {
        self.degree_increments.get(&v).copied().unwrap_or(0)
    }

    /// Fold one routed batch into the overlay.
    pub fn merge(&mut self, upd: &DeltaUpdate) {
        debug_assert_eq!(self.rank, upd.rank, "delta merged into the wrong rank");
        self.entries +=
            (upd.eh.len() + upd.el.len() + upd.h2l.len() + upd.lh.len() + upd.l2l.len()) as u64;
        for &(s, d) in &upd.eh {
            push_sorted(&mut self.eh_by_src, s, d);
        }
        for &(h, l) in &upd.el {
            push_sorted(&mut self.el_by_hub, h, l);
            push_sorted(&mut self.el_by_local, l, h);
        }
        for &(h, l) in &upd.h2l {
            push_sorted(&mut self.h2l_by_local, l, h);
        }
        for &(h, l) in &upd.lh {
            push_sorted(&mut self.lh_by_hub, h, l);
            push_sorted(&mut self.lh_by_local, l, h);
        }
        for &(u, v) in &upd.l2l {
            push_sorted(&mut self.l2l, u, v);
        }
        for &(v, inc) in &upd.degree_increments {
            *self.degree_increments.entry(v).or_insert(0) += inc;
        }
    }

    /// Drop everything (after the delta was compacted into the base).
    pub fn clear(&mut self) {
        let rank = self.rank;
        *self = DeltaPartition::new(rank);
    }

    /// Delta EH neighbors of hub `h` (dst hub ids), sorted.
    pub fn eh_of(&self, h: u64) -> &[u64] {
        self.eh_by_src.get(&h).map_or(&[], Vec::as_slice)
    }

    /// Delta E↔L neighbors of hub `h` (local vertices), sorted.
    pub fn el_of_hub(&self, h: u64) -> &[u64] {
        self.el_by_hub.get(&h).map_or(&[], Vec::as_slice)
    }

    /// Delta L→H neighbors of hub `h` (local vertices), sorted.
    pub fn lh_of_hub(&self, h: u64) -> &[u64] {
        self.lh_by_hub.get(&h).map_or(&[], Vec::as_slice)
    }

    /// Delta E↔L hubs of owned vertex `v` (hub ids), sorted.
    pub fn el_of_local(&self, v: u64) -> &[u64] {
        self.el_by_local.get(&v).map_or(&[], Vec::as_slice)
    }

    /// Delta L→H hubs of owned vertex `v` (hub ids), sorted.
    pub fn lh_of_local(&self, v: u64) -> &[u64] {
        self.lh_by_local.get(&v).map_or(&[], Vec::as_slice)
    }

    /// Delta L↔L neighbors of owned vertex `v`, sorted.
    pub fn l2l_of(&self, v: u64) -> &[u64] {
        self.l2l.get(&v).map_or(&[], Vec::as_slice)
    }
}

/// Route one committed insert batch to its storage ranks, SPMD.
///
/// Every rank calls this with the same `batch` (the service thread
/// hands the whole committed batch to every rank) and routes its cyclic
/// slice (`i % nranks == rank`), mirroring how `build_1p5d` chunks the
/// global edge list. Two exchange rounds follow the builder exactly:
/// endpoint increments to the owners, then component entries to their
/// storage ranks. The returned [`DeltaUpdate`] is merged into the
/// rank's [`DeltaPartition`] by the single service thread *after* every
/// rank returned, so a faulted exchange commits nothing.
pub fn route_update_batch(
    ctx: &mut RankCtx,
    part: &RankPartition,
    prior: &DeltaPartition,
    thresholds: Thresholds,
    batch: &[Edge],
) -> DeltaUpdate {
    let topo = ctx.topology();
    let p = ctx.nranks();
    let rank = ctx.rank();
    let dist = &part.dist;
    let dir = &part.directory;
    let (rows, cols) = (topo.shape().rows, topo.shape().cols);

    let chunk: Vec<Edge> = batch
        .iter()
        .enumerate()
        .filter(|(i, _)| i % p == rank)
        .map(|(_, e)| *e)
        .collect();

    // ---- (1) degree increments at the owners ---------------------------
    // Self loops are skipped throughout: the compaction target is a
    // fresh build over the *deduplicated, loop-free* union edge list,
    // so loop-free effective degrees match what that build will see.
    let mut endpoint_msgs: Vec<Vec<u64>> = vec![Vec::new(); p];
    for e in chunk.iter().filter(|e| !e.is_self_loop()) {
        endpoint_msgs[dist.owner(e.u)].push(e.u);
        endpoint_msgs[dist.owner(e.v)].push(e.v);
    }
    let received = ctx.alltoallv(Scope::World, "update.alltoallv", endpoint_msgs);
    let mut inc: BTreeMap<u64, u32> = BTreeMap::new();
    for msgs in received {
        for v in msgs {
            *inc.entry(v).or_insert(0) += 1;
        }
    }

    // ---- (2) promotion detection --------------------------------------
    let my_range = dist.range_of(rank);
    let mut promoted = Vec::new();
    for (&v, &add) in &inc {
        let base_deg = part.owned_degrees[(v - my_range.start) as usize] as u64;
        let eff = base_deg + prior.degree_increment(v) as u64 + add as u64;
        if class_order(class_of_degree(eff, thresholds)) > class_order(dir.class_of(v)) {
            promoted.push(v);
        }
    }

    // ---- (3) component routing, exactly as build_1p5d step 3 -----------
    let mut eh_msgs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];
    let mut el_msgs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];
    let mut h2l_msgs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];
    let mut lh_msgs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];
    let mut l2l_msgs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];

    let route_hub_pair = |eh_msgs: &mut Vec<Vec<(u64, u64)>>, hs: u32, hd: u32| {
        let dest = topo.rank_at(dir.dest_row(hd, rows), dir.src_col(hs, cols));
        eh_msgs[dest].push((hs as u64, hd as u64));
    };

    for e in chunk.iter().filter(|e| !e.is_self_loop()) {
        let (hub, hub_v, l) = match (dir.hub_id(e.u), dir.hub_id(e.v)) {
            (Some(hu), Some(hv)) => {
                route_hub_pair(&mut eh_msgs, hu, hv);
                route_hub_pair(&mut eh_msgs, hv, hu);
                continue;
            }
            (None, None) => {
                l2l_msgs[dist.owner(e.u)].push((e.u, e.v));
                l2l_msgs[dist.owner(e.v)].push((e.v, e.u));
                continue;
            }
            (Some(h), None) => (h, e.u, e.v),
            (None, Some(h)) => (h, e.v, e.u),
        };
        if dir.is_e(hub) {
            el_msgs[dist.owner(l)].push((hub as u64, l));
        } else {
            let inter = topo.rank_at(topo.row_of(dist.owner(l)), topo.col_of(dist.owner(hub_v)));
            h2l_msgs[inter].push((hub as u64, l));
            lh_msgs[dist.owner(l)].push((hub as u64, l));
        }
    }

    let flat =
        |recv: Vec<Vec<(u64, u64)>>| -> Vec<(u64, u64)> { recv.into_iter().flatten().collect() };
    let eh = flat(ctx.alltoallv(Scope::World, "update.alltoallv", eh_msgs));
    let el = flat(ctx.alltoallv(Scope::World, "update.alltoallv", el_msgs));
    let h2l = flat(ctx.alltoallv(Scope::World, "update.alltoallv", h2l_msgs));
    let lh = flat(ctx.alltoallv(Scope::World, "update.alltoallv", lh_msgs));
    let l2l = flat(ctx.alltoallv(Scope::World, "update.alltoallv", l2l_msgs));

    DeltaUpdate {
        rank,
        eh,
        el,
        h2l,
        lh,
        l2l,
        degree_increments: inc.into_iter().collect(),
        promoted,
    }
}

/// The canonical undirected edge set of a session, as the sorted array
/// a set would iterate: `(min, max)` pairs from every rank's EH, E↔L,
/// L→H and L↔L components (H→L copies are duplicates of L→H and are
/// skipped) plus the committed-but-uncompacted `delta_log`, sorted
/// ascending with duplicates removed — strictly increasing.
///
/// This is the compaction input: a fresh `build_1p5d` over it, chunked
/// rank-strided, must be byte-identical to the compacted partition. The
/// base components already hold each undirected edge at most twice (EH
/// and L↔L store both orientations), so one `sort_unstable` + `dedup`
/// over a flat array replaces a node-per-edge ordered set.
pub fn canonical_edge_set(parts: &[RankPartition], delta_log: &[Edge]) -> Vec<(u64, u64)> {
    let dir = &parts[0].directory;
    let canon = |a: u64, b: u64| if a <= b { (a, b) } else { (b, a) };
    let stored = |p: &RankPartition| {
        p.eh_by_src.num_edges()
            + p.el_by_hub.num_edges()
            + p.lh_by_hub.num_edges()
            + p.l2l.num_edges()
    };
    let capacity = parts.iter().map(stored).sum::<u64>() as usize + delta_log.len();
    let mut out = Vec::with_capacity(capacity);
    for p in parts {
        out.extend(
            p.eh_by_src
                .iter_edges()
                .map(|(hs, hd)| canon(dir.vertex_of(hs as u32), dir.vertex_of(hd as u32))),
        );
        let hub_side = p.el_by_hub.iter_edges().chain(p.lh_by_hub.iter_edges());
        out.extend(hub_side.map(|(h, l)| canon(dir.vertex_of(h as u32), l)));
        out.extend(p.l2l.iter_edges().map(|(u, v)| canon(u, v)));
    }
    out.extend(delta_log.iter().map(|e| canon(e.u, e.v)));
    out.sort_unstable();
    out.dedup();
    out
}
