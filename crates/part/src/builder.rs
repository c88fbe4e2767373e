//! Distributed construction of the 3-level degree-aware 1.5D partition.
//!
//! Executed SPMD on every rank of the cluster ([`build_1p5d`]). From a
//! locally generated chunk of the global edge list, the ranks:
//!
//! 1. count exact vertex degrees at the owners (one `alltoallv` of
//!    endpoints),
//! 2. gather all vertices with `deg ≥ h` and build the replicated
//!    [`HubDirectory`] (identical on every rank by construction),
//! 3. route every edge to the rank(s) that store it, in two passes of
//!    one routing function (the first counts each send list, the
//!    second fills lists allocated at those counts), per §4.1:
//!    * **EH2EH** (both endpoints hubs): both orientations,
//!      2D-partitioned — orientation `(s → d)` lives at mesh position
//!      `(dest_row(d), src_col(s))`,
//!    * **E↔L**: at the owner of the L endpoint (E is delegated
//!      globally, so its adjacency is attached to L, "just as heavy
//!      vertices in degree-aware 1D partitioning"); one store serves
//!      both the E2L and L2E sub-iterations,
//!    * **H→L**: at the intersection of L's owner's *row* and H's
//!      owner's *column*, restricting push messaging to rows,
//!    * **L→H**: solely at the owner of L ("as a reverse of H2L"),
//!    * **L2L**: both orientations, each at its source's owner (vanilla
//!      1D),
//! 4. build per-component CSR indexes (by source for push, by
//!    destination for pull) with multigraph deduplication.
//!
//! Self loops never affect a BFS and are dropped here.
//!
//! Node memory bounds the build at scale, so every routed edge is held
//! once: a chunk handed over by value is dropped as soon as it is
//! routed, `alltoallv` moves each part to its receiver, and each
//! component is indexed right after its own exchange, reading the
//! received parts in place, before the next component is exchanged.
//! Every send list is allocated at its exact length: the census and the
//! routing count per destination before they fill, so no list holds
//! doubling slack or leaves its outgrown blocks in the rank's allocator
//! arena. Routing looks endpoints up in a dense `vertex → hub id` table
//! (4 bytes a vertex) that is dropped with the chunk before the first
//! exchange. The build peaks while the first component is exchanged and
//! indexed, with the other four send sets still held.

use std::borrow::Cow;
use std::ops::Range;

use sunbfs_common::{Bitmap, Edge, JsonValue, ToJson, VertexId};
use sunbfs_net::{RankCtx, Scope, Topology};

use crate::csr::Csr;
use crate::directory::{HubDirectory, Thresholds, VertexClass};
use crate::distribution::VertexDistribution;

/// Local (per-rank) edge counts of the six components — the quantity
/// whose distribution Figure 13 plots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComponentStats {
    /// EH2EH directed edges stored on this rank.
    pub eh2eh: u64,
    /// E→L edges stored on this rank.
    pub e2l: u64,
    /// L→E edges stored on this rank.
    pub l2e: u64,
    /// H→L edges stored on this rank.
    pub h2l: u64,
    /// L→H edges stored on this rank.
    pub l2h: u64,
    /// L→L directed edges stored on this rank.
    pub l2l: u64,
}

impl ComponentStats {
    /// Sum of all component sizes on this rank.
    pub fn total(&self) -> u64 {
        self.eh2eh + self.e2l + self.l2e + self.h2l + self.l2h + self.l2l
    }
}

impl ToJson for ComponentStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("eh2eh", self.eh2eh)
            .field("e2l", self.e2l)
            .field("l2e", self.l2e)
            .field("h2l", self.h2l)
            .field("l2h", self.l2h)
            .field("l2l", self.l2l)
            .field("total", self.total())
            .build()
    }
}

/// What a rank owns of the replicated hub table. It depends only on the
/// partition, so it is computed where a [`RankPartition`] is born
/// ([`OwnedHubs::index`]) and no traversal walks the table for it; it
/// is derived from `rank`, `dist`, `directory` and `owned_degrees`, so
/// the store does not encode it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnedHubs {
    /// `(hub id, local offset)` of the hubs this rank owns, in hub-id
    /// order.
    pub hubs: Vec<(u32, u32)>,
    /// Degree of hub `h` if this rank owns it, 0 if another does;
    /// indexed by hub id.
    pub degree_of: Vec<u32>,
    /// The hubs another rank owns, one bit per hub id: what a walk over
    /// a hub frontier masks out to visit this rank's share only.
    pub elsewhere: Bitmap,
    /// Owned L vertices with an edge — this rank's share of the L
    /// class's heuristic denominator.
    pub l_connected: u64,
    /// Degree mass of the owned slice per class (E, H, L).
    pub class_mass: [u64; 3],
}

impl OwnedHubs {
    /// Index the hubs of `directory` inside `owned`, the interval
    /// `owned_degrees` covers: one walk of the hub table, two passes
    /// over the degrees.
    pub fn index(owned: Range<u64>, directory: &HubDirectory, owned_degrees: &[u32]) -> Self {
        let num_e = directory.num_e() as usize;
        let num_hubs = directory.num_hubs() as usize;
        let mut index = OwnedHubs {
            hubs: Vec::new(),
            degree_of: vec![0; num_hubs],
            elsewhere: Bitmap::new(num_hubs as u64),
            l_connected: 0,
            class_mass: [0; 3],
        };
        let mut hubs_connected = 0;
        for (h, &(v, _)) in directory.hubs().iter().enumerate() {
            if !owned.contains(&v) {
                index.elsewhere.set(h as u64);
                continue;
            }
            let li = u32::try_from(v - owned.start).expect("a rank's slice has u32 offsets");
            let d = owned_degrees[li as usize];
            index.hubs.push((h as u32, li));
            index.degree_of[h] = d;
            hubs_connected += (d > 0) as u64;
            index.class_mass[(h >= num_e) as usize] += d as u64;
        }
        // Everything that is not an owned hub is L. Saturating: a hub
        // table naming a vertex twice (no build makes one, a crafted
        // store file can) must not reach an overflow panic.
        let connected = owned_degrees.iter().filter(|&&d| d > 0).count() as u64;
        let mass: u64 = owned_degrees.iter().map(|&d| d as u64).sum();
        index.l_connected = connected.saturating_sub(hubs_connected);
        index.class_mass[2] = mass.saturating_sub(index.class_mass[0] + index.class_mass[1]);
        index
    }
}

/// One rank's share of the 1.5D-partitioned graph.
#[derive(Clone, Debug)]
pub struct RankPartition {
    /// This rank's id.
    pub rank: usize,
    /// Vertex block distribution.
    pub dist: VertexDistribution,
    /// Replicated hub directory.
    pub directory: HubDirectory,
    /// Exact degrees of the vertices this rank owns.
    pub owned_degrees: Vec<u32>,
    /// This rank's share of the hub table ([`OwnedHubs::index`] of the
    /// fields above).
    pub owned_hubs: OwnedHubs,
    /// EH2EH block, push orientation: src hubs in this column's source
    /// range → dst hub ids.
    pub eh_by_src: Csr,
    /// EH2EH block, pull orientation: dst hubs in this row's
    /// destination range → src hub ids.
    pub eh_by_dst: Csr,
    /// E↔L edges at L's owner, keyed by hub id (push E→L / pull L2E).
    pub el_by_hub: Csr,
    /// E↔L edges at L's owner, keyed by owned vertex (pull E2L / push L2E).
    pub el_by_local: Csr,
    /// H→L edges at the row/column intersection, keyed by hub id (push).
    pub h2l_by_hub: Csr,
    /// H→L edges at the intersection, keyed by the L endpoint over this
    /// *row's* owned interval (pull).
    pub h2l_by_local: Csr,
    /// L↔H edges at L's owner, keyed by hub id (pull L2H).
    pub lh_by_hub: Csr,
    /// L↔H edges at L's owner, keyed by owned vertex (push L2H).
    pub lh_by_local: Csr,
    /// L→L edges keyed by owned source vertex.
    pub l2l: Csr,
    /// Component sizes on this rank.
    pub stats: ComponentStats,
}

impl RankPartition {
    /// Global vertex interval owned by this rank.
    pub fn owned_range(&self) -> std::ops::Range<u64> {
        self.dist.range_of(self.rank)
    }

    /// Global vertex interval owned by this rank's whole mesh row.
    pub fn row_range(&self, topo: &Topology) -> std::ops::Range<u64> {
        row_vertex_range(&self.dist, topo, topo.row_of(self.rank))
    }
}

/// Global vertex interval owned by mesh row `row` (ranks of a row are
/// consecutive, so their blocks concatenate into one interval).
pub fn row_vertex_range(
    dist: &VertexDistribution,
    topo: &Topology,
    row: usize,
) -> std::ops::Range<u64> {
    let first = topo.rank_at(row, 0);
    let last = topo.rank_at(row, topo.shape().cols - 1);
    dist.range_of(first).start..dist.range_of(last).end
}

/// Send-set indices of the five routed components, in exchange order.
const EH: usize = 0;
const EL: usize = 1;
const H2L: usize = 2;
const LH: usize = 3;
const L2L: usize = 4;

/// One component's send set: the `(key, target)` pairs for each
/// destination rank.
type SendSet = Vec<Vec<(u64, u64)>>;

/// Where each edge of a chunk is stored (step 3 of the module doc).
struct Router<'a> {
    topo: Topology,
    dist: VertexDistribution,
    directory: &'a HubDirectory,
    /// [`HubDirectory::hub_id_table`] over every vertex: `u32::MAX` is L.
    hub_of: Vec<u32>,
}

impl Router<'_> {
    /// Call `emit(component, dest, pair)` once per stored copy of `e`,
    /// in send order. A self loop emits nothing.
    #[inline]
    fn route(&self, e: &Edge, mut emit: impl FnMut(usize, usize, (u64, u64))) {
        const L: u32 = u32::MAX;
        if e.is_self_loop() {
            return;
        }
        let (topo, dist, dir) = (&self.topo, &self.dist, self.directory);
        let (rows, cols) = (topo.shape().rows, topo.shape().cols);
        let (hub, hub_v, l) = match (self.hub_of[e.u as usize], self.hub_of[e.v as usize]) {
            // L ↔ L: both orientations at their source owners.
            (L, L) => {
                emit(L2L, dist.owner(e.u), (e.u, e.v));
                emit(L2L, dist.owner(e.v), (e.v, e.u));
                return;
            }
            (h, L) => (h, e.u, e.v),
            (L, h) => (h, e.v, e.u),
            // Both hubs: both orientations, 2D-partitioned.
            (hu, hv) => {
                for (hs, hd) in [(hu, hv), (hv, hu)] {
                    let dest = topo.rank_at(dir.dest_row(hd, rows), dir.src_col(hs, cols));
                    emit(EH, dest, (hs as u64, hd as u64));
                }
                return;
            }
        };
        if dir.is_e(hub) {
            // E ↔ L: stored once at L's owner.
            emit(EL, dist.owner(l), (hub as u64, l));
        } else {
            // H ↔ L: H→L copy at (row(owner(l)), col(owner(h))),
            // L→H copy at owner(l).
            let inter = topo.rank_at(topo.row_of(dist.owner(l)), topo.col_of(dist.owner(hub_v)));
            emit(H2L, inter, (hub as u64, l));
            emit(LH, dist.owner(l), (hub as u64, l));
        }
    }

    /// The five send sets of `edges`, indexed by component, every list
    /// allocated at its exact length: a counting pass of [`Self::route`]
    /// sizes them and a second pass fills them.
    fn send_sets(&self, edges: &[Edge]) -> [SendSet; 5] {
        let mut counts = vec![[0usize; 5]; self.dist.num_ranks()];
        for e in edges {
            self.route(e, |c, dest, _| counts[dest][c] += 1);
        }
        let mut sets: [SendSet; 5] = std::array::from_fn(|c| {
            counts
                .iter()
                .map(|count| Vec::with_capacity(count[c]))
                .collect()
        });
        for e in edges {
            self.route(e, |c, dest, pair| sets[c][dest].push(pair));
        }
        sets
    }
}

/// Build this rank's partition from its chunk of the global edge list.
///
/// SPMD: every rank calls this with the same `n` and `thresholds` and
/// its own `edges` chunk; the union of chunks is the global multigraph.
/// A chunk passed by value (`Vec<Edge>`) is freed once its edges are
/// routed; a borrowed one (`&chunk`) stays with the caller.
pub fn build_1p5d<'a>(
    ctx: &mut RankCtx,
    n: u64,
    edges: impl Into<Cow<'a, [Edge]>>,
    thresholds: Thresholds,
) -> RankPartition {
    let edges = edges.into();
    let topo = ctx.topology();
    let p = ctx.nranks();
    let rank = ctx.rank();
    let dist = VertexDistribution::new(n, p);

    // ---- (1) exact degrees at owners ----------------------------------
    // Counted per owner first, so every list is allocated at its length.
    let mut counts = vec![0usize; p];
    for e in edges.iter() {
        counts[dist.owner(e.u)] += 1;
        counts[dist.owner(e.v)] += 1;
    }
    let mut endpoint_msgs: Vec<Vec<VertexId>> =
        counts.into_iter().map(Vec::with_capacity).collect();
    for e in edges.iter() {
        endpoint_msgs[dist.owner(e.u)].push(e.u);
        endpoint_msgs[dist.owner(e.v)].push(e.v);
    }
    let received = ctx.alltoallv(Scope::World, "prep.alltoallv", endpoint_msgs);
    let my_range = dist.range_of(rank);
    let mut owned_degrees = vec![0u32; (my_range.end - my_range.start) as usize];
    for batch in received {
        for v in batch {
            owned_degrees[(v - my_range.start) as usize] += 1;
        }
    }

    // ---- (2) replicated hub directory ---------------------------------
    let local_heavy: Vec<(VertexId, u32)> = owned_degrees
        .iter()
        .enumerate()
        .filter(|(_, &d)| thresholds.class_of_degree(u64::from(d)) != VertexClass::L)
        .map(|(i, &d)| (my_range.start + i as u64, d))
        .collect();
    let gathered = ctx.allgatherv(Scope::World, "prep.allgather", local_heavy);
    let directory = HubDirectory::build(gathered.into_iter().flatten().collect(), thresholds);

    // ---- (3) route edges to their storage ranks ------------------------
    // The hub-id table lives only as long as the routing passes.
    let router = Router {
        topo,
        dist,
        directory: &directory,
        hub_of: directory.hub_id_table(n),
    };
    let [eh_msgs, el_msgs, h2l_msgs, lh_msgs, l2l_msgs] = router.send_sets(&edges);
    drop(router);
    drop(edges);

    // ---- (4) component CSRs --------------------------------------------
    // One component at a time: exchange, index both orientations off
    // the received parts, drop the parts.
    let nh = directory.num_hubs() as u64;
    let my_row = topo.row_of(rank);
    let row_range = row_vertex_range(&dist, &topo, my_row);
    let my_count = my_range.end - my_range.start;
    let row_count = row_range.end - row_range.start;
    let flip = |&(a, b): &(u64, u64)| (b, a);
    let mut index = |msgs: Vec<Vec<(u64, u64)>>, by_first: (u64, u64), by_second: (u64, u64)| {
        let parts = ctx.alltoallv(Scope::World, "prep.alltoallv", msgs);
        let pairs = parts.iter().flatten();
        (
            Csr::from_pairs(by_first.0, by_first.1, pairs.clone().copied(), true),
            Csr::from_pairs(by_second.0, by_second.1, pairs.map(flip), true),
        )
    };
    // EH csrs are keyed over the full (small) hub-id space; only hubs in
    // this rank's cyclic column/row slice have entries.
    let hub_keys = (0, nh);
    let (eh_by_src, eh_by_dst) = index(eh_msgs, hub_keys, hub_keys);
    let (el_by_hub, el_by_local) = index(el_msgs, hub_keys, (my_range.start, my_count));
    let (h2l_by_hub, h2l_by_local) = index(h2l_msgs, hub_keys, (row_range.start, row_count));
    let (lh_by_hub, lh_by_local) = index(lh_msgs, hub_keys, (my_range.start, my_count));
    let l2l_parts = ctx.alltoallv(Scope::World, "prep.alltoallv", l2l_msgs);
    let l2l = Csr::from_pairs(
        my_range.start,
        my_count,
        l2l_parts.iter().flatten().copied(),
        true,
    );

    let stats = ComponentStats {
        eh2eh: eh_by_src.num_edges(),
        e2l: el_by_hub.num_edges(),
        l2e: el_by_local.num_edges(),
        h2l: h2l_by_hub.num_edges(),
        l2h: lh_by_local.num_edges(),
        l2l: l2l.num_edges(),
    };

    RankPartition {
        rank,
        dist,
        owned_hubs: OwnedHubs::index(my_range, &directory, &owned_degrees),
        directory,
        owned_degrees,
        eh_by_src,
        eh_by_dst,
        el_by_hub,
        el_by_local,
        h2l_by_hub,
        h2l_by_local,
        lh_by_hub,
        lh_by_local,
        l2l,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use sunbfs_common::MachineConfig;
    use sunbfs_net::{Cluster, MeshShape};

    /// A small deterministic multigraph with skewed degrees: vertex 0 is
    /// a super-hub, 1..4 are medium, the rest sparse.
    fn skewed_edges(n: u64, m: usize, seed: u64) -> Vec<Edge> {
        let mut rng = sunbfs_common::SplitMix64::new(seed);
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let u = match rng.next_below(10) {
                0..=3 => 0,
                4..=6 => 1 + rng.next_below(4),
                _ => rng.next_below(n),
            };
            let v = rng.next_below(n);
            edges.push(Edge::new(u, v));
        }
        edges
    }

    fn build_on_cluster(
        rows: usize,
        cols: usize,
        n: u64,
        edges: &[Edge],
        th: Thresholds,
    ) -> Vec<RankPartition> {
        let cluster = Cluster::new(MeshShape::new(rows, cols), MachineConfig::new_sunway());
        let p = rows * cols;
        cluster.run(|ctx| {
            let chunk: Vec<Edge> = edges
                .iter()
                .enumerate()
                .filter(|(i, _)| i % p == ctx.rank())
                .map(|(_, e)| *e)
                .collect();
            build_1p5d(ctx, n, &chunk, th)
        })
    }

    fn canonical_input(edges: &[Edge]) -> BTreeSet<(u64, u64)> {
        edges
            .iter()
            .filter(|e| !e.is_self_loop())
            .map(|e| {
                let c = e.canonical();
                (c.u, c.v)
            })
            .collect()
    }

    /// Reassemble the undirected edge set from all components of all
    /// ranks; must equal the deduplicated input (minus self loops).
    fn reassemble(parts: &[RankPartition]) -> BTreeSet<(u64, u64)> {
        let mut out = BTreeSet::new();
        let dir = &parts[0].directory;
        let canon = |a: u64, b: u64| if a <= b { (a, b) } else { (b, a) };
        for p in parts {
            for (hs, hd) in p.eh_by_src.iter_edges() {
                out.insert(canon(dir.vertex_of(hs as u32), dir.vertex_of(hd as u32)));
            }
            for (h, l) in p.el_by_hub.iter_edges() {
                out.insert(canon(dir.vertex_of(h as u32), l));
            }
            for (h, l) in p.lh_by_hub.iter_edges() {
                out.insert(canon(dir.vertex_of(h as u32), l));
            }
            for (u, v) in p.l2l.iter_edges() {
                out.insert(canon(u, v));
            }
        }
        out
    }

    #[test]
    fn components_cover_the_input_exactly() {
        let n = 256;
        let edges = skewed_edges(n, 2000, 1);
        let parts = build_on_cluster(2, 2, n, &edges, Thresholds::new(100, 20));
        assert_eq!(reassemble(&parts), canonical_input(&edges));
    }

    #[test]
    fn degrees_are_exact() {
        let n = 128;
        let edges = skewed_edges(n, 1000, 2);
        let parts = build_on_cluster(2, 2, n, &edges, Thresholds::new(50, 10));
        // Independent sequential count.
        let mut deg = vec![0u32; n as usize];
        for e in &edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        for p in &parts {
            let range = p.owned_range();
            for v in range.clone() {
                assert_eq!(
                    p.owned_degrees[(v - range.start) as usize],
                    deg[v as usize],
                    "degree mismatch at v={v}"
                );
            }
        }
    }

    #[test]
    fn directories_agree_across_ranks() {
        let n = 128;
        let edges = skewed_edges(n, 1500, 3);
        let parts = build_on_cluster(2, 3, n, &edges, Thresholds::new(80, 15));
        let d0 = &parts[0].directory;
        for p in &parts[1..] {
            assert_eq!(p.directory.num_e(), d0.num_e());
            assert_eq!(p.directory.num_hubs(), d0.num_hubs());
            for h in 0..d0.num_hubs() {
                assert_eq!(p.directory.vertex_of(h), d0.vertex_of(h));
            }
        }
    }

    #[test]
    fn h2l_lives_on_the_intersection_rank() {
        let n = 64;
        let edges = skewed_edges(n, 800, 4);
        let rows = 2;
        let cols = 2;
        let parts = build_on_cluster(rows, cols, n, &edges, Thresholds::new(1000, 20));
        let topo = Topology::new(MeshShape::new(rows, cols));
        let dist = parts[0].dist;
        let dir = &parts[0].directory;
        for p in &parts {
            let my_row = topo.row_of(p.rank);
            let my_col = topo.col_of(p.rank);
            for (h, l) in p.h2l_by_hub.iter_edges() {
                let hv = dir.vertex_of(h as u32);
                assert_eq!(
                    topo.row_of(dist.owner(l)),
                    my_row,
                    "H2L must sit on L's row"
                );
                assert_eq!(
                    topo.col_of(dist.owner(hv)),
                    my_col,
                    "H2L must sit on H's column"
                );
            }
        }
    }

    #[test]
    fn l_components_live_at_owners() {
        let n = 64;
        let edges = skewed_edges(n, 800, 5);
        let parts = build_on_cluster(2, 2, n, &edges, Thresholds::new(100, 30));
        for p in &parts {
            let range = p.owned_range();
            for (l, _) in p.el_by_local.iter_edges() {
                assert!(range.contains(&l));
            }
            for (l, _) in p.lh_by_local.iter_edges() {
                assert!(range.contains(&l));
            }
            for (u, _) in p.l2l.iter_edges() {
                assert!(range.contains(&u));
            }
        }
    }

    #[test]
    fn no_hubs_degenerates_to_pure_1d() {
        let n = 64;
        let edges = skewed_edges(n, 500, 6);
        let parts = build_on_cluster(1, 4, n, &edges, Thresholds::none());
        for p in &parts {
            assert_eq!(p.directory.num_hubs(), 0);
            assert_eq!(p.stats.eh2eh + p.stats.e2l + p.stats.h2l + p.stats.l2h, 0);
        }
        assert_eq!(reassemble(&parts), canonical_input(&edges));
    }

    #[test]
    fn all_hubs_degenerates_to_2d() {
        let n = 64;
        let edges = skewed_edges(n, 500, 7);
        let parts = build_on_cluster(2, 2, n, &edges, Thresholds::all_hubs(1 << 20));
        for p in &parts {
            assert_eq!(
                p.stats.e2l + p.stats.l2e + p.stats.h2l + p.stats.l2h + p.stats.l2l,
                0
            );
        }
        assert_eq!(reassemble(&parts), canonical_input(&edges));
    }

    /// The build's routing as one pass of `push`es onto empty lists,
    /// probing the directory's hash index.
    fn route_by_push(
        topo: Topology,
        dist: VertexDistribution,
        dir: &HubDirectory,
        edges: &[Edge],
    ) -> [SendSet; 5] {
        let (rows, cols) = (topo.shape().rows, topo.shape().cols);
        let mut sets: [SendSet; 5] = std::array::from_fn(|_| vec![Vec::new(); topo.num_ranks()]);
        let eh_dest =
            |hs: u32, hd: u32| topo.rank_at(dir.dest_row(hd, rows), dir.src_col(hs, cols));
        for e in edges.iter().filter(|e| !e.is_self_loop()) {
            match (dir.hub_id(e.u), dir.hub_id(e.v)) {
                (Some(hu), Some(hv)) => {
                    sets[EH][eh_dest(hu, hv)].push((hu as u64, hv as u64));
                    sets[EH][eh_dest(hv, hu)].push((hv as u64, hu as u64));
                }
                (None, None) => {
                    sets[L2L][dist.owner(e.u)].push((e.u, e.v));
                    sets[L2L][dist.owner(e.v)].push((e.v, e.u));
                }
                (Some(h), None) | (None, Some(h)) => {
                    let l = if dir.hub_id(e.u).is_some() { e.v } else { e.u };
                    let owner_l = dist.owner(l);
                    if dir.is_e(h) {
                        sets[EL][owner_l].push((h as u64, l));
                    } else {
                        let owner_h = dist.owner(dir.vertex_of(h));
                        let inter = topo.rank_at(topo.row_of(owner_l), topo.col_of(owner_h));
                        sets[H2L][inter].push((h as u64, l));
                        sets[LH][owner_l].push((h as u64, l));
                    }
                }
            }
        }
        sets
    }

    #[test]
    fn send_sets_are_exactly_sized_and_match_one_pass_routing() {
        let n = 256;
        let mut edges = skewed_edges(n, 3000, 8);
        edges.extend([Edge::new(5, 5), Edge::new(0, 0)]);
        // Vertex 0 is E, 1..4 are H, the rest L.
        let th = Thresholds::new(500, 100);
        let mut deg = vec![0u32; n as usize];
        for e in &edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        let heavy = (0..n)
            .map(|v| (v, deg[v as usize]))
            .filter(|&(_, d)| th.class_of_degree(u64::from(d)) != VertexClass::L)
            .collect();
        let directory = HubDirectory::build(heavy, th);
        assert!(directory.num_e() > 0 && directory.num_h() > 0);
        assert!(directory.num_hubs() < n as u32);
        for (rows, cols) in [(1, 1), (2, 2), (2, 3)] {
            let topo = Topology::new(MeshShape::new(rows, cols));
            let dist = VertexDistribution::new(n, rows * cols);
            let router = Router {
                topo,
                dist,
                directory: &directory,
                hub_of: directory.hub_id_table(n),
            };
            let sets = router.send_sets(&edges);
            for (c, set) in sets.iter().enumerate() {
                assert_eq!(set.len(), rows * cols);
                for (dest, list) in set.iter().enumerate() {
                    assert_eq!(
                        list.len(),
                        list.capacity(),
                        "set {c}, rank {dest} of {rows}x{cols}"
                    );
                }
            }
            let reference = route_by_push(topo, dist, &directory, &edges);
            assert_eq!(sets, reference, "{rows}x{cols}");
            assert!(sets
                .iter()
                .all(|set| set.iter().any(|list| !list.is_empty())));
        }
    }

    #[test]
    fn self_loops_and_duplicates_dropped() {
        let edges = vec![
            Edge::new(3, 3),
            Edge::new(1, 2),
            Edge::new(2, 1),
            Edge::new(1, 2),
        ];
        let parts = build_on_cluster(1, 2, 8, &edges, Thresholds::none());
        let total: u64 = parts.iter().map(|p| p.stats.l2l).sum();
        // One undirected edge {1,2} → two stored orientations.
        assert_eq!(total, 2);
    }
}
