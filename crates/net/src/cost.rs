//! Network cost model.
//!
//! Functional data movement in this runtime is exact (bytes really move
//! between rank threads); *time* is charged analytically from the same
//! volumes, using the machine constants of §3.2:
//!
//! * every node injects/receives at NIC bandwidth (200 Gbps),
//! * traffic between supernodes shares uplinks that are oversubscribed
//!   8×, so the effective per-node inter-supernode bandwidth is
//!   `nic / oversubscription` when a whole supernode communicates at
//!   once (the regime of BFS collectives),
//! * collectives additionally pay `O(log₂ n)` software latency.
//!
//! The model intentionally has *no fitted constants beyond the machine
//! sheet*: the paper's scaling behaviour (Figures 9–11) must emerge from
//! volumes × topology alone.

use crate::topology::Topology;
use sunbfs_common::{MachineConfig, SimTime};

/// Which ranks participate in a collective.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scope {
    /// All ranks in the cluster.
    World,
    /// The caller's mesh row (one supernode).
    Row,
    /// The caller's mesh column (one rank per supernode).
    Col,
}

impl Scope {
    /// True when every member of the scope lives in the same supernode.
    pub fn intra_supernode(self) -> bool {
        matches!(self, Scope::Row)
    }
}

/// Effective per-node bandwidth for a scope: full NIC speed inside a
/// supernode, oversubscribed across supernodes.
#[inline]
pub fn scope_bandwidth(machine: &MachineConfig, scope: Scope) -> f64 {
    if scope.intra_supernode() {
        machine.nic_bandwidth
    } else {
        machine.nic_bandwidth / machine.oversubscription
    }
}

/// Latency term of an `n`-party collective.
#[inline]
pub fn collective_latency(machine: &MachineConfig, n: usize) -> SimTime {
    let hops = (n.max(2) as f64).log2().ceil();
    SimTime::secs(machine.net_latency * hops)
}

/// Scopes of up to this many members, on meshes of up to this many
/// supernodes, are costed without allocating.
const STACK_TALLIES: usize = 64;

/// Cost of an irregular all-to-all given the full byte-volume matrix
/// `volumes[src][dst]` (scope-local indices; `members` maps them to
/// global ranks for supernode attribution). The rows are borrowed, and
/// nothing is allocated for scopes up to [`STACK_TALLIES`].
///
/// Three bottleneck candidates are evaluated and the worst taken:
/// per-node injection, per-node reception, and per-supernode uplink
/// (inter-supernode volume over the oversubscribed capacity).
pub fn alltoallv_cost<R: AsRef<[u64]>>(
    machine: &MachineConfig,
    topo: &Topology,
    members: &[usize],
    volumes: &[R],
) -> SimTime {
    let n = members.len();
    debug_assert_eq!(volumes.len(), n);
    if n <= 1 {
        return SimTime::ZERO;
    }
    let supernodes = topo.num_supernodes();
    let mut stack = [0u64; 3 * STACK_TALLIES];
    let mut heap = Vec::new();
    let tallies = if n <= STACK_TALLIES && supernodes <= STACK_TALLIES {
        &mut stack[..2 * n + supernodes]
    } else {
        heap.resize(2 * n + supernodes, 0u64);
        &mut heap[..]
    };
    let (inject, rest) = tallies.split_at_mut(n);
    // Inter-supernode byte totals, per supernode (out + in).
    let (receive, sn_traffic) = rest.split_at_mut(n);
    for (s, row) in volumes.iter().enumerate() {
        let row = row.as_ref();
        debug_assert_eq!(row.len(), n);
        for (d, &bytes) in row.iter().enumerate() {
            if s == d || bytes == 0 {
                continue;
            }
            inject[s] += bytes;
            receive[d] += bytes;
            let sn_s = topo.supernode_of(members[s]);
            let sn_d = topo.supernode_of(members[d]);
            if sn_s != sn_d {
                sn_traffic[sn_s] += bytes;
                sn_traffic[sn_d] += bytes;
            }
        }
    }
    let nic = machine.nic_bandwidth;
    let uplink = machine.supernode_uplink(topo.supernode_size());
    let t_inject = inject.iter().map(|&b| b as f64 / nic).fold(0.0, f64::max);
    let t_receive = receive.iter().map(|&b| b as f64 / nic).fold(0.0, f64::max);
    let t_uplink = sn_traffic
        .iter()
        .map(|&b| b as f64 / uplink)
        .fold(0.0, f64::max);
    SimTime::secs(t_inject.max(t_receive).max(t_uplink)) + collective_latency(machine, n)
}

/// Cost of an all-gather where member `i` contributes `bytes[i]`.
/// Ring model: every rank receives everything except its own share.
pub fn allgatherv_cost(machine: &MachineConfig, scope: Scope, bytes: &[u64]) -> SimTime {
    let n = bytes.len();
    if n <= 1 {
        return SimTime::ZERO;
    }
    let total: u64 = bytes.iter().sum();
    let max_recv = bytes.iter().map(|&b| total - b).max().unwrap_or(0);
    SimTime::from_bytes(max_recv, scope_bandwidth(machine, scope)) + collective_latency(machine, n)
}

/// Cost of one half of a ring all-reduce over `bytes` bytes per rank —
/// either the reduce-scatter phase or the allgather phase (they cost the
/// same; the caller charges them under separate categories to reproduce
/// the paper's Figure 11 breakdown).
pub fn allreduce_half_cost(machine: &MachineConfig, scope: Scope, n: usize, bytes: u64) -> SimTime {
    if n <= 1 {
        return SimTime::ZERO;
    }
    let moved = bytes as f64 * (n as f64 - 1.0) / n as f64;
    SimTime::secs(moved / scope_bandwidth(machine, scope)) + collective_latency(machine, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::MeshShape;

    fn machine() -> MachineConfig {
        MachineConfig::new_sunway()
    }

    #[test]
    fn row_scope_is_full_bandwidth() {
        let m = machine();
        assert_eq!(scope_bandwidth(&m, Scope::Row), m.nic_bandwidth);
        assert_eq!(
            scope_bandwidth(&m, Scope::Col),
            m.nic_bandwidth / m.oversubscription
        );
        assert_eq!(
            scope_bandwidth(&m, Scope::World),
            m.nic_bandwidth / m.oversubscription
        );
    }

    #[test]
    fn alltoallv_single_rank_is_free() {
        let m = machine();
        let topo = Topology::new(MeshShape::new(1, 1));
        let c = alltoallv_cost(&m, &topo, &[0], &[vec![0]]);
        assert_eq!(c.as_secs(), 0.0);
    }

    #[test]
    fn alltoallv_intra_supernode_ignores_uplink() {
        let m = machine();
        // One row of four nodes: all traffic intra-supernode.
        let topo = Topology::new(MeshShape::new(1, 4));
        let members = [0, 1, 2, 3];
        let gb = 1_000_000_000u64;
        let volumes: Vec<Vec<u64>> = (0..4)
            .map(|s| (0..4).map(|d| if s == d { 0 } else { gb }).collect())
            .collect();
        let t = alltoallv_cost(&m, &topo, &members, &volumes);
        // 3 GB injected at 25 GB/s = 0.12 s plus latency.
        let expect = 3.0 * gb as f64 / m.nic_bandwidth;
        assert!(
            (t.as_secs() - expect).abs() < 1e-4,
            "{} vs {}",
            t.as_secs(),
            expect
        );
    }

    #[test]
    fn alltoallv_cross_supernode_hits_oversubscription() {
        let m = machine();
        // A 4x1 column: every transfer crosses supernodes.
        let topo = Topology::new(MeshShape::new(4, 1));
        let members = [0, 1, 2, 3];
        let gb = 1_000_000_000u64;
        let volumes: Vec<Vec<u64>> = (0..4)
            .map(|s| (0..4).map(|d| if s == d { 0 } else { gb }).collect())
            .collect();
        let t = alltoallv_cost(&m, &topo, &members, &volumes);
        // Supernodes have one node here: uplink = nic/oversub; each
        // supernode moves 3 GB out + 3 GB in = 6 GB over 3.125 GB/s.
        let uplink = m.nic_bandwidth / m.oversubscription;
        let expect = 6.0 * gb as f64 / uplink;
        assert!(
            (t.as_secs() - expect).abs() / expect < 1e-3,
            "{} vs {}",
            t.as_secs(),
            expect
        );
    }

    #[test]
    fn bigger_messages_cost_more() {
        let m = machine();
        let topo = Topology::new(MeshShape::new(2, 2));
        let members = [0, 1, 2, 3];
        let small: Vec<Vec<u64>> = vec![vec![0, 10, 10, 10]; 4];
        let large: Vec<Vec<u64>> = vec![vec![0, 1000, 1000, 1000]; 4];
        assert!(
            alltoallv_cost(&m, &topo, &members, &large)
                > alltoallv_cost(&m, &topo, &members, &small)
        );
    }

    #[test]
    fn allgather_cost_scales_with_scope() {
        let m = machine();
        let bytes = vec![1_000_000u64; 8];
        let row = allgatherv_cost(&m, Scope::Row, &bytes);
        let col = allgatherv_cost(&m, Scope::Col, &bytes);
        assert!(col > row, "cross-supernode allgather must cost more");
    }

    #[test]
    fn allreduce_half_matches_ring_formula() {
        let m = machine();
        let t = allreduce_half_cost(&m, Scope::Row, 4, 4000);
        let expect = 3000.0 / m.nic_bandwidth + m.net_latency * 2.0;
        assert!((t.as_secs() - expect).abs() < 1e-12);
    }

    #[test]
    fn trivial_scopes_are_free() {
        let m = machine();
        assert_eq!(allgatherv_cost(&m, Scope::World, &[5]).as_secs(), 0.0);
        assert_eq!(
            allreduce_half_cost(&m, Scope::World, 1, 1 << 20).as_secs(),
            0.0
        );
    }
}
