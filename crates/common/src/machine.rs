//! Machine constants — the single source of truth for the cost model.
//!
//! The paper's performance results are functions of a few hardware
//! constants of New Sunway: the SW26010-Pro chip (§3.1) and the
//! oversubscribed fat-tree interconnect (§3.2). Every simulated kernel
//! and collective reads its constants from one [`MachineConfig`] value
//! so that ablation studies change exactly one knob at a time.
//!
//! Defaults reproduce the paper's published numbers:
//! * 6 core groups × 64 CPEs per node, 256 KB LDM per CPE,
//! * 249.0 GB/s measured node DMA bandwidth (§3.1.1),
//! * RMA latency far below main-memory latency (§3.1.2),
//! * 200 Gbps (25 GB/s) NIC per node, 256-node supernodes, 8× fat-tree
//!   oversubscription (§6.1.1).

/// Hardware constants of the simulated machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineConfig {
    // ---- SW26010-Pro chip ----
    /// Core groups per processor (6 on SW26010-Pro).
    pub cgs_per_node: usize,
    /// Computing Processing Elements per core group (64).
    pub cpes_per_cg: usize,
    /// Local Data Memory per CPE in bytes (256 KiB).
    pub ldm_bytes: usize,
    /// Aggregate chip DMA bandwidth, bytes/second (249.0 GB/s measured).
    pub dma_bandwidth: f64,
    /// Minimum DMA grain for good bandwidth utilization, bytes (§4.4).
    pub dma_grain_bytes: usize,
    /// Latency of one GLD/GST (uncached direct main-memory access), seconds.
    pub gld_latency: f64,
    /// Latency of one RMA get/put between CPE LDMs in a CG, seconds.
    pub rma_latency: f64,
    /// Peak RMA bandwidth per CPE pair, bytes/second.
    pub rma_bandwidth: f64,
    /// CPE clock, Hz.
    pub cpe_hz: f64,
    /// Cycles a CPE spends per item of scalar work (compare/mask/insert).
    pub cpe_cycles_per_item: f64,
    /// MPE cost per random main-memory item access, seconds (no shared
    /// cache: every scattered write is a round trip).
    pub mpe_item_cost: f64,
    /// Cost of one inefficient cross-CG atomic operation, seconds (§3.1.2:
    /// atomics go through main memory).
    pub atomic_cost: f64,

    // ---- interconnect ----
    /// NIC injection bandwidth per node, bytes/second (200 Gbps).
    pub nic_bandwidth: f64,
    /// Fat-tree oversubscription factor for inter-supernode traffic (8×).
    pub oversubscription: f64,
    /// Per-message software+switch latency, seconds.
    pub net_latency: f64,
    /// Nodes per supernode (informational; the mesh maps rows to
    /// supernodes, so inter-row traffic is inter-supernode traffic).
    pub nodes_per_supernode: usize,
}

impl MachineConfig {
    /// Constants of New Sunway as published in the paper.
    pub fn new_sunway() -> Self {
        MachineConfig {
            cgs_per_node: 6,
            cpes_per_cg: 64,
            ldm_bytes: 256 * 1024,
            dma_bandwidth: 249.0e9,
            dma_grain_bytes: 1024,
            gld_latency: 540e-9,
            rma_latency: 60e-9,
            rma_bandwidth: 4.0e9,
            cpe_hz: 2.25e9,
            cpe_cycles_per_item: 8.0,
            mpe_item_cost: 197e-9,
            atomic_cost: 600e-9,
            nic_bandwidth: 25.0e9,
            oversubscription: 8.0,
            net_latency: 2.0e-6,
            nodes_per_supernode: 256,
        }
    }

    /// Total CPEs on one node.
    #[inline]
    pub fn cpes_per_node(&self) -> usize {
        self.cgs_per_node * self.cpes_per_cg
    }

    /// Uplink capacity of one supernode toward the top-level fat tree,
    /// bytes/second.
    #[inline]
    pub fn supernode_uplink(&self, nodes_in_supernode: usize) -> f64 {
        nodes_in_supernode as f64 * self.nic_bandwidth / self.oversubscription
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::new_sunway()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let m = MachineConfig::new_sunway();
        assert_eq!(m.cgs_per_node, 6);
        assert_eq!(m.cpes_per_cg, 64);
        assert_eq!(m.cpes_per_node(), 384);
        assert_eq!(m.ldm_bytes, 256 * 1024);
        assert_eq!(m.dma_bandwidth, 249.0e9);
        assert_eq!(m.oversubscription, 8.0);
        assert_eq!(m.nodes_per_supernode, 256);
    }

    #[test]
    fn rma_beats_gld() {
        let m = MachineConfig::new_sunway();
        assert!(
            m.rma_latency < m.gld_latency / 4.0,
            "RMA must be much faster than GLD"
        );
    }

    #[test]
    fn supernode_uplink_applies_oversubscription() {
        let m = MachineConfig::new_sunway();
        let up = m.supernode_uplink(256);
        assert_eq!(up, 256.0 * 25.0e9 / 8.0);
    }
}
