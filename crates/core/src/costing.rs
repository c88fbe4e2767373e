//! Time charging for the BFS sub-iteration kernels.
//!
//! Functional work in the engine runs in plain Rust; the simulated cost
//! of each sub-iteration is charged here from the same counted
//! quantities (edges scanned, probes issued, messages bucketed), using
//! the chip estimators of `sunbfs_sunway::kernels`. Keeping every
//! charge in one module makes the Figure 10/15 breakdowns auditable.

use sunbfs_common::{MachineConfig, SimTime};
use sunbfs_net::RankCtx;
use sunbfs_sunway::kernels;

/// Bytes one adjacency entry occupies when streamed by DMA.
const EDGE_BYTES: u64 = 8;

/// CPE cycles per scanned edge in a streaming kernel.
const SCAN_CYCLES: f64 = 8.0;

/// Charge a streaming edge scan (push, or the sequential side of a
/// pull): DMA-bound adjacency streaming overlapped with per-edge CPE
/// work — the slower of the two dominates.
pub fn charge_scan(ctx: &mut RankCtx, category: &'static str, edges: u64) {
    if edges == 0 {
        return;
    }
    let m = *ctx.machine();
    let t = scan_time(&m, edges);
    ctx.charge(category, t);
}

fn scan_time(m: &MachineConfig, edges: u64) -> SimTime {
    let dma = kernels::dma_stream(m, edges * EDGE_BYTES, m.dma_grain_bytes, m.cgs_per_node);
    let cpe = kernels::cpe_work(m, edges, SCAN_CYCLES, m.cgs_per_node);
    dma.max(cpe)
}

/// Charge an EH2EH push balanced by the edge-aware vertex cut: the
/// critical path is the largest per-CPE edge chunk, plus the (small)
/// frontier prefix-sum.
pub fn charge_balanced_push(
    ctx: &mut RankCtx,
    category: &'static str,
    max_chunk_edges: u64,
    frontier: u64,
) {
    let m = *ctx.machine();
    let cpe = SimTime::secs(max_chunk_edges as f64 * SCAN_CYCLES / m.cpe_hz);
    let prefix = kernels::cpe_work(&m, frontier, 2.0, m.cgs_per_node);
    let dma = kernels::dma_stream(
        &m,
        max_chunk_edges * EDGE_BYTES * m.cpes_per_node() as u64,
        m.dma_grain_bytes,
        m.cgs_per_node,
    );
    ctx.charge(category, cpe.max(dma) + prefix);
}

/// Charge an EH2EH pull: sequential destination streaming plus random
/// source-bit probes. With CG-aware segmenting (§4.3) every probe is an
/// on-chip RMA get served by the 64 CPEs of the segment's core group;
/// without it, every probe is a GLD round trip to main memory. The
/// per-CG probe counts come from the actual scan, so imbalance between
/// segments shows up as it would on hardware.
pub fn charge_eh_pull(
    ctx: &mut RankCtx,
    category: &'static str,
    edges: u64,
    probes_per_segment: &[u64],
    segmenting: bool,
) {
    let m = *ctx.machine();
    let stream = scan_time(&m, edges);
    let probe_time = if segmenting {
        let worst = probes_per_segment.iter().copied().max().unwrap_or(0);
        kernels::rma_random(&m, worst, m.cpes_per_cg)
    } else {
        let total: u64 = probes_per_segment.iter().sum();
        kernels::gld_random(&m, total, m.cpes_per_node())
    };
    ctx.charge(category, stream.max(probe_time));
}

/// Charge the receiver-side application of a message batch (the
/// two-stage destination update of §4.4: coarse bucket + in-LDM update).
pub fn charge_apply(ctx: &mut RankCtx, category: &'static str, messages: u64) {
    if messages == 0 {
        return;
    }
    let m = *ctx.machine();
    let t = scan_time(&m, 2 * messages); // two passes over the messages
    ctx.charge(category, t);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunbfs_common::MachineConfig;

    #[test]
    fn scan_time_monotone_in_edges() {
        let m = MachineConfig::new_sunway();
        let t1 = scan_time(&m, 1_000);
        let t2 = scan_time(&m, 1_000_000);
        assert!(t2 > t1);
        assert!(t1.as_secs() > 0.0);
    }

    #[test]
    fn segmented_pull_is_about_nine_times_faster() {
        // Probe-dominated regime, balanced segments: the RMA/GLD latency
        // ratio (9x) must carry through — Figure 15's kernel speedup.
        let m = MachineConfig::new_sunway();
        let probes = vec![1_000_000u64; 6];
        let seg = kernels::rma_random(&m, 1_000_000, m.cpes_per_cg);
        let unseg = kernels::gld_random(&m, 6_000_000, m.cpes_per_node());
        let ratio = unseg.as_secs() / seg.as_secs();
        assert!((8.0..10.0).contains(&ratio), "speedup {ratio}");
        let _ = probes;
    }
}
