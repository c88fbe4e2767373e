//! Closed-form cost estimators for recurring chip access patterns.
//!
//! Node-level time in the reproduction comes from a handful of access
//! patterns with well-understood costs on SW26010-Pro (§3.1):
//!
//! * **DMA streaming** — bulk sequential transfers between main memory
//!   and LDM; good utilization needs ≥ 1 KB grains, sub-grain transfers
//!   waste bandwidth proportionally,
//! * **CPE scalar work** — per-item register/LDM work on the 64 CPEs of
//!   each active core group,
//! * **GLD/GST loops** — random uncached main-memory accesses, each a
//!   full round-trip latency (the pattern segmenting exists to kill),
//! * **MPE scalar scatter** — the management core chasing random
//!   addresses, the Figure 14 baseline,
//! * **cross-CG atomics** — the only synchronization SW26010-Pro offers
//!   between core groups; slow because it bounces through main memory.
//!
//! Each estimator returns a [`KernelReport`] so callers can charge the
//! time and keep the byte/op counts for the experiment write-ups.

use sunbfs_common::{JsonValue, MachineConfig, PoolStats, SimTime, ToJson};

/// Outcome of a simulated chip kernel: elapsed time plus traffic/op
/// counters for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelReport {
    /// Simulated elapsed time of the kernel (critical path over CPEs).
    pub time: SimTime,
    /// Bytes moved by DMA (main memory ↔ LDM).
    pub dma_bytes: u64,
    /// Bytes moved by RMA (LDM ↔ LDM).
    pub rma_bytes: u64,
    /// Number of RMA get/put operations.
    pub rma_ops: u64,
    /// Number of GLD/GST direct main-memory accesses.
    pub gld_ops: u64,
    /// Number of atomic operations (cross-CG synchronization).
    pub atomic_ops: u64,
    /// Items processed (kernel-specific meaning).
    pub items: u64,
    /// Host worker-pool activity of the kernel's functional pass (how
    /// the simulation itself was parallelized; no effect on simulated
    /// time).
    pub pool: PoolStats,
}

impl KernelReport {
    /// Merge another report, adding times (sequential composition) and
    /// summing the counters.
    pub fn join_serial(&mut self, other: &KernelReport) {
        self.time += other.time;
        self.dma_bytes += other.dma_bytes;
        self.rma_bytes += other.rma_bytes;
        self.rma_ops += other.rma_ops;
        self.gld_ops += other.gld_ops;
        self.atomic_ops += other.atomic_ops;
        self.items += other.items;
        self.pool.merge(&other.pool);
    }

    /// Throughput in bytes/second over `payload_bytes` of useful data.
    pub fn throughput(&self, payload_bytes: u64) -> f64 {
        if self.time.as_secs() <= 0.0 {
            0.0
        } else {
            payload_bytes as f64 / self.time.as_secs()
        }
    }
}

impl ToJson for KernelReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("time_s", self.time.to_json())
            .field("dma_bytes", self.dma_bytes)
            .field("rma_bytes", self.rma_bytes)
            .field("rma_ops", self.rma_ops)
            .field("gld_ops", self.gld_ops)
            .field("atomic_ops", self.atomic_ops)
            .field("items", self.items)
            .field("pool", self.pool.to_json())
            .build()
    }
}

/// DMA transfer efficiency for a given grain size: full bandwidth at or
/// above the machine's efficient grain, degrading linearly below it
/// (a short transfer still pays the setup of a full grain).
#[inline]
pub fn dma_efficiency(machine: &MachineConfig, grain_bytes: usize) -> f64 {
    if grain_bytes >= machine.dma_grain_bytes {
        1.0
    } else {
        (grain_bytes.max(1) as f64) / machine.dma_grain_bytes as f64
    }
}

/// Time to DMA-stream `bytes` with transfers of `grain_bytes`, when
/// `active_cgs` core groups share the chip's DMA bandwidth.
pub fn dma_stream(
    machine: &MachineConfig,
    bytes: u64,
    grain_bytes: usize,
    active_cgs: usize,
) -> SimTime {
    let cgs = active_cgs.clamp(1, machine.cgs_per_node);
    let bw = machine.dma_bandwidth * cgs as f64 / machine.cgs_per_node as f64;
    let eff = dma_efficiency(machine, grain_bytes);
    SimTime::secs(bytes as f64 / (bw * eff))
}

/// Time for `items` of scalar CPE work at `cycles_per_item`, spread
/// perfectly over the CPEs of `active_cgs` core groups.
pub fn cpe_work(
    machine: &MachineConfig,
    items: u64,
    cycles_per_item: f64,
    active_cgs: usize,
) -> SimTime {
    let cpes = (machine.cpes_per_cg * active_cgs.max(1).min(machine.cgs_per_node)) as f64;
    SimTime::secs(items as f64 * cycles_per_item / machine.cpe_hz / cpes)
}

/// Time for `accesses` random GLD/GST round trips spread over
/// `parallel_cpes` cores (each access is latency-bound; the memory
/// system pipelines across cores but not within one).
pub fn gld_random(machine: &MachineConfig, accesses: u64, parallel_cpes: usize) -> SimTime {
    SimTime::secs(accesses as f64 * machine.gld_latency / parallel_cpes.max(1) as f64)
}

/// Time for `accesses` random RMA gets/puts spread over `parallel_cpes`
/// cores.
pub fn rma_random(machine: &MachineConfig, accesses: u64, parallel_cpes: usize) -> SimTime {
    SimTime::secs(accesses as f64 * machine.rma_latency / parallel_cpes.max(1) as f64)
}

/// Time for the MPE to process `items` with one random main-memory
/// access each — the sequential baseline of Figure 14.
pub fn mpe_scatter(machine: &MachineConfig, items: u64) -> SimTime {
    SimTime::secs(items as f64 * machine.mpe_item_cost)
}

/// Time for `accesses` random reads through the optional LDCache
/// (§3.1.2): the cache shares physical space with LDM, so its capacity
/// is at most the LDM size. Uniform random access over a working set
/// larger than the cache misses proportionally, each miss a GLD round
/// trip — the quantitative form of §3.3's "the cache size is not large
/// enough to hold the hot data given millions of vertices each node is
/// responsible for".
pub fn ldcache_random(
    machine: &MachineConfig,
    accesses: u64,
    working_set_bytes: u64,
    parallel_cpes: usize,
) -> SimTime {
    let cache = machine.ldm_bytes as f64;
    let hit_rate = (cache / working_set_bytes.max(1) as f64).min(1.0);
    let hit_cost = machine.cpe_cycles_per_item / machine.cpe_hz;
    let miss_cost = machine.gld_latency;
    let per_access = hit_rate * hit_cost + (1.0 - hit_rate) * miss_cost;
    SimTime::secs(accesses as f64 * per_access / parallel_cpes.max(1) as f64)
}

/// Time for `ops` cross-CG atomic operations issued from one core group.
pub fn atomics(machine: &MachineConfig, ops: u64) -> SimTime {
    SimTime::secs(ops as f64 * machine.atomic_cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> MachineConfig {
        MachineConfig::new_sunway()
    }

    #[test]
    fn dma_efficiency_saturates_at_grain() {
        let m = m();
        assert_eq!(dma_efficiency(&m, 1024), 1.0);
        assert_eq!(dma_efficiency(&m, 4096), 1.0);
        assert_eq!(dma_efficiency(&m, 512), 0.5);
        assert!(dma_efficiency(&m, 0) > 0.0);
    }

    #[test]
    fn dma_stream_scales_with_cgs() {
        let m = m();
        let one = dma_stream(&m, 1 << 30, 2048, 1);
        let six = dma_stream(&m, 1 << 30, 2048, 6);
        assert!((one.as_secs() / six.as_secs() - 6.0).abs() < 1e-9);
        // Full-chip streaming of 1 GiB at 249 GB/s:
        let expect = (1u64 << 30) as f64 / 249.0e9;
        assert!((six.as_secs() - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn small_grain_halves_bandwidth() {
        let m = m();
        let full = dma_stream(&m, 1 << 20, 1024, 6);
        let half = dma_stream(&m, 1 << 20, 512, 6);
        assert!((half.as_secs() / full.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cpe_work_uses_all_cores() {
        let m = m();
        let t = cpe_work(&m, 384_000, 8.0, 6);
        // 1000 items per CPE at 8 cycles.
        let expect = 1000.0 * 8.0 / m.cpe_hz;
        assert!((t.as_secs() - expect).abs() < 1e-15);
    }

    #[test]
    fn gld_is_much_slower_than_rma() {
        let m = m();
        let gld = gld_random(&m, 1_000_000, 64);
        let rma = rma_random(&m, 1_000_000, 64);
        let ratio = gld.as_secs() / rma.as_secs();
        assert!(
            ratio > 8.0 && ratio < 10.0,
            "GLD/RMA ratio {ratio} should be ~9 (paper's 9x)"
        );
    }

    #[test]
    fn mpe_matches_figure14_baseline() {
        let m = m();
        // 4 GB of 8-byte items on the MPE: paper measures 0.0406 GB/s.
        let items = (4u64 << 30) / 8;
        let t = mpe_scatter(&m, items);
        let gbps = (4u64 << 30) as f64 / t.as_secs() / 1e9;
        assert!(
            (gbps - 0.0406).abs() < 0.01,
            "MPE throughput {gbps} GB/s vs paper 0.0406"
        );
    }

    #[test]
    fn ldcache_interpolates_between_ldm_and_gld() {
        let m = m();
        let cpes = m.cpes_per_node();
        // Working set inside the cache: pure hit cost, far below GLD.
        let hot = ldcache_random(&m, 1_000_000, 64 * 1024, cpes);
        let gld = gld_random(&m, 1_000_000, cpes);
        assert!(hot.as_secs() < gld.as_secs() / 50.0);
        // Working set 100x the cache: nearly every access misses.
        let cold = ldcache_random(&m, 1_000_000, 100 * m.ldm_bytes as u64, cpes);
        assert!(cold.as_secs() > gld.as_secs() * 0.9);
        // Monotone in working-set size.
        let mut prev = SimTime::ZERO;
        for ws in [1u64 << 14, 1 << 18, 1 << 22, 1 << 26] {
            let t = ldcache_random(&m, 1_000_000, ws, cpes);
            assert!(t >= prev);
            prev = t;
        }
        // The paper's point: the RMA-segmented probe beats LDCache on
        // the EH2EH pull working set (a few MB of bits per node).
        let pull_ws = 4 * 1024 * 1024u64;
        let via_cache = ldcache_random(&m, 1_000_000, pull_ws, cpes);
        let via_rma = rma_random(&m, 1_000_000, m.cpes_per_cg);
        assert!(
            via_rma.as_secs() < via_cache.as_secs(),
            "segmenting must beat LDCache"
        );
    }

    #[test]
    fn report_compositions() {
        let a = KernelReport {
            time: SimTime::secs(1.0),
            dma_bytes: 10,
            ..Default::default()
        };
        let b = KernelReport {
            time: SimTime::secs(2.0),
            dma_bytes: 5,
            ..Default::default()
        };
        let mut ser = a;
        ser.join_serial(&b);
        assert_eq!(ser.time.as_secs(), 3.0);
        assert_eq!(ser.dma_bytes, 15);
    }

    #[test]
    fn throughput_guards_zero_time() {
        let r = KernelReport::default();
        assert_eq!(r.throughput(100), 0.0);
    }
}
