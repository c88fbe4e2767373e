//! Memory gate for the partition build.
//!
//! At scale the build is bounded by node memory, not time, so building
//! a partition must hold each routed edge about once. Loading a
//! SCALE-16 session on a 2x2 mesh may raise the process's peak resident
//! set (`VmHWM`) by at most `PEAK_PER_PARTITION_BYTE` times the bytes
//! of the partition it leaves resident — the nine CSRs and the owned
//! degrees, counted the way the benchmark's `part.bytes` counts them
//! (28 MiB here). A build that keeps the generated chunk, every
//! exchanged payload twice and every component's received buffer alive
//! at once raises the peak by 3.2–3.4 times that; one that holds each
//! routed edge once, by 2.3 times.
//!
//! One test in its own binary, so no other test's allocations move the
//! peak; skipped where `/proc/self/status` does not exist.

use sunbfs::net::{FaultPlan, MeshShape};
use sunbfs::part::RankPartition;
use sunbfs::serve::{GraphSession, SessionConfig};

/// Allowed peak growth during `load`, per resident partition byte.
const PEAK_PER_PARTITION_BYTE: f64 = 2.75;

/// `VmHWM` of this process in bytes, if the kernel reports it.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Bytes of one rank's resident arrays: nine CSRs (offsets and targets,
/// eight bytes an entry) and the owned degrees (four).
fn partition_bytes(part: &RankPartition) -> u64 {
    let csrs = [
        &part.eh_by_src,
        &part.eh_by_dst,
        &part.el_by_hub,
        &part.el_by_local,
        &part.h2l_by_hub,
        &part.h2l_by_local,
        &part.lh_by_hub,
        &part.lh_by_local,
        &part.l2l,
    ];
    let words: usize = csrs
        .iter()
        .map(|c| c.offsets().len() + c.targets().len())
        .sum();
    (words * 8 + part.owned_degrees.len() * 4) as u64
}

#[test]
fn loading_a_partition_peaks_near_one_copy_of_its_edges() {
    let Some(before) = peak_rss_bytes() else {
        eprintln!("skipped: /proc/self/status has no VmHWM");
        return;
    };
    let mut cfg = SessionConfig::small(16, 4);
    cfg.mesh = MeshShape::new(2, 2);
    let session = GraphSession::load(cfg, FaultPlan::none()).expect("a fault-free load");
    let after = peak_rss_bytes().expect("VmHWM was readable before the load");
    let resident: u64 = session.partitions().iter().map(partition_bytes).sum();
    let growth = after.saturating_sub(before);
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    let ratio = growth as f64 / resident as f64;
    eprintln!(
        "load peak growth {:.1} MiB for a {:.1} MiB partition ({ratio:.2}x)",
        mib(growth),
        mib(resident)
    );
    assert!(
        ratio <= PEAK_PER_PARTITION_BYTE,
        "loading raised VmHWM by {:.1} MiB, {ratio:.2}x the {:.1} MiB partition \
         (allowed {PEAK_PER_PARTITION_BYTE}x)",
        mib(growth),
        mib(resident)
    );
}
