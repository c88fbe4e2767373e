//! Chip playground: the SW26010-Pro kernels in isolation.
//!
//! Demonstrates the two chip-level techniques on the simulator:
//!
//! 1. **OCS-RMA** (§4.4) — bucket 64-bit integers by their low 8 bits
//!    on the MPE, one core group, and six core groups, reproducing the
//!    Figure 14 throughput ladder (paper: 0.0406 / 12.5 / 58.6 GB/s);
//! 2. **CG-aware segmenting** (§4.3) — random bit probes through the
//!    LDM-distributed bit vector (RMA) versus direct main-memory reads
//!    (GLD), the 9× kernel gap behind Figure 15.
//!
//! ```text
//! cargo run --release --example chip_playground -- [mib]
//! ```
//!
//! `mib` (default 32) must be an integer in 1..=1024; anything else is
//! refused by name (`sunbfs::cli`), exit code 2.

use sunbfs::cli;
use sunbfs::common::{MachineConfig, SplitMix64};
use sunbfs::sunway::kernels;
use sunbfs::sunway::{ocs_sort_mpe, ocs_sort_rma, OcsConfig, SegmentedBitvec};

fn main() {
    let mib = cli::positional(1, "mib", 32, 1..=1024) as usize;
    let machine = MachineConfig::new_sunway();
    let n = mib * 1024 * 1024 / 8;
    let mut rng = SplitMix64::new(7);
    let items: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let bytes = (n * 8) as u64;
    let bucket = |x: &u64| (x & 0xff) as usize;

    println!("OCS-RMA bucketing {mib} MiB of u64 by low 8 bits (paper Figure 14):");
    let (_, mpe) = ocs_sort_mpe(&machine, &items, 256, bucket);
    println!(
        "  MPE (sequential):   {:>9.4} GB/s   (paper: 0.0406)",
        mpe.throughput(bytes) / 1e9
    );
    let (_, cg1) = ocs_sort_rma(&machine, &OcsConfig::default(), &items, 256, 1, bucket);
    println!(
        "  1 CG  (64 CPEs):    {:>9.2} GB/s   (paper: 12.5)   rma puts: {}",
        cg1.throughput(bytes) / 1e9,
        cg1.rma_ops
    );
    let (buckets, cg6) = ocs_sort_rma(&machine, &OcsConfig::default(), &items, 256, 6, bucket);
    println!(
        "  6 CGs (384 CPEs):   {:>9.2} GB/s   (paper: 58.6)   atomics: {}",
        cg6.throughput(bytes) / 1e9,
        cg6.atomic_ops
    );
    let check: usize = buckets.iter().map(Vec::len).sum();
    assert_eq!(check, n, "sorter lost items");
    println!(
        "  speedup 6CG/MPE:    {:>9.0}x  (paper: 1443x)",
        cg6.throughput(bytes) / mpe.throughput(bytes)
    );

    // ---- segmented bit-vector probes ----
    println!("\nCG-aware segmenting: 1M random probes of a 2 MB activeness bit vector:");
    let bits = 2 * 1024 * 1024 * 8u64;
    let mut seg = SegmentedBitvec::new(bits, machine.cpes_per_cg);
    let mut rng = SplitMix64::new(8);
    for _ in 0..100_000 {
        seg.set(rng.next_below(bits));
    }
    println!(
        "  LDM per CPE: {} KB (budget 256 KB)",
        seg.ldm_bytes_per_cpe() / 1024
    );
    let probes = 1_000_000u64;
    let mut remote = 0u64;
    let mut hits = 0u64;
    for i in 0..probes {
        let cpe = (i % 64) as usize;
        let (v, was_remote) = seg.get_from(cpe, rng.next_below(bits));
        remote += was_remote as u64;
        hits += v as u64;
    }
    let t_rma = kernels::rma_random(&machine, remote, machine.cpes_per_cg);
    let t_gld = kernels::gld_random(&machine, probes, machine.cpes_per_cg);
    println!(
        "  remote (RMA) fraction: {:.1}%  hits: {hits}",
        100.0 * remote as f64 / probes as f64
    );
    println!("  probe time via RMA:  {:>8.1} us", t_rma.as_secs() * 1e6);
    println!("  probe time via GLD:  {:>8.1} us", t_gld.as_secs() * 1e6);
    println!(
        "  segmenting speedup:  {:>8.1}x   (paper: ~9x on the EH2EH pull kernel)",
        t_gld.as_secs() / t_rma.as_secs()
    );
}
