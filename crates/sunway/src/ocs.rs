//! On-Chip Sorting with RMA (OCS-RMA), §4.4.
//!
//! Messaging by remote edges needs a generic "sort random messages into
//! buckets" meta-kernel. A conventional parallel bucket sort needs
//! either atomics per message or redundant main-memory passes — both
//! slow on SW26010-Pro. OCS-RMA instead splits the 64 CPEs of a core
//! group into 32 *producers* and 32 *consumers*:
//!
//! * each producer keeps 32 send buffers of 512 bytes (one per
//!   consumer) in its LDM; bucket `x` belongs to consumer `x mod 32`,
//! * a full buffer is RMA-put into the owning consumer's matching
//!   receive buffer,
//! * consumers drain their receive buffers into the buckets they own
//!   exclusively — no atomics anywhere inside a core group.
//!
//! Running on all 6 CGs, the input is block-partitioned and the CGs
//! synchronize with (rarely conflicting) cross-CG atomics, costing a
//! little efficiency — exactly the effect visible in Figure 14
//! (12.5 GB/s × 6 = 75 ≠ 58.6 GB/s measured).
//!
//! [`ocs_sort_rma`] is *functional*: its buckets hold every item in the
//! order the producer buffers and consumer drains would deliver it, and
//! its RMA counters are the puts that protocol would issue. It *replays*
//! that routing order and flush count arithmetically instead of
//! building the buffers — host time proportional to the items, not to
//! the 6 × 32 × 32 buffer grid — and the literal buffer-by-buffer pass
//! is the oracle it is tested against (`tests/ocs_reference.rs`). The
//! returned [`KernelReport`] carries the simulated time from the
//! machine constants. [`ocs_sort_mpe`] is the sequential
//! management-core baseline.

use crate::kernels::{self, KernelReport};
use sunbfs_common::{MachineConfig, SimTime};

/// Tuning knobs of the OCS-RMA kernel (§4.4 defaults).
#[derive(Clone, Copy, Debug)]
pub struct OcsConfig {
    /// Producer CPEs per core group.
    pub producers: usize,
    /// Consumer CPEs per core group.
    pub consumers: usize,
    /// Bytes per send/receive buffer (DMA/RMA batching grain).
    pub buffer_bytes: usize,
    /// Input block claimed per cross-CG atomic in multi-CG mode.
    pub cg_sync_block_bytes: usize,
}

impl Default for OcsConfig {
    fn default() -> Self {
        OcsConfig {
            producers: 32,
            consumers: 32,
            buffer_bytes: 512,
            cg_sync_block_bytes: 32 * 1024,
        }
    }
}

impl OcsConfig {
    /// Items of type `T` that fit one buffer.
    pub fn buffer_capacity<T>(&self) -> usize {
        (self.buffer_bytes / std::mem::size_of::<T>()).max(1)
    }

    /// LDM bytes one CPE dedicates to this kernel: a producer holds one
    /// send buffer per consumer, a consumer one receive buffer per
    /// producer (§4.4: "each core reserves 32 buffers of 512 bytes").
    pub fn ldm_footprint_per_cpe(&self) -> usize {
        self.producers.max(self.consumers) * self.buffer_bytes
    }

    /// Check the buffer set fits the machine's LDM with working margin.
    ///
    /// # Panics
    /// Panics when the configuration cannot exist on the chip — a
    /// misconfiguration, not a runtime condition.
    pub fn assert_fits(&self, machine: &MachineConfig) {
        let footprint = self.ldm_footprint_per_cpe();
        assert!(
            footprint <= machine.ldm_bytes / 2,
            "OCS buffers ({footprint} B/CPE) exceed half the {} B LDM — no room left \
             for the kernel's working data",
            machine.ldm_bytes
        );
    }
}

/// Sort `items` into `num_buckets` buckets with OCS-RMA on `active_cgs`
/// core groups. Returns the bucket vectors and the kernel report.
///
/// Deterministic: bucket contents depend only on the input order and
/// the configuration (producers are drained in a fixed order).
pub fn ocs_sort_rma<T, F>(
    machine: &MachineConfig,
    cfg: &OcsConfig,
    items: &[T],
    num_buckets: usize,
    active_cgs: usize,
    bucket_of: F,
) -> (Vec<Vec<T>>, KernelReport)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> usize + Sync,
{
    assert!(num_buckets > 0, "need at least one bucket");
    assert!(cfg.producers > 0 && cfg.consumers > 0);
    cfg.assert_fits(machine);
    let active_cgs = active_cgs.clamp(1, machine.cgs_per_node);
    let cap = cfg.buffer_capacity::<T>();
    let item_bytes = std::mem::size_of::<T>() as u64;
    let n = items.len();

    let mut report = KernelReport {
        items: n as u64,
        ..Default::default()
    };

    // ---- routing replay --------------------------------------------------
    // What the producer/consumer protocol decides is a permutation and
    // a put count, and both are arithmetic. Within one CG block (every
    // CG runs the same layout on its block; the split only affects
    // cost), bucket `b` of consumer `c = b mod consumers` receives,
    // producer slice by producer slice, the items of stream `(p, c)`
    // that left in *full* buffers — the first `k / cap * cap` of its
    // `k` items — and only after every producer's full buffers, in
    // producer order again, the `k mod cap` left-overs of the final
    // partial flushes. Each non-empty stream costs `ceil(k / cap)` puts.
    // So the pass costs what it carries: nothing below is sized by the
    // CPE counts except two per-consumer counter rows.
    assert!(
        num_buckets - 1 <= u32::MAX as usize,
        "bucket ids are kept as u32"
    );
    let mut totals = vec![0usize; num_buckets];
    let ids: Vec<u32> = items
        .iter()
        .map(|it| {
            let b = bucket_of(it);
            assert!(b < num_buckets, "bucket {b} out of range {num_buckets}");
            totals[b] += 1;
            b as u32
        })
        .collect();
    let mut buckets: Vec<Vec<T>> = totals.iter().map(|&k| Vec::with_capacity(k)).collect();
    let consumers = cfg.consumers;
    // The engine sorts into at most as many buckets as there are
    // consumers: bucket `b` is then consumer `b`, with no division.
    let consumer_of = |b: u32| {
        let b = b as usize;
        if b < consumers {
            b
        } else {
            b % consumers
        }
    };
    let mut rma_flushes = 0u64;
    // Last short slice that opened a stream to each consumer.
    let mut opened_by = vec![0usize; consumers];
    let mut slice_no = 0usize;
    // Items of each stream of the current slice still to leave in full
    // buffers, and the block's left-overs in producer order.
    let mut in_full = vec![0usize; consumers];
    let mut leftovers: Vec<(u32, T)> = Vec::new();
    let block_len = n.div_ceil(active_cgs).max(1);
    for (block_ids, block) in ids.chunks(block_len).zip(items.chunks(block_len)) {
        // Producers take contiguous slices of the CG's block.
        let slice_len = block.len().div_ceil(cfg.producers).max(1);
        let slices = block_ids.chunks(slice_len).zip(block.chunks(slice_len));
        if slice_len < cap {
            // No stream can fill a buffer: every item is a left-over,
            // and the block is a stable partition of its input. Each
            // slice pays one put per consumer it addresses.
            for (slice_ids, slice) in slices {
                slice_no += 1;
                for (&b, &it) in slice_ids.iter().zip(slice) {
                    let c = consumer_of(b);
                    if opened_by[c] != slice_no {
                        opened_by[c] = slice_no;
                        rma_flushes += 1;
                    }
                    buckets[b as usize].push(it);
                }
            }
            continue;
        }
        for (slice_ids, slice) in slices {
            in_full.fill(0);
            for &b in slice_ids {
                in_full[consumer_of(b)] += 1;
            }
            for k in &mut in_full {
                rma_flushes += k.div_ceil(cap) as u64;
                *k -= *k % cap;
            }
            for (&b, &it) in slice_ids.iter().zip(slice) {
                let full = &mut in_full[consumer_of(b)];
                if *full > 0 {
                    *full -= 1;
                    buckets[b as usize].push(it);
                } else {
                    leftovers.push((b, it));
                }
            }
        }
        for (b, it) in leftovers.drain(..) {
            buckets[b as usize].push(it);
        }
    }

    // ---- cost model -------------------------------------------------------
    let payload = n as u64 * item_bytes;
    let per_cg_payload = payload.div_ceil(active_cgs as u64);
    let per_cg_items = (n as u64).div_ceil(active_cgs as u64);

    // CG-serial DMA: stream input in at full grain, write buckets out at
    // buffer grain (sub-1KB ⇒ reduced efficiency).
    let dma_in = kernels::dma_stream(machine, per_cg_payload, machine.dma_grain_bytes, 1);
    let dma_out = kernels::dma_stream(machine, per_cg_payload, cfg.buffer_bytes, 1);
    let dma = dma_in + dma_out;

    // Producer critical path: scalar work on its item share plus RMA puts.
    let items_per_producer = per_cg_items.div_ceil(cfg.producers as u64);
    let puts_per_producer = items_per_producer.div_ceil(cap as u64);
    let producer = SimTime::secs(
        items_per_producer as f64 * machine.cpe_cycles_per_item / machine.cpe_hz
            + puts_per_producer as f64
                * (machine.rma_latency + cfg.buffer_bytes as f64 / machine.rma_bandwidth),
    );
    // Consumer critical path: scalar insert work on its share.
    let items_per_consumer = per_cg_items.div_ceil(cfg.consumers as u64);
    let consumer =
        SimTime::secs(items_per_consumer as f64 * machine.cpe_cycles_per_item / machine.cpe_hz);

    // Cross-CG synchronization (multi-CG only): one atomic per claimed
    // input block, serialized per CG ("rarely conflicts", §4.4).
    let atomic_ops = if active_cgs > 1 {
        per_cg_payload.div_ceil(cfg.cg_sync_block_bytes as u64)
    } else {
        0
    };
    let atomics = kernels::atomics(machine, atomic_ops);

    report.time = dma.max(producer).max(consumer) + atomics;
    report.dma_bytes = 2 * payload;
    report.rma_ops = rma_flushes;
    report.rma_bytes = rma_flushes * cfg.buffer_bytes as u64;
    report.atomic_ops = atomic_ops * active_cgs as u64;
    (buckets, report)
}

/// Sequential bucket sort on the MPE — the Figure 14 baseline. Every
/// scattered append is one random main-memory access.
pub fn ocs_sort_mpe<T, F>(
    machine: &MachineConfig,
    items: &[T],
    num_buckets: usize,
    bucket_of: F,
) -> (Vec<Vec<T>>, KernelReport)
where
    T: Copy,
    F: Fn(&T) -> usize,
{
    let mut buckets: Vec<Vec<T>> = (0..num_buckets).map(|_| Vec::new()).collect();
    for &it in items {
        let b = bucket_of(&it);
        assert!(b < num_buckets);
        buckets[b].push(it);
    }
    let report = KernelReport {
        time: kernels::mpe_scatter(machine, items.len() as u64),
        items: items.len() as u64,
        ..Default::default()
    };
    (buckets, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunbfs_common::SplitMix64;

    fn m() -> MachineConfig {
        MachineConfig::new_sunway()
    }

    fn random_items(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    fn check_buckets(items: &[u64], buckets: &[Vec<u64>], nb: u64) {
        // Every item lands in its bucket; the multiset is preserved.
        let total: usize = buckets.iter().map(Vec::len).sum();
        assert_eq!(total, items.len());
        for (b, bucket) in buckets.iter().enumerate() {
            for &x in bucket {
                assert_eq!(x % nb, b as u64);
            }
        }
        let mut a: Vec<u64> = items.to_vec();
        let mut b: Vec<u64> = buckets.iter().flatten().copied().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn rma_sort_routes_every_item() {
        let machine = m();
        let items = random_items(10_000, 1);
        let (buckets, report) =
            ocs_sort_rma(&machine, &OcsConfig::default(), &items, 256, 1, |x| {
                (x % 256) as usize
            });
        check_buckets(&items, &buckets, 256);
        assert_eq!(report.items, 10_000);
        assert!(report.rma_ops > 0);
    }

    #[test]
    fn rma_sort_is_deterministic() {
        let machine = m();
        let items = random_items(5_000, 2);
        let run = || {
            ocs_sort_rma(&machine, &OcsConfig::default(), &items, 100, 6, |x| {
                (x % 100) as usize
            })
            .0
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mpe_sort_matches_rma_sort_contents() {
        let machine = m();
        let items = random_items(3_000, 3);
        let (a, _) = ocs_sort_mpe(&machine, &items, 64, |x| (x % 64) as usize);
        let (b, _) = ocs_sort_rma(&machine, &OcsConfig::default(), &items, 64, 6, |x| {
            (x % 64) as usize
        });
        for (x, y) in a.iter().zip(&b) {
            let mut x = x.clone();
            let mut y = y.clone();
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let machine = m();
        let (b, r) = ocs_sort_rma(&machine, &OcsConfig::default(), &[] as &[u64], 8, 6, |_| 0);
        assert!(b.iter().all(Vec::is_empty));
        assert_eq!(r.items, 0);
        let one = [5u64];
        let (b, _) = ocs_sort_rma(&machine, &OcsConfig::default(), &one, 8, 6, |x| {
            (*x % 8) as usize
        });
        assert_eq!(b[5], vec![5]);
    }

    #[test]
    fn figure14_throughput_ordering_and_magnitudes() {
        // Bucket 64-bit integers by their low 8 bits, as in §6.3. We use
        // a smaller payload than the paper's 4 GB; throughput is
        // size-independent in the model above ~1 MB.
        let machine = m();
        let items = random_items(1 << 20, 4); // 8 MiB
        let bytes = (items.len() * 8) as u64;
        let (_, mpe) = ocs_sort_mpe(&machine, &items, 256, |x| (x & 0xff) as usize);
        let (_, cg1) = ocs_sort_rma(&machine, &OcsConfig::default(), &items, 256, 1, |x| {
            (x & 0xff) as usize
        });
        let (_, cg6) = ocs_sort_rma(&machine, &OcsConfig::default(), &items, 256, 6, |x| {
            (x & 0xff) as usize
        });
        let (t_mpe, t1, t6) = (
            mpe.throughput(bytes) / 1e9,
            cg1.throughput(bytes) / 1e9,
            cg6.throughput(bytes) / 1e9,
        );
        assert!(
            t_mpe < t1 && t1 < t6,
            "ordering MPE<{t_mpe}> 1CG<{t1}> 6CG<{t6}>"
        );
        // Paper: 0.0406 / 12.5 / 58.6 GB/s. Allow generous bands — the
        // shape, not the digits, is the claim.
        assert!((0.02..0.08).contains(&t_mpe), "MPE {t_mpe} GB/s");
        assert!((8.0..18.0).contains(&t1), "1 CG {t1} GB/s");
        assert!((45.0..80.0).contains(&t6), "6 CG {t6} GB/s");
        let speedup = t6 / t1;
        assert!(
            (3.5..5.9).contains(&speedup),
            "6CG/1CG speedup {speedup}, paper 4.7x"
        );
    }

    #[test]
    fn six_cg_pays_atomics() {
        let machine = m();
        let items = random_items(1 << 16, 5);
        let (_, cg1) = ocs_sort_rma(&machine, &OcsConfig::default(), &items, 16, 1, |x| {
            (x % 16) as usize
        });
        let (_, cg6) = ocs_sort_rma(&machine, &OcsConfig::default(), &items, 16, 6, |x| {
            (x % 16) as usize
        });
        assert_eq!(cg1.atomic_ops, 0);
        assert!(cg6.atomic_ops > 0);
    }

    #[test]
    fn custom_buffer_size_respected() {
        let machine = m();
        let cfg = OcsConfig {
            buffer_bytes: 64,
            ..Default::default()
        };
        assert_eq!(cfg.buffer_capacity::<u64>(), 8);
        let items = random_items(100_000, 6);
        let (buckets, report) = ocs_sort_rma(&machine, &cfg, &items, 32, 1, |x| (x % 32) as usize);
        check_buckets(&items, &buckets, 32);
        // Smaller buffers mean more RMA flushes than the default config.
        let (_, big) = ocs_sort_rma(&machine, &OcsConfig::default(), &items, 32, 1, |x| {
            (x % 32) as usize
        });
        assert!(report.rma_ops > big.rma_ops);
    }
}
