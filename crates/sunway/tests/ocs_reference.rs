//! The literal OCS-RMA routing pass as the oracle of the shipped one.
//!
//! [`ocs_sort_rma`] replays the producer/consumer routing order and
//! flush count arithmetically; [`reference`] is the buffer-by-buffer
//! pass it replaced — producer send buffers, cap-triggered and final
//! partial flush lists, per-consumer receive queues and drains — kept
//! here so that bucket contents *and order* and the RMA counters stay
//! pinned to what the hardware protocol of §4.4 would produce.

use sunbfs_common::{MachineConfig, SplitMix64};
use sunbfs_sunway::{ocs_sort_rma, OcsConfig};

/// Route `items` through producer buffers and consumer drains, one CG
/// block after the other; returns the buckets and the RMA put count.
fn reference<T: Copy>(
    machine: &MachineConfig,
    cfg: &OcsConfig,
    items: &[T],
    num_buckets: usize,
    active_cgs: usize,
    bucket_of: impl Fn(&T) -> usize,
) -> (Vec<Vec<T>>, u64) {
    let active_cgs = active_cgs.clamp(1, machine.cgs_per_node);
    let cap = cfg.buffer_capacity::<T>();
    let n = items.len();
    let mut buckets: Vec<Vec<T>> = (0..num_buckets).map(|_| Vec::new()).collect();
    let mut rma_flushes = 0u64;
    for cg_chunk in items.chunks(n.div_ceil(active_cgs).max(1)) {
        let slice_len = cg_chunk.len().div_ceil(cfg.producers).max(1);
        let n_producers = cg_chunk.len().div_ceil(slice_len).min(cfg.producers);
        // Cap-triggered and final partial flushes, kept apart so the
        // merge can replay the arrival order (all caps, then partials).
        let mut caps: Vec<Vec<(usize, Vec<T>)>> = vec![Vec::new(); cfg.consumers];
        let mut partials: Vec<Vec<(usize, Vec<T>)>> = vec![Vec::new(); cfg.consumers];
        for p in 0..n_producers {
            // Producers take contiguous slices of the CG's block.
            let slice = &cg_chunk[p * slice_len..((p + 1) * slice_len).min(cg_chunk.len())];
            let mut send: Vec<Vec<T>> = vec![Vec::with_capacity(cap); cfg.consumers];
            for &it in slice {
                let b = bucket_of(&it);
                assert!(b < num_buckets, "bucket {b} out of range {num_buckets}");
                let c = b % cfg.consumers;
                send[c].push(it);
                if send[c].len() == cap {
                    let batch = std::mem::replace(&mut send[c], Vec::with_capacity(cap));
                    caps[c].push((p, batch));
                    rma_flushes += 1;
                }
            }
            for (c, batch) in send.into_iter().enumerate() {
                if !batch.is_empty() {
                    partials[c].push((p, batch));
                    rma_flushes += 1;
                }
            }
        }
        let mut recv = caps;
        for (dst, batches) in recv.iter_mut().zip(partials) {
            dst.extend(batches);
        }
        // Consumers drain in arrival order into the buckets they own.
        for (c, queue) in recv.iter().enumerate() {
            // Buckets owned by consumer c: c, c + consumers, ...
            let n_owned = num_buckets.saturating_sub(c).div_ceil(cfg.consumers);
            let mut local: Vec<Vec<T>> = vec![Vec::new(); n_owned];
            for (_, batch) in queue {
                for &it in batch {
                    local[(bucket_of(&it) - c) / cfg.consumers].push(it);
                }
            }
            for (i, v) in local.into_iter().enumerate() {
                buckets[c + i * cfg.consumers].extend(v);
            }
        }
    }
    (buckets, rma_flushes)
}

/// The shipped pass must equal the oracle in bucket contents and order
/// and in both RMA counters.
fn assert_matches_reference<T: Copy + Send + Sync + PartialEq + std::fmt::Debug>(
    cfg: &OcsConfig,
    items: &[T],
    num_buckets: usize,
    cgs: usize,
    bucket_of: impl Fn(&T) -> usize + Sync,
) {
    let machine = MachineConfig::new_sunway();
    let (want, want_ops) = reference(&machine, cfg, items, num_buckets, cgs, &bucket_of);
    let (got, report) = ocs_sort_rma(&machine, cfg, items, num_buckets, cgs, &bucket_of);
    let shape = format!(
        "n {} buckets {num_buckets} cgs {cgs} buffer {} B",
        items.len(),
        cfg.buffer_bytes
    );
    assert!(got == want, "bucket contents or order differ: {shape}");
    assert_eq!(report.rma_ops, want_ops, "rma_ops: {shape}");
    assert_eq!(
        report.rma_bytes,
        want_ops * cfg.buffer_bytes as u64,
        "rma_bytes: {shape}"
    );
    assert_eq!(report.items, items.len() as u64);
}

/// A bucket id below `nb`: half the keys land on three buckets, so some
/// streams fill buffers while their neighbours stay short.
fn skewed_bucket(rng: &mut SplitMix64, nb: u64) -> u64 {
    if rng.next_below(2) == 0 {
        [0, nb / 2, nb - 1][rng.next_below(3) as usize]
    } else {
        rng.next_below(nb)
    }
}

#[test]
fn shipped_pass_equals_the_buffer_by_buffer_reference() {
    // Sizes sit on the boundaries that decide the routing: one item per
    // producer of one and of six CGs (32, 192), a full default buffer
    // per producer (6144 sixteen-byte items on six CGs), and well past.
    const SIZES: [usize; 16] = [
        0, 1, 5, 17, 100, 191, 192, 193, 600, 5000, 6143, 6144, 6145, 50_000, 300_000, 1_000_000,
    ];
    let mut rng = SplitMix64::new(18);
    for n in SIZES {
        for nb in [1usize, 2, 3, 32, 33, 64, 256] {
            // 16-byte items: (bucket, sequence number) — the sequence
            // number makes every misordering visible.
            let items: Vec<(u64, u64)> = (0..n as u64)
                .map(|i| (skewed_bucket(&mut rng, nb as u64), i))
                .collect();
            for cgs in [1, 6] {
                for buffer_bytes in [64, 512] {
                    let cfg = OcsConfig {
                        buffer_bytes,
                        ..OcsConfig::default()
                    };
                    assert_matches_reference(&cfg, &items, nb, cgs, |it| it.0 as usize);
                }
            }
        }
    }
}

#[test]
fn engine_message_shape_equals_the_reference() {
    // The batch lane's 24-byte `(dest, parent, mask)` triples bucketed
    // into the engine's 32 destination ranges: 21 items per buffer.
    let cfg = OcsConfig::default();
    assert_eq!(cfg.buffer_capacity::<(u64, u64, u64)>(), 21);
    let mut rng = SplitMix64::new(24);
    let span = 1u64 << 16;
    for n in [700usize, 30_000] {
        let msgs: Vec<(u64, u64, u64)> = (0..n)
            .map(|_| {
                let dest = skewed_bucket(&mut rng, 32) * (span / 32) + rng.next_below(span / 32);
                (dest, rng.next_u64(), rng.next_u64())
            })
            .collect();
        assert_matches_reference(&cfg, &msgs, 32, 6, |m| (m.0 * 32 / span) as usize);
    }
}
