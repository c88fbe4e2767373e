//! Parallel Sorting by Regular Sampling over the simulated cluster.
//!
//! The in-place global sort of §5 (the preprocessing workhorse that
//! splits the edge list into the six subgraph components) is "based on
//! Parallel Sorting by Regular Sampling [Shi & Schaeffer 1992], with
//! local sort implemented with PARADIS". This module is that global
//! sort, written SPMD against [`sunbfs_net::RankCtx`]:
//!
//! 1. each rank PARADIS-sorts its local slice,
//! 2. each rank contributes `P` regular samples; the gathered `P²`
//!    samples are sorted and `P-1` pivots chosen (identically on every
//!    rank — no root broadcast needed),
//! 3. local data is partitioned by the pivots and exchanged with one
//!    `alltoallv`,
//! 4. each rank merges its received, already-sorted runs.
//!
//! The result is globally sorted by rank order with the classic PSRS
//! balance guarantee (< 2·n/P elements per rank for distinct keys).

use crate::paradis;
use sunbfs_common::SimTime;
use sunbfs_net::{RankCtx, Scope, Wire};

/// Approximate node-local sort rate used for time accounting: an
/// 8-byte-key radix pass is DMA-bound, so we charge `key_bytes` streaming
/// passes over the data at chip DMA bandwidth.
fn charge_local_sort(ctx: &mut RankCtx, category: &'static str, bytes: u64, passes: u32) {
    let t = SimTime::from_bytes(bytes * passes as u64 * 2, ctx.machine().dma_bandwidth);
    ctx.charge(category, t);
}

/// Globally sort `local` by `key` across all ranks of the world scope.
///
/// Returns this rank's slice of the global sorted order (rank 0 holds
/// the smallest keys). The concatenation over ranks is a sorted
/// permutation of the concatenated inputs.
pub fn psrs_sort_by_key<T, K>(
    ctx: &mut RankCtx,
    category: &'static str,
    mut local: Vec<T>,
    key: K,
    key_bytes: u32,
) -> Vec<T>
where
    T: Wire,
    K: Fn(&T) -> u64 + Sync,
{
    let p = ctx.nranks();
    // Local PARADIS *partitions* per simulated rank. Fixed so the
    // permutation (hence the order of equal keys) never depends on how
    // many pool threads actually staff it — see `permute_speculative`.
    let workers = 2;

    // (1) local sort
    paradis::radix_sort_in_place(&mut local, &key, workers, key_bytes);
    charge_local_sort(
        ctx,
        category,
        (local.len() * std::mem::size_of::<T>()) as u64,
        key_bytes,
    );

    if p == 1 {
        return local;
    }

    // (2) regular sampling: P samples per rank at positions i*n/P.
    let n = local.len();
    let samples: Vec<u64> = (0..p)
        .map(|i| if n == 0 { 0 } else { key(&local[i * n / p]) })
        .collect();
    let gathered = ctx.allgatherv(Scope::World, "comm.allgather", samples);
    let mut all_samples: Vec<u64> = gathered.into_iter().flatten().collect();
    all_samples.sort_unstable();
    // P-1 pivots at regular positions of the sample array.
    let pivots: Vec<u64> = (1..p).map(|i| all_samples[i * p + p / 2 - 1]).collect();

    // (3) partition by pivots (local is sorted → binary-search cuts),
    // then exchange.
    let mut cuts = Vec::with_capacity(p + 1);
    cuts.push(0usize);
    for &piv in &pivots {
        let at = local.partition_point(|x| key(x) <= piv);
        cuts.push(at.max(*cuts.last().unwrap()));
    }
    cuts.push(n);
    let send: Vec<Vec<T>> = (0..p)
        .map(|i| local[cuts[i]..cuts[i + 1]].to_vec())
        .collect();
    let received = ctx.alltoallv(Scope::World, "comm.alltoallv", send);

    // (4) k-way merge of the received sorted runs.
    let merged = merge_runs(received, &key);
    charge_local_sort(
        ctx,
        category,
        (merged.len() * std::mem::size_of::<T>()) as u64,
        1,
    );
    merged
}

/// Merge already-sorted runs into one sorted vector (binary heap k-way).
fn merge_runs<T, K>(runs: Vec<Vec<T>>, key: &K) -> Vec<T>
where
    T: Copy,
    K: Fn(&T) -> u64,
{
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    // Heap of (key, run index, pos) — run index breaks ties deterministically.
    let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    for (r, run) in runs.iter().enumerate() {
        if !run.is_empty() {
            heap.push(Reverse((key(&run[0]), r, 0)));
        }
    }
    while let Some(Reverse((_, r, i))) = heap.pop() {
        out.push(runs[r][i]);
        if i + 1 < runs[r].len() {
            heap.push(Reverse((key(&runs[r][i + 1]), r, i + 1)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunbfs_common::{MachineConfig, SplitMix64};
    use sunbfs_net::{Cluster, MeshShape};

    fn run_psrs(ranks: (usize, usize), per_rank: usize, seed: u64) -> (Vec<u64>, Vec<Vec<u64>>) {
        let cluster = Cluster::new(
            MeshShape::new(ranks.0, ranks.1),
            MachineConfig::new_sunway(),
        );
        let out = cluster.run(|ctx| {
            let mut rng = SplitMix64::new(seed ^ ctx.rank() as u64);
            let local: Vec<u64> = (0..per_rank).map(|_| rng.next_u64()).collect();
            let input = local.clone();
            let sorted = psrs_sort_by_key(ctx, "sort", local, |x| *x, 8);
            (input, sorted)
        });
        let mut all_input = Vec::new();
        let mut shards = Vec::new();
        for (inp, shard) in out {
            all_input.extend(inp);
            shards.push(shard);
        }
        (all_input, shards)
    }

    fn check_global_sort(all_input: &[u64], shards: &[Vec<u64>]) {
        // Each shard sorted; shard boundaries ordered; global multiset
        // preserved.
        for s in shards {
            assert!(s.windows(2).all(|w| w[0] <= w[1]), "shard not sorted");
        }
        for w in shards.windows(2) {
            if let (Some(&a), Some(&b)) = (w[0].last(), w[1].first()) {
                assert!(a <= b, "shard boundary out of order: {a} > {b}");
            }
        }
        let mut expect = all_input.to_vec();
        expect.sort_unstable();
        let got: Vec<u64> = shards.iter().flatten().copied().collect();
        assert_eq!(expect, got, "global sort is not a permutation");
    }

    #[test]
    fn sorts_across_four_ranks() {
        let (input, shards) = run_psrs((2, 2), 5_000, 1);
        check_global_sort(&input, &shards);
    }

    #[test]
    fn sorts_on_non_square_mesh() {
        let (input, shards) = run_psrs((2, 3), 3_000, 2);
        check_global_sort(&input, &shards);
    }

    #[test]
    fn single_rank_degenerates_to_local_sort() {
        let (input, shards) = run_psrs((1, 1), 10_000, 3);
        check_global_sort(&input, &shards);
    }

    #[test]
    fn empty_input_survives() {
        let (input, shards) = run_psrs((2, 2), 0, 4);
        check_global_sort(&input, &shards);
        assert!(shards.iter().all(Vec::is_empty));
    }

    #[test]
    fn balance_is_reasonable() {
        // PSRS guarantees < 2n/P per rank for distinct keys; allow a
        // small slack for sampling granularity.
        let per_rank = 20_000;
        let (_, shards) = run_psrs((2, 2), per_rank, 5);
        for s in &shards {
            assert!(
                s.len() < 2 * per_rank + per_rank / 2,
                "rank holds {} of {} total — PSRS balance violated",
                s.len(),
                4 * per_rank
            );
        }
    }

    #[test]
    fn duplicate_heavy_input_sorts() {
        let cluster = Cluster::new(MeshShape::new(2, 2), MachineConfig::new_sunway());
        let out = cluster.run(|ctx| {
            let mut rng = SplitMix64::new(77 + ctx.rank() as u64);
            let local: Vec<u64> = (0..8000).map(|_| rng.next_below(4)).collect();
            let input = local.clone();
            (input, psrs_sort_by_key(ctx, "sort", local, |x| *x, 8))
        });
        let mut input = Vec::new();
        let mut shards = Vec::new();
        for (i, s) in out {
            input.extend(i);
            shards.push(s);
        }
        check_global_sort(&input, &shards);
    }

    #[test]
    fn merge_runs_merges() {
        let runs = vec![vec![1u64, 4, 9], vec![2, 3, 10], vec![], vec![0, 11]];
        let m = merge_runs(runs, &|x: &u64| *x);
        assert_eq!(m, vec![0, 1, 2, 3, 4, 9, 10, 11]);
    }
}
