//! Micro-benchmarks for the hot kernels (wall-clock, not simulated
//! time): the R-MAT generator, the PARADIS radix sort and the CSR
//! construction that calls it, the bitmap primitives, a root's
//! per-slot and per-run fixed costs, the functional OCS-RMA bucketing
//! pass, the Graph 500 validator's two passes, and the request-line
//! JSON parser.
//!
//! A minimal self-timed harness (median of [`SAMPLES`] runs after one
//! warmup) replaces criterion: the build container has no crates.io
//! access, and medians over ten runs are plenty for the shape-level
//! statements these numbers back.

use std::sync::Arc;
use std::time::Instant;

use sunbfs_common::bitmap::wide;
use sunbfs_common::{Bitmap, JsonValue, MachineConfig, SplitMix64, INVALID_VERTEX};
use sunbfs_core::engine::reach_tallies;
use sunbfs_core::validate;
use sunbfs_net::{Cluster, MeshShape, RankCtx};
use sunbfs_part::Csr;
use sunbfs_rmat::RmatParams;
use sunbfs_sort::radix_sort_u64;
use sunbfs_sunway::{ocs_sort_rma, OcsConfig};

const SAMPLES: usize = 10;

/// Time `f` over [`SAMPLES`] runs (after one warmup) and report the
/// median, with items/s throughput when `throughput_items` is given.
fn bench<T>(label: &str, throughput_items: Option<u64>, mut f: impl FnMut() -> T) {
    std::hint::black_box(f());
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    let median = times[times.len() / 2];
    match throughput_items {
        Some(items) => println!(
            "{label:<32} {:>10.3} ms   {:>10.2} Melem/s",
            median * 1e3,
            items as f64 / median / 1e6
        ),
        None => println!("{label:<32} {:>10.3} ms", median * 1e3),
    }
}

fn main() {
    println!("crit_kernels: median of {SAMPLES} runs\n");

    for scale in [12u32, 14] {
        let params = RmatParams::graph500(scale, 42);
        bench(
            &format!("rmat_generate/{scale}"),
            Some(params.num_edges()),
            || sunbfs_rmat::generate_edges(&params),
        );
    }

    // One rank's chunk of a 2x2 mesh, as `GraphSession::load` draws it.
    let params = RmatParams::graph500(16, 42);
    bench(
        "rmat_generate_chunk/16 (1 of 4)",
        Some(params.num_edges() / 4),
        || sunbfs_rmat::generate_chunk(&params, 0, 4),
    );

    for n in [1usize << 14, 1 << 18] {
        let mut rng = SplitMix64::new(7);
        let data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        bench(&format!("paradis_radix_sort/{n}"), Some(n as u64), || {
            let mut v = data.clone();
            radix_sort_u64(&mut v, 2);
            v
        });
    }

    // CSR construction at the two target widths a partition has: hub
    // keys with vertex-id targets (long lists, three target bytes at
    // SCALE 18) and vertex keys with hub-id targets (short lists, two
    // bytes). PARADIS walks the bytes the largest target occupies.
    let (hubs, vertices, m) = (1u64 << 12, 1u64 << 18, 1usize << 20);
    let mut rng = SplitMix64::new(8);
    let pairs: Vec<(u64, u64)> = (0..m)
        .map(|_| (rng.next_below(hubs), rng.next_below(vertices)))
        .collect();
    bench("csr_from_pairs/vertex_targets", Some(m as u64), || {
        Csr::from_pairs(0, hubs, pairs.iter().copied(), true)
    });
    bench("csr_from_pairs/hub_targets", Some(m as u64), || {
        Csr::from_pairs(0, vertices, pairs.iter().map(|&(h, v)| (v, h)), true)
    });

    let bits = 1u64 << 20;
    let mut bm = Bitmap::new(bits);
    let mut rng = SplitMix64::new(9);
    for _ in 0..(bits / 16) {
        bm.set(rng.next_below(bits));
    }
    bench("bitmap_iter_ones_1M", Some(bits), || {
        bm.iter_ones().sum::<u64>()
    });
    bench("bitmap_count_range_1M", Some(bits), || {
        bm.count_ones_range(1000, bits - 1000)
    });
    let other = bm.clone();
    bench("bitmap_or_assign_1M", Some(bits), || {
        let mut x = bm.clone();
        x.or_assign(&other);
        x
    });

    // What a root pays per owned slot and per row bit (docs/PERF.md,
    // rule 7): the output tally over a SCALE-18 2x2 rank's 65,536
    // vertices at both lane widths, and a row member of as many bits
    // spliced into the row set at a word-aligned and an unaligned base.
    let slots = 1usize << 16;
    let mut rng = SplitMix64::new(10);
    let degrees: Vec<u32> = (0..slots).map(|_| rng.next_below(64) as u32).collect();
    for width in [1usize, 64] {
        let parents: Vec<u64> = (0..slots * width)
            .map(|_| match rng.next_below(3) {
                0 => INVALID_VERTEX,
                _ => rng.next_below(1 << 18),
            })
            .collect();
        let label = format!("reach_tallies/w{width}");
        bench(&label, Some(parents.len() as u64), || {
            reach_tallies(&parents, &degrees, width)
        });
    }
    let member: Vec<u64> = (0..slots / 64).map(|_| rng.next_u64()).collect();
    let mut row = vec![0u64; 4 * slots / 64];
    for (label, base) in [("aligned", slots as u64), ("unaligned", slots as u64 + 17)] {
        bench(
            &format!("or_shifted_64k/{label}"),
            Some(slots as u64),
            || {
                wide::or_shifted(&mut row, base, &member, slots as u64);
                row[row.len() / 2]
            },
        );
    }

    // What a root pays around its traversal: a `Cluster::run` of
    // nothing on the benchmark's mesh — three spawns, three joins —
    // a thousand times per sample, so the row reads in µs per run.
    let machine = MachineConfig::new_sunway();
    let cluster = Cluster::new(MeshShape::new(2, 2), machine);
    bench("cluster_run_noop/2x2 x1000", None, || {
        for _ in 0..1000 {
            cluster.run(|_| ());
        }
    });
    // The same run on the cluster's resident rank threads: three jobs
    // sent and three results received instead.
    let noop = Arc::new(|_: &mut RankCtx| ());
    bench("resident_run_noop/2x2 x1000", None, || {
        for _ in 0..1000 {
            cluster.run_resident(Arc::clone(&noop));
        }
    });

    let mut rng = SplitMix64::new(11);
    let items: Vec<u64> = (0..1usize << 18).map(|_| rng.next_u64()).collect();
    bench("ocs_rma_bucket_256_6cg", Some(items.len() as u64), || {
        ocs_sort_rma(&machine, &OcsConfig::default(), &items, 256, 6, |x| {
            (x & 0xff) as usize
        })
    });

    // The validator at SCALE 16: one root's checks, its distinct-edge
    // count, and the per-graph census that replaces the count once a
    // tree has validated (the dedup kernel with and without a filter).
    let params = RmatParams::graph500(16, 42);
    let (n, edges) = (params.num_vertices(), sunbfs_rmat::generate_edges(&params));
    let root = edges
        .iter()
        .find(|e| !e.is_self_loop())
        .expect("proper edge")
        .u;
    let (parents, _) = validate::reference_bfs(n, &edges, root);
    let m = Some(edges.len() as u64);
    bench("validate_parents/16", m, || {
        validate::validate_parents(n, &edges, root, &parents)
    });
    bench("component_edges/16", m, || {
        validate::component_edges(&edges, &parents)
    });
    bench("distinct_edges_census/16", m, || {
        validate::DistinctEdges::new(n, &edges)
    });

    // What a connection's reader pays per request line: a plain query,
    // and one carrying a string just under the 64 KiB request cap
    // (bytes per second; each run between escapes is copied once).
    let query = r#"{"cmd":"query","root":12345}"#;
    bench("json_parse/query_line", Some(query.len() as u64), || {
        JsonValue::parse(query)
    });
    let padded = format!(
        r#"{{"cmd":"query","root":1,"pad":"{}"}}"#,
        "a".repeat(64 * 1024 - 64)
    );
    bench("json_parse/64k_string", Some(padded.len() as u64), || {
        JsonValue::parse(&padded)
    });
}
