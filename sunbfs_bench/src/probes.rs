//! One-off probes of single layers, run in the traced run only. Each
//! times calls into a layer's public functions from outside, checks
//! what came back, and sets that layer's per-layer metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sunbfs::common::{Edge, MachineConfig, SplitMix64};
use sunbfs::core::validate;
use sunbfs::net::{Cluster, FaultPlan, MeshShape, Scope};
use sunbfs::part::{build_1p5d, RankPartition};
use sunbfs::serve::{proto, BfsService, GraphSession, QueryResult, ServeConfig};
use sunbfs::sunway::{ocs_sort_rma, OcsConfig};

use crate::graph::{Graph, G500_ROOTS};
use crate::loadgen::UPDATE_EDGES;
use crate::oracle::insert_edge;
use crate::report::Metrics;
use crate::stats::{median, percentile_of};
use crate::trace::{SpanId, Tracer, ROOT};
use crate::Checks;

fn p50(samples: &[f64]) -> f64 {
    percentile_of(samples.to_vec(), 50.0).0
}

/// Seconds `f` took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Generate and partition the graph by calling the layers directly, one
/// span per call and rank — what `GraphSession::load` does inside, made
/// visible. Sets `rmat.*` and `part.*`.
pub fn build_by_layer(m: &mut Metrics, tracer: &Tracer, parent: SpanId, graph: &Graph) {
    let cfg = graph.cfg;
    let params = cfg.rmat();
    let n = params.num_vertices();
    let p = cfg.mesh.num_ranks() as u64;
    let cluster = Cluster::new(cfg.mesh, cfg.machine);
    let ranks: Vec<(f64, f64, RankPartition)> = cluster.run(|ctx| {
        let rank = ctx.rank() as u64;
        let (chunk, gen_s) = timed(|| {
            tracer.scope("rmat::generate_chunk", parent, rank, |_| {
                sunbfs::rmat::generate_chunk(&params, rank, p)
            })
        });
        let (part, build_s) = timed(|| {
            tracer.scope("part::build_1p5d", parent, rank, |_| {
                build_1p5d(ctx, n, &chunk, cfg.thresholds)
            })
        });
        (gen_s, build_s, part)
    });
    // Ranks run side by side: the slowest one is the layer's wall time.
    let generate_s = ranks.iter().map(|r| r.0).fold(0.0, f64::max);
    let build_s = ranks.iter().map(|r| r.1).fold(0.0, f64::max);
    m.set("rmat.generate_s", generate_s, ranks.len());
    m.set(
        "rmat.medges_per_s",
        params.num_edges() as f64 / 1e6 / generate_s,
        ranks.len(),
    );
    m.set("part.build_s", build_s, ranks.len());
    let parts = ranks.iter().map(|r| &r.2);
    m.set(
        "part.bytes",
        parts.clone().map(partition_bytes).sum::<u64>() as f64,
        1,
    );
    m.set(
        "part.eh2eh_edges",
        parts.clone().map(|p| p.stats.eh2eh).sum::<u64>() as f64,
        1,
    );
    m.set(
        "part.l2l_edges",
        parts.map(|p| p.stats.l2l).sum::<u64>() as f64,
        1,
    );
}

/// Bytes of one rank's resident arrays (nine CSRs and the degrees).
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

/// `sort.*`: PARADIS on 2^20 keys with one worker, PSRS on 2^18 keys
/// per rank across the mesh.
pub fn sort(m: &mut Metrics, tracer: &Tracer, seed: u64, checks: &mut Checks) {
    const KEYS: usize = 1 << 20;
    let mut rng = SplitMix64::new(seed).split(0x736f_7274);
    let keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64()).collect();
    let mut seconds = Vec::new();
    for rep in 0..3 {
        let mut v = keys.clone();
        let ((), s) = timed(|| {
            tracer.scope("sort::radix_sort_u64", ROOT, rep, |_| {
                sunbfs::sort::radix_sort_u64(&mut v, 1)
            })
        });
        seconds.push(s);
        checks.expect(v.windows(2).all(|w| w[0] <= w[1]), || {
            "radix_sort_u64 left keys out of order".into()
        });
    }
    m.set(
        "sort.paradis_mkeys_per_s",
        KEYS as f64 / 1e6 / median(&seconds),
        seconds.len(),
    );

    let cluster = Cluster::new(MeshShape::new(2, 2), MachineConfig::new_sunway());
    let inputs: Vec<Vec<u64>> = keys.chunks(KEYS / 4).map(<[u64]>::to_vec).collect();
    let (sorted_parts, s) = timed(|| {
        tracer.scope("sort::psrs_sort_by_key", ROOT, 0, |_| {
            cluster.run(|ctx| {
                let local = inputs[ctx.rank()].clone();
                sunbfs::sort::psrs_sort_by_key(ctx, "probe.sort", local, |x: &u64| *x, 8)
            })
        })
    });
    m.set("sort.psrs_s", s, 1);
    let all: Vec<u64> = sorted_parts.into_iter().flatten().collect();
    checks.expect(
        all.len() == KEYS && all.windows(2).all(|w| w[0] <= w[1]),
        || "psrs_sort_by_key lost keys or left them out of order".into(),
    );
}

/// `net.rendezvous_us_p50` and `net.alltoallv_mb_per_s`: collectives on
/// the mesh with nothing else to do, timed on rank 0.
pub fn net(m: &mut Metrics, tracer: &Tracer, checks: &mut Checks) {
    const RENDEZVOUS: usize = 2000;
    const EXCHANGES: usize = 10;
    /// u64s per pair: 1 MiB.
    const PAIR_WORDS: usize = 128 * 1024;
    let cluster = Cluster::new(MeshShape::new(2, 2), MachineConfig::new_sunway());
    let per_rank: Vec<(Vec<f64>, Vec<f64>, bool)> =
        tracer.scope("net::collectives", ROOT, 0, |_| {
            cluster.run(|ctx| {
                let p = ctx.nranks();
                let mut ok = true;
                let mut rendezvous_us = Vec::with_capacity(RENDEZVOUS);
                for _ in 0..RENDEZVOUS {
                    let (sum, s) = timed(|| ctx.allreduce_sum(Scope::World, "probe.rendezvous", 1));
                    ok &= sum == p as u64;
                    rendezvous_us.push(s * 1e6);
                }
                let mut exchange_s = Vec::with_capacity(EXCHANGES);
                for _ in 0..EXCHANGES {
                    let send = vec![vec![ctx.rank() as u64; PAIR_WORDS]; p];
                    let (got, s) = timed(|| ctx.alltoallv(Scope::World, "probe.alltoallv", send));
                    ok &= got
                        .iter()
                        .enumerate()
                        .all(|(from, v)| v.len() == PAIR_WORDS && v[0] == from as u64);
                    exchange_s.push(s);
                }
                (rendezvous_us, exchange_s, ok)
            })
        });
    checks.expect(per_rank.iter().all(|r| r.2), || {
        "a probe collective returned the wrong data".into()
    });
    let p = per_rank.len();
    let (rendezvous_us, exchange_s, _) = &per_rank[0];
    m.set("net.rendezvous_us_p50", p50(rendezvous_us), RENDEZVOUS);
    let bytes = (p * p * PAIR_WORDS * 8) as f64;
    m.set(
        "net.alltoallv_mb_per_s",
        bytes / 1e6 / p50(exchange_s),
        EXCHANGES,
    );
}

/// `sunway.*`: OCS-RMA bucketing of 2^20 items into 64 buckets.
pub fn sunway(m: &mut Metrics, tracer: &Tracer, seed: u64, checks: &mut Checks) {
    const ITEMS: usize = 1 << 20;
    const BUCKETS: usize = 64;
    let machine = MachineConfig::new_sunway();
    let mut rng = SplitMix64::new(seed).split(0x006f_6373);
    let items: Vec<u64> = (0..ITEMS).map(|_| rng.next_u64()).collect();
    let mut seconds = Vec::new();
    let mut sim_s = 0.0;
    for rep in 0..3 {
        let ((buckets, report), s) = timed(|| {
            tracer.scope("sunway::ocs_sort_rma", ROOT, rep, |_| {
                ocs_sort_rma(
                    &machine,
                    &OcsConfig::default(),
                    &items,
                    BUCKETS,
                    machine.cgs_per_node,
                    |x: &u64| (*x % BUCKETS as u64) as usize,
                )
            })
        });
        seconds.push(s);
        sim_s = report.time.as_secs();
        let placed = buckets
            .iter()
            .enumerate()
            .all(|(b, items)| items.iter().all(|x| (*x % BUCKETS as u64) as usize == b));
        checks.expect(
            placed && buckets.iter().map(Vec::len).sum::<usize>() == ITEMS,
            || "ocs_sort_rma lost or misplaced items".into(),
        );
    }
    m.set(
        "sunway.ocs_mitems_per_s",
        ITEMS as f64 / 1e6 / median(&seconds),
        seconds.len(),
    );
    m.set("sunway.ocs_sim_s", sim_s, 1);
}

/// `core.validate.reference_bfs_ms`: the repository's own sequential
/// BFS, once, its levels compared with the oracle's.
pub fn reference_bfs(m: &mut Metrics, tracer: &Tracer, graph: &Graph, checks: &mut Checks) {
    let root = graph.roots[0];
    let ((_, levels), s) = timed(|| {
        tracer.scope("core::reference_bfs", ROOT, 0, |_| {
            validate::reference_bfs(graph.num_vertices(), &graph.edges, root)
        })
    });
    m.set("core.validate.reference_bfs_ms", s * 1e3, 1);
    checks.expect(graph.oracle.agrees_with_levels(root, &levels), || {
        format!("root {root}: reference_bfs levels differ from the oracle's")
    });
}

/// `serve.proto.*`: parse a query line, encode a result line.
pub fn wire(m: &mut Metrics, tracer: &Tracer, result: &QueryResult, checks: &mut Checks) {
    const BATCHES: usize = 50;
    const PER_BATCH: usize = 200;
    let line = format!(
        "{{\"cmd\":\"query\",\"root\":{},\"deadline_ticks\":8}}",
        result.root
    );
    let mut parse_us = Vec::with_capacity(BATCHES);
    let mut encode_us = Vec::with_capacity(BATCHES);
    let mut reply_bytes = 0;
    tracer.scope("serve::proto", ROOT, 0, |_| {
        for _ in 0..BATCHES {
            let (ok, s) = timed(|| {
                (0..PER_BATCH).all(|_| sunbfs::serve::parse_request(black_box(&line)).is_ok())
            });
            checks.expect(ok, || "parse_request refused a query line".into());
            parse_us.push(s * 1e6 / PER_BATCH as f64);
            let (bytes, s) = timed(|| {
                (0..PER_BATCH)
                    .map(|_| proto::result_reply(black_box(result)).render().len())
                    .max()
            });
            reply_bytes = bytes.unwrap_or(0);
            encode_us.push(s * 1e6 / PER_BATCH as f64);
        }
    });
    m.set(
        "serve.proto.parse_us_p50",
        p50(&parse_us),
        BATCHES * PER_BATCH,
    );
    m.set(
        "serve.proto.encode_us_p50",
        p50(&encode_us),
        BATCHES * PER_BATCH,
    );
    m.set("serve.proto.reply_bytes", reply_bytes as f64, 1);
}

/// The probes that need a resident session of their own to mutate:
/// `core.batch.*`, `store.*`, `serve.service.drain64/assemble`,
/// `mutate.*`. Returns one served result for the `wire` probe.
pub fn session(
    m: &mut Metrics,
    tracer: &Tracer,
    mut session: GraphSession,
    graph: &Graph,
    store_path: &Path,
    checks: &mut Checks,
) -> Option<QueryResult> {
    const REPS: u64 = 5;
    let roots = &graph.roots[..G500_ROOTS];

    // core.batch: the multi-source engine in process, three widths.
    let mut w64_ms = 0.0;
    for (width, name) in [
        (1, "core.batch.w1_ms_p50"),
        (8, "core.batch.w8_ms_p50"),
        (64, "core.batch.w64_ms_p50"),
    ] {
        let batch = &roots[..width];
        let mut ms = Vec::new();
        for rep in 0..REPS {
            let (outs, s) =
                timed(|| tracer.scope("core::run_batch", ROOT, rep, |_| session.run_batch(batch)));
            ms.push(s * 1e3);
            let right = outs.iter().all(|rank| match rank {
                Ok(Ok(out)) => batch
                    .iter()
                    .zip(&out.stats.visited)
                    .all(|(&root, &visited)| visited == graph.oracle.reach(root)),
                _ => false,
            });
            checks.expect(right, || {
                format!("run_batch of width {width} answered wrongly")
            });
        }
        m.set(name, p50(&ms), ms.len());
        w64_ms = p50(&ms);
    }
    m.set(
        "core.batch.w64_roots_per_s",
        64.0 / (w64_ms / 1e3),
        REPS as usize,
    );

    // store: encode, save, open. The opened session serves below.
    let header = session.config().store_header();
    let (encoded, encode_s) = timed(|| {
        tracer.scope("store::encode_store", ROOT, 0, |_| {
            sunbfs::store::encode_store(&header, session.partitions())
        })
    });
    m.set("store.encode_s", encode_s, 1);
    let (saved, save_s) =
        timed(|| tracer.scope("store::save_file", ROOT, 0, |_| session.save(store_path)));
    m.set("store.save_s", save_s, 1);
    let bytes = match &saved {
        Ok(info) => info.file_bytes,
        Err(e) => {
            checks.fail(format!("saving the store failed: {e}"));
            0
        }
    };
    checks.expect(bytes == encoded.len() as u64, || {
        "the saved store is not the encoded size".into()
    });
    drop(encoded);
    m.set("store.bytes", bytes as f64, 1);
    let (opened, open_s) = timed(|| {
        tracer.scope("store::open_file", ROOT, 0, |_| {
            GraphSession::open(store_path, *session.config(), FaultPlan::none())
        })
    });
    let _ = std::fs::remove_file(store_path);
    m.set("store.open_s", open_s, 1);
    m.set("store.open_mb_per_s", bytes as f64 / 1e6 / open_s, 1);

    // serve.service: submit 64 and drain, in process, on the opened
    // session — and right before each drain the bare `run_batch` of the
    // same roots, so the difference is what serving a batch costs
    // beyond traversing it (gather, histograms, record keeping).
    let mut kept = None;
    let mut drain_ms = Vec::new();
    let mut assemble_ms = Vec::new();
    match opened {
        Err(e) => checks.fail(format!("opening the store failed: {e}")),
        Ok(opened) => {
            let mut service = BfsService::new(opened, ServeConfig::default());
            let none = BTreeMap::new();
            for rep in 0..REPS {
                let (_, bare_s) = timed(|| black_box(service.session().run_batch(roots)));
                let (results, s) = timed(|| {
                    tracer.scope("serve::submit_drain", ROOT, rep, |_| {
                        let admitted = roots.iter().all(|&r| service.submit(r).is_ok());
                        (admitted, service.drain())
                    })
                });
                drain_ms.push(s * 1e3);
                assemble_ms.push((s - bare_s) * 1e3);
                let (admitted, results) = results;
                let right = admitted
                    && results.len() == roots.len()
                    && results.iter().all(|r| {
                        let want = graph.oracle.answer(r.root, &none);
                        r.visited == want.visited && r.depth_histogram == want.depth_histogram
                    });
                checks.expect(right, || "a drained batch answered wrongly".into());
                kept = results.into_iter().next();
            }
        }
    }
    m.set(
        "serve.service.drain64_ms_p50",
        p50(&drain_ms),
        drain_ms.len(),
    );
    m.set(
        "serve.service.assemble_ms_p50",
        p50(&assemble_ms),
        assemble_ms.len(),
    );

    mutate(m, tracer, &mut session, graph, checks);
    kept
}

/// `mutate.*`: 4-edge commits, repair of a cached result, compaction.
fn mutate(
    m: &mut Metrics,
    tracer: &Tracer,
    session: &mut GraphSession,
    graph: &Graph,
    checks: &mut Checks,
) {
    const COMMITS: u64 = 20;
    const REPAIRS: u64 = 20;
    let root = graph.roots[0];
    let n = graph.num_vertices();
    // The result a cache would hold: computed before any commit.
    let cached = session
        .run_single(root)
        .into_iter()
        .map(|r| r.ok().and_then(Result::ok).map(|o| o.parents))
        .collect::<Option<Vec<_>>>()
        .map(|per_rank| per_rank.concat())
        .and_then(|parents| {
            let depths = validate::levels_from_parents(root, &parents).ok()?;
            Some((parents, depths))
        });
    checks.expect(cached.is_some(), || {
        format!("root {root}: no result to cache")
    });

    let mut rng = SplitMix64::new(graph.cfg.seed).split(0x006d_7574);
    let mut inserted = BTreeMap::new();
    let mut commit_ms = Vec::new();
    for rep in 0..COMMITS {
        let edges: Vec<Edge> = (0..UPDATE_EDGES)
            .map(|_| Edge::new(rng.next_below(n), rng.next_below(n)))
            .collect();
        let (epoch, s) = timed(|| {
            tracer.scope("mutate::apply_updates", ROOT, rep, |_| {
                session.apply_updates(&edges)
            })
        });
        commit_ms.push(s * 1e3);
        checks.expect(epoch.as_ref().is_ok_and(|&e| e == rep + 1), || {
            format!("commit {rep} did not produce epoch {}: {epoch:?}", rep + 1)
        });
        for e in edges {
            insert_edge(&mut inserted, e);
        }
    }
    m.set("mutate.commit_ms_p50", p50(&commit_ms), commit_ms.len());
    m.set("mutate.delta_entries", session.delta_entries() as f64, 1);
    let want = graph.oracle.answer(root, &inserted);

    let mut repair_us = Vec::new();
    if let Some((parents, depths)) = &cached {
        for rep in 0..REPAIRS {
            let (mut parents, mut depths) = (parents.clone(), depths.clone());
            let (_, s) = timed(|| {
                tracer.scope("mutate::repair_result", ROOT, rep, |_| {
                    session.repair_result(&mut parents, &mut depths)
                })
            });
            repair_us.push(s * 1e6);
            // A commit that promoted a vertex compacted the overlay
            // away; the cached result then predates the base graph and
            // repair is not expected to mend it.
            if rep == 0 && session.compactions() == 0 {
                let reached = depths.iter().filter(|&&d| d != u64::MAX).count() as u64;
                let deepest = depths.iter().filter(|&&d| d != u64::MAX).max();
                checks.expect(
                    reached == want.visited
                        && deepest.map(|&d| d as usize + 1) == Some(want.depth_histogram.len()),
                    || format!("root {root}: the repaired result differs from the oracle's"),
                );
            }
        }
    }
    m.set("mutate.repair_us_p50", p50(&repair_us), repair_us.len());

    let (compacted, s) = timed(|| tracer.scope("mutate::compact", ROOT, 0, |_| session.compact()));
    m.set("mutate.compact_s", s, 1);
    m.set("mutate.compactions", session.compactions() as f64, 1);
    checks.expect(compacted.is_ok(), || {
        format!("compaction failed: {compacted:?}")
    });
    let visited = session
        .run_single(root)
        .into_iter()
        .next()
        .and_then(|r| r.ok().and_then(Result::ok))
        .map(|o| o.stats.visited_vertices);
    checks.expect(visited == Some(want.visited), || {
        format!(
            "root {root}: after compaction the engine visits {visited:?}, oracle {}",
            want.visited
        )
    });
}
