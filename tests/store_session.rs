//! End-to-end persistent-store tests: a session opened from a graph
//! file must serve byte-identical BFS results to the session that
//! built the graph, the driver must report the store activity in the
//! metrics JSON, and any damage to the file must surface as a typed
//! refusal — never a silently different graph.

mod common;

use std::path::PathBuf;

use common::Scenario;
use sunbfs::driver::{run_benchmark, RunConfig};
use sunbfs::net::{fnv1a, FaultPlan, WordWriter};
use sunbfs::part::Thresholds;
use sunbfs::serve::{GraphSession, SessionConfig, SessionError, StoreError};
use sunbfs::store::{PAGE_PAYLOAD, PAGE_SIZE};

const SCALE: u32 = 10;
const RANKS: usize = 4;
const SEED: u64 = 4242;

fn session_cfg(seed: u64) -> SessionConfig {
    SessionConfig {
        seed,
        max_load_attempts: 1,
        ..SessionConfig::small(SCALE, RANKS)
    }
}

fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sunbfs_store_e2e_{tag}_{}.sbfs",
        std::process::id()
    ))
}

/// The acceptance criterion: a session opened from the store file
/// serves byte-identical parents and depth histograms to the session
/// that built the graph (its twin), and the built session's results
/// pass the harness's oracle — one batch of the default width.
#[test]
fn opened_session_serves_byte_identical_results() {
    let built = Scenario::pinned(SCALE, (2, 2), Thresholds::new(256, 64), SEED);
    common::run(&[Scenario {
        width: 64,
        roots: 4,
        store: true,
        ..built
    }]);
}

/// An opened session reports zero build cost and `opened` store
/// activity; a header disagreement (different seed) is a typed refusal.
#[test]
fn opened_sessions_report_store_activity_and_refuse_mismatches() {
    let path = temp_store("mismatch");
    let mut built = GraphSession::load(session_cfg(SEED), FaultPlan::none()).expect("build");
    built.save(&path).expect("save");
    assert!(built.store.as_ref().is_some_and(|s| s.saved && !s.opened));

    let opened = GraphSession::open(&path, session_cfg(SEED), FaultPlan::none())
        .unwrap_or_else(|e| panic!("open failed: {e}"));
    assert_eq!(opened.build_sim_seconds, 0.0);
    assert_eq!(opened.load_attempts, 0);
    let store = opened
        .store
        .as_ref()
        .expect("opened sessions carry store activity");
    assert!(store.opened);
    assert!(store.warm_open_wall_seconds.is_some());

    match GraphSession::open(&path, session_cfg(SEED + 1), FaultPlan::none()) {
        Ok(_) => panic!("a mismatched seed must refuse to open"),
        Err(SessionError::Store(StoreError::HeaderMismatch { field, .. })) => {
            assert_eq!(field, "seed")
        }
        Err(other) => panic!("expected HeaderMismatch, got {other}"),
    }
    std::fs::remove_file(&path).ok();
}

/// Damage sweep through the session layer: flip one byte at every page
/// boundary — `open` must refuse each time with a typed store error.
#[test]
fn open_refuses_a_damaged_file_at_every_page_boundary() {
    let path = temp_store("damage");
    let mut built = GraphSession::load(session_cfg(SEED), FaultPlan::none()).expect("build");
    built.save(&path).expect("save");
    let clean = std::fs::read(&path).expect("read store file");
    let pages = clean.len() / 4096;
    assert!(pages >= 2);

    // Probe the first payload byte of each page (64 pages max keeps the
    // sweep fast at this scale) plus the final page's seal.
    let probes: Vec<usize> = (0..pages.min(64))
        .map(|p| p * 4096)
        .chain(std::iter::once(clean.len() - 1))
        .collect();
    for at in probes {
        let mut bad = clean.clone();
        bad[at] ^= 0x01;
        std::fs::write(&path, &bad).expect("write damaged file");
        match GraphSession::open(&path, session_cfg(SEED), FaultPlan::none()) {
            Ok(_) => panic!("byte {at}: damaged file opened"),
            Err(SessionError::Store(e)) => {
                let _ = e.to_string();
            }
            Err(other) => panic!("byte {at}: expected a store error, got {other}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The body words (seal dropped) of the `byte_len`-byte stream whose
/// first page is `first_page`.
fn stream_words(file: &[u8], first_page: usize, byte_len: usize) -> Vec<u64> {
    let pages = file[first_page * PAGE_SIZE..].chunks(PAGE_SIZE);
    let stream: Vec<u8> = pages
        .flat_map(|p| &p[..PAGE_PAYLOAD])
        .copied()
        .take(byte_len)
        .collect();
    let body = &stream[..byte_len - 8];
    body.chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
        .collect()
}

/// Re-seal `words` as a stream through `WordWriter` and lay it over
/// the pages from `first_page`, each page sealed again.
fn reseal(file: &mut [u8], first_page: usize, words: &[u64]) {
    let mut w = WordWriter::default();
    words.iter().for_each(|&x| w.put(x));
    let stream = w.seal();
    for (i, chunk) in stream.chunks(PAGE_PAYLOAD).enumerate() {
        let page = &mut file[(first_page + i) * PAGE_SIZE..][..PAGE_SIZE];
        page[..chunk.len()].copy_from_slice(chunk);
        let seal = fnv1a(&page[..PAGE_PAYLOAD]);
        page[PAGE_PAYLOAD..].copy_from_slice(&seal.to_le_bytes());
    }
}

/// Word indices of the first CSR in a rank stream's body that stores
/// an edge: its offsets' and its targets' length words. Past the rank
/// magic, index, n, p, the hub table and the degree table, then
/// through the nine CSRs (key base, offsets, targets).
fn first_edge_csr(words: &[u64]) -> (usize, usize) {
    let num_hubs = words[5] as usize;
    let mut at = 6 + 2 * num_hubs;
    at += 1 + words[at] as usize; // owned degrees
    for _ in 0..9 {
        let offsets = at + 1; // past the key base
        at = offsets + 1 + words[offsets] as usize;
        if words[at] > 0 {
            return (offsets, at);
        }
        at += 1;
    }
    panic!("no CSR of this rank stores an edge")
}

/// Disk input that passes every seal: a real file with one word of a
/// rank stream or of the header changed to a value no partition holds,
/// re-sealed through `WordWriter` — `open` refuses each as `Corrupt`,
/// naming the check, without a panic. Re-sealing the words unchanged
/// opens, so each refusal is the word's, not the re-seal's.
#[test]
fn open_refuses_resealed_words_a_partition_cannot_hold() {
    let path = temp_store("reseal");
    let mut built = GraphSession::load(session_cfg(SEED), FaultPlan::none()).expect("build");
    built.save(&path).expect("save");
    let clean = std::fs::read(&path).expect("read store file");
    let header = stream_words(&clean, 0, (12 + 2 * RANKS + 1) * 8);
    let (first_page, byte_len) = (header[12] as usize, header[13] as usize);
    let rank0 = stream_words(&clean, first_page, byte_len);
    let (n, num_hubs) = (rank0[2], rank0[5]);
    assert!(num_hubs > 0, "rank 0 holds a hub table to damage");
    let degrees = 6 + 2 * num_hubs as usize;
    let (offsets, targets) = first_edge_csr(&rank0);
    // Two adjacent offsets past the leading 0 that rise, so swapping
    // them makes the sequence decrease.
    let last = offsets + rank0[offsets] as usize;
    let rise = (offsets + 2..last)
        .find(|&i| rank0[i] < rank0[i + 1])
        .expect("a CSR storing edges over several keys has a rising step");

    let open = |bytes: &[u8]| {
        std::fs::write(&path, bytes).expect("write re-sealed file");
        GraphSession::open(&path, session_cfg(SEED), FaultPlan::none()).map(drop)
    };
    // (first page of the stream, (word, value) changes, the `what` of
    // the refusal — empty for the unchanged words, which open).
    type Case<'a> = (usize, &'a [(usize, u64)], &'a str);
    let cases: [Case; 8] = [
        (first_page, &[], ""),
        (
            first_page,
            &[(targets + 1, 1 << 32)],
            "csr target exceeds u32",
        ),
        (
            first_page,
            &[(rise, rank0[rise + 1]), (rise + 1, rank0[rise])],
            "csr offsets must be non-decreasing",
        ),
        (first_page, &[(4, num_hubs + 1)], "hub counts"),
        (
            first_page,
            &[(degrees, rank0[degrees] + 1)],
            "owned degree table length",
        ),
        (first_page, &[(6, n)], "hub vertex out of range"),
        (first_page, &[(7, 1 << 32)], "hub degree exceeds u32"),
        (0, &[(3, 33)], "scale too large"),
    ];
    for (page, changes, want) in cases {
        let mut words = if page == 0 {
            header.clone()
        } else {
            rank0.clone()
        };
        for &(at, value) in changes {
            words[at] = value;
        }
        let mut bytes = clean.clone();
        reseal(&mut bytes, page, &words);
        match (want, open(&bytes)) {
            ("", got) => got.expect("re-sealed unchanged words open"),
            (_, Err(SessionError::Store(StoreError::Corrupt { what }))) => assert_eq!(what, want),
            (_, got) => panic!("{changes:?}: expected Corrupt {{ {want:?} }}, got {got:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The driver round trip: `save_graph` then `load_graph` record their
/// store activity, and where the partition came from changes nothing
/// about the traversals — plain, saved and opened runs of one config
/// agree per root on every simulated number, bit for bit.
#[test]
fn driver_save_then_load_reports_store_activity() {
    let path = temp_store("driver");
    let path_str = path.to_str().expect("utf-8 temp path").to_string();
    let base = RunConfig {
        num_roots: 2,
        ..RunConfig::small_test(9, 4)
    };

    let plain = run_benchmark(&base).expect("plain run");
    assert!(plain.validated);
    assert!(plain.store.is_none());

    let cold = run_benchmark(&RunConfig {
        save_graph: Some(path_str.clone()),
        ..base.clone()
    })
    .expect("cold run");
    assert!(cold.validated);
    let store = cold
        .store
        .as_ref()
        .expect("save_graph records store activity");
    assert!(store.saved && !store.opened);
    assert!(store.cold_build_wall_seconds.is_some());

    let warm = run_benchmark(&RunConfig {
        load_graph: Some(path_str),
        ..base
    })
    .expect("warm run");
    std::fs::remove_file(&path).ok();
    assert!(warm.validated);
    let store = warm
        .store
        .as_ref()
        .expect("load_graph records store activity");
    assert!(store.opened && !store.saved);
    assert!(store.warm_open_wall_seconds.is_some());

    // Provenance invariance: same roots, same per-level series, same
    // simulated clock on every side of the restart.
    for other in [&cold, &warm] {
        assert_eq!(plain.runs.len(), other.runs.len());
        for (a, b) in plain.runs.iter().zip(&other.runs) {
            assert_eq!(a.root, b.root);
            assert_eq!(a.visited_vertices, b.visited_vertices);
            assert_eq!(a.traversed_edges, b.traversed_edges);
            assert_eq!(a.sim_seconds.to_bits(), b.sim_seconds.to_bits());
            assert_eq!(a.gteps.to_bits(), b.gteps.to_bits());
            assert!(!a.iterations.is_empty());
            assert_eq!(a.iterations.len(), b.iterations.len());
            for (x, y) in a.iterations.iter().zip(&b.iterations) {
                assert_eq!(x.directions, y.directions);
                assert_eq!(x.scanned_edges, y.scanned_edges);
                assert_eq!(x.end_op, y.end_op);
            }
            assert_eq!(a.comm, b.comm, "collective calls and bytes");
            assert!(a.comm.entries().count() > 0);
        }
    }
}
