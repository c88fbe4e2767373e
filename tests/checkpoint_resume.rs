//! Iteration-level checkpoint/resume: codec robustness and the
//! end-to-end guarantee that a traversal killed at *any* iteration
//! boundary resumes from its last verified checkpoint and produces a
//! parent array byte-identical to the fault-free run.

use proptest::prelude::*;
use sunbfs::common::{Bitmap, MachineConfig};
use sunbfs::core::{
    run_bfs_recoverable, CheckpointState, CheckpointStore, Direction, EngineConfig, IterationStats,
};
use sunbfs::net::{Cluster, FaultEvent, FaultKind, FaultPlan, MeshShape, RankFailure};
use sunbfs::part::{build_1p5d, Thresholds};
use sunbfs::rmat::RmatParams;

fn bitmap_from_words(words: &[u64]) -> Bitmap {
    let mut b = Bitmap::new(words.len() as u64 * 64);
    b.words_mut().copy_from_slice(words);
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The checkpoint codec round-trips arbitrary states, and rejects
    /// any single flipped byte and any truncation: a torn or corrupted
    /// snapshot can never be mistaken for a verified one.
    #[test]
    fn codec_round_trips_and_rejects_any_damage(
        hub_words in prop::collection::vec(any::<u64>(), 0..8),
        l_words in prop::collection::vec(any::<u64>(), 0..8),
        hub_parent in prop::collection::vec(any::<u64>(), 0..16),
        l_parent in prop::collection::vec(any::<u64>(), 0..16),
        (iter, active_l, visited_l) in (1u32..64, 0u64..1 << 40, 0u64..1 << 40),
        sim_millis in 0u64..1_000_000,
        fmass in (any::<u64>(), any::<u64>(), any::<u64>()),
        vmass in (any::<u64>(), any::<u64>(), any::<u64>()),
        dir_bits in 0u8..64,
        damage in any::<u64>(),
    ) {
        let fmass = [fmass.0, fmass.1, fmass.2];
        let vmass = [vmass.0, vmass.1, vmass.2];
        let prev_dirs = std::array::from_fn(|i| {
            if dir_bits >> i & 1 == 1 { Direction::Pull } else { Direction::Push }
        });
        let state = CheckpointState {
            iter,
            active_l,
            visited_l,
            sim_seconds: sim_millis as f64 / 1e3,
            frontier_mass: fmass,
            visited_mass: vmass,
            prev_dirs,
            hub_curr: bitmap_from_words(&hub_words),
            hub_visited: bitmap_from_words(&hub_words),
            hub_parent: hub_parent.clone(),
            l_curr: bitmap_from_words(&l_words),
            l_visited: bitmap_from_words(&l_words),
            l_parent: l_parent.clone(),
        };
        let bytes = state.encode();
        prop_assert_eq!(CheckpointState::decode(&bytes).as_ref(), Some(&state));

        let mut flipped = bytes.clone();
        let at = (damage % bytes.len() as u64) as usize;
        flipped[at] ^= 0x10;
        prop_assert_eq!(CheckpointState::decode(&flipped), None);

        let cut = 1 + (damage % (bytes.len() as u64 - 1)) as usize;
        prop_assert_eq!(CheckpointState::decode(&bytes[..bytes.len() - cut]), None);
    }
}

/// What one iteration's direction decisions saw and chose: the six
/// directions and each component's measured `(m_f, m_u)` masses.
type Decisions = ([Direction; 6], [(u64, u64); 6]);

/// This rank's parent array plus the per-iteration `end_op` and
/// decision series.
type RankOutcome = Result<(Vec<u64>, Vec<u64>, Vec<Decisions>), RankFailure>;

/// One full SPMD traversal on `cluster`: generate, partition, BFS with
/// optional checkpointing. Returns per-rank `(parents, end_ops,
/// decisions)`.
fn traverse(
    cluster: &Cluster,
    params: &RmatParams,
    root: u64,
    store: Option<&CheckpointStore>,
) -> Vec<RankOutcome> {
    let n = params.num_vertices();
    let nranks = cluster.topology().num_ranks() as u64;
    cluster.run_fallible(|ctx| {
        let chunk = sunbfs::rmat::generate_chunk(params, ctx.rank() as u64, nranks);
        let part = build_1p5d(ctx, n, &chunk, Thresholds::new(256, 64));
        drop(chunk);
        let out = run_bfs_recoverable(ctx, &part, root, &EngineConfig::default(), store)
            .expect("engine must terminate");
        let iterations = &out.stats.iterations;
        let end_ops = iterations.iter().map(|it| it.end_op).collect();
        let masses = |it: &IterationStats| it.subs.map(|s| (s.frontier_edges, s.unexplored_edges));
        let decisions = iterations.iter().map(|it| (it.directions, masses(it)));
        (out.parents, end_ops, decisions.collect())
    })
}

fn concat_parents(results: &[RankOutcome]) -> Vec<u64> {
    results
        .iter()
        .flat_map(|r| r.as_ref().expect("all ranks ok").0.iter().copied())
        .collect()
}

/// Kill one rank at every iteration boundary in turn. Each kill must
/// leave a store whose common checkpoint is exactly the last completed
/// iteration, and the resumed run must reproduce the fault-free parent
/// array bit for bit.
#[test]
fn resume_from_every_iteration_boundary_reproduces_parents() {
    let params = RmatParams::graph500(9, 42);
    let shape = MeshShape::new(2, 2);
    let machine = MachineConfig::new_sunway();
    let root = sunbfs::driver::pick_roots(&params, 1).expect("connected root")[0];

    let clean_cluster = Cluster::new(shape, machine);
    let clean = traverse(&clean_cluster, &params, root, None);
    let reference = concat_parents(&clean);
    let end_ops = clean[0].as_ref().expect("clean run ok").1.clone();
    let decisions = clean[0].as_ref().expect("clean run ok").2.clone();
    assert!(
        decisions.iter().any(|(_, masses)| masses[5].1 > 0),
        "the default heuristic must be deciding from measured masses"
    );
    assert!(
        end_ops.len() >= 3,
        "need a multi-iteration traversal to exercise resume, got {} iterations",
        end_ops.len()
    );

    for (idx, &boundary) in end_ops.iter().enumerate() {
        // `end_op` is the op index of the first collective *after*
        // iteration idx+1 completed — a panic there fires after every
        // rank saved that iteration's checkpoint.
        let plan = FaultPlan::from_events(vec![FaultEvent {
            rank: 1,
            op_index: boundary,
            kind: FaultKind::Panic,
        }]);
        let cluster = Cluster::with_faults(shape, machine, plan);
        let store = CheckpointStore::new(4);

        let faulted = traverse(&cluster, &params, root, Some(&store));
        assert!(
            faulted.iter().any(|r| r.is_err()),
            "boundary {boundary}: injected panic must kill the run"
        );
        assert_eq!(
            store.common_iter(),
            Some(idx as u32 + 1),
            "boundary {boundary}: all ranks must agree on the last completed iteration"
        );

        // The event already fired (transient-fault model): the retry on
        // the same cluster resumes from the checkpoint and completes.
        let resumed = traverse(&cluster, &params, root, Some(&store));
        assert!(resumed.iter().all(Result::is_ok));
        assert_eq!(
            concat_parents(&resumed),
            reference,
            "boundary {boundary}: resumed parents must be byte-identical to the fault-free run"
        );
        // The L visited mass is carried, not checkpointed: a resumed
        // engine that restarted it from zero instead of from the
        // restored seen set would see other unexplored masses from the
        // next iteration on.
        for rank in &resumed {
            assert_eq!(
                rank.as_ref().expect("rank ok").2,
                decisions,
                "boundary {boundary}: resumed masses and directions must be the uninterrupted run's"
            );
        }
    }
}
