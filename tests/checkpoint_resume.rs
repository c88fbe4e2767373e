//! Iteration-level checkpoint/resume: codec robustness and the
//! end-to-end guarantee that a traversal killed at *any* iteration
//! boundary resumes from its last verified checkpoint and produces a
//! parent array byte-identical to the fault-free run.

use proptest::prelude::*;
use sunbfs::common::Bitmap;
use sunbfs::core::{BfsOutput, CheckpointState, Direction, IterationStats};
use sunbfs::driver::pick_roots;
use sunbfs::net::FaultPlan;
use sunbfs::serve::{GraphSession, SessionConfig};

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

fn decisions(out: &BfsOutput) -> Vec<Decisions> {
    let masses = |it: &IterationStats| it.subs.map(|s| (s.frontier_edges, s.unexplored_edges));
    let iterations = out.stats.iterations.iter();
    iterations.map(|it| (it.directions, masses(it))).collect()
}

fn parents(outs: &[BfsOutput]) -> Vec<u64> {
    outs.iter()
        .flat_map(|o| o.parents.iter().copied())
        .collect()
}

/// Kill one rank at every iteration boundary in turn, on one session.
/// Each kill must cost `run_root` exactly one retry that resumes from
/// the last completed iteration, and the resumed run must reproduce the
/// fault-free parent array bit for bit.
#[test]
fn resume_from_every_iteration_boundary_reproduces_parents() {
    let session = GraphSession::load(SessionConfig::small(9, 4), FaultPlan::none()).expect("load");
    let root = pick_roots(&session.config().rmat(), 1).expect("connected root")[0];

    let clean = session.run_root(root, 0, &mut |_| {}).result;
    let clean = clean.expect("a fault-free run");
    let reference = parents(&clean);
    let end_ops: Vec<u64> = clean[0]
        .stats
        .iterations
        .iter()
        .map(|it| it.end_op)
        .collect();
    let decided = decisions(&clean[0]);
    assert!(
        decided.iter().any(|(_, masses)| masses[5].1 > 0),
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
        // rank saved that iteration's checkpoint. The event fires once
        // (transient-fault model), so the retry resumes and completes.
        let plan = format!("panic@1:{boundary}");
        session
            .cluster()
            .fault_plan()
            .inject(FaultPlan::parse(&plan).expect("a plan"));
        let mut retries = Vec::new();
        let run = session.run_root(root, 1, &mut |attempts| retries.push(attempts));
        assert_eq!(
            (run.attempts, retries),
            (2, vec![1]),
            "boundary {boundary}: one retry"
        );
        assert_eq!(
            run.iterations_salvaged,
            idx as u32 + 1,
            "boundary {boundary}: all ranks must agree on the last completed iteration"
        );
        let resumed = run.result.expect("the retry completes");
        assert_eq!(
            parents(&resumed),
            reference,
            "boundary {boundary}: resumed parents must be byte-identical to the fault-free run"
        );
        // The L visited mass is carried, not checkpointed: a resumed
        // engine that restarted it from zero instead of from the
        // restored seen set would see other unexplored masses from the
        // next iteration on.
        for rank in &resumed {
            assert_eq!(
                decisions(rank),
                decided,
                "boundary {boundary}: resumed masses and directions must be the uninterrupted run's"
            );
        }
    }
}
