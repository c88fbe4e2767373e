//! Iteration-level checkpointing for fault-tolerant traversals.
//!
//! A BFS that loses a rank mid-traversal currently pays for the whole
//! root again on retry. This module captures the engine's loop-carried
//! state after every *completed* iteration so the driver's retry can
//! resume from the last verified checkpoint instead:
//!
//! * [`CheckpointState`] is the complete per-rank snapshot — frontier
//!   and visited bitmaps for both the replicated hub classes and the
//!   owner-local L class, the delegate-local parent buffers, and the
//!   loop-carried global counters.
//! * Snapshots are stored *encoded*: a fixed-layout little-endian `u64`
//!   stream sealed with a trailing FNV-1a checksum, written and read
//!   with the sealed word-stream codec in `sunbfs_net::frame` (the one
//!   every partition-store stream uses). [`decode`] refuses anything
//!   damaged, so a resume never starts from corrupt state — "last
//!   verified checkpoint" is literal.
//! * [`CheckpointStore`] holds one slot per rank. Saves are rank-local
//!   (no extra collectives: the engine saves right after its closing
//!   iteration allreduce, and faults unwind *at* collectives, so every
//!   rank holds the same last iteration — see
//!   [`CheckpointStore::common_iter`]).
//!
//! Consistency argument: the engine's only unwind points are
//! collectives (injected panics fire inside `exchange`, corruption
//! escalation poisons at the deposit barrier, SPMD violations unwind at
//! collect). A checkpoint is taken between an iteration's closing
//! allreduce and the next collective, so either every rank saved
//! iteration `k` or none did — the store can never hold a torn
//! cross-rank state.
//!
//! [`decode`]: CheckpointState::decode

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sunbfs_common::{Bitmap, TimeAccumulator};
use sunbfs_net::{CommStats, Damage, WordReader, WordWriter};

use crate::config::Direction;
use crate::stats::IterationStats;

/// Envelope magic: "SBFSCKPT" little-endian.
const MAGIC: u64 = u64::from_le_bytes(*b"SBFSCKPT");
/// Envelope layout version (v2 added the measured-heuristic masses and
/// the per-component direction hysteresis word).
const VERSION: u64 = 2;

/// One rank's complete BFS loop state after a finished iteration.
///
/// Everything the engine's iteration loop carries is here; the
/// sub-iteration scratch (`hub_update`, `hub_next`, `l_next`) is
/// guaranteed clear at the capture point and is therefore not stored.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointState {
    /// Last completed iteration (1-based).
    pub iter: u32,
    /// Global active-L count after the closing allreduce.
    pub active_l: u64,
    /// Global visited-L count after the closing allreduce.
    pub visited_l: u64,
    /// Simulated seconds spent in the traversal up to this point
    /// (across the original run and any earlier resumed segments).
    pub sim_seconds: f64,
    /// Replicated hub frontier (already swapped to the next iteration).
    pub hub_curr: Bitmap,
    /// Replicated hub visited bits.
    pub hub_visited: Bitmap,
    /// Delegate-local hub parents (reduced only after the traversal).
    pub hub_parent: Vec<u64>,
    /// Owner-local L frontier.
    pub l_curr: Bitmap,
    /// Owner-local L visited bits.
    pub l_visited: Bitmap,
    /// Owner-local L parents.
    pub l_parent: Vec<u64>,
    /// Measured-heuristic frontier degree masses per class (E, H, L) —
    /// global sums; zeros under the fixed heuristic.
    pub frontier_mass: [u64; 3],
    /// Measured-heuristic accumulated visited degree masses per class
    /// (E, H, L); zeros under the fixed heuristic.
    pub visited_mass: [u64; 3],
    /// Previous per-component directions, the measured heuristic's
    /// hysteresis state ([`crate::config::Component::ALL`] order).
    pub prev_dirs: [Direction; 6],
}

/// Pack the hysteresis directions into one `u64` (bit `i` = pull).
fn pack_dirs(dirs: &[Direction; 6]) -> u64 {
    dirs.iter()
        .enumerate()
        .map(|(i, d)| ((*d == Direction::Pull) as u64) << i)
        .sum()
}

/// Inverse of [`pack_dirs`]; `None` when bits past the six are set
/// (corrupt despite a valid checksum shape).
fn unpack_dirs(word: u64) -> Option<[Direction; 6]> {
    if word >> 6 != 0 {
        return None;
    }
    let mut dirs = [Direction::Push; 6];
    for (i, d) in dirs.iter_mut().enumerate() {
        if word >> i & 1 == 1 {
            *d = Direction::Pull;
        }
    }
    Some(dirs)
}

impl CheckpointState {
    /// Serialize to the checksummed envelope.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WordWriter::default();
        for x in [
            MAGIC,
            VERSION,
            self.iter as u64,
            self.active_l,
            self.visited_l,
            self.sim_seconds.to_bits(),
            self.frontier_mass[0],
            self.frontier_mass[1],
            self.frontier_mass[2],
            self.visited_mass[0],
            self.visited_mass[1],
            self.visited_mass[2],
            pack_dirs(&self.prev_dirs),
        ] {
            w.put(x);
        }
        for bm in [
            &self.hub_curr,
            &self.hub_visited,
            &self.l_curr,
            &self.l_visited,
        ] {
            w.put(bm.len());
            w.put_slice(bm.words());
        }
        w.put_slice(&self.hub_parent);
        w.put_slice(&self.l_parent);
        w.seal()
    }

    /// Parse and verify an envelope; `None` on any damage — bad magic
    /// or version, inconsistent lengths, trailing garbage, or a
    /// checksum mismatch.
    pub fn decode(bytes: &[u8]) -> Option<CheckpointState> {
        Self::read(bytes).ok()
    }

    fn read(bytes: &[u8]) -> Result<CheckpointState, Damage> {
        let mut r = WordReader::unseal(bytes, "checkpoint seal")?;
        if r.word()? != MAGIC || r.word()? != VERSION {
            return Err(Damage::Corrupt("checkpoint magic or version"));
        }
        let iter = u32::try_from(r.word()?).map_err(|_| Damage::Corrupt("iteration"))?;
        let active_l = r.word()?;
        let visited_l = r.word()?;
        let sim_seconds = f64::from_bits(r.word()?);
        let frontier_mass = [r.word()?, r.word()?, r.word()?];
        let visited_mass = [r.word()?, r.word()?, r.word()?];
        let prev_dirs = unpack_dirs(r.word()?).ok_or(Damage::Corrupt("direction word"))?;
        let hub_curr = read_bitmap(&mut r)?;
        let hub_visited = read_bitmap(&mut r)?;
        let l_curr = read_bitmap(&mut r)?;
        let l_visited = read_bitmap(&mut r)?;
        let hub_parent = r.slice("hub parent length")?;
        let l_parent = r.slice("L parent length")?;
        r.end("trailing words")?;
        Ok(CheckpointState {
            iter,
            active_l,
            visited_l,
            sim_seconds,
            hub_curr,
            hub_visited,
            hub_parent,
            l_curr,
            l_visited,
            l_parent,
            frontier_mass,
            visited_mass,
            prev_dirs,
        })
    }
}

/// A bitmap's bit count, then its words as a slice (whose length must
/// match the bit count).
fn read_bitmap(r: &mut WordReader<'_>) -> Result<Bitmap, Damage> {
    let bits = r.word()?;
    let words = r.slice("bitmap length")?;
    if words.len() as u64 != bits.div_ceil(64) {
        return Err(Damage::Corrupt("bitmap length"));
    }
    let mut bm = Bitmap::new(bits);
    bm.words_mut().copy_from_slice(&words);
    Ok(bm)
}

/// The statistics a resumed run inherits from the checkpointed
/// segment: the completed iteration series plus the simulated time and
/// communication volume already spent, so a resumed traversal is
/// charged like one continuous run.
#[derive(Clone, Debug, Default)]
pub struct ResumeStats {
    /// Per-iteration counters of every completed iteration.
    pub iterations: Vec<IterationStats>,
    /// Per-category simulated time spent before the checkpoint.
    pub times: TimeAccumulator,
    /// Collective calls and byte volumes before the checkpoint.
    pub comm: CommStats,
}

struct Saved {
    encoded: Vec<u8>,
    stats: ResumeStats,
}

/// Per-root checkpoint storage shared by every rank of one SPMD phase:
/// one slot per rank, written after each completed iteration, read at
/// the start of a retry.
pub struct CheckpointStore {
    slots: Vec<Mutex<Option<Saved>>>,
    saves: AtomicU64,
}

impl CheckpointStore {
    /// An empty store for a cluster of `nranks` ranks.
    pub fn new(nranks: usize) -> Self {
        CheckpointStore {
            slots: (0..nranks).map(|_| Mutex::new(None)).collect(),
            saves: AtomicU64::new(0),
        }
    }

    /// Overwrite `rank`'s slot with a snapshot (encoded and sealed).
    pub fn save(&self, rank: usize, state: &CheckpointState, stats: ResumeStats) {
        let encoded = state.encode();
        *lock(&self.slots[rank]) = Some(Saved { encoded, stats });
        self.saves.fetch_add(1, Ordering::Relaxed);
    }

    /// Decode-verify and return `rank`'s snapshot; `None` when the slot
    /// is empty or its envelope fails verification.
    pub fn load(&self, rank: usize) -> Option<(CheckpointState, ResumeStats)> {
        let slot = lock(&self.slots[rank]);
        let saved = slot.as_ref()?;
        let state = CheckpointState::decode(&saved.encoded)?;
        Some((state, saved.stats.clone()))
    }

    /// The iteration every rank's slot verifiably holds — `Some(k)`
    /// only when all slots decode and agree. This is the resume gate:
    /// the engine's unwind points guarantee agreement (see module doc),
    /// so `None` means "no usable checkpoint", never "partial one".
    pub fn common_iter(&self) -> Option<u32> {
        let mut common: Option<u32> = None;
        for slot in &self.slots {
            let guard = lock(slot);
            let iter = CheckpointState::decode(&guard.as_ref()?.encoded)?.iter;
            match common {
                None => common = Some(iter),
                Some(c) if c != iter => return None,
                Some(_) => {}
            }
        }
        common
    }

    /// Total snapshots taken over this store's lifetime.
    pub fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }
}

/// A rank that panics never does so while holding a slot lock (saves
/// and loads are short, between collectives), but the unwinding of a
/// *different* rank must not wedge this one: take the data regardless.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> CheckpointState {
        let mut hub_curr = Bitmap::new(130);
        hub_curr.set(0);
        hub_curr.set(129);
        let mut hub_visited = Bitmap::new(130);
        hub_visited.set(64);
        let mut l_curr = Bitmap::new(10);
        l_curr.set(3);
        let l_visited = Bitmap::new(10);
        CheckpointState {
            iter: 4,
            active_l: 7,
            visited_l: 21,
            sim_seconds: 0.125,
            hub_curr,
            hub_visited,
            hub_parent: vec![5, u64::MAX, 9],
            l_curr,
            l_visited,
            l_parent: vec![1, 2, 3],
            frontier_mass: [11, 0, 42],
            visited_mass: [100, 7, 300],
            prev_dirs: [
                Direction::Pull,
                Direction::Push,
                Direction::Push,
                Direction::Pull,
                Direction::Push,
                Direction::Pull,
            ],
        }
    }

    #[test]
    fn direction_word_round_trips_and_rejects_stray_bits() {
        let dirs = sample_state().prev_dirs;
        assert_eq!(unpack_dirs(pack_dirs(&dirs)), Some(dirs));
        assert_eq!(unpack_dirs(0), Some([Direction::Push; 6]));
        assert_eq!(unpack_dirs(1 << 6), None, "bits past the six components");
    }

    #[test]
    fn encode_decode_round_trips() {
        let s = sample_state();
        let bytes = s.encode();
        assert_eq!(CheckpointState::decode(&bytes).as_ref(), Some(&s));
    }

    #[test]
    fn every_corrupted_byte_is_rejected() {
        let s = sample_state();
        let bytes = s.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert_eq!(
                CheckpointState::decode(&bad),
                None,
                "flip at byte {i} must be caught"
            );
        }
    }

    #[test]
    fn truncation_and_extension_are_rejected() {
        let bytes = sample_state().encode();
        for cut in [0, 1, 8, bytes.len() - 1] {
            assert_eq!(CheckpointState::decode(&bytes[..cut]), None);
        }
        let mut longer = bytes.clone();
        longer.extend_from_slice(&[0u8; 8]);
        assert_eq!(CheckpointState::decode(&longer), None);
    }

    #[test]
    fn store_tracks_saves_and_common_iter() {
        let store = CheckpointStore::new(2);
        assert_eq!(store.common_iter(), None, "empty store has no checkpoint");
        assert!(store.load(0).is_none());
        let s = sample_state();
        store.save(0, &s, ResumeStats::default());
        assert_eq!(store.common_iter(), None, "rank 1 still missing");
        store.save(1, &s, ResumeStats::default());
        assert_eq!(store.common_iter(), Some(4));
        let mut later = s.clone();
        later.iter = 5;
        store.save(0, &later, ResumeStats::default());
        assert_eq!(store.common_iter(), None, "disagreeing iters are unusable");
        store.save(1, &later, ResumeStats::default());
        assert_eq!(store.common_iter(), Some(5));
        assert_eq!(store.saves(), 4);
        let (loaded, _) = store.load(0).expect("verified slot loads");
        assert_eq!(loaded, later);
    }
}
