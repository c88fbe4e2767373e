//! Property test for the `CommStats` merge algebra: a merged
//! recorder's totals are the sum of its parts' — what folding every
//! rank's recorder into one report relies on.

use proptest::prelude::*;
use sunbfs_net::{CommStats, Scope};

/// A recorder built from an arbitrary `(scope, op, bytes)` sequence.
fn record_all(events: &[(u8, u8, u64)]) -> CommStats {
    // Small op alphabet so sequences collide on keys (the interesting
    // case: counts and bytes accumulate instead of staying at 1).
    const OPS: [&str; 4] = [
        "hubsync.EH2EH",
        "comm.alltoallv.L2L",
        "heur.counts",
        "reduce.parent",
    ];
    let mut stats = CommStats::new();
    for &(scope, op, bytes) in events {
        let scope = match scope % 3 {
            0 => Scope::World,
            1 => Scope::Row,
            _ => Scope::Col,
        };
        stats.record(scope, OPS[op as usize % OPS.len()], bytes % (1 << 20));
    }
    stats
}

proptest! {
    #[test]
    fn merge_totals_are_additive(
        a_events in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..64),
        b_events in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..64),
    ) {
        let a_before = record_all(&a_events);
        let b = record_all(&b_events);
        let mut a = a_before.clone();
        a.merge(&b);
        let total = a.total_with_prefix("");
        let ta = a_before.total_with_prefix("");
        let tb = b.total_with_prefix("");
        prop_assert_eq!(total.count, ta.count + tb.count);
        prop_assert_eq!(total.bytes, ta.bytes + tb.bytes);
    }
}
