//! Worker-count determinism: the intra-rank worker pool
//! (`sunbfs_common::pool`) must never change a single output byte.
//!
//! The contract (see `docs/PERF.md`): `SUNBFS_WORKERS` only decides how
//! many OS threads staff each kernel scan — per-chunk results merge in
//! chunk order, so parents and depths are byte-identical to the serial
//! path. This test pins worker counts {1, 2, 4, 7} at SCALE 12 on two
//! mesh shapes, for the single-source engine and the 64-root
//! bit-parallel batch: the harness checks each serial run against the
//! oracle and every other worker count against its serial twin.

mod common;

use common::Scenario;
use sunbfs::part::Thresholds;

#[test]
fn outputs_are_byte_identical_across_worker_counts() {
    let paths = [(2, 2), (2, 3)].into_iter().flat_map(|mesh| {
        let single = Scenario::pinned(12, mesh, Thresholds::new(128, 32), 42);
        [(0, 1), (64, 64)].map(|(width, roots)| Scenario {
            width,
            roots,
            ..single
        })
    });
    let scenarios = paths.flat_map(|s| [1, 2, 4, 7].map(|workers| Scenario { workers, ..s }));
    common::run(&scenarios.collect::<Vec<_>>());
}
