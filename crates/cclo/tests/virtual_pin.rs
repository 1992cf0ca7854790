//! Virtual-identity pin for the CC-LO reader bookkeeping.
//!
//! The simulator charges the readers check in *virtual* time off the
//! reader records' own sizes: `ReaderSet::len() × 100 ns` per queried key,
//! `150 ns` per returned id, `(kept + dropped) × 100 ns` per GC sweep. A
//! change to the records' host representation must leave all of that — and
//! every message it produces — bit-identical. The golden history
//! fingerprints would catch a drift too, but only as an opaque hash diff;
//! this test names the quantity that moved.
//!
//! The constants were captured on the map-based records (PR 11's commit)
//! before they were rebuilt on flat vectors, and recaptured once since,
//! when the open-loop driver switched from one arrival process per session
//! to the merged Poisson stream of its shard (the old → new check counts
//! are next to each block); the 2-DC block once more when a replica's
//! lookup of its own dependency keys' old readers began to be charged as
//! the origin's is. Every engine of [`ENGINES`] must reproduce them.

use contrarian_cclo::{stats, CcLo};
use contrarian_protocol::conformance::{SchedKind, ENGINES};
use contrarian_protocol::{build_cluster, Clients, ClusterParams};
use contrarian_runtime::cost::CostModel;
use contrarian_runtime::Metrics;
use contrarian_types::ClusterConfig;
use contrarian_workload::{OpenLoopSpec, WorkloadSpec};

const WARMUP_NS: u64 = 50_000_000;
/// Three full reader-record lifetimes of the small config (100 ms), so GC
/// sweeps, expiry inside `query` and the record hand-over on PUT all run.
const MEASURE_NS: u64 = 300_000_000;

/// What one run pins: the kernel's virtual totals, then the readers-check
/// counters in `stats` order.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    busy_ns: u64,
    msgs: u64,
    bytes: u64,
    checks: u64,
    check_ids_cum: u64,
    check_ids_distinct: u64,
    check_bytes: u64,
    repl_checks: u64,
}

fn measure(n_dcs: u8, sched: SchedKind) -> Metrics {
    let workload = WorkloadSpec::paper_default().with_write_ratio(0.1);
    let params = ClusterParams {
        cfg: ClusterConfig::small().with_dcs(n_dcs),
        cost: CostModel::calibrated(),
        clients: Clients::Open(
            OpenLoopSpec::new(workload, 20_000, 12_000.0).with_actors_per_dc(16),
        ),
        seed: 7,
    };
    let mut sim = build_cluster::<CcLo>(&params, sched);
    // Serial windows: the window path never changes a run, and the sim
    // crate's engine tests force the parallel one.
    sim.set_parallel(false);
    sim.start();
    sim.run_until(WARMUP_NS);
    sim.metrics_mut().enabled = true;
    sim.run_until(WARMUP_NS + MEASURE_NS);
    sim.metrics().clone()
}

fn run(n_dcs: u8, sched: SchedKind) -> Pin {
    let m = measure(n_dcs, sched);
    Pin {
        busy_ns: m.busy_ns,
        msgs: m.msgs,
        bytes: m.bytes,
        checks: m.counter(stats::CHECKS),
        check_ids_cum: m.counter(stats::CHECK_IDS_CUM),
        check_ids_distinct: m.counter(stats::CHECK_IDS_DISTINCT),
        check_bytes: m.counter(stats::CHECK_BYTES),
        repl_checks: m.counter(stats::REPL_CHECKS),
    }
}

/// Runs `n_dcs` under every engine of [`ENGINES`]; each must reproduce
/// `want` to the last nanosecond.
fn assert_pinned(n_dcs: u8, want: Pin) {
    for sched in ENGINES {
        assert_eq!(run(n_dcs, sched), want, "{n_dcs} DC(s) on {sched:?}");
    }
}

#[test]
fn single_dc_virtual_quantities_are_pinned() {
    // checks 1 118 → 1 130: the arrival realization changed (one merged
    // stream per actor), equal in law.
    assert_pinned(
        1,
        Pin {
            busy_ns: 1_052_822_415,
            msgs: 27_580,
            bytes: 2_773_946,
            checks: 1_130,
            check_ids_cum: 67_044,
            check_ids_distinct: 15_386,
            check_bytes: 1_072_704,
            repl_checks: 0,
        },
    );
}

#[test]
fn two_dc_virtual_quantities_are_pinned() {
    // checks 1 124 → 1 093, repl_checks 1 127 → 1 096: the arrival
    // realization changed (one merged stream per actor), equal in law.
    // busy_ns 1 368 045 417 → 1 376 714 619, bytes 4 059 159 → 4 059 063,
    // check_ids_cum 56 438 → 56 437, check_ids_distinct 14 577 → 14 578,
    // check_bytes 903 008 → 902 992: a replica's lookup of its own
    // dependency keys' old readers is charged as the origin's is, which
    // shifts later arrivals; msgs and both check counts did not move.
    assert_pinned(
        2,
        Pin {
            busy_ns: 1_376_714_619,
            msgs: 34_099,
            bytes: 4_059_063,
            checks: 1_093,
            check_ids_cum: 56_437,
            check_ids_distinct: 14_578,
            check_bytes: 902_992,
            repl_checks: 1_096,
        },
    );
}

/// Sealed records keep only ROTs that can still read (`records` module
/// docs): at most each client's newest ROT still at or above the sealing
/// server's floor. On these runs that is 1.6 (1 DC) and 2.4 (2 DCs) ids
/// per record (1 850 in 1 130 and 5 322 in 2 189; 5 340 before a
/// replica's local lookup was charged); on the per-session arrival
/// realization it was 1.7 and 2.2, where keeping every id the readers
/// check returned stored 70.5 and 55.3. The check counts are the
/// pinned ones above, so the budget is measured on the same traffic (the
/// pins hold every engine to it, so the calendar run stands for all).
#[test]
fn sealed_block_records_stay_within_four_ids_each() {
    for (n_dcs, checks, check_ids_cum) in [(1, 1_130, 67_044), (2, 1_093, 56_437)] {
        let m = measure(n_dcs, SchedKind::Calendar);
        assert_eq!(
            (m.counter(stats::CHECKS), m.counter(stats::CHECK_IDS_CUM)),
            (checks, check_ids_cum)
        );
        let sealed = m.counter(stats::CHECKS) + m.counter(stats::REPL_CHECKS);
        let ids = m.counter(stats::BLOCK_RECORD_IDS);
        assert!(
            ids <= 4 * sealed,
            "{n_dcs} DC(s): {ids} ids stored in {sealed} sealed records"
        );
    }
}
