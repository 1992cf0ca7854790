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
//! before they were rebuilt on flat vectors.

use contrarian_cclo::{stats, CcLo};
use contrarian_protocol::{build_openloop_cluster, OpenLoopParams};
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

fn measure(n_dcs: u8) -> Metrics {
    let workload = WorkloadSpec::paper_default().with_write_ratio(0.1);
    let params = OpenLoopParams {
        cfg: ClusterConfig::small().with_dcs(n_dcs),
        cost: CostModel::calibrated(),
        spec: OpenLoopSpec::new(workload, 20_000, 12_000.0).with_actors_per_dc(16),
        seed: 7,
    };
    // Engine from `CONTRARIAN_SCHED`: the CI matrix legs re-run this pin
    // under every engine, which must agree to the last nanosecond.
    let mut sim = build_openloop_cluster::<CcLo>(&params);
    sim.start();
    sim.run_until(WARMUP_NS);
    sim.metrics_mut().enabled = true;
    sim.run_until(WARMUP_NS + MEASURE_NS);
    sim.metrics().clone()
}

fn run(n_dcs: u8) -> Pin {
    let m = measure(n_dcs);
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

#[test]
fn single_dc_virtual_quantities_are_pinned() {
    assert_eq!(
        run(1),
        Pin {
            busy_ns: 1_023_598_417,
            msgs: 26_891,
            bytes: 2_701_882,
            checks: 1_118,
            check_ids_cum: 64_449,
            check_ids_distinct: 15_144,
            check_bytes: 1_031_184,
            repl_checks: 0,
        }
    );
}

#[test]
fn two_dc_virtual_quantities_are_pinned() {
    assert_eq!(
        run(2),
        Pin {
            busy_ns: 1_332_803_604,
            msgs: 33_482,
            bytes: 3_906_571,
            checks: 1_124,
            check_ids_cum: 53_008,
            check_ids_distinct: 14_382,
            check_bytes: 848_128,
            repl_checks: 1_127,
        }
    );
}

/// Sealed records keep only ROTs that can still read (`records` module
/// docs): at most each client's newest ROT still at or above the sealing
/// server's floor. On these runs that is 1.7 (1 DC) and 2.2 (2 DCs) ids
/// per record, where keeping every id the readers check returned stored
/// 70.5 and 55.3. The check counts are the pinned ones above, so the
/// budget is measured on the same traffic.
#[test]
fn sealed_block_records_stay_within_four_ids_each() {
    for (n_dcs, checks, check_ids_cum) in [(1, 1_118, 64_449), (2, 1_124, 53_008)] {
        let m = measure(n_dcs);
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
