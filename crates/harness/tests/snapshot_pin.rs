//! Virtual-identity pin for the snapshot backends (Contrarian in both ROT
//! modes, Cure, Okapi).
//!
//! The three backends are one server skeleton with a clock and a
//! stable-time shape plugged in; a change to the skeleton must leave every
//! virtual quantity of every flavor where it was. The golden history
//! fingerprints run 30 virtual ms under the functional cost model, so they
//! never see a GC tick (the first is at 200 ms), a calibrated service time
//! or a third DC — and Okapi's scalar stable time first differs from
//! Contrarian's vector at 3 DCs. This pin runs long enough for two GC
//! sweeps, under the calibrated cost model, at 1, 2 and 3 DCs, and names
//! the quantity that moved instead of printing an opaque hash diff.
//!
//! The constants were captured on the three hand-written servers (PR 13's
//! commit) before they were folded into `SnapshotServer`. The fold moved
//! exactly three of them: Cure's `busy_ns`, because Cure's GC sweep used to
//! be free in virtual time and now pays the 200 ns per dropped version the
//! other two always paid (the arithmetic is next to each constant).

use contrarian_core::Contrarian;
use contrarian_cure::Cure;
use contrarian_okapi::Okapi;
use contrarian_protocol::{build_openloop_cluster, OpenLoopParams, ProtocolSpec};
use contrarian_runtime::cost::CostModel;
use contrarian_runtime::metrics::Histogram;
use contrarian_types::{ClusterConfig, RotMode};
use contrarian_workload::{OpenLoopSpec, WorkloadSpec};

const WARMUP_NS: u64 = 50_000_000;
/// The small config collects versions every 200 ms: two sweeps inside the
/// window.
const MEASURE_NS: u64 = 500_000_000;

/// What one run pins: the kernel's virtual totals, the latency tails, then
/// `(count, max)` of every protocol gauge.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    busy_ns: u64,
    msgs: u64,
    bytes: u64,
    rots: u64,
    puts: u64,
    rot_p99_ns: u64,
    rot_max_ns: u64,
    put_p99_ns: u64,
    put_max_ns: u64,
    block_ns: (u64, u64),
    vis_ns: (u64, u64),
    data_stale_ns: (u64, u64),
    gss_lag: (u64, u64),
}

fn run<P: ProtocolSpec>(mode: RotMode, n_dcs: u8) -> Pin {
    let workload = WorkloadSpec::paper_default().with_write_ratio(0.1);
    let params = OpenLoopParams {
        cfg: ClusterConfig::small().with_dcs(n_dcs).with_rot_mode(mode),
        cost: CostModel::calibrated(),
        spec: OpenLoopSpec::new(workload, 20_000, 12_000.0).with_actors_per_dc(16),
        seed: 7,
    };
    // Engine from `CONTRARIAN_SCHED`: the CI matrix legs re-run this pin
    // under every engine, which must agree to the last nanosecond.
    let mut sim = build_openloop_cluster::<P>(&params);
    sim.start();
    sim.run_until(WARMUP_NS);
    sim.metrics_mut().enabled = true;
    sim.run_until(WARMUP_NS + MEASURE_NS);
    let m = sim.metrics();
    let gauge = |h: &Histogram| (h.count(), h.max());
    Pin {
        busy_ns: m.busy_ns,
        msgs: m.msgs,
        bytes: m.bytes,
        rots: m.rots_done,
        puts: m.puts_done,
        rot_p99_ns: m.rot_latency.percentile(99.0),
        rot_max_ns: m.rot_latency.max(),
        put_p99_ns: m.put_latency.percentile(99.0),
        put_max_ns: m.put_latency.max(),
        block_ns: gauge(&m.block_ns),
        vis_ns: gauge(&m.vis_staleness),
        data_stale_ns: gauge(&m.data_staleness),
        gss_lag: gauge(&m.gss_lag),
    }
}

#[test]
#[rustfmt::skip] // one run per block, as a table
fn contrarian_one_half_round_is_pinned() {
    assert_eq!(run::<Contrarian>(RotMode::OneHalfRound, 1), Pin {
        busy_ns: 1_353_420_070, msgs: 36_259, bytes: 2_230_841, rots: 4_053, puts: 1_909,
        rot_p99_ns: 851_968, rot_max_ns: 1_265_189, put_p99_ns: 720_896, put_max_ns: 1_146_092,
        block_ns: (0, 0), vis_ns: (0, 0),
        data_stale_ns: (134, 744_052), gss_lag: (0, 0),
    });
    assert_eq!(run::<Contrarian>(RotMode::OneHalfRound, 2), Pin {
        busy_ns: 1_784_566_298, msgs: 51_025, bytes: 3_136_832, rots: 4_135, puts: 1_862,
        rot_p99_ns: 704_512, rot_max_ns: 1_159_436, put_p99_ns: 540_672, put_max_ns: 1_065_152,
        block_ns: (0, 0), vis_ns: (1_866, 10_170_284),
        data_stale_ns: (530, 12_746_561), gss_lag: (1_000, 790_167_552),
    });
    assert_eq!(run::<Contrarian>(RotMode::OneHalfRound, 3), Pin {
        busy_ns: 2_336_854_415, msgs: 70_983, bytes: 4_316_711, rots: 4_248, puts: 1_874,
        rot_p99_ns: 671_744, rot_max_ns: 848_601, put_p99_ns: 524_288, put_max_ns: 898_492,
        block_ns: (0, 0), vis_ns: (3_754, 10_177_273),
        data_stale_ns: (827, 12_825_136), gss_lag: (1_500, 810_024_960),
    });
}

#[test]
#[rustfmt::skip] // one run per block, as a table
fn contrarian_two_round_is_pinned() {
    assert_eq!(run::<Contrarian>(RotMode::TwoRound, 1), Pin {
        busy_ns: 1_419_436_633, msgs: 44_358, bytes: 2_384_279, rots: 4_054, puts: 1_909,
        rot_p99_ns: 1_343_488, rot_max_ns: 2_688_594, put_p99_ns: 1_048_576, put_max_ns: 2_229_743,
        block_ns: (0, 0), vis_ns: (0, 0),
        data_stale_ns: (280, 856_328), gss_lag: (0, 0),
    });
    assert_eq!(run::<Contrarian>(RotMode::TwoRound, 2), Pin {
        busy_ns: 1_851_185_335, msgs: 59_281, bytes: 3_359_575, rots: 4_133, puts: 1_862,
        rot_p99_ns: 1_015_808, rot_max_ns: 1_679_611, put_p99_ns: 786_432, put_max_ns: 1_357_910,
        block_ns: (0, 0), vis_ns: (1_866, 10_159_311),
        data_stale_ns: (637, 12_489_686), gss_lag: (1_000, 790_167_552),
    });
    assert_eq!(run::<Contrarian>(RotMode::TwoRound, 3), Pin {
        busy_ns: 2_404_678_994, msgs: 79_471, bytes: 4_614_113, rots: 4_247, puts: 1_874,
        rot_p99_ns: 966_656, rot_max_ns: 1_318_029, put_p99_ns: 671_744, put_max_ns: 1_192_682,
        block_ns: (0, 0), vis_ns: (3_754, 10_161_545),
        data_stale_ns: (950, 12_942_515), gss_lag: (1_500, 810_024_960),
    });
}

#[test]
#[rustfmt::skip] // one run per block, as a table
fn cure_is_pinned_and_parks() {
    let pins = [
        (1, Pin {
            // busy_ns: 1_419_007_438 before the fold + 200 ns × 744 versions the GC dropped.
            busy_ns: 1_419_156_238, msgs: 44_351, bytes: 2_383_933, rots: 4_054, puts: 1_909,
            rot_p99_ns: 2_359_296, rot_max_ns: 4_268_936, put_p99_ns: 1_933_312, put_max_ns: 3_399_582,
            block_ns: (4_196, 408_681), vis_ns: (0, 0),
            data_stale_ns: (350, 864_209), gss_lag: (0, 0),
        }),
        (2, Pin {
            // busy_ns: 1_850_694_476 before the fold + 200 ns × 1379 versions the GC dropped.
            busy_ns: 1_850_970_276, msgs: 59_275, bytes: 3_359_210, rots: 4_133, puts: 1_862,
            rot_p99_ns: 1_638_400, rot_max_ns: 2_550_176, put_p99_ns: 1_179_648, put_max_ns: 1_756_496,
            block_ns: (3_676, 456_560), vis_ns: (1_866, 10_159_311),
            data_stale_ns: (700, 13_102_078), gss_lag: (1_000, 790_167_552),
        }),
        (3, Pin {
            // busy_ns: 2_403_998_567 before the fold + 200 ns × 2095 versions the GC dropped.
            busy_ns: 2_404_417_567, msgs: 79_461, bytes: 4_613_857, rots: 4_249, puts: 1_873,
            rot_p99_ns: 1_605_632, rot_max_ns: 2_161_025, put_p99_ns: 1_048_576, put_max_ns: 1_762_974,
            block_ns: (4_374, 497_700), vis_ns: (3_754, 10_161_545),
            data_stale_ns: (1_004, 13_173_511), gss_lag: (1_500, 810_024_960),
        }),
    ];
    for (n_dcs, pin) in pins {
        assert!(pin.block_ns.0 > 0, "a Cure pin that never parks misses the blocking path");
        assert_eq!(run::<Cure>(RotMode::TwoRound, n_dcs), pin);
    }
}

#[test]
#[rustfmt::skip] // one run per block, as a table
fn okapi_is_pinned() {
    assert_eq!(run::<Okapi>(RotMode::TwoRound, 1), Pin {
        busy_ns: 1_419_436_633, msgs: 44_358, bytes: 2_384_279, rots: 4_054, puts: 1_909,
        rot_p99_ns: 1_343_488, rot_max_ns: 2_688_594, put_p99_ns: 1_048_576, put_max_ns: 2_229_743,
        block_ns: (0, 0), vis_ns: (0, 0),
        data_stale_ns: (280, 856_328), gss_lag: (0, 0),
    });
    assert_eq!(run::<Okapi>(RotMode::TwoRound, 2), Pin {
        busy_ns: 1_851_185_335, msgs: 59_281, bytes: 3_359_575, rots: 4_133, puts: 1_862,
        rot_p99_ns: 1_015_808, rot_max_ns: 1_679_611, put_p99_ns: 786_432, put_max_ns: 1_357_910,
        block_ns: (0, 0), vis_ns: (1_866, 10_159_311),
        data_stale_ns: (637, 12_489_686), gss_lag: (1_000, 790_167_552),
    });
    assert_eq!(run::<Okapi>(RotMode::TwoRound, 3), Pin {
        busy_ns: 2_404_805_498, msgs: 79_471, bytes: 4_614_079, rots: 4_247, puts: 1_874,
        rot_p99_ns: 983_040, rot_max_ns: 1_318_029, put_p99_ns: 671_744, put_max_ns: 1_192_682,
        block_ns: (0, 0), vis_ns: (3_754, 10_161_545),
        data_stale_ns: (1_165, 12_942_515), gss_lag: (1_500, 810_024_960),
    });
}
