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
//! The constants were first captured on the three hand-written servers
//! before they were folded into `SnapshotServer`; the fold moved only
//! Cure's `busy_ns`, because Cure's GC sweep used to be free in virtual
//! time and now pays the 200 ns per dropped version the other two always
//! paid. All of them were recaptured once since, when the open-loop driver
//! switched from one arrival process per session to the merged Poisson
//! stream of its shard: the arrival realization changed, equal in law, so
//! every quantity moved as a reseed moves it (the old → new operation
//! counts are next to each block). Every engine of [`ENGINES`] must
//! reproduce them.

use contrarian_core::Contrarian;
use contrarian_cure::Cure;
use contrarian_okapi::Okapi;
use contrarian_protocol::{build_cluster, Clients, ClusterParams, ProtocolSpec};
use contrarian_runtime::cost::CostModel;
use contrarian_runtime::metrics::Histogram;
use contrarian_sim::{SchedKind, ENGINES};
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

fn run<P: ProtocolSpec>(mode: RotMode, n_dcs: u8, sched: SchedKind) -> Pin {
    let workload = WorkloadSpec::paper_default().with_write_ratio(0.1);
    let params = ClusterParams {
        cfg: ClusterConfig::small().with_dcs(n_dcs).with_rot_mode(mode),
        cost: CostModel::calibrated(),
        clients: Clients::Open(
            OpenLoopSpec::new(workload, 20_000, 12_000.0).with_actors_per_dc(16),
        ),
        seed: 7,
    };
    let mut sim = build_cluster::<P>(&params, sched);
    // Serial windows: the window path never changes a run, and the sim
    // crate's engine tests force the parallel one.
    sim.set_parallel(false);
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

/// Runs `n_dcs` under every engine of [`ENGINES`]; each must reproduce
/// `want` to the last nanosecond.
fn assert_pinned<P: ProtocolSpec>(mode: RotMode, n_dcs: u8, want: Pin) {
    for sched in ENGINES {
        let got = run::<P>(mode, n_dcs, sched);
        assert_eq!(got, want, "{} {n_dcs} DC(s) on {sched:?}", P::NAME);
    }
}

#[test]
#[rustfmt::skip] // one run per block, as a table
fn contrarian_one_half_round_is_pinned() {
    // rots 4 053 → 4 095, puts 1 909 → 1 853: the arrival realization
    // changed (one merged stream per actor), equal in law.
    assert_pinned::<Contrarian>(RotMode::OneHalfRound, 1, Pin {
        busy_ns: 1_359_754_695, msgs: 36_445, bytes: 2_239_623, rots: 4_095, puts: 1_853,
        rot_p99_ns: 950_272, rot_max_ns: 1_384_461, put_p99_ns: 802_816, put_max_ns: 1_256_296,
        block_ns: (0, 0), vis_ns: (0, 0),
        data_stale_ns: (134, 721_523), gss_lag: (0, 0),
    });
    // rots 4 135 → 4 163, puts 1 862 → 1 852: the arrival realization
    // changed (one merged stream per actor), equal in law.
    assert_pinned::<Contrarian>(RotMode::OneHalfRound, 2, Pin {
        busy_ns: 1_790_996_558, msgs: 51_228, bytes: 3_145_775, rots: 4_163, puts: 1_852,
        rot_p99_ns: 704_512, rot_max_ns: 1_051_312, put_p99_ns: 573_440, put_max_ns: 1_069_759,
        block_ns: (0, 0), vis_ns: (1_842, 10_178_009),
        data_stale_ns: (580, 12_939_987), gss_lag: (1_000, 789_708_800),
    });
    // rots 4 248 → 4 193, puts 1 874 → 1 819: the arrival realization
    // changed (one merged stream per actor), equal in law.
    assert_pinned::<Contrarian>(RotMode::OneHalfRound, 3, Pin {
        busy_ns: 2_309_805_780, msgs: 70_433, bytes: 4_264_559, rots: 4_193, puts: 1_819,
        rot_p99_ns: 688_128, rot_max_ns: 1_096_636, put_p99_ns: 524_288, put_max_ns: 730_643,
        block_ns: (0, 0), vis_ns: (3_638, 10_219_352),
        data_stale_ns: (903, 12_993_860), gss_lag: (1_500, 810_483_712),
    });
}

#[test]
#[rustfmt::skip] // one run per block, as a table
fn contrarian_two_round_is_pinned() {
    // rots 4 054 → 4 097, puts 1 909 → 1 853: the arrival realization
    // changed (one merged stream per actor), equal in law.
    assert_pinned::<Contrarian>(RotMode::TwoRound, 1, Pin {
        busy_ns: 1_427_830_824, msgs: 44_657, bytes: 2_396_592, rots: 4_097, puts: 1_853,
        rot_p99_ns: 1_441_792, rot_max_ns: 2_251_493, put_p99_ns: 1_146_880, put_max_ns: 1_773_196,
        block_ns: (0, 0), vis_ns: (0, 0),
        data_stale_ns: (276, 888_095), gss_lag: (0, 0),
    });
    // rots 4 133 → 4 161, puts 1 862 → 1 852: the arrival realization
    // changed (one merged stream per actor), equal in law.
    assert_pinned::<Contrarian>(RotMode::TwoRound, 2, Pin {
        busy_ns: 1_858_055_381, msgs: 59_546, bytes: 3_369_797, rots: 4_161, puts: 1_852,
        rot_p99_ns: 1_032_192, rot_max_ns: 1_666_069, put_p99_ns: 835_584, put_max_ns: 1_507_887,
        block_ns: (0, 0), vis_ns: (1_842, 10_149_575),
        data_stale_ns: (694, 13_231_856), gss_lag: (1_000, 789_708_800),
    });
    // rots 4 247 → 4 194, puts 1 874 → 1 819: the arrival realization
    // changed (one merged stream per actor), equal in law.
    assert_pinned::<Contrarian>(RotMode::TwoRound, 3, Pin {
        busy_ns: 2_376_857_718, msgs: 78_825, bytes: 4_558_541, rots: 4_194, puts: 1_819,
        rot_p99_ns: 999_424, rot_max_ns: 1_665_848, put_p99_ns: 688_128, put_max_ns: 962_228,
        block_ns: (0, 0), vis_ns: (3_638, 10_171_003),
        data_stale_ns: (1_006, 13_111_305), gss_lag: (1_500, 810_483_712),
    });
}

#[test]
#[rustfmt::skip] // one run per block, as a table
fn cure_is_pinned_and_parks() {
    let pins = [
        (1, Pin {
            // rots 4 054 → 4 094, puts 1 909 → 1 853: the arrival realization
            // changed (one merged stream per actor), equal in law.
            busy_ns: 1_427_913_436, msgs: 44_662, bytes: 2_396_786, rots: 4_094, puts: 1_853,
            rot_p99_ns: 2_424_832, rot_max_ns: 4_111_048, put_p99_ns: 1_933_312, put_max_ns: 3_090_651,
            block_ns: (4_236, 408_503), vis_ns: (0, 0),
            data_stale_ns: (323, 892_039), gss_lag: (0, 0),
        }),
        (2, Pin {
            // rots 4 133 → 4 163, puts 1 862 → 1 852: the arrival realization
            // changed (one merged stream per actor), equal in law.
            busy_ns: 1_858_392_439, msgs: 59_557, bytes: 3_370_640, rots: 4_163, puts: 1_852,
            rot_p99_ns: 1_638_400, rot_max_ns: 2_715_964, put_p99_ns: 1_114_112, put_max_ns: 2_650_805,
            block_ns: (3_687, 443_456), vis_ns: (1_842, 10_157_383),
            data_stale_ns: (770, 13_242_775), gss_lag: (1_000, 790_036_480),
        }),
        (3, Pin {
            // rots 4 249 → 4 195, puts 1 873 → 1 819: the arrival realization
            // changed (one merged stream per actor), equal in law.
            busy_ns: 2_376_567_997, msgs: 78_811, bytes: 4_557_982, rots: 4_195, puts: 1_819,
            rot_p99_ns: 1_572_864, rot_max_ns: 2_966_476, put_p99_ns: 1_048_576, put_max_ns: 2_210_407,
            block_ns: (4_248, 497_700), vis_ns: (3_638, 10_171_003),
            data_stale_ns: (1_069, 13_463_122), gss_lag: (1_500, 811_335_680),
        }),
    ];
    for (n_dcs, pin) in pins {
        assert!(pin.block_ns.0 > 0, "a Cure pin that never parks misses the blocking path");
        assert_pinned::<Cure>(RotMode::TwoRound, n_dcs, pin);
    }
}

#[test]
#[rustfmt::skip] // one run per block, as a table
fn okapi_is_pinned() {
    // rots 4 054 → 4 097, puts 1 909 → 1 853: the arrival realization
    // changed (one merged stream per actor), equal in law.
    assert_pinned::<Okapi>(RotMode::TwoRound, 1, Pin {
        busy_ns: 1_427_830_824, msgs: 44_657, bytes: 2_396_592, rots: 4_097, puts: 1_853,
        rot_p99_ns: 1_441_792, rot_max_ns: 2_251_493, put_p99_ns: 1_146_880, put_max_ns: 1_773_196,
        block_ns: (0, 0), vis_ns: (0, 0),
        data_stale_ns: (276, 888_095), gss_lag: (0, 0),
    });
    // rots 4 133 → 4 161, puts 1 862 → 1 852: the arrival realization
    // changed (one merged stream per actor), equal in law.
    assert_pinned::<Okapi>(RotMode::TwoRound, 2, Pin {
        busy_ns: 1_858_055_381, msgs: 59_546, bytes: 3_369_797, rots: 4_161, puts: 1_852,
        rot_p99_ns: 1_032_192, rot_max_ns: 1_666_069, put_p99_ns: 835_584, put_max_ns: 1_507_887,
        block_ns: (0, 0), vis_ns: (1_842, 10_149_575),
        data_stale_ns: (694, 13_231_856), gss_lag: (1_000, 789_708_800),
    });
    // rots 4 247 → 4 194, puts 1 874 → 1 819: the arrival realization
    // changed (one merged stream per actor), equal in law.
    assert_pinned::<Okapi>(RotMode::TwoRound, 3, Pin {
        busy_ns: 2_376_959_222, msgs: 78_825, bytes: 4_558_507, rots: 4_194, puts: 1_819,
        rot_p99_ns: 999_424, rot_max_ns: 1_665_848, put_p99_ns: 688_128, put_max_ns: 962_228,
        block_ns: (0, 0), vis_ns: (3_638, 10_171_003),
        data_stale_ns: (1_181, 13_111_305), gss_lag: (1_500, 810_483_712),
    });
}
