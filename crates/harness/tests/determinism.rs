//! Cross-engine determinism, four ways: the binary-heap baseline, the
//! calendar-queue engine, the sharded engine under the scalar (uniform)
//! lookahead, and the sharded engine under the per-link matrix with
//! sub-DC shard groups must replay the exact same run. Same seed ⇒
//! byte-identical history and metrics under any engine, and all must
//! match golden fingerprints recorded from the calendar engine.
//!
//! The clusters here span three DCs, so the sharded engine genuinely runs
//! multiple event loops exchanging cross-shard messages at window
//! barriers — `CONTRARIAN_SHARD_THREADS` forces the parallel window path
//! even on machines that report a single CPU (where the engine would
//! otherwise fall back to serially executed windows), and the matrix leg
//! splits each DC into two partition-range groups (six shards).

use contrarian_harness::experiment::{run_recorded, Clients, Protocol, RunSpec};
use contrarian_sim::{Lookahead, SchedKind};
use contrarian_types::HistoryEvent;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fingerprint(history: &[HistoryEvent]) -> (usize, u64) {
    (history.len(), fnv1a(format!("{history:?}").as_bytes()))
}

/// One test drives all engines sequentially: the shard-thread override is
/// a process-wide environment variable, so it must not race with
/// concurrent tests (this is the only test in this binary).
#[test]
fn engines_replay_identical_histories_matching_golden() {
    // Up to 6 shards (3 DCs × 2 groups) → parallel window threads, even
    // on 1-CPU CI runners.
    std::env::set_var(contrarian_runtime::env::SHARD_THREADS, "3");
    // The engines diffed against the calendar reference run (which is run
    // once per protocol and doubles as the golden-fingerprint source):
    // heap, sharded-scalar (DC-granular uniform window), and
    // sharded-matrix (per-link bounds, two sub-DC groups per DC). Group
    // counts never change results; idx ranges just split further.
    let others = [
        (SchedKind::Heap, Lookahead::Matrix),
        (SchedKind::sharded(1), Lookahead::Scalar),
        (SchedKind::sharded(2), Lookahead::Matrix),
    ];
    // (events, FNV-1a of the Debug-formatted history) of three-DC
    // functional runs, recorded from the calendar engine.
    let golden = [
        (Protocol::Contrarian, 6788usize, 0xbe9f10eaaa310b84u64),
        (Protocol::ContrarianTwoRound, 6795, 0x64649a7173408d75),
        (Protocol::CcLo, 9789, 0x4dcb542aa32f7482),
        (Protocol::Cure, 1039, 0x3379717860c6bfb7),
        (Protocol::Okapi, 6791, 0x86daa0ae5c423a3f),
    ];
    let mut got = Vec::new();
    for (protocol, _, _) in golden {
        let mut cfg = RunSpec::functional(protocol);
        // Cross-DC replication: every PUT crosses the shard boundaries.
        cfg.cluster = cfg.cluster.with_dcs(3);
        if let Clients::Closed { per_dc, .. } = &mut cfg.clients {
            *per_dc = 3;
        }

        cfg.sched = SchedKind::Calendar;
        let (calendar, calendar_history) = run_recorded(&cfg);
        for (sched, lookahead) in others.clone() {
            cfg.sched = sched;
            cfg.lookahead = lookahead.clone();
            let (run, history) = run_recorded(&cfg);
            assert_eq!(
                fingerprint(&history),
                fingerprint(&calendar_history),
                "{protocol:?}: {sched:?}/{lookahead:?} diverged from the calendar engine"
            );
            // Metrics are derived from the same events; spot-check scalars.
            assert_eq!(
                run.throughput_kops(),
                calendar.throughput_kops(),
                "{sched:?}/{lookahead:?}"
            );
            assert_eq!(run.avg_rot_ms, calendar.avg_rot_ms, "{sched:?}");
            assert_eq!(run.p99_rot_ms, calendar.p99_rot_ms, "{sched:?}");
            assert_eq!(run.avg_put_ms, calendar.avg_put_ms, "{sched:?}");
            assert_eq!(run.counters, calendar.counters, "{sched:?}");
        }
        got.push((protocol, fingerprint(&calendar_history)));
    }
    std::env::remove_var(contrarian_runtime::env::SHARD_THREADS);
    // On mismatch (an *intentional* engine-semantics change), replace the
    // golden table with this printout:
    for (p, (n, h)) in &got {
        println!("        (Protocol::{p:?}, {n}usize, {h:#018x}u64),");
    }
    for ((protocol, want_events, want_hash), (_, fp)) in golden.into_iter().zip(&got) {
        assert_eq!(
            *fp,
            (want_events, want_hash),
            "{protocol:?}: history no longer matches the golden run"
        );
    }
}
