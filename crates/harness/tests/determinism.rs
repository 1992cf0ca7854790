//! Cross-engine determinism: the calendar engine and the sharded engine
//! (one event loop per DC, windowed on the inter-DC latency) must
//! replay the exact same run. Same seed ⇒ byte-identical history and
//! metrics under either engine, and both must match golden fingerprints
//! recorded from the calendar engine.
//!
//! The clusters here span three DCs, so the sharded engine genuinely runs
//! three event loops exchanging cross-shard messages at window barriers,
//! in parallel on any machine with a second core. The sim crate's engine
//! tests force the parallel window path on a single-core machine too.

use contrarian_harness::experiment::{run_recorded, Clients, Protocol, RunSpec};
use contrarian_sim::SchedKind;
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

#[test]
fn engines_replay_identical_histories_matching_golden() {
    // (events, FNV-1a of the Debug-formatted history) of three-DC
    // functional runs, recorded from the calendar engine.
    let golden = [
        (Protocol::Contrarian, 6788usize, 0xbe9f10eaaa310b84u64),
        (Protocol::ContrarianTwoRound, 6795, 0x64649a7173408d75),
        // 9 789 → 9 685 events when a replica's lookup of its own
        // dependency keys' old readers began to be charged.
        (Protocol::CcLo, 9685, 0x95de4ee954240417),
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

        // The calendar run is the reference and the golden-fingerprint
        // source.
        cfg.sched = SchedKind::Calendar;
        let (calendar, calendar_history) = run_recorded(&cfg);
        cfg.sched = SchedKind::Sharded;
        let (run, history) = run_recorded(&cfg);
        assert_eq!(
            fingerprint(&history),
            fingerprint(&calendar_history),
            "{protocol:?}: the sharded engine diverged from the calendar engine"
        );
        // Metrics are derived from the same events; spot-check scalars.
        assert_eq!(run.throughput_kops(), calendar.throughput_kops());
        assert_eq!(run.avg_rot_ms, calendar.avg_rot_ms);
        assert_eq!(run.p99_rot_ms, calendar.p99_rot_ms);
        assert_eq!(run.avg_put_ms, calendar.avg_put_ms);
        assert_eq!(run.counters, calendar.counters);
        got.push((protocol, fingerprint(&calendar_history)));
    }
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
