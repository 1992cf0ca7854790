//! Differential testing of the frontier-compressed checker against the
//! map-based oracle it replaced.
//!
//! On histories the recorded runtimes actually produce, the two
//! implementations must return the same verdict and the same counts; on
//! hand-corrupted histories they must both reject. (The known, documented
//! divergences — concurrent cross-DC re-reads and phantom causal sources,
//! see `contrarian_harness::oracle` — cannot occur in recorded runs.)

use contrarian_harness::experiment::{run_recorded, Clients, Protocol, RunSpec};
use contrarian_harness::oracle::check_causal_oracle;
use contrarian_harness::{check_causal, CheckReport};
use contrarian_runtime::cost::CostModel;
use contrarian_types::{ClusterConfig, HistoryEvent, VersionId};
use contrarian_workload::WorkloadSpec;
use proptest::prelude::*;

fn functional_cfg(protocol: Protocol, seed: u64, dcs: u8, clients: u16, w: f64) -> RunSpec {
    RunSpec {
        cluster: ClusterConfig::small().with_dcs(dcs),
        clients: Clients::Closed {
            workload: WorkloadSpec::paper_default()
                .with_rot_size(2)
                .with_write_ratio(w),
            per_dc: clients,
        },
        seed,
        // Short window: every case pays for a full debug-profile simulator
        // run AND an oracle pass whose cost grows with versions × keys.
        measure_ns: 8_000_000,
        cost: CostModel::functional(),
        ..RunSpec::functional(protocol)
    }
}

fn assert_agree(fast: &CheckReport, slow: &CheckReport) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        fast.ok(),
        slow.ok(),
        "verdicts diverge: fast {:?} vs oracle {:?}",
        fast.violations.first(),
        slow.violations.first()
    );
    prop_assert_eq!(fast.rots_checked, slow.rots_checked);
    prop_assert_eq!(fast.versions, slow.versions);
    Ok(())
}

proptest! {
    // Each case is a full (debug-profile) simulator run; keep tier-1's
    // bill for this file in the tens of seconds.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Randomized multi-DC Contrarian runs: both checkers agree.
    #[test]
    fn contrarian_multi_dc_verdicts_agree(
        seed in 0u64..5000,
        dcs in 1u8..=2,
        clients in 2u16..6,
        w in 0.05f64..0.5,
    ) {
        let r = run_recorded(&functional_cfg(Protocol::Contrarian, seed, dcs, clients, w));
        prop_assume!(!r.history.is_empty());
        assert_agree(&check_causal(&r.history), &check_causal_oracle(&r.history))?;
    }

    /// Same for CC-LO, whose readers check exercises different plumbing.
    #[test]
    fn cclo_multi_dc_verdicts_agree(
        seed in 0u64..5000,
        dcs in 1u8..=2,
        clients in 2u16..6,
        w in 0.05f64..0.5,
    ) {
        let r = run_recorded(&functional_cfg(Protocol::CcLo, seed, dcs, clients, w));
        prop_assume!(!r.history.is_empty());
        assert_agree(&check_causal(&r.history), &check_causal_oracle(&r.history))?;
    }

    /// Corrupted histories: downgrading a read of a key the client itself
    /// wrote must be rejected by BOTH implementations.
    #[test]
    fn injected_staleness_rejected_by_both(seed in 0u64..300) {
        let r = run_recorded(&functional_cfg(Protocol::Contrarian, seed, 2, 3, 0.4));
        prop_assume!(check_causal(&r.history).ok());
        let mut history = r.history.clone();
        let mut injected = false;
        'outer: for j in 0..history.len() {
            let HistoryEvent::PutDone { client, key, vid, .. } = history[j].clone() else {
                continue;
            };
            if vid.is_genesis() {
                continue;
            }
            for ev in history.iter_mut().skip(j + 1) {
                let HistoryEvent::RotDone { client: rc, pairs, .. } = ev else {
                    continue;
                };
                if *rc != client {
                    continue;
                }
                if let Some(slot) = pairs.iter_mut().find(|(k, v)| *k == key && v.is_some()) {
                    slot.1 = Some(VersionId::GENESIS);
                    injected = true;
                    break 'outer;
                }
            }
        }
        prop_assume!(injected);
        prop_assert!(!check_causal(&history).ok(), "fast checker missed the stale read");
        prop_assert!(!check_causal_oracle(&history).ok(), "oracle missed the stale read");
    }
}

/// Three DCs (the widest replication the integration tests exercise),
/// fixed seed: kept out of the proptest sweep because 3-DC runs are the
/// expensive tail.
#[test]
fn contrarian_three_dc_verdicts_agree() {
    let r = run_recorded(&functional_cfg(Protocol::Contrarian, 9, 3, 4, 0.3));
    let fast = check_causal(&r.history);
    let slow = check_causal_oracle(&r.history);
    assert!(fast.ok(), "{:?}", fast.violations.first());
    assert_eq!(fast.ok(), slow.ok());
    assert_eq!(fast.rots_checked, slow.rots_checked);
    assert_eq!(fast.versions, slow.versions);
}

/// Every backend, one fixed seed each: agreement on the full battery of
/// protocols, not just the two the proptests sweep.
#[test]
fn all_backends_verdicts_agree() {
    for protocol in [
        Protocol::Contrarian,
        Protocol::ContrarianTwoRound,
        Protocol::CcLo,
        Protocol::Cure,
        Protocol::Okapi,
    ] {
        let r = run_recorded(&functional_cfg(protocol, 11, 2, 4, 0.2));
        let fast = check_causal(&r.history);
        let slow = check_causal_oracle(&r.history);
        assert_eq!(
            fast.ok(),
            slow.ok(),
            "{}: fast {:?} vs oracle {:?}",
            protocol.label(),
            fast.violations.first(),
            slow.violations.first()
        );
        assert!(
            fast.ok(),
            "{}: {:?}",
            protocol.label(),
            fast.violations.first()
        );
        assert_eq!(fast.rots_checked, slow.rots_checked);
        assert_eq!(fast.versions, slow.versions);
    }
}

/// Prepopulated clusters serve the shared genesis version for never-written
/// keys; both checkers must treat it as depencency-free.
#[test]
fn prepopulated_genesis_reads_agree() {
    for protocol in [Protocol::Contrarian, Protocol::CcLo] {
        let mut cfg = functional_cfg(protocol, 77, 2, 4, 0.3);
        cfg.cluster.prepopulated = true;
        let r = run_recorded(&cfg);
        let fast = check_causal(&r.history);
        let slow = check_causal_oracle(&r.history);
        assert!(
            fast.ok(),
            "{}: {:?}",
            protocol.label(),
            fast.violations.first()
        );
        assert_eq!(fast.ok(), slow.ok());
        assert_eq!(fast.rots_checked, slow.rots_checked);
    }
}
