//! Property-based tests on the core invariants: whatever the seed, workload
//! mix, or cluster shape, the protocols must produce causally consistent
//! histories, HLCs must stay monotone under arbitrary interleavings, the
//! lattice must behave, and the checker itself must catch injected bugs.

use contrarian::clock::Hlc;
use contrarian::harness::check_causal;
use contrarian::harness::experiment::{run_recorded, Clients, Protocol, RunSpec};
use contrarian::sim::cost::CostModel;
use contrarian::types::{ClusterConfig, DepVector, HistoryEvent, Key, VersionId};
use contrarian::workload::WorkloadSpec;
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
        measure_ns: 15_000_000,
        cost: CostModel::functional(),
        ..RunSpec::functional(protocol)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any seed/shape: Contrarian histories check out.
    #[test]
    fn contrarian_always_causal(
        seed in 0u64..5000,
        dcs in 1u8..=2,
        clients in 2u16..6,
        w in 0.05f64..0.5,
    ) {
        let r = run_recorded(&functional_cfg(Protocol::Contrarian, seed, dcs, clients, w));
        let report = check_causal(&r.history);
        prop_assert!(report.ok(), "{:?}", report.violations.first());
    }

    /// Any seed/shape: CC-LO histories check out (the readers check works).
    #[test]
    fn cclo_always_causal(
        seed in 0u64..5000,
        dcs in 1u8..=2,
        clients in 2u16..6,
        w in 0.05f64..0.5,
    ) {
        let r = run_recorded(&functional_cfg(Protocol::CcLo, seed, dcs, clients, w));
        let report = check_causal(&r.history);
        prop_assert!(report.ok(), "{:?}", report.violations.first());
    }

    /// HLC timestamps strictly increase under any local interleaving of
    /// ticks and updates, and never run far ahead of physical time.
    #[test]
    fn hlc_monotone_under_interleavings(
        events in prop::collection::vec((0u64..1000, prop::option::of(0u64..(1000u64 << 16))), 1..200)
    ) {
        let mut h = Hlc::new();
        let mut last = 0u64;
        for (pt, msg) in events {
            let t = match msg {
                Some(m) => h.update(pt, m),
                None => h.tick(pt),
            };
            prop_assert!(t > last, "timestamp regressed: {t} after {last}");
            last = t;
        }
    }

    /// DepVector lattice laws: join is commutative/associative/idempotent
    /// and dominates both operands.
    #[test]
    fn depvector_lattice_laws(
        a in prop::collection::vec(0u64..100, 3),
        b in prop::collection::vec(0u64..100, 3),
        c in prop::collection::vec(0u64..100, 3),
    ) {
        let (va, vb, vc) = (
            DepVector::from_vec(a),
            DepVector::from_vec(b),
            DepVector::from_vec(c),
        );
        // Commutative.
        prop_assert_eq!(va.joined(&vb), vb.joined(&va));
        // Associative.
        prop_assert_eq!(va.joined(&vb).joined(&vc), va.joined(&vb.joined(&vc)));
        // Idempotent.
        prop_assert_eq!(va.joined(&va), va.clone());
        // Dominates operands.
        prop_assert!(va.leq(&va.joined(&vb)));
        prop_assert!(vb.leq(&va.joined(&vb)));
    }

    /// The checker catches corrupted histories: take a valid Contrarian
    /// run and downgrade a client's read of a key it had itself written —
    /// a guaranteed read-your-writes violation.
    #[test]
    fn checker_catches_injected_staleness(seed in 0u64..300) {
        let r = run_recorded(&functional_cfg(Protocol::Contrarian, seed, 1, 4, 0.4));
        prop_assume!(check_causal(&r.history).ok());
        let mut history = r.history.clone();
        // Find a PUT followed (in the same client's session) by a ROT that
        // read the written key; downgrade that read to the genesis version.
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
        let report = check_causal(&history);
        prop_assert!(!report.ok(), "checker missed an injected stale read");
    }

    /// Version ids order correctly regardless of origin (LWW total order).
    #[test]
    fn version_order_total(ts1 in 0u64..1000, ts2 in 0u64..1000, o1 in 0u8..4, o2 in 0u8..4) {
        let a = VersionId::new(ts1, contrarian::types::DcId(o1));
        let b = VersionId::new(ts2, contrarian::types::DcId(o2));
        // Total: exactly one of <, ==, > holds.
        let rels = [a < b, a == b, a > b];
        prop_assert_eq!(rels.iter().filter(|x| **x).count(), 1);
    }
}

// Zipf statistical sanity under proptest-chosen skews: top rank is always
// at least as likely as a mid rank.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn zipf_rank_order(theta in 0.1f64..0.99, seed in 0u64..1000) {
        use rand::SeedableRng;
        let z = contrarian::workload::Zipf::new(1000, theta);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut hits0 = 0u32;
        let mut hits500 = 0u32;
        for _ in 0..20_000 {
            match z.sample(&mut rng) {
                0 => hits0 += 1,
                500 => hits500 += 1,
                _ => {}
            }
        }
        prop_assert!(hits0 >= hits500);
    }
}

// Storage invariant: whatever the interleaving of inserts (including
// duplicate ids from replication redelivery) and GC passes, a version chain
// stays strictly ascending by version id, its head is the newest live
// version, and GC with min_keep >= 1 never drops the head.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn chain_insert_gc_keeps_ascending_vids(
        ops in prop::collection::vec((0u8..8, 0u64..200, 0u8..3), 1..120)
    ) {
        use contrarian::storage::{Chain, Version};
        use contrarian::types::{DcId, Value};

        let mut chain: Chain<u8> = Chain::new();
        for (kind, a, b) in ops {
            if kind < 6 {
                // Insert ts=a, origin=b (replication can interleave and
                // redeliver, so out-of-order and duplicate ids are normal).
                let vid = VersionId::new(a, DcId(b));
                let (before, had) = (chain.len(), chain.iter_desc().any(|v| v.vid == vid));
                chain.insert(Version::new(vid, Value::new(), b));
                prop_assert_eq!(chain.len(), before + !had as usize);
            } else if kind == 7 {
                // Cut back to the head alone. A chain of one version is
                // stored inline, so this is where it crosses 2 -> 1, and the
                // next insert of a new id crosses 1 -> 2 again.
                let head_before = chain.head().map(|v| v.vid);
                let before = chain.len();
                prop_assert_eq!(chain.gc(u64::MAX, 1), before.saturating_sub(1));
                prop_assert_eq!(chain.len(), before.min(1));
                prop_assert_eq!(chain.head().map(|v| v.vid), head_before);
            } else {
                // GC at horizon a, always retaining the newest 1..=2.
                let min_keep = 1 + (b as usize % 2);
                let head_before = chain.head().map(|v| v.vid);
                chain.gc(a, min_keep);
                if let Some(h) = head_before {
                    prop_assert_eq!(
                        chain.head().map(|v| v.vid),
                        Some(h),
                        "GC with min_keep >= 1 must keep the head"
                    );
                }
            }
            // The ascending-vid invariant, re-checked after every step.
            let vids: Vec<_> = chain.iter_desc().map(|v| v.vid).collect();
            for w in vids.windows(2) {
                prop_assert!(w[0] > w[1], "chain not strictly ascending: {:?}", vids);
            }
            // Head is the newest live version.
            if let Some(h) = chain.head() {
                prop_assert!(vids.iter().all(|v| *v <= h.vid));
            }
        }
    }

    #[test]
    fn chain_reinsert_replaces_not_duplicates(
        ts in 0u64..50,
        metas in prop::collection::vec(0u8..250, 2..6)
    ) {
        use contrarian::storage::{Chain, Version};
        use contrarian::types::{DcId, Value};

        let mut chain: Chain<u8> = Chain::new();
        for &m in &metas {
            chain.insert(Version::new(VersionId::new(ts, DcId(0)), Value::new(), m));
        }
        prop_assert_eq!(chain.len(), 1, "idempotent redelivery must replace");
        prop_assert_eq!(chain.head().unwrap().meta, *metas.last().unwrap());
    }
}

/// Deterministic regression: a known-good seed must produce a bit-identical
/// operation count (guards the simulator's determinism across refactors).
#[test]
fn simulation_is_reproducible() {
    let cfg = functional_cfg(Protocol::Contrarian, 42, 1, 4, 0.2);
    let a = run_recorded(&cfg);
    let b = run_recorded(&cfg);
    assert_eq!(a.history.len(), b.history.len());
    assert_eq!(a.throughput_kops, b.throughput_kops);
}

/// The injected-bug test's sibling: reordering a client's session events
/// (swapping a PUT before the ROT that depended on it) must be caught as a
/// session violation when it creates a backwards read.
#[test]
fn checker_catches_backwards_session() {
    use contrarian::types::{ClientId, DcId, TxId};
    let c = ClientId::new(DcId(0), 0);
    let history = vec![
        HistoryEvent::PutDone {
            client: c,
            seq: 0,
            t_start: 0,
            t_end: 1,
            key: Key(1),
            vid: VersionId::new(10, DcId(0)),
        },
        HistoryEvent::RotDone {
            client: c,
            tx: TxId::new(c, 0),
            t_start: 2,
            t_end: 3,
            pairs: vec![(Key(1), Some(VersionId::new(5, DcId(0))))],
            values: vec![None],
        },
    ];
    assert!(!check_causal(&history).ok());
}
