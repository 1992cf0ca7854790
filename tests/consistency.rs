//! Cross-crate integration tests: every protocol, checked for causal
//! consistency, session guarantees, convergence and eventual visibility.

use contrarian::harness::check_causal;
use contrarian::harness::experiment::{run_recorded, Protocol, RunSpec};
use contrarian::protocol::{build_cluster, Clients, ClusterParams, SchedKind};
use contrarian::sim::cost::CostModel;
use contrarian::types::{Addr, ClusterConfig, DcId, PartitionId};
use contrarian::workload::WorkloadSpec;

fn functional(protocol: Protocol, dcs: u8, seed: u64) -> RunSpec {
    let mut cfg = RunSpec::functional(protocol);
    cfg.cluster = ClusterConfig::small().with_dcs(dcs);
    cfg.seed = seed;
    cfg
}

fn assert_causal(cfg: &RunSpec) {
    let (_, history) = run_recorded(cfg);
    assert!(
        history.len() > 100,
        "{}: too little history",
        cfg.protocol.label()
    );
    let report = check_causal(&history);
    assert!(
        report.ok(),
        "{} seed {}: {} violations, first: {}",
        cfg.protocol.label(),
        cfg.seed,
        report.violations.len(),
        report.violations.first().map(String::as_str).unwrap_or("")
    );
    assert!(report.rots_checked > 0);
}

#[test]
fn contrarian_is_causally_consistent_across_seeds() {
    for seed in [1, 2, 3, 4, 5] {
        assert_causal(&functional(Protocol::Contrarian, 1, seed));
    }
}

#[test]
fn contrarian_two_round_is_causally_consistent() {
    for seed in [1, 2, 3] {
        assert_causal(&functional(Protocol::ContrarianTwoRound, 1, seed));
    }
}

#[test]
fn contrarian_replicated_is_causally_consistent() {
    for seed in [1, 2, 3] {
        assert_causal(&functional(Protocol::Contrarian, 2, seed));
    }
}

#[test]
fn contrarian_three_dcs_is_causally_consistent() {
    assert_causal(&functional(Protocol::Contrarian, 3, 9));
}

#[test]
fn cclo_is_causally_consistent_across_seeds() {
    for seed in [1, 2, 3, 4, 5] {
        assert_causal(&functional(Protocol::CcLo, 1, seed));
    }
}

#[test]
fn cclo_replicated_is_causally_consistent() {
    for seed in [1, 2, 3] {
        assert_causal(&functional(Protocol::CcLo, 2, seed));
    }
}

#[test]
fn cure_is_causally_consistent_across_seeds() {
    for seed in [1, 2, 3] {
        assert_causal(&functional(Protocol::Cure, 1, seed));
        assert_causal(&functional(Protocol::Cure, 2, seed + 10));
    }
}

#[test]
fn okapi_is_causally_consistent_across_seeds() {
    // 3 DCs is where the scalar stable time first differs from the GSS.
    for seed in [1, 2, 3] {
        for dcs in [1, 2, 3] {
            assert_causal(&functional(Protocol::Okapi, dcs, seed + 20 * dcs as u64));
        }
    }
}

#[test]
fn prepopulated_clusters_stay_causal() {
    for protocol in Protocol::ALL {
        let mut cfg = functional(protocol, 2, 77);
        cfg.cluster.prepopulated = true;
        assert_causal(&cfg);
    }
}

/// The streaming checker (fed event by event, as a live monitor riding a
/// `HistorySink` would be) agrees with the batch entry point on a real
/// replicated run.
#[test]
fn streaming_checker_matches_batch_on_live_history() {
    let (_, history) = run_recorded(&functional(Protocol::Contrarian, 2, 21));
    assert!(history.len() > 100, "too little history");
    let mut ck = contrarian::harness::CausalChecker::new();
    for ev in &history {
        ck.feed(ev);
    }
    let streamed = ck.report();
    let batch = check_causal(&history);
    assert!(streamed.ok(), "{:?}", streamed.violations.first());
    assert_eq!(streamed.rots_checked, batch.rots_checked);
    assert_eq!(streamed.versions, batch.versions);
}

/// Convergence (Section 2.2): after load stops and replication drains, all
/// replicas of every key hold the same LWW winner.
#[test]
fn contrarian_replicas_converge() {
    let params = ClusterParams {
        cfg: ClusterConfig::small().with_dcs(3),
        cost: CostModel::functional(),
        clients: Clients::Closed {
            workload: WorkloadSpec::paper_default()
                .with_rot_size(2)
                .with_write_ratio(0.3),
            per_dc: 3,
        },
        seed: 99,
    };
    let mut sim =
        build_cluster::<contrarian::core_protocol::Contrarian>(&params, SchedKind::default());
    sim.start();
    sim.run_until(50_000_000);
    sim.set_stopped(true);
    sim.run_to_quiescence(20_000_000_000);
    for p in 0..4u16 {
        let heads: Vec<_> = (0..3u8)
            .map(|dc| {
                let node = sim.actor(Addr::server(DcId(dc), PartitionId(p)));
                let store = node.as_server().unwrap().store();
                let mut keys: Vec<_> = store
                    .iter()
                    .map(|(k, c)| (*k, c.head().unwrap().vid))
                    .collect();
                keys.sort_unstable();
                keys
            })
            .collect();
        assert_eq!(heads[0], heads[1], "partition {p}: dc0 vs dc1 diverged");
        assert_eq!(heads[0], heads[2], "partition {p}: dc0 vs dc2 diverged");
    }
}

/// Eventual visibility (Section 2.2): a value written in DC0 is eventually
/// readable by a DC1 client.
#[test]
fn contrarian_writes_become_visible_remotely() {
    use contrarian::types::{Key, Op};
    let cfg = ClusterConfig::small().with_dcs(2);
    // Interactive-ish: build a cluster whose clients idle (queue sources),
    // inject a PUT in DC0, then poll a ROT in DC1.
    let mut sim =
        contrarian::sim::sim::Sim::with_scheduler(CostModel::functional(), 5, SchedKind::default());
    for dc in 0..2u8 {
        for p in 0..cfg.n_partitions {
            let addr = Addr::server(DcId(dc), PartitionId(p));
            sim.add_server(
                addr,
                contrarian::core_protocol::Node::Server(contrarian::core_protocol::Server::new(
                    addr,
                    cfg.clone(),
                    contrarian::clock::PhysicalClockModel::perfect(),
                )),
                2,
            );
        }
    }
    for dc in 0..2u8 {
        let addr = Addr::client(DcId(dc), 0);
        sim.add_client(
            addr,
            contrarian::core_protocol::Node::Client(contrarian::core_protocol::Client::new(
                addr, &cfg, None,
            )),
        );
    }
    sim.set_recording(true);
    sim.start();

    let writer = Addr::client(DcId(0), 0);
    let reader = Addr::client(DcId(1), 0);
    sim.inject_op(writer, Op::Put(Key(3), "hello".into()));
    sim.run_until(5_000_000);

    // Poll from DC1 until the value is visible (stabilization + replication
    // must make it so within a few intervals). Drain the engine's history
    // incrementally instead of re-merging the whole log every round.
    let mut seen = false;
    for round in 0..200 {
        sim.inject_op(reader, Op::Rot(vec![Key(3)]));
        sim.run_until(5_000_000 + (round + 1) * 2_000_000);
        if let Some(contrarian::types::HistoryEvent::RotDone { values, .. }) =
            sim.drain_history().iter().rev().find(|ev| {
                matches!(ev, contrarian::types::HistoryEvent::RotDone { client, .. }
                    if *client == reader.client_id())
            })
        {
            if values[0].as_deref() == Some(&b"hello"[..]) {
                seen = true;
                break;
            }
        }
    }
    assert!(seen, "write never became visible in the remote DC");
}

/// The three protocols agree functionally: same seed, same workload — all
/// serve roughly the same number of operations in a fixed window and all
/// stay consistent (they differ in *performance*, which is the paper).
#[test]
fn protocols_serve_equivalent_functionality() {
    let mut counts = Vec::new();
    for protocol in Protocol::ALL {
        let mut cfg = functional(protocol, 1, 123);
        // Disable clock skew so Cure does not (correctly!) spend the whole
        // window blocked — this test is about functional equivalence, not
        // the performance differences the paper measures.
        cfg.cluster.clock_skew_us = 0;
        let (_, history) = run_recorded(&cfg);
        assert!(check_causal(&history).ok());
        counts.push(history.len() as f64);
    }
    let max = counts.iter().cloned().fold(0.0, f64::max);
    let min = counts.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        min > max * 0.3,
        "op counts wildly divergent under functional cost model: {counts:?}"
    );
}
