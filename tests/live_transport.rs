//! The live threaded transport runs the same state machines as the
//! simulator; these tests exercise real concurrency and re-check causal
//! consistency on the resulting histories.

use contrarian::clock::PhysicalClockModel;
use contrarian::harness::check_causal;
use contrarian::protocol::{build_nodes, Clients};
use contrarian::transport::LiveCluster;
use contrarian::types::{Addr, ClusterConfig, DcId, Key, Op, PartitionId};
use contrarian::workload::{OpSource, WorkloadSpec};
use std::time::Duration;

fn small_workload() -> (ClusterConfig, Clients) {
    (
        ClusterConfig::small(),
        Clients::Closed {
            workload: WorkloadSpec::paper_default().with_rot_size(2),
            per_dc: 4,
        },
    )
}

#[test]
fn live_contrarian_cluster_is_causally_consistent() {
    let (cfg, clients) = small_workload();
    let nodes = build_nodes::<contrarian::core_protocol::Contrarian>(&cfg, &clients, 11);
    let cluster = LiveCluster::start(nodes, true, 11);
    std::thread::sleep(Duration::from_millis(300));
    cluster.stop_issuing();
    std::thread::sleep(Duration::from_millis(100));
    let (_, _, history) = cluster.shutdown();
    assert!(
        history.len() > 50,
        "little progress on threads: {}",
        history.len()
    );
    let report = check_causal(&history);
    assert!(report.ok(), "{:?}", report.violations.first());
}

#[test]
fn live_cclo_cluster_is_causally_consistent() {
    let (cfg, clients) = small_workload();
    let nodes = build_nodes::<contrarian::cclo::CcLo>(&cfg, &clients, 13);
    let cluster = LiveCluster::start(nodes, true, 13);
    std::thread::sleep(Duration::from_millis(300));
    cluster.stop_issuing();
    std::thread::sleep(Duration::from_millis(100));
    let (_, _, history) = cluster.shutdown();
    assert!(history.len() > 50);
    let report = check_causal(&history);
    assert!(report.ok(), "{:?}", report.violations.first());
}

#[test]
fn live_interactive_injection_round_trips() {
    let (cfg, _wl) = small_workload();
    let mut nodes = Vec::new();
    for p in 0..cfg.n_partitions {
        let addr = Addr::server(DcId(0), PartitionId(p));
        nodes.push((
            addr,
            contrarian::core_protocol::Node::Server(contrarian::core_protocol::Server::new(
                addr,
                cfg.clone(),
                PhysicalClockModel::perfect(),
            )),
        ));
    }
    let client = Addr::client(DcId(0), 0);
    let (source, _q) = OpSource::queue();
    nodes.push((
        client,
        contrarian::core_protocol::Node::Client(contrarian::core_protocol::Client::new(
            client,
            cfg.clone(),
            source,
        )),
    ));

    let cluster = LiveCluster::start(nodes, true, 17);
    let handle = cluster.handle();
    let mut cursor = 0;

    cluster.inject_op(client, Op::Put(Key(2), "live".into()));
    let put = handle.wait_for_history(&mut cursor, Duration::from_secs(5), |ev| {
        matches!(ev, contrarian::types::HistoryEvent::PutDone { .. })
    });
    assert!(put.is_some(), "PUT did not complete on the live cluster");

    cluster.inject_op(client, Op::Rot(vec![Key(2)]));
    let rot = handle.wait_for_history(&mut cursor, Duration::from_secs(5), |ev| {
        matches!(ev, contrarian::types::HistoryEvent::RotDone { .. })
    });
    match rot {
        Some(contrarian::types::HistoryEvent::RotDone { values, .. }) => {
            assert_eq!(values[0].as_deref(), Some(&b"live"[..]));
        }
        other => panic!("ROT did not complete: {other:?}"),
    }
    cluster.shutdown();
}
