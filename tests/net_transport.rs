//! The TCP runtime runs the same state machines as the simulator; these
//! tests push real bytes through loopback sockets and re-check causal
//! consistency on the resulting histories with the same checker used for
//! simulated runs.

use contrarian::harness::check_causal;
use contrarian::net::NetCluster;
use contrarian::protocol::{build_nodes, Clients};
use contrarian::types::{ClusterConfig, HistoryEvent, Key, Op};
use contrarian::workload::WorkloadSpec;
use std::time::Duration;

fn net_config() -> (ClusterConfig, Clients) {
    (
        ClusterConfig::small().for_wall_clock(),
        Clients::Closed {
            workload: WorkloadSpec::paper_default().with_rot_size(2),
            per_dc: 4,
        },
    )
}

#[test]
fn tcp_contrarian_cluster_is_causally_consistent() {
    let (cfg, clients) = net_config();
    let nodes = build_nodes::<contrarian::core_protocol::Contrarian>(&cfg, &clients, 111);
    let cluster = NetCluster::start(nodes, true, 111);
    std::thread::sleep(Duration::from_millis(300));
    cluster.stop_issuing();
    std::thread::sleep(Duration::from_millis(100));
    let (_, metrics, history) = cluster.shutdown();
    assert!(
        history.len() > 50,
        "little progress over sockets: {}",
        history.len()
    );
    assert!(metrics.counter("net.frames_sent") > 0);
    let report = check_causal(&history);
    assert!(report.ok(), "{:?}", report.violations.first());
}

#[test]
fn tcp_cclo_cluster_is_causally_consistent() {
    let (cfg, clients) = net_config();
    let nodes = build_nodes::<contrarian::cclo::CcLo>(&cfg, &clients, 112);
    let cluster = NetCluster::start(nodes, true, 112);
    std::thread::sleep(Duration::from_millis(300));
    cluster.stop_issuing();
    std::thread::sleep(Duration::from_millis(100));
    let (_, _, history) = cluster.shutdown();
    assert!(history.len() > 50);
    let report = check_causal(&history);
    assert!(report.ok(), "{:?}", report.violations.first());
}

/// Cure parks a read until the server's clock catches up; over TCP that
/// clock and the timer that resumes the read both run on wall time.
#[test]
fn tcp_cure_cluster_is_causally_consistent() {
    let (cfg, clients) = net_config();
    let nodes = build_nodes::<contrarian::cure::Cure>(&cfg, &clients, 114);
    let cluster = NetCluster::start(nodes, true, 114);
    std::thread::sleep(Duration::from_millis(300));
    cluster.stop_issuing();
    std::thread::sleep(Duration::from_millis(100));
    let (_, _, history) = cluster.shutdown();
    assert!(history.len() > 50);
    let report = check_causal(&history);
    assert!(report.ok(), "{:?}", report.violations.first());
}

#[test]
fn tcp_okapi_cluster_is_causally_consistent() {
    let (cfg, clients) = net_config();
    let nodes = build_nodes::<contrarian::okapi::Okapi>(&cfg, &clients, 113);
    let cluster = NetCluster::start(nodes, true, 113);
    std::thread::sleep(Duration::from_millis(300));
    cluster.stop_issuing();
    std::thread::sleep(Duration::from_millis(100));
    let (_, _, history) = cluster.shutdown();
    assert!(history.len() > 50);
    let report = check_causal(&history);
    assert!(report.ok(), "{:?}", report.violations.first());
}

#[test]
fn tcp_interactive_injection_round_trips() {
    use contrarian::clock::PhysicalClockModel;
    use contrarian::types::{Addr, DcId, PartitionId};

    let (cfg, _) = net_config();
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
    nodes.push((
        client,
        contrarian::core_protocol::Node::Client(contrarian::core_protocol::Client::new(
            client, &cfg, None,
        )),
    ));

    let cluster = NetCluster::start(nodes, true, 17);
    let handle = cluster.handle();
    let mut cursor = 0;

    cluster.inject_op(client, Op::Put(Key(2), "sockets".into()));
    let put = handle.wait_for_history(&mut cursor, Duration::from_secs(5), |ev| {
        matches!(ev, HistoryEvent::PutDone { .. })
    });
    assert!(put.is_some(), "PUT did not complete over TCP");

    cluster.inject_op(client, Op::Rot(vec![Key(2)]));
    let rot = handle.wait_for_history(&mut cursor, Duration::from_secs(5), |ev| {
        matches!(ev, HistoryEvent::RotDone { .. })
    });
    match rot {
        Some(HistoryEvent::RotDone { values, .. }) => {
            assert_eq!(values[0].as_deref(), Some(&b"sockets"[..]));
        }
        other => panic!("ROT did not complete over TCP: {other:?}"),
    }
    cluster.shutdown();
}
