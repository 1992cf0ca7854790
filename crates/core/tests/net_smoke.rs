//! Smoke test: a replicated Contrarian cluster over loopback TCP makes
//! progress and moves real bytes. (The full battery is in
//! `conformance.rs`; this test also pins the wire-level counters.)
#![allow(
    clippy::disallowed_methods,
    reason = "a live cluster runs for wall-clock time against real sockets"
)]

use contrarian_core::Contrarian;
use contrarian_protocol::{build_nodes, Clients, NetCluster};
use contrarian_types::ClusterConfig;
use contrarian_workload::WorkloadSpec;

#[test]
fn contrarian_over_tcp_makes_progress() {
    let cfg = ClusterConfig::small().with_dcs(2).for_wall_clock();
    let clients = Clients::Closed {
        workload: WorkloadSpec::paper_default().with_rot_size(2),
        per_dc: 2,
    };
    let cluster = NetCluster::start(build_nodes::<Contrarian>(&cfg, &clients, 77), true, 77);
    cluster.set_measuring(true);
    std::thread::sleep(std::time::Duration::from_millis(300));
    cluster.stop_issuing();
    std::thread::sleep(std::time::Duration::from_millis(150));
    let (_, metrics, history) = cluster.shutdown();
    assert!(
        metrics.ops_done() > 20,
        "ops over TCP: {}",
        metrics.ops_done()
    );
    assert!(history.len() > 20, "history: {}", history.len());
    let frames = metrics.counter("net.frames_sent");
    let bytes = metrics.counter("net.bytes_sent");
    assert!(frames > 100, "frames: {frames}");
    assert!(bytes > frames * 4, "every frame carries a length prefix");
}
