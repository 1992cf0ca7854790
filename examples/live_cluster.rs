//! The same protocol state machines in wall-clock time: a Contrarian
//! cluster whose servers and clients run on the TCP runtime's reactor
//! threads (one per core), every message crossing a loopback TCP socket.
//!
//! ```bash
//! cargo run --release --example live_cluster
//! ```
//!
//! This is the non-simulated deployment path: the run is checked for causal
//! consistency afterwards with the same checker used for simulated runs.

use contrarian::core_protocol::Contrarian;
use contrarian::harness::check_causal;
use contrarian::net::NetCluster;
use contrarian::protocol::{build_nodes, Clients};
use contrarian::types::ClusterConfig;
use contrarian::workload::WorkloadSpec;
use std::time::Duration;

fn main() {
    // Wall-clock tuning: no simulated NTP skew, millisecond control-plane
    // periods.
    let cfg = ClusterConfig::small().for_wall_clock();
    let clients = Clients::Closed {
        workload: WorkloadSpec::paper_default().with_rot_size(2),
        per_dc: 6,
    };
    let nodes = build_nodes::<Contrarian>(&cfg, &clients, 7);

    println!(
        "starting {} nodes (4 servers + 6 closed-loop clients) on the reactor pool…",
        nodes.len()
    );
    let cluster = NetCluster::start(nodes, /*recording=*/ true, 7);
    std::thread::sleep(Duration::from_millis(400));
    cluster.stop_issuing();
    std::thread::sleep(Duration::from_millis(100));
    let (_actors, metrics, history) = cluster.shutdown();

    println!(
        "completed {} operations in wall-clock time ({} frames over loopback TCP)",
        history.len(),
        metrics.counter("net.frames_sent")
    );
    let report = check_causal(&history);
    println!(
        "causal checker: {} ROTs checked, {} violations",
        report.rots_checked,
        report.violations.len()
    );
    assert!(report.ok(), "violations: {:?}", report.violations);
    println!("live run is causally consistent");
}
