//! The same protocol state machines on real threads: a Contrarian cluster
//! where every server and client is an OS thread and links are channels.
//!
//! ```bash
//! cargo run --release --example live_cluster
//! ```
//!
//! This is the non-simulated deployment path: the run is checked for causal
//! consistency afterwards with the same checker used for simulated runs.

use contrarian::core_protocol::Contrarian;
use contrarian::harness::check_causal;
use contrarian::protocol::{build_nodes, Clients};
use contrarian::transport::LiveCluster;
use contrarian::types::ClusterConfig;
use contrarian::workload::WorkloadSpec;
use std::time::Duration;

fn main() {
    let mut cfg = ClusterConfig::small();
    cfg.clock_skew_us = 0; // wall-clock runs don't simulate NTP skew
    let clients = Clients::Closed {
        workload: WorkloadSpec::paper_default().with_rot_size(2),
        per_dc: 6,
    };
    let nodes = build_nodes::<Contrarian>(&cfg, &clients, 7);

    println!(
        "starting {} threads (4 servers + 6 closed-loop clients)…",
        nodes.len()
    );
    let cluster = LiveCluster::start(nodes, /*recording=*/ true, 7);
    std::thread::sleep(Duration::from_millis(400));
    cluster.stop_issuing();
    std::thread::sleep(Duration::from_millis(100));
    let (_actors, _metrics, history) = cluster.shutdown();

    println!("completed {} operations on real threads", history.len());
    let report = check_causal(&history);
    println!(
        "causal checker: {} ROTs checked, {} violations",
        report.rots_checked,
        report.violations.len()
    );
    assert!(report.ok(), "violations: {:?}", report.violations);
    println!("live run is causally consistent");
}
