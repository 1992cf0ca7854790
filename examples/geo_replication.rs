//! Geo-replication: two data centers, asynchronous multi-master
//! replication, remote visibility via the Global Stable Snapshot.
//!
//! ```bash
//! cargo run --example geo_replication
//! ```
//!
//! Runs a 2-DC Contrarian cluster under closed-loop load, then inspects:
//! * convergence — after quiescing, every partition pair holds identical
//!   last-writer-wins heads;
//! * remote visibility lag — how far each DC's GSS trails behind.

use contrarian::core_protocol::Contrarian;
use contrarian::protocol::{build_cluster, Clients, ClusterParams, SchedKind};
use contrarian::sim::cost::CostModel;
use contrarian::types::{Addr, ClusterConfig, DcId, PartitionId};
use contrarian::workload::WorkloadSpec;

fn main() {
    let cfg = ClusterConfig::small().with_dcs(2).with_partitions(4);
    let params = ClusterParams {
        cfg: cfg.clone(),
        cost: CostModel::functional(),
        clients: Clients::Closed {
            workload: WorkloadSpec::paper_default()
                .with_rot_size(2)
                .with_write_ratio(0.2),
            per_dc: 4,
        },
        seed: 2026,
    };
    let mut sim = build_cluster::<Contrarian>(&params, SchedKind::from_env());
    sim.start();
    sim.metrics_mut().enabled = true;

    // 200 virtual milliseconds of load.
    sim.run_until(200_000_000);
    let m = sim.metrics();
    println!(
        "after 200 ms: {} ROTs, {} PUTs completed",
        m.rots_done, m.puts_done
    );

    // GSS lag while running: each partition's remote entry vs its own clock.
    for dc in 0..2u8 {
        let a = Addr::server(DcId(dc), PartitionId(0));
        let server = sim.actor(a).as_server().unwrap();
        println!("  {a}: gss={} vv={}", server.gss(), server.vv());
    }

    // Quiesce: stop clients, drain replication, compare replica heads.
    sim.set_stopped(true);
    sim.run_to_quiescence(10_000_000_000);

    let mut keys_checked = 0;
    for p in 0..4u16 {
        let s0 = sim.actor(Addr::server(DcId(0), PartitionId(p)));
        let s1 = sim.actor(Addr::server(DcId(1), PartitionId(p)));
        let (a, b) = (
            s0.as_server().unwrap().store(),
            s1.as_server().unwrap().store(),
        );
        for (k, chain) in a.iter() {
            let ha = chain.head().unwrap().vid;
            let hb = b.latest(*k).expect("replica missing key").vid;
            assert_eq!(ha, hb, "replicas diverged on {k}");
            keys_checked += 1;
        }
    }
    println!("converged: {keys_checked} keys have identical LWW heads in both DCs");
}
