//! The node-list contract: `build_nodes` returns every server DC-major by
//! partition, then the client nodes DC-major by index, and the simulator
//! registers exactly that list in that order. The simulator's event keys
//! are registration indices, and the benchmark's replay walks the list in
//! this order, so a builder change that reorders it changes every run.

use contrarian::protocol::{
    build_cluster, build_nodes, Clients, ClusterParams, ProtocolSpec, SchedKind,
};
use contrarian::sim::cost::CostModel;
use contrarian::types::{Addr, ClusterConfig, DcId, PartitionId};
use contrarian::workload::{OpenLoopSpec, WorkloadSpec};

fn assert_node_list<P: ProtocolSpec>() {
    let cfg = ClusterConfig::small().with_dcs(3);
    let (dcs, parts) = (cfg.n_dcs, cfg.n_partitions);
    let workload = WorkloadSpec::paper_default();
    for (kind, clients) in [
        (
            "closed",
            Clients::Closed {
                workload: workload.clone(),
                per_dc: 3,
            },
        ),
        (
            "open",
            Clients::Open(OpenLoopSpec::new(workload.clone(), 1_000, 5_000.0)),
        ),
        ("queue", Clients::Queue(1)),
        ("queue of 4", Clients::Queue(4)),
    ] {
        let label = format!("{} ({kind} clients)", P::NAME);
        let nodes = build_nodes::<P>(&cfg, &clients, 5);
        let (client_dcs, per_dc) = clients.layout(dcs);
        let count = match clients {
            Clients::Queue(n) => usize::from(dcs) * usize::from(parts) + usize::from(n),
            _ => usize::from(dcs) * (usize::from(parts) + usize::from(per_dc)),
        };
        assert_eq!(nodes.len(), count, "{label}");

        let servers =
            (0..dcs).flat_map(|dc| (0..parts).map(move |p| Addr::server(DcId(dc), PartitionId(p))));
        let client_nodes =
            (0..client_dcs).flat_map(|dc| (0..per_dc).map(move |c| Addr::client(DcId(dc), c)));
        let want: Vec<Addr> = servers.chain(client_nodes).collect();
        let got: Vec<Addr> = nodes.iter().map(|(a, _)| *a).collect();
        assert_eq!(got, want, "{label}");
        for (addr, node) in &nodes {
            assert_eq!(
                addr.is_server(),
                node.as_server().is_some(),
                "{label}: {addr}"
            );
        }

        let params = ClusterParams {
            cfg: cfg.clone(),
            cost: CostModel::functional(),
            clients,
            seed: 5,
        };
        let registered = build_cluster::<P>(&params, SchedKind::Calendar).addrs();
        assert_eq!(registered, want, "{label}: simulator registration order");
    }
}

#[test]
fn node_list_is_servers_then_clients_dc_major() {
    assert_node_list::<contrarian::core_protocol::Contrarian>();
    assert_node_list::<contrarian::cclo::CcLo>();
    assert_node_list::<contrarian::cure::Cure>();
    assert_node_list::<contrarian::okapi::Okapi>();
}
