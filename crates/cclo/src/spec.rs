//! CC-LO's [`ProtocolSpec`]: how the generic builders assemble a CC-LO
//! cluster.

use crate::client::Client;
use crate::server::Server;
use contrarian_protocol::ProtocolSpec;
use contrarian_types::{Addr, ClusterConfig};
use contrarian_workload::OpSource;
use rand::rngs::SmallRng;

/// The CC-LO (COPS-SNOW) backend.
pub struct CcLo;

impl ProtocolSpec for CcLo {
    type Msg = crate::msg::Msg;
    type Server = Server;
    type Client = Client;

    const NAME: &'static str = "cc-lo";

    fn server(addr: Addr, cfg: &ClusterConfig, _rng: &mut SmallRng) -> Server {
        // Lamport clocks: no physical-clock model to draw.
        Server::new(addr, cfg.clone())
    }

    fn client(addr: Addr, cfg: &ClusterConfig, source: OpSource) -> Client {
        Client::new(addr, cfg.clone(), source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_protocol::{build_cluster, Clients, ClusterParams, SchedKind};
    use contrarian_runtime::cost::CostModel;
    use contrarian_types::{DcId, PartitionId};
    use contrarian_workload::WorkloadSpec;

    #[test]
    fn closed_loop_cclo_cluster_makes_progress() {
        let p = ClusterParams {
            cfg: ClusterConfig::small(),
            cost: CostModel::functional(),
            clients: Clients::Closed {
                workload: WorkloadSpec::paper_default().with_rot_size(2),
                per_dc: 4,
            },
            seed: 11,
        };
        let mut sim = build_cluster::<CcLo>(&p, SchedKind::from_env());
        sim.start();
        sim.metrics_mut().enabled = true;
        sim.run_until(50_000_000);
        assert!(sim.metrics().rots_done > 0);
        assert!(sim.metrics().puts_done > 0);
        // Readers checks happened and were accounted.
        assert!(sim.metrics().counter(crate::stats::CHECKS) > 0);
    }

    #[test]
    fn replicated_cclo_cluster_converges() {
        let p = ClusterParams {
            cfg: ClusterConfig::small().with_dcs(2),
            cost: CostModel::functional(),
            clients: Clients::Closed {
                workload: WorkloadSpec::paper_default().with_rot_size(2),
                per_dc: 2,
            },
            seed: 13,
        };
        let mut sim = build_cluster::<CcLo>(&p, SchedKind::from_env());
        sim.start();
        sim.run_until(30_000_000);
        sim.set_stopped(true);
        sim.run_to_quiescence(10_000_000_000);
        // Every partition pair must hold identical heads.
        for part in 0..4u16 {
            let a = sim.actor(Addr::server(DcId(0), PartitionId(part)));
            let b = sim.actor(Addr::server(DcId(1), PartitionId(part)));
            let (sa, sb) = (
                a.as_server().unwrap().store(),
                b.as_server().unwrap().store(),
            );
            assert_eq!(
                sa.n_keys(),
                sb.n_keys(),
                "partition {part} diverged in key count"
            );
            for (k, chain) in sa.iter() {
                let ha = chain.head().unwrap().vid;
                let hb = sb.latest(*k).expect("key missing in replica").vid;
                assert_eq!(ha, hb, "partition {part} key {k} heads diverged");
            }
        }
    }
}
