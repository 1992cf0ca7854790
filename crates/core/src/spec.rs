//! Contrarian's [`ProtocolSpec`]: how the generic builders assemble a
//! Contrarian cluster.

use crate::client::Client;
use crate::server::Server;
use contrarian_clock::PhysicalClockModel;
use contrarian_protocol::ProtocolSpec;
use contrarian_types::{Addr, ClusterConfig};
use contrarian_workload::OpSource;
use rand::rngs::SmallRng;

/// The Contrarian backend.
pub struct Contrarian;

impl ProtocolSpec for Contrarian {
    type Msg = crate::msg::Msg;
    type Server = Server;
    type Client = Client;

    const NAME: &'static str = "contrarian";

    fn server(addr: Addr, cfg: &ClusterConfig, rng: &mut SmallRng) -> Server {
        // Servers draw physical-clock offsets from the configured skew; the
        // HLC absorbs them (freshness, never correctness).
        let phys = PhysicalClockModel::random(rng, cfg.clock_skew_us);
        Server::new(addr, cfg.clone(), phys)
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
    use contrarian_types::Op;
    use contrarian_workload::WorkloadSpec;

    #[test]
    fn cluster_has_all_nodes() {
        let p = ClusterParams {
            cfg: ClusterConfig::small().with_dcs(2),
            cost: CostModel::functional(),
            clients: Clients::Closed {
                workload: WorkloadSpec::paper_default().with_rot_size(2),
                per_dc: 3,
            },
            seed: 1,
        };
        let sim = build_cluster::<Contrarian>(&p, SchedKind::from_env());
        // 2 DCs × 4 partitions + 2 DCs × 3 clients.
        assert_eq!(sim.addrs().len(), 8 + 6);
    }

    #[test]
    fn closed_loop_cluster_makes_progress() {
        let p = ClusterParams {
            cfg: ClusterConfig::small(),
            cost: CostModel::functional(),
            clients: Clients::Closed {
                workload: WorkloadSpec::paper_default().with_rot_size(2),
                per_dc: 4,
            },
            seed: 7,
        };
        let mut sim = build_cluster::<Contrarian>(&p, SchedKind::from_env());
        sim.start();
        sim.metrics_mut().enabled = true;
        sim.run_until(50_000_000); // 50 virtual ms
        assert!(
            sim.metrics().ops_done() > 100,
            "ops: {}",
            sim.metrics().ops_done()
        );
        assert!(sim.metrics().rots_done > 0);
        assert!(sim.metrics().puts_done > 0);
    }

    #[test]
    fn interactive_cluster_serves_injected_ops() {
        let (mut sim, client) = contrarian_protocol::build_interactive_cluster::<Contrarian>(
            &ClusterConfig::small(),
            3,
        );
        sim.inject_op(
            client,
            Op::Put(
                contrarian_types::Key(5),
                contrarian_types::Value::from_static(b"x"),
            ),
        );
        sim.run_until(sim.now() + 10_000_000);
        assert_eq!(sim.history().len(), 1);
    }
}
