//! Okapi's [`ProtocolSpec`]: how the generic builders assemble an Okapi
//! cluster.

use crate::server::Server;
use contrarian_clock::PhysicalClockModel;
use contrarian_core::client::Client;
use contrarian_protocol::ProtocolSpec;
use contrarian_types::{Addr, ClusterConfig, RotMode};
use contrarian_workload::OpSource;
use rand::rngs::SmallRng;

/// The Okapi-style backend.
pub struct Okapi;

impl ProtocolSpec for Okapi {
    type Msg = crate::Msg;
    type Server = Server;
    type Client = Client;

    const NAME: &'static str = "okapi";

    /// Okapi reads at the universal stable time in two rounds: snapshot,
    /// then reads under it.
    fn normalize(cfg: ClusterConfig) -> ClusterConfig {
        cfg.with_rot_mode(RotMode::TwoRound)
    }

    fn server(addr: Addr, cfg: &ClusterConfig, rng: &mut SmallRng) -> Server {
        // The HLC absorbs physical offsets (freshness, never correctness) —
        // same skew tolerance as Contrarian, unlike Cure.
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
    use contrarian_types::{DcId, PartitionId};
    use contrarian_workload::WorkloadSpec;

    #[test]
    fn okapi_cluster_makes_progress() {
        let p = ClusterParams {
            cfg: ClusterConfig::small().with_dcs(2),
            cost: CostModel::functional(),
            clients: Clients::Closed {
                workload: WorkloadSpec::paper_default().with_rot_size(2),
                per_dc: 4,
            },
            seed: 21,
        };
        let mut sim = build_cluster::<Okapi>(&p, SchedKind::from_env());
        sim.start();
        sim.metrics_mut().enabled = true;
        sim.run_until(80_000_000);
        assert!(sim.metrics().rots_done > 0);
        assert!(sim.metrics().puts_done > 0);
    }

    #[test]
    fn servers_advance_their_universal_stable_time() {
        let p = ClusterParams {
            cfg: ClusterConfig::small().with_dcs(2),
            cost: CostModel::functional(),
            clients: Clients::Closed {
                workload: WorkloadSpec::paper_default().with_rot_size(2),
                per_dc: 4,
            },
            seed: 22,
        };
        let mut sim = build_cluster::<Okapi>(&p, SchedKind::from_env());
        sim.start();
        sim.metrics_mut().enabled = true;
        sim.run_until(200_000_000);
        let addr = Addr::server(DcId(0), PartitionId(0));
        let server = sim.actor(addr).as_server().unwrap();
        assert!(
            server.gss().min_entry() > 0,
            "stabilization must lift the scalar stable time off zero"
        );
        assert!(sim.metrics().rots_done > 0, "snapshots were proposed");
    }
}
