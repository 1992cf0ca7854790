//! Cure's [`ProtocolSpec`]: how the generic builders assemble a Cure
//! cluster.

use crate::server::Server;
use contrarian_clock::PhysicalClockModel;
use contrarian_core::SnapshotSession;
use contrarian_protocol::ProtocolSpec;
use contrarian_types::{Addr, ClusterConfig, RotMode};
use rand::rngs::SmallRng;

/// The Cure backend.
pub struct Cure;

impl ProtocolSpec for Cure {
    type Msg = crate::Msg;
    type Server = Server;
    type Session = SnapshotSession;

    const NAME: &'static str = "cure";

    /// Cure has no 1½-round path: clients are forced to 2-round mode.
    fn normalize(cfg: ClusterConfig) -> ClusterConfig {
        cfg.with_rot_mode(RotMode::TwoRound)
    }

    fn server(addr: Addr, cfg: &ClusterConfig, rng: &mut SmallRng) -> Server {
        // Servers draw physical-clock offsets from `cfg.clock_skew_us` —
        // the skew Cure blocks on.
        let phys = PhysicalClockModel::random(rng, cfg.clock_skew_us);
        Server::new(addr, cfg.clone(), phys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_protocol::{build_cluster, Clients, ClusterParams, SchedKind};
    use contrarian_runtime::cost::CostModel;
    use contrarian_workload::WorkloadSpec;

    #[test]
    fn cure_cluster_makes_progress_despite_blocking() {
        let p = ClusterParams {
            cfg: ClusterConfig::small(),
            cost: CostModel::functional(),
            clients: Clients::Closed {
                workload: WorkloadSpec::paper_default().with_rot_size(2),
                per_dc: 4,
            },
            seed: 5,
        };
        let mut sim = build_cluster::<Cure>(&p, SchedKind::default());
        sim.start();
        sim.metrics_mut().enabled = true;
        sim.run_until(50_000_000);
        assert!(sim.metrics().rots_done > 0);
        assert!(sim.metrics().puts_done > 0);
    }

    #[test]
    fn clock_skew_causes_blocking() {
        // With ±2ms skew, sessions hopping between servers with different
        // offsets must hit the blocking path.
        let mut cfg = ClusterConfig::small();
        cfg.clock_skew_us = 2_000;
        let p = ClusterParams {
            cfg,
            cost: CostModel::functional(),
            clients: Clients::Closed {
                workload: WorkloadSpec::paper_default()
                    .with_rot_size(2)
                    .with_write_ratio(0.2),
                per_dc: 4,
            },
            seed: 6,
        };
        let mut sim = build_cluster::<Cure>(&p, SchedKind::default());
        sim.start();
        sim.metrics_mut().enabled = true;
        sim.run_until(200_000_000);
        assert!(
            sim.metrics().block_ns.count() > 0,
            "skewed Cure must block at least once"
        );
    }
}
