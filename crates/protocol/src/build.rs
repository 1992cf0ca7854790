//! The generic cluster builder.
//!
//! One [`ProtocolSpec`] per backend replaces the three per-protocol
//! `build.rs` files the workspace used to carry: the spec says how to make
//! one server and which client session to run, and [`build_nodes`]
//! assembles the node list every runtime consumes — [`build_cluster`]
//! registers it with the simulator, `NetCluster::start` takes it as is.

use crate::client::{Client, Session};
use crate::node::{Node, ProtocolMsg, ProtocolServer};
use contrarian_runtime::cost::CostModel;
use contrarian_sim::sim::Sim;
use contrarian_sim::SchedKind;
use contrarian_types::{Addr, ClusterConfig, DcId, PartitionId};
use contrarian_workload::{
    ClientDriver, OpSource, OpenLoopDriver, OpenLoopSpec, WorkloadSpec, Zipf,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A backend: the types plus constructors the generic builders need.
pub trait ProtocolSpec {
    type Msg: ProtocolMsg;
    type Server: ProtocolServer<Msg = Self::Msg> + Send + 'static;
    type Session: Session<Msg = Self::Msg>;

    /// Human-readable backend name (conformance reports, logs).
    const NAME: &'static str;

    /// Normalizes the cluster configuration for this backend (e.g. Cure has
    /// no 1½-round path and forces 2-round ROTs). Default: unchanged.
    fn normalize(cfg: ClusterConfig) -> ClusterConfig {
        cfg
    }

    /// Builds one partition server. `rng` is the cluster's deterministic
    /// init stream (physical-clock offsets etc.); unused by logical-clock
    /// backends.
    fn server(addr: Addr, cfg: &ClusterConfig, rng: &mut SmallRng) -> Self::Server;
}

/// The node type a spec's cluster is made of.
pub type ProtoNode<P> = Node<<P as ProtocolSpec>::Server, Client<<P as ProtocolSpec>::Session>>;

/// The client side of a cluster: which operation source each client node
/// draws from, and how many there are.
#[derive(Clone, Debug)]
pub enum Clients {
    /// `per_dc` closed-loop clients per DC, each issuing its next operation
    /// the instant the previous one completes (the paper's experiments).
    Closed { workload: WorkloadSpec, per_dc: u16 },
    /// `actors_per_dc` open-loop driver actors per DC, each owning its
    /// shard of the logical-session population.
    Open(OpenLoopSpec),
    /// `n` clients in DC 0 that issue only injected operations: one for
    /// the embedded store facade, a writer and its readers for a scripted
    /// schedule.
    Queue(u16),
}

impl Clients {
    /// `(DCs with clients, clients in each)` in a cluster of `n_dcs` DCs.
    pub fn layout(&self, n_dcs: u8) -> (u8, u16) {
        match self {
            Clients::Closed { per_dc, .. } => (n_dcs, *per_dc),
            Clients::Open(spec) => (n_dcs, spec.actors_per_dc),
            Clients::Queue(n) => (1, *n),
        }
    }
}

/// Everything needed to stand up one cluster.
pub struct ClusterParams {
    pub cfg: ClusterConfig,
    pub cost: CostModel,
    pub clients: Clients,
    pub seed: u64,
}

/// Builds the node list of a cluster: every partition server DC-major by
/// partition, drawn from one init stream seeded by `seed`, then the client
/// nodes DC-major by index. The order is part of the contract: the
/// simulator keys events by registration index, so the same list in the
/// same order gives the same run on every runtime.
pub fn build_nodes<P: ProtocolSpec>(
    cfg: &ClusterConfig,
    clients: &Clients,
    seed: u64,
) -> Vec<(Addr, ProtoNode<P>)> {
    let cfg = P::normalize(cfg.clone());
    let (client_dcs, per_dc) = clients.layout(cfg.n_dcs);
    let total = usize::from(client_dcs) * usize::from(per_dc);
    let mut nodes = Vec::with_capacity(cfg.n_servers() + total);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0FF5);
    for dc in 0..cfg.n_dcs {
        for part in 0..cfg.n_partitions {
            let addr = Addr::server(DcId(dc), PartitionId(part));
            nodes.push((addr, Node::Server(P::server(addr, &cfg, &mut rng))));
        }
    }
    // One key distribution shared by every load-generating client.
    let workload = match clients {
        Clients::Closed { workload, .. } => Some(workload),
        Clients::Open(spec) => Some(&spec.workload),
        Clients::Queue(_) => None,
    };
    let zipf = workload.map(|w| (w, Arc::new(Zipf::new(cfg.keys_per_partition, w.zipf_theta))));
    let generator = || {
        let (w, zipf) = zipf
            .as_ref()
            .expect("load-generating clients have a workload");
        ClientDriver::new((*w).clone(), zipf.clone(), cfg.n_partitions)
    };
    for dc in 0..client_dcs {
        for c in 0..per_dc {
            let addr = Addr::client(DcId(dc), c);
            let source = match clients {
                Clients::Closed { .. } => Some(OpSource::Closed(generator())),
                Clients::Open(spec) => {
                    let shard = usize::from(dc) * usize::from(per_dc) + usize::from(c);
                    let sessions = spec.sessions_for(shard, total);
                    Some(OpSource::Open(OpenLoopDriver::new(
                        generator(),
                        u32::try_from(sessions).expect("sessions per actor must fit u32"),
                        spec.session_rate(),
                    )))
                }
                Clients::Queue(_) => None,
            };
            nodes.push((addr, Node::Client(Client::new(addr, &cfg, source))));
        }
    }
    nodes
}

/// Builds a simulated cluster from [`build_nodes`]' list, servers at
/// `cfg.workers_per_server` workers. The caller decides when to `start()`
/// and how long to run. A run passes [`SchedKind::default()`]; a test that
/// compares engines passes each of `contrarian_sim::ENGINES`.
pub fn build_cluster<P: ProtocolSpec>(p: &ClusterParams, sched: SchedKind) -> Sim<ProtoNode<P>> {
    let mut sim = Sim::with_scheduler(p.cost, p.seed, sched);
    let workers = p.cfg.workers_per_server as u32;
    for (addr, node) in build_nodes::<P>(&p.cfg, &p.clients, p.seed) {
        match node {
            Node::Server(_) => sim.add_server(addr, node, workers),
            Node::Client(_) => sim.add_client(addr, node),
        }
    }
    sim
}

/// Everything needed to stand up one open-loop (saturation) cluster: the
/// base cluster knobs plus the Poisson session population. The driver-actor
/// pool is bounded (`spec.actors_per_dc` per DC) however many logical
/// sessions the spec multiplexes onto it.
pub struct OpenLoopParams {
    pub cfg: ClusterConfig,
    pub cost: CostModel,
    pub spec: OpenLoopSpec,
    pub seed: u64,
}

/// [`build_cluster`] with open-loop driver actors, on the default engine.
pub fn build_openloop_cluster<P: ProtocolSpec>(p: &OpenLoopParams) -> Sim<ProtoNode<P>> {
    build_cluster::<P>(
        &ClusterParams {
            cfg: p.cfg.clone(),
            cost: p.cost,
            clients: Clients::Open(p.spec.clone()),
            seed: p.seed,
        },
        SchedKind::default(),
    )
}

/// [`build_nodes`] with open-loop driver actors.
pub fn build_openloop_nodes<P: ProtocolSpec>(
    cfg: &ClusterConfig,
    spec: &OpenLoopSpec,
    seed: u64,
) -> Vec<(Addr, ProtoNode<P>)> {
    build_nodes::<P>(cfg, &Clients::Open(spec.clone()), seed)
}

/// Builds a single-client interactive simulated cluster (the embedded store
/// facade): functional cost model, the default engine, recording on,
/// already started.
pub fn build_interactive_cluster<P: ProtocolSpec>(
    cfg: &ClusterConfig,
    seed: u64,
) -> (Sim<ProtoNode<P>>, Addr) {
    let p = ClusterParams {
        cfg: cfg.clone(),
        cost: CostModel::functional(),
        clients: Clients::Queue(1),
        seed,
    };
    let mut sim = build_cluster::<P>(&p, SchedKind::default());
    sim.set_recording(true);
    sim.start();
    (sim, Addr::client(DcId(0), 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_workload::WorkloadSpec;

    #[test]
    fn client_layout_per_kind() {
        let workload = WorkloadSpec::paper_default();
        let closed = Clients::Closed {
            workload: workload.clone(),
            per_dc: 6,
        };
        assert_eq!(closed.layout(3), (3, 6));
        let open = Clients::Open(OpenLoopSpec::new(workload, 100, 10.0).with_actors_per_dc(2));
        assert_eq!(open.layout(2), (2, 2));
        // Queue clients live in DC 0 whatever the size.
        assert_eq!(Clients::Queue(1).layout(3), (1, 1));
        assert_eq!(Clients::Queue(4).layout(3), (1, 4));
    }
}
