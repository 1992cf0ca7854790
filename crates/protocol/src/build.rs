//! The generic cluster builders.
//!
//! One [`ProtocolSpec`] per backend replaces the three per-protocol
//! `build.rs` files the workspace used to carry: the spec says how to make
//! one server and one client, and the builders here assemble full clusters
//! for the simulator (closed-loop or interactive) and the live threaded
//! transport.

use crate::node::{Node, ProtocolClient, ProtocolMsg, ProtocolServer};
use contrarian_net::NetCluster;
use contrarian_runtime::cost::CostModel;
use contrarian_sim::sim::Sim;
use contrarian_transport::LiveCluster;
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
    type Client: ProtocolClient<Msg = Self::Msg> + Send + 'static;

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

    /// Builds one client session over the given operation source.
    fn client(addr: Addr, cfg: &ClusterConfig, source: OpSource) -> Self::Client;
}

/// The node type a spec's cluster is made of.
pub type ProtoNode<P> = Node<<P as ProtocolSpec>::Server, <P as ProtocolSpec>::Client>;

/// Everything needed to stand up one simulated cluster.
pub struct ClusterParams {
    pub cfg: ClusterConfig,
    pub cost: CostModel,
    pub workload: WorkloadSpec,
    pub clients_per_dc: u16,
    pub seed: u64,
}

fn init_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0x5EED_0FF5)
}

fn add_servers<P: ProtocolSpec>(sim: &mut Sim<ProtoNode<P>>, cfg: &ClusterConfig, seed: u64) {
    let mut rng = init_rng(seed);
    for dc in 0..cfg.n_dcs {
        for part in 0..cfg.n_partitions {
            let addr = Addr::server(DcId(dc), PartitionId(part));
            let server = P::server(addr, cfg, &mut rng);
            sim.add_server(addr, Node::Server(server), cfg.workers_per_server as u32);
        }
    }
}

/// Builds a full simulated cluster with closed-loop clients. The caller
/// decides when to `start()` and how long to run. The engine mode comes
/// from `CONTRARIAN_SCHED`; use [`build_cluster_with`] to pin it.
pub fn build_cluster<P: ProtocolSpec>(p: &ClusterParams) -> Sim<ProtoNode<P>> {
    build_cluster_with::<P>(p, contrarian_sim::SchedKind::from_env())
}

/// [`build_cluster`] with an explicit engine mode — what the cross-engine
/// determinism tests use to compare heap/calendar/sharded runs of one
/// configuration without racing on the process environment.
pub fn build_cluster_with<P: ProtocolSpec>(
    p: &ClusterParams,
    sched: contrarian_sim::SchedKind,
) -> Sim<ProtoNode<P>> {
    let cfg = P::normalize(p.cfg.clone());
    let mut sim = Sim::with_scheduler(p.cost.clone(), p.seed, sched);
    add_servers::<P>(&mut sim, &cfg, p.seed);
    let zipf = Arc::new(Zipf::new(cfg.keys_per_partition, p.workload.zipf_theta));
    for dc in 0..cfg.n_dcs {
        for c in 0..p.clients_per_dc {
            let addr = Addr::client(DcId(dc), c);
            let driver = ClientDriver::new(p.workload.clone(), zipf.clone(), cfg.n_partitions);
            let client = P::client(addr, &cfg, OpSource::closed(driver));
            sim.add_client(addr, Node::Client(client));
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

/// Builds a full simulated cluster with open-loop driver actors. Engine
/// mode from `CONTRARIAN_SCHED`; [`build_openloop_cluster_with`] pins it.
pub fn build_openloop_cluster<P: ProtocolSpec>(p: &OpenLoopParams) -> Sim<ProtoNode<P>> {
    build_openloop_cluster_with::<P>(p, contrarian_sim::SchedKind::from_env())
}

/// [`build_openloop_cluster`] with an explicit engine mode.
pub fn build_openloop_cluster_with<P: ProtocolSpec>(
    p: &OpenLoopParams,
    sched: contrarian_sim::SchedKind,
) -> Sim<ProtoNode<P>> {
    let cfg = P::normalize(p.cfg.clone());
    let mut sim = Sim::with_scheduler(p.cost.clone(), p.seed, sched);
    add_servers::<P>(&mut sim, &cfg, p.seed);
    let zipf = Arc::new(Zipf::new(
        cfg.keys_per_partition,
        p.spec.workload.zipf_theta,
    ));
    let total = cfg.n_dcs as usize * p.spec.actors_per_dc as usize;
    let mut shard = 0;
    for dc in 0..cfg.n_dcs {
        for c in 0..p.spec.actors_per_dc {
            let addr = Addr::client(DcId(dc), c);
            let sessions = p.spec.sessions_for(shard, total);
            shard += 1;
            let gen = ClientDriver::new(p.spec.workload.clone(), zipf.clone(), cfg.n_partitions);
            let source = OpSource::open(OpenLoopDriver::new(
                gen,
                u32::try_from(sessions).expect("sessions per actor must fit u32"),
                p.spec.session_rate(),
            ));
            sim.add_client(addr, Node::Client(P::client(addr, &cfg, source)));
        }
    }
    sim
}

/// Builds a single-client interactive simulated cluster (the embedded store
/// facade): recording on, already started.
pub fn build_interactive_cluster<P: ProtocolSpec>(
    cfg: &ClusterConfig,
    seed: u64,
) -> (Sim<ProtoNode<P>>, Addr) {
    let cfg = P::normalize(cfg.clone());
    let mut sim = Sim::new(CostModel::functional(), seed);
    add_servers::<P>(&mut sim, &cfg, seed);
    let client_addr = Addr::client(DcId(0), 0);
    let (source, _handle) = OpSource::queue();
    sim.add_client(
        client_addr,
        Node::Client(P::client(client_addr, &cfg, source)),
    );
    sim.set_recording(true);
    sim.start();
    (sim, client_addr)
}

/// Builds the node list of a live (threaded) cluster: every partition
/// server plus `clients_per_dc` closed-loop clients per DC. Feed the result
/// to [`LiveCluster::start`].
pub fn build_live_nodes<P: ProtocolSpec>(
    cfg: &ClusterConfig,
    workload: &WorkloadSpec,
    clients_per_dc: u16,
    seed: u64,
) -> Vec<(Addr, ProtoNode<P>)> {
    let cfg = P::normalize(cfg.clone());
    let mut rng = init_rng(seed);
    let zipf = Arc::new(Zipf::new(cfg.keys_per_partition, workload.zipf_theta));
    let mut nodes: Vec<(Addr, ProtoNode<P>)> = Vec::new();
    for dc in 0..cfg.n_dcs {
        for part in 0..cfg.n_partitions {
            let addr = Addr::server(DcId(dc), PartitionId(part));
            nodes.push((addr, Node::Server(P::server(addr, &cfg, &mut rng))));
        }
    }
    for dc in 0..cfg.n_dcs {
        for c in 0..clients_per_dc {
            let addr = Addr::client(DcId(dc), c);
            let driver = ClientDriver::new(workload.clone(), zipf.clone(), cfg.n_partitions);
            nodes.push((
                addr,
                Node::Client(P::client(addr, &cfg, OpSource::closed(driver))),
            ));
        }
    }
    nodes
}

/// Convenience: builds and starts a recording live cluster.
pub fn build_live_cluster<P: ProtocolSpec>(
    cfg: &ClusterConfig,
    workload: &WorkloadSpec,
    clients_per_dc: u16,
    seed: u64,
) -> LiveCluster<ProtoNode<P>> {
    LiveCluster::start(
        build_live_nodes::<P>(cfg, workload, clients_per_dc, seed),
        true,
        seed,
    )
}

/// Convenience: builds and starts a TCP cluster — the same node list as
/// the in-process transport, but every link a loopback socket and every
/// message through the wire codec. Any [`ProtocolSpec`] works:
/// `ProtocolMsg` already requires the codec. `recording` turns on the
/// history sink (leave it off for latency measurements: every append
/// takes a cluster-wide lock).
pub fn build_net_cluster<P: ProtocolSpec>(
    cfg: &ClusterConfig,
    workload: &WorkloadSpec,
    clients_per_dc: u16,
    seed: u64,
    recording: bool,
) -> NetCluster<ProtoNode<P>> {
    NetCluster::start(
        build_live_nodes::<P>(cfg, workload, clients_per_dc, seed),
        recording,
        seed,
    )
}

/// Builds the node list of a live/TCP cluster with open-loop driver actors
/// instead of closed-loop clients: every partition server plus
/// `spec.actors_per_dc` drivers per DC, each owning its shard of the
/// logical-session population. Feed the result to [`LiveCluster::start`]
/// or [`NetCluster::start`].
pub fn build_openloop_nodes<P: ProtocolSpec>(
    cfg: &ClusterConfig,
    spec: &OpenLoopSpec,
    seed: u64,
) -> Vec<(Addr, ProtoNode<P>)> {
    let cfg = P::normalize(cfg.clone());
    let mut rng = init_rng(seed);
    let zipf = Arc::new(Zipf::new(cfg.keys_per_partition, spec.workload.zipf_theta));
    let mut nodes: Vec<(Addr, ProtoNode<P>)> = Vec::new();
    for dc in 0..cfg.n_dcs {
        for part in 0..cfg.n_partitions {
            let addr = Addr::server(DcId(dc), PartitionId(part));
            nodes.push((addr, Node::Server(P::server(addr, &cfg, &mut rng))));
        }
    }
    let total = cfg.n_dcs as usize * spec.actors_per_dc as usize;
    let mut shard = 0;
    for dc in 0..cfg.n_dcs {
        for c in 0..spec.actors_per_dc {
            let addr = Addr::client(DcId(dc), c);
            let sessions = spec.sessions_for(shard, total);
            shard += 1;
            let gen = ClientDriver::new(spec.workload.clone(), zipf.clone(), cfg.n_partitions);
            let source = OpSource::open(OpenLoopDriver::new(
                gen,
                u32::try_from(sessions).expect("sessions per actor must fit u32"),
                spec.session_rate(),
            ));
            nodes.push((addr, Node::Client(P::client(addr, &cfg, source))));
        }
    }
    nodes
}

/// Convenience: builds and starts an open-loop TCP cluster on the reactor.
pub fn build_openloop_net_cluster<P: ProtocolSpec>(
    cfg: &ClusterConfig,
    spec: &OpenLoopSpec,
    seed: u64,
    recording: bool,
) -> NetCluster<ProtoNode<P>> {
    NetCluster::start(build_openloop_nodes::<P>(cfg, spec, seed), recording, seed)
}

/// Convenience: builds and starts an open-loop live (in-process threaded)
/// cluster.
pub fn build_openloop_live_cluster<P: ProtocolSpec>(
    cfg: &ClusterConfig,
    spec: &OpenLoopSpec,
    seed: u64,
    recording: bool,
) -> LiveCluster<ProtoNode<P>> {
    LiveCluster::start(build_openloop_nodes::<P>(cfg, spec, seed), recording, seed)
}
