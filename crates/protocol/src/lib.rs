//! The shared protocol-runtime kernel.
//!
//! The paper's whole argument is a *comparison* of three causal protocols
//! (Contrarian, CC-LO, Cure) on one code base. This crate owns everything a
//! partitioned causal key-value protocol needs besides its actual message
//! handling, so that a protocol crate contains **only** its state machines
//! and message/metadata types:
//!
//! * [`ProtocolServer`] / [`ProtocolClient`] — the trait pair a backend
//!   implements; [`Node`] is the one generic server-or-client actor that
//!   every runtime (simulator, live transport) drives.
//! * [`Stabilizer`] — the GSS machinery shared by vector-clock protocols:
//!   partition version-vector aggregation, entrywise-minimum join,
//!   broadcast, heartbeat bookkeeping.
//! * [`Timers`] — one registry for the periodic stabilization / heartbeat /
//!   GC timer loop (arm once, re-arm after each tick unless stopped).
//! * [`Parked`] — the deferred-request queue used for operations waiting on
//!   a clock (Cure) or on a dependency install (CC-LO).
//! * [`build_nodes`] — the one generic cluster builder, driven by a
//!   [`ProtocolSpec`] and a [`Clients`] kind: the node list every runtime
//!   consumes. [`build_cluster`] registers it with the simulator,
//!   `LiveCluster::start` / `NetCluster::start` take it as is, and
//!   [`build_interactive_cluster`] starts the facade's one-client cluster.
//! * [`conformance`] — the shared conformance suite: the *same* convergence
//!   and causal-session checks, run against any backend on all three
//!   runtimes: the discrete-event simulator, the live threaded transport,
//!   and the TCP runtime (`contrarian-net`, loopback sockets + wire codec).
//!
//! Adding a backend means implementing the three traits plus a
//! [`ProtocolSpec`] — roughly one file — and the builder, every runtime,
//! the harness's run loop and the conformance checks work with it
//! unchanged. A backend of the
//! snapshot family (Contrarian, Cure, Okapi) needs less still: it plugs a
//! clock and a stable-time shape into `contrarian-core`'s one
//! `SnapshotServer` and writes no handler at all.

pub mod build;
pub mod conformance;
pub mod node;
pub mod parked;
pub mod stabilizer;
pub mod timers;

pub use build::{
    build_cluster, build_interactive_cluster, build_nodes, build_openloop_cluster,
    build_openloop_nodes, Clients, ClusterParams, OpenLoopParams, ProtoNode, ProtocolSpec,
};
// The runtimes a `build_nodes` list starts on, re-exported so a backend
// crate can drive its cluster without depending on each of them.
pub use contrarian_net::NetCluster;
pub use contrarian_sim::SchedKind;
pub use contrarian_transport::LiveCluster;
pub use node::{Node, ProtocolClient, ProtocolMsg, ProtocolServer};
pub use parked::Parked;
pub use stabilizer::{peer_replicas, Stabilizer};
pub use timers::Timers;
