//! The shared protocol-runtime kernel.
//!
//! The paper's whole argument is a *comparison* of three causal protocols
//! (Contrarian, CC-LO, Cure) on one code base. This crate owns everything a
//! partitioned causal key-value protocol needs besides its actual message
//! handling, so that a protocol crate contains **only** its state machines
//! and message/metadata types:
//!
//! * [`ProtocolServer`] / [`Session`] — what a backend implements: its
//!   server state machine, and its client-session metadata (what a request
//!   carries and a reply returns, the one thing the paper's Table 2 says
//!   the clients differ in). [`Client`] is the one operation loop every
//!   backend's sessions run in, and [`Node`] the one generic
//!   server-or-client actor that every runtime (simulator, TCP) drives.
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
//!   `NetCluster::start` takes it as is, and
//!   [`build_interactive_cluster`] starts the facade's one-client cluster.
//! * [`conformance`] — the shared conformance suite: the *same* convergence
//!   and causal-session checks, run against any backend on both
//!   runtimes: the discrete-event simulator (once per engine) and the TCP
//!   runtime (`contrarian-net`, loopback sockets + wire codec).
//!
//! Adding a backend means implementing [`ProtocolMsg`], [`ProtocolServer`]
//! and [`Session`] plus a [`ProtocolSpec`] — roughly one file — and the
//! client loop, the builder, every runtime, the harness's run loop and the
//! conformance checks work with it unchanged. A backend of the snapshot
//! family (Contrarian, Cure, Okapi) needs less still: it plugs a clock and
//! a stable-time shape into `contrarian-core`'s one `SnapshotServer`,
//! reuses its `SnapshotSession`, and writes no handler at all.

// A deterministic crate (the rest of the rule is in the root clippy.toml).
#![warn(clippy::iter_over_hash_type)]

pub mod build;
pub mod client;
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
pub use client::{Client, Inbound, ReadPair, Session};
pub use contrarian_net::NetCluster;
pub use contrarian_sim::SchedKind;
pub use node::{Node, ProtocolMsg, ProtocolServer};
pub use parked::Parked;
pub use stabilizer::{peer_replicas, Stabilizer};
pub use timers::Timers;
