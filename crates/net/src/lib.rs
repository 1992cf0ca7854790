//! **contrarian-net** — the TCP-backed live runtime.
//!
//! The second runtime sibling. The discrete-event simulator
//! (`contrarian-sim`) executes the protocol state machines under a cost
//! model in virtual time; this crate runs the *same*
//! [`contrarian_runtime::Actor`] state machines in wall-clock time, with
//! messages actually crossing sockets.
//!
//! ## The reactor
//!
//! [`NetCluster::start`] binds a loopback listener per node and deals the
//! nodes round-robin across the [`reactor`] pool: one event-loop thread
//! per core (`available_parallelism`), and no other thread. A reactor
//! hosts its nodes — it runs each handler as the simulator's
//! [`contrarian_runtime::Step`] the moment a frame, an injected message
//! or a timer is due — and drives their nonblocking sockets through
//! hand-rolled epoll bindings ([`sys`]). One multiplexed TCP connection
//! per *peer pair* — frames already carry `(from, msg)`, so both
//! directions share a socket, with a [`conn::Hello`] handshake telling
//! the acceptor who called. A node dials and accepts on its own reactor,
//! so no queue sits between a socket and its node. Outbound frames queue
//! on bounded per-connection rings (a ring over budget pauses its node,
//! never an unbounded queue, never a blocked thread) and leave in
//! vectored writes; inbound bytes reassemble incrementally via
//! [`contrarian_runtime::FrameAssembler`]. Dial backoff and node timers
//! are scheduled on the reactor's timer heap instead of slept.
//!
//! Everything a node sends is framed with the runtime's length-prefixed
//! framing and encoded with the hand-rolled wire codec
//! ([`contrarian_types::codec`]) — no serde, the workspace builds offline.
//! Nagle is disabled everywhere (`TCP_NODELAY`): a latency study cannot
//! sit behind a 40 ms coalescing timer.
//!
//! ## Deployment knowledge
//!
//! The only thing the transport must know about the world is where each
//! node listens: an `Addr → SocketAddr` map that [`NetCluster::start`]
//! fills from the ephemeral ports its loopback listeners were handed. The
//! cluster runs in one process; there is no config-file deployment.
//!
//! Because the runtime only needs [`contrarian_runtime::Actor`] +
//! [`contrarian_types::Wire`], the generic cluster builders in
//! `contrarian-protocol` stand up any backend on it unchanged, and the
//! shared conformance suite (convergence + causal-session checks) runs the
//! same battery over 127.0.0.1 as on the simulator (`check_net`).
//!
//! What this runtime is *for*: demonstrating that the paper's latency
//! argument survives contact with a real network stack. The harness's
//! `net_sweep` binary measures Contrarian vs CC-LO ROT latency over
//! loopback sockets, and `contrarian-bench`'s `net_perf` measures the
//! reactor's frames/sec/core and I/O footprint.

pub mod cluster;
pub mod conn;
pub mod reactor;
pub mod sys;

pub use cluster::{NetCluster, NetHandle, NetIoStats};
