//! The execution substrate shared by every runtime that drives protocol
//! state machines.
//!
//! ## The layer diagram
//!
//! ```text
//!                  contrarian-types           (ids, keys, vectors, config,
//!                         │                    wire codec)
//!                  contrarian-runtime         (this crate: Actor/ActorCtx,
//!                         │                    the one node Step, TimerKind,
//!                         │                    SimMessage + cost model,
//!                         │                    Metrics, history recording,
//!                         │                    frame layer)
//!                ┌────────┴────────┐
//!         contrarian-sim     contrarian-net
//!         (discrete-event    (live cluster over
//!          engine,            TCP sockets, nodes
//!          virtual time)      on epoll reactors)
//!                └────────┬────────┘
//!                  contrarian-protocol        (Node, Stabilizer, Timers,
//!                         │                    builders, conformance)
//!        ┌──────────┬─────┴──────┬───────────┐
//!  contrarian-core contrarian-cclo contrarian-cure contrarian-okapi
//! ```
//!
//! Protocol nodes are deterministic state machines implementing [`Actor`];
//! a runtime delivers messages and timer ticks through an [`ActorCtx`] and
//! the node responds by sending messages and arming timers. Protocol code
//! never knows which runtime is driving it. Two runtimes exist:
//!
//! * `contrarian-sim` — the deterministic discrete-event simulator with a
//!   queueing cost model (virtual time);
//! * `contrarian-net` — a live deployment over real TCP sockets
//!   (wall-clock time): a fixed pool of epoll reactor threads hosts the
//!   nodes and drives their sockets, every message through the wire codec
//!   and the [`frame`] layer this crate provides.
//!
//! During a handler the node-facing capabilities (`send`, `set_timer`,
//! `now`, metrics, history, trace) come from one [`Step`], the only
//! [`ActorCtx`] implementation of the workspace's crates: a node's
//! [`NodeState`] (address, global id, RNG, record counter, trace ring) and
//! a [`Sink`] (metrics, `(t, node, seq)`-tagged history, run flags, the
//! handler's sends, timers and charge), at the `now` its runtime hands
//! it. Every runtime runs that same step; what each keeps of its own is
//! *when* a step runs — the simulator's calendar queue, a TCP reactor's
//! socket edges and timer heap, a test's hand ([`ScriptCtx`], the owned
//! step) — and *how* the sends a step leaves in its sink travel — the
//! cost model's departure spacing and per-link FIFO clamp, or the
//! reactor's connection rings. (The repo benchmark's replay driver,
//! `benchmark/src/replay.rs`, still implements the trait on its own
//! `Ctx`; it is the one second implementation left.) The
//! cluster-facing side is each runtime's own inherent API (`Sim`,
//! `NetCluster`): both take the same node list from the protocol kernel's
//! builder, seed each node's RNG with [`node_seed`], and offer
//! `inject_op`, which panics on an address that is not in the cluster,
//! and `addrs` in registration order. How time advances is the one thing
//! they do not share: the simulator is stepped, the TCP cluster
//! free-runs.
//!
//! This crate exists so that the runtimes are *siblings*: the TCP runtime
//! does not depend on the simulator (nor vice versa), which keeps the
//! door open for further runtimes (an io_uring reactor, an in-memory byte
//! pipe) without touching protocol code.

pub mod actor;
pub mod cost;
pub mod env;
pub mod frame;
pub mod history;
pub mod metrics;
pub mod step;
pub mod testkit;
pub mod trace;
pub mod window;

pub use actor::{Actor, ActorCtx, TimerKind};
pub use cost::{CostModel, MsgClass, SimMessage};
pub use frame::{encode_frame, FrameAssembler, FrameError, MAX_FRAME};
pub use history::{merge_shard_histories, TaggedEvent};
pub use metrics::{Histogram, Metrics};
pub use step::{NodeState, Sink, Step};
pub use testkit::ScriptCtx;
pub use trace::{chrome_trace_json, merge_traces, summarize, TraceRing};
pub use window::{MetricsWindow, WindowSeries};

/// Derives a per-node RNG seed from the cluster seed and the address.
/// The simulator and the TCP runtime both seed each node with it, so they
/// draw identical workload streams for the same cluster seed.
pub fn node_seed(seed: u64, addr: contrarian_types::Addr) -> u64 {
    seed ^ (addr.dc.0 as u64) << 32
        ^ (addr.idx as u64) << 8
        ^ matches!(addr.kind, contrarian_types::NodeKind::Client) as u64
}
