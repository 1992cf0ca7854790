//! The execution substrate shared by every runtime that drives protocol
//! state machines.
//!
//! ## The layer diagram
//!
//! ```text
//!                  contrarian-types           (ids, keys, vectors, config,
//!                         │                    wire codec)
//!                  contrarian-runtime         (this crate: Actor/ActorCtx,
//!                         │                    TimerKind, SimMessage + cost
//!                         │                    model, Metrics, history
//!                         │                    recording, frame layer)
//!                ┌────────┴────────┐
//!         contrarian-sim     contrarian-net
//!         (discrete-event    (thread-per-node
//!          engine,            live cluster over
//!          virtual time)      TCP sockets)
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
//! * `contrarian-net` — a live thread-per-node deployment over real TCP
//!   sockets (wall-clock time), every message through the wire codec and
//!   the [`frame`] layer this crate provides.
//!
//! During a handler the node-facing capabilities (`send`, `set_timer`,
//! `now`, metrics, history) come from the [`ActorCtx`]. The cluster-facing
//! side is each runtime's own inherent API (`Sim`, `NetCluster`): both
//! take the same node list from the protocol kernel's builder, seed each
//! node's RNG with [`node_seed`], and offer `inject_op`, which panics on
//! an address that is not in the cluster, and `addrs` in registration
//! order. How time advances is the one thing they do not share: the
//! simulator is stepped, the TCP cluster free-runs.
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
pub mod testkit;
pub mod trace;
pub mod window;

pub use actor::{Actor, ActorCtx, TimerKind};
pub use cost::{CostModel, MsgClass, SimMessage};
pub use frame::{encode_frame, FrameAssembler, FrameError, MAX_FRAME};
pub use history::{merge_shard_histories, HistorySink, TaggedEvent};
pub use metrics::{Histogram, Metrics};
pub use testkit::ScriptCtx;
pub use trace::{chrome_trace_json, merge_traces, summarize, trace_cap_from_env, TraceRing};
pub use window::{MetricsWindow, WindowSeries};

/// Derives a per-node RNG seed from the cluster seed and the address.
/// The simulator and the TCP runtime both seed each node with it, so they
/// draw identical workload streams for the same cluster seed.
pub fn node_seed(seed: u64, addr: contrarian_types::Addr) -> u64 {
    seed ^ (addr.dc.0 as u64) << 32
        ^ (addr.idx as u64) << 8
        ^ matches!(addr.kind, contrarian_types::NodeKind::Client) as u64
}
