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
//!                         │                    recording, frame layer, the
//!                         │                    shared live node loop)
//!         ┌───────────────┼───────────────┐
//!  contrarian-sim  contrarian-transport  contrarian-net
//!  (discrete-event (thread-per-node      (thread-per-node
//!   engine,         live cluster, wall    live cluster over
//!   virtual time)   clock, channels)      TCP sockets)
//!         └───────────────┼───────────────┘
//!                  contrarian-protocol        (Node, Stabilizer, Timers,
//!                         │                    builders, conformance)
//!        ┌──────────┬─────┴──────┬───────────┐
//!  contrarian-core contrarian-cclo contrarian-cure contrarian-okapi
//! ```
//!
//! Protocol nodes are deterministic state machines implementing [`Actor`];
//! a runtime delivers messages and timer ticks through an [`ActorCtx`] and
//! the node responds by sending messages and arming timers. Protocol code
//! never knows which runtime is driving it. Three runtimes exist:
//!
//! * `contrarian-sim` — the deterministic discrete-event simulator with a
//!   queueing cost model (virtual time);
//! * `contrarian-transport` — a live thread-per-node deployment (wall-clock
//!   time, crossbeam channels as links);
//! * `contrarian-net` — the same thread-per-node event loop over real TCP
//!   sockets, every message through the wire codec and the [`frame`]
//!   layer this crate provides.
//!
//! During a handler the node-facing capabilities (`send`, `set_timer`,
//! `now`, metrics, history) come from the [`ActorCtx`]. The cluster-facing
//! side is each runtime's own inherent API (`Sim`, `LiveCluster`,
//! `NetCluster`): all three take the same node list from the protocol
//! kernel's builder and offer `inject_op`, which panics on an address that
//! is not in the cluster, and `addrs` in registration order. How time
//! advances is the one thing they do not share: the simulator is stepped,
//! the live clusters free-run.
//!
//! This crate exists so that the runtimes are *siblings*: no live
//! transport depends on the simulator (nor vice versa), which keeps the
//! door open for further runtimes (an io_uring reactor, a sharded engine)
//! without touching protocol code.

pub mod actor;
pub mod cost;
pub mod env;
pub mod frame;
pub mod history;
pub mod metrics;
pub mod node_loop;
pub mod testkit;
pub mod trace;
pub mod window;

pub use actor::{Actor, ActorCtx, TimerKind};
pub use cost::{CostModel, MsgClass, SimMessage};
pub use frame::{encode_frame, FrameAssembler, FrameError, MAX_FRAME};
pub use history::{merge_shard_histories, HistorySink, TaggedEvent};
pub use metrics::{Histogram, LoadReport, Metrics};
pub use node_loop::{node_seed, run_node, Input, Outbound, RunShared};
pub use testkit::ScriptCtx;
pub use trace::{chrome_trace_json, merge_traces, summarize, trace_cap_from_env, TraceRing};
pub use window::{MetricsWindow, WindowSeries};
