//! A deterministic discrete-event cluster simulator with a queueing cost
//! model — sharded by default: one event loop per DC, synchronized in
//! conservative cross-DC windows.
//!
//! ## Why a simulator
//!
//! The paper's evaluation ran on a 64-machine cluster; its headline result is
//! a *resource contention* effect: the readers check that buys CC-LO its
//! latency-"optimal" ROTs inflates the CPU demand of PUTs, driving up server
//! utilization, queueing delays and ultimately ROT latency — even in
//! read-heavy workloads. Reproducing that requires a substrate in which
//! servers have finite processing capacity and messages queue. This crate
//! provides exactly that:
//!
//! * every **server** is a queueing station with a configurable number of
//!   worker threads; each message has a service time derived from an
//!   explicit, calibrated [`cost::CostModel`] (per-message RX/TX CPU,
//!   per-byte marshalling, per-ROT-id readers-check work, …);
//! * every **link** has a per-hop latency plus per-byte wire time and
//!   delivers FIFO;
//! * **clients** are closed-loop and effectively infinitely parallel (client
//!   machines were not the bottleneck in the paper either).
//!
//! The protocols themselves are *not* simulated — they are the real state
//! machines from `contrarian-core`/`-cclo`/`-cure`/`-okapi`, exchanging
//! real messages with real bookkeeping (reader records, dependency
//! vectors, garbage collection). Only CPU time and the network are
//! modeled. The same state machines also run on the live TCP runtime
//! (`contrarian-net`); both drive the [`Actor`]
//! interface owned by `contrarian-runtime`, of which this crate re-exports
//! the commonly used pieces.
//!
//! ## The engine
//!
//! [`Sim`] is a set of [`shard`]s — event loops, each owning its nodes'
//! calendar queue, backlog slab, and the FIFO state of the links
//! originating at its nodes. Two engines share the one event-processing
//! code path ([`sched::SchedKind`]; every run takes the default, and the
//! engine tests select each of [`ENGINES`] in-process):
//!
//! * `sharded` (default) — one shard per DC, run in parallel under
//!   conservative windows; a one-DC cluster is one shard on the plain
//!   single-loop path;
//! * `calendar` — one shard, the hierarchical calendar queue of
//!   [`sched`]: the serial reference the engine tests replay against.
//!
//! [`Sim::window_stats`] reports what each shard did: window rounds,
//! events, cross-shard messages, and its busy and barrier-wait host time.
//!
//! ### Windows on one bound
//!
//! The classic conservative window: the inter-DC latency `L`
//! ([`cost::CostModel::interdc_latency_ns`]) lower-bounds the arrival
//! delta of any message one shard can send another (sender CPU, per-byte
//! wire time and FIFO clamping only push arrivals later). Each round the
//! driver computes shard `j`'s *horizon* ([`sim::horizon`])
//!
//! ```text
//! min(  min over i≠j of next_t[i] + L,    (incoming chains)
//!       next_t[j] + 2L  )                 (bounce-backs)
//! ```
//!
//! — the earliest instant *any* pending event anywhere, including `j`'s
//! own (whose sends can provoke replies), could still get a message to
//! `j`; a relay through further DCs only adds hops of at least `L`. Events
//! strictly before the horizon run concurrently, the caller running one
//! shard and a scoped thread each other busy one; a shard takes in what
//! its peers send while it runs, through a bounded inbox, and shards
//! synchronize at the barrier, where whatever is still in flight is
//! delivered (the engine asserts none lands inside its destination's
//! just-run window). With `L = 0` (free links) no window opens, and the
//! driver runs one globally minimal event at a time — sequential, still
//! exact.
//!
//! ### Why determinism holds
//!
//! Runs are bit-identical across both engines (serial or parallel windows)
//! because nothing order-dependent is shared between shards:
//!
//! * events are totally ordered by `(t, source-attributed key)` — the tie
//!   break is a per-*node* counter plus the node id, not a global
//!   insertion counter, so it is a function of each node's own execution
//!   sequence (see [`shard`] for the induction);
//! * every node draws randomness from its own seeded stream (the same
//!   `node_seed` derivation the TCP runtime uses);
//! * metrics merge commutatively, and history records carry canonical
//!   `(t, node, per-node-seq)` tags merged shard-independently
//!   (`contrarian_runtime::history`).
//!
//! The cross-engine determinism tests fingerprint full histories across
//! both engines against golden values, the virtual-identity pins and the
//! conformance battery run every entry of [`ENGINES`], and `sim_scale`
//! measures the engines at fixed, identical workloads.

// A deterministic crate (the rest of the rule is in the root clippy.toml).
#![warn(clippy::iter_over_hash_type)]

pub mod sched;
pub mod shard;
pub mod sim;

// The protocol ⇄ runtime interface lives in `contrarian-runtime`; re-export
// it under the historical paths so `contrarian_sim::actor::ActorCtx` etc.
// keep working for downstream users.
pub use contrarian_runtime::{actor, cost, metrics, testkit};

pub use contrarian_runtime::{
    Actor, ActorCtx, CostModel, Histogram, Metrics, SimMessage, TimerKind,
};
pub use sched::{QueueStats, SchedKind, ENGINES};
pub use shard::WindowStats;
pub use sim::{MetricsMut, Sim};
