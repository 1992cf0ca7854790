//! A deterministic discrete-event cluster simulator with a queueing cost
//! model — sharded: one event loop per DC group, synchronized in
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
//! modeled. The same state machines also run on the live runtimes
//! (`contrarian-transport`, `contrarian-net`); all drive the [`Actor`]
//! interface owned by `contrarian-runtime`, of which this crate re-exports
//! the commonly used pieces.
//!
//! ## The engine
//!
//! [`Sim`] is a set of [`shard`]s — per-DC-group event loops, each owning
//! its nodes' calendar queue, backlog slab, and the FIFO state of the
//! links originating at its nodes. Three engine modes share the one
//! event-processing code path ([`sched::SchedKind`], selectable with
//! `CONTRARIAN_SCHED` through [`SchedKind::from_env`]):
//!
//! * `calendar` (default) — one shard, the hierarchical calendar queue of
//!   [`sched`];
//! * `heap` — one shard on the original global binary heap, kept as a
//!   differential baseline;
//! * `sharded` / `sharded:<n>` — one shard per DC (or `n` shards, DCs
//!   assigned round-robin), optionally split further into partition-range
//!   groups per DC (the `groups` of [`SchedKind::Sharded`]), run in
//!   parallel under conservative per-link windows.
//!
//! ### Windows and the lookahead invariant
//!
//! Every shard owns a *group* of nodes — a whole DC by default, or a
//! contiguous partition/client range of one DC when `groups` is above 1.
//! A [`cost::LookaheadMatrix`] entry `L(i, j)`
//! lower-bounds the arrival delta of any message shard `i` can send
//! shard `j`: the minimum link latency between their DC sets (sender
//! CPU, per-byte wire time and FIFO clamping only push arrivals later),
//! metric-closed (Floyd–Warshall, min-plus) so a relay through a cheap
//! intermediate link never undercuts a direct entry. Each round the
//! driver computes shard `j`'s *horizon*
//!
//! ```text
//! min over i≠j of   next_t[i] + L(i, j)            (incoming chains)
//!                   next_t[j] + L(j, i) + L(i, j)  (bounce-backs)
//! ```
//!
//! — the earliest instant *any* pending event anywhere, including `j`'s
//! own (whose sends can provoke replies), could still get a message to
//! `j`. Events strictly before the horizon run concurrently; shards
//! synchronize at the barrier, where parked cross-shard messages are
//! exchanged (the engine asserts none lands inside its destination's
//! just-run window). Pairwise bounds mean two groups of the same DC
//! window against the intra-DC hop while racing a transcontinental peer
//! by up to the inter-DC latency — a single scalar lookahead would gate
//! every pair on the smallest edge in the whole topology.
//!
//! Set `groups` above 1 when a run has few DCs but many
//! partitions per DC (the saturated 256-partition tiers): it multiplies
//! the schedulable shard count so the window rounds can occupy more
//! cores. The scalar mode ([`sim::Lookahead::Scalar`], the uniform-matrix
//! special case over [`CostModel::cross_dc_lookahead`]) keeps shards
//! DC-granular — a same-DC cross-group message arrives after only a hop,
//! inside any window sized by the inter-DC latency — so group counts are
//! forced to 1 there. A zero minimum off-diagonal entry (free links)
//! means no usable window exists at all, and the engine degenerates to
//! lockstep execution — one globally minimal event at a time, sequential,
//! still exact.
//!
//! ### Why determinism holds
//!
//! Runs are bit-identical across all three modes (and any shard or thread
//! count) because nothing order-dependent is shared between shards:
//!
//! * events are totally ordered by `(t, source-attributed key)` — the tie
//!   break is a per-*node* counter plus the node id, not a global
//!   insertion counter, so it is a function of each node's own execution
//!   sequence (see [`shard`] for the induction);
//! * every node draws randomness from its own seeded stream (the same
//!   `node_seed` derivation the live runtimes use);
//! * metrics merge commutatively, and history records carry canonical
//!   `(t, node, per-node-seq)` tags merged shard-independently
//!   (`contrarian_runtime::history`).
//!
//! The cross-engine determinism tests fingerprint full histories across
//! all engine modes (and shard-group counts) against golden values, the
//! virtual-identity pins and the conformance battery run every entry of
//! [`ENGINES`], and `sim_scale` measures the engine speedups at fixed,
//! identical workloads.

pub mod sched;
pub mod shard;
pub mod sim;

// The protocol ⇄ runtime interface lives in `contrarian-runtime`; re-export
// it under the historical paths so `contrarian_sim::actor::ActorCtx` etc.
// keep working for downstream users.
pub use contrarian_runtime::{actor, cost, metrics, testkit};

pub use contrarian_runtime::cost::LookaheadMatrix;
pub use contrarian_runtime::{
    Actor, ActorCtx, CostModel, Histogram, Metrics, SimMessage, TimerKind,
};
pub use sched::{QueueStats, SchedKind, ENGINES};
pub use sim::{Lookahead, Sim};
