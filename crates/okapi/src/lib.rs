//! **Okapi-style backend** (after Didona, Spirovska, Zwaenepoel,
//! *Okapi: Causally Consistent Geo-Replication Made Faster, Cheaper and
//! More Available*, 2017) — the fourth backend, and the recipe for a
//! snapshot backend at its shortest: a ten-line
//! [`Flavor`](contrarian_core::server::Flavor) plus a
//! [`contrarian_protocol::ProtocolSpec`]. The server
//! ([`SnapshotServer`](contrarian_core::server::SnapshotServer)),
//! messages, client, node dispatcher, builders, stabilization plumbing and
//! timer loop all come from `contrarian-core` and the protocol kernel.
//!
//! What makes the design Okapi-like, adapted to this workspace's system
//! model:
//!
//! * **Hybrid logical clocks** timestamp versions (like Contrarian, unlike
//!   Cure): PUTs never block on clock skew, and an idle partition's clock
//!   keeps advancing so stabilization stays fresh;
//! * **scalar stable-time snapshots**: where Contrarian proposes a full
//!   per-DC snapshot *vector* (fresh remote entries straight from the GSS),
//!   an Okapi-style ROT reads at the **universal stable time** — the
//!   *minimum* entry of the stabilized vector, applied uniformly to every
//!   remote DC ([`contrarian_types::DepVector::min_entry`]). The metadata a
//!   snapshot needs collapses from `M` entries to one scalar, which is
//!   Okapi's economy; the price is staler remote reads (visibility waits
//!   for the *slowest* DC), which is exactly the freshness-for-metadata
//!   trade the paper's taxonomy predicts;
//! * **2-round ROTs**: the client fetches the snapshot, then reads under
//!   it ([`normalize`](contrarian_protocol::ProtocolSpec::normalize) pins
//!   [`contrarian_types::RotMode::TwoRound`]).
//!
//! Session guarantees still hold: the snapshot joins the client's observed
//! GSS, so a session never reads below what it already saw, and
//! read-your-writes follows from the PUT path timestamping past the
//! client's causal past (same HLC argument as Contrarian).
//!
//! Because the backend is just another [`contrarian_protocol::ProtocolSpec`], the generic
//! builders stand it up on both runtimes — the discrete-event simulator
//! and real TCP sockets (`contrarian-net`) — and the shared conformance
//! suite runs unchanged.

// A deterministic crate (the rest of the rule is in the root clippy.toml).
#![warn(clippy::iter_over_hash_type)]

pub mod server;
pub mod spec;

pub use server::Server;
pub use spec::Okapi;

/// Okapi reuses Contrarian's wire protocol (message set) — the snapshot
/// *contents* differ, not the message shapes.
pub use contrarian_core::msg::Msg;

/// Okapi reuses Contrarian's client session, pinned to 2-round ROTs by
/// [`Okapi`].
pub use contrarian_core::{Client, SnapshotSession};

/// Shared timer kinds (re-exported from the protocol kernel).
pub use contrarian_protocol::timers;

/// One Okapi node: the universal-stable-time server, or the standard
/// client pinned to 2-round ROTs.
pub type Node = contrarian_protocol::Node<Server, Client>;
