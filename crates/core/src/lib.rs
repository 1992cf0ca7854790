//! **Contrarian** — the paper's contribution (Section 4).
//!
//! A causally consistent, partitioned, multi-master geo-replicated key-value
//! store whose read-only transactions are *almost* latency-optimal:
//!
//! * **nonblocking** — partitions use [Hybrid Logical Clocks]; a partition
//!   simply moves its clock forward to the snapshot timestamp of an incoming
//!   ROT instead of waiting for physical time (Cure) and never waits for
//!   remote updates (the snapshot's remote entries come from the Global
//!   Stable Snapshot, which only covers installed updates);
//! * **one-version** — partitions return exactly the freshest version inside
//!   the snapshot proposed by the coordinator;
//! * **1½ rounds** — three communication steps (client → coordinator →
//!   partitions → client, Figure 3a) instead of the classical four; a
//!   2-round mode (Figure 3b) trades latency for fewer messages and ~8%
//!   higher peak throughput. The half round given up relative to COPS-SNOW
//!   is the whole point: it buys PUTs that carry only an M-entry vector and
//!   trigger **no readers check**.
//!
//! Causality is tracked with per-DC dependency vectors (`DV`); each DC runs
//! a stabilization protocol every few milliseconds that aggregates partition
//! version vectors into the Global Stable Snapshot (`GSS`), the vector of
//! remote prefixes fully installed in the DC. A remote version becomes
//! visible once `DV ≤ GSS`.
//!
//! This crate contains the Contrarian server, client session and messages;
//! the client operation loop, node dispatcher, cluster builders,
//! stabilization plumbing and timer loop all come from
//! [`contrarian_protocol`] (see [`Contrarian`], this backend's
//! [`contrarian_protocol::ProtocolSpec`]). The server is
//! [`server::SnapshotServer`], generic over a [`server::Flavor`] — a clock
//! and a stable-time shape — so that Cure and Okapi are the same server
//! with another flavor, not copies of it.
//!
//! [Hybrid Logical Clocks]: contrarian_clock::Hlc

// A deterministic crate (the rest of the rule is in the root clippy.toml).
#![warn(clippy::iter_over_hash_type)]

pub mod client;
pub mod msg;
pub mod server;
pub mod spec;

pub use client::SnapshotSession;
pub use msg::Msg;
pub use server::Server;
pub use spec::Contrarian;

/// Shared timer kinds (re-exported from the protocol kernel).
pub use contrarian_protocol::timers;

/// A Contrarian client: the generic operation loop over this backend's
/// session.
pub type Client = contrarian_protocol::Client<SnapshotSession>;

/// One Contrarian node (the generic kernel actor instantiated with this
/// backend's server and client session).
pub type Node = contrarian_protocol::Node<Server, Client>;
