//! **Cure** (Akkoorath et al., ICDCS 2016) — the classical coordinator-based
//! causally consistent design on **physical clocks**, adapted to the paper's
//! API (Section 5.2 modifies Cure the same way).
//!
//! Cure is the baseline Contrarian improves on in Figure 4. It shares the
//! whole vector machinery (dependency vectors, GSS stabilization,
//! multi-master replication) and even this workspace's client implementation
//! (`contrarian-core`'s client in 2-round mode); what differs is the server's
//! clock:
//!
//! * snapshot and version timestamps come from a *physical* clock, which
//!   cannot be moved forward on demand;
//! * a partition asked to read at snapshot time `t` while its clock is
//!   behind `t` must **block** until its clock catches up — this is how NTP
//!   skew turns into ROT latency (≈3× at low load in the paper);
//! * a PUT whose client has observed a timestamp ahead of the partition's
//!   clock blocks the same way;
//! * ROTs always take 2 rounds (4 communication steps).
//!
//! This crate contains no server of its own: [`Server`] is
//! `contrarian-core`'s [`SnapshotServer`](contrarian_core::server::SnapshotServer)
//! with Cure's flavor plugged in — [`server::PhysClock`], the clock that
//! makes requests wait, over the same GSS-vector stable time as Contrarian.
//! Handlers, the client, messages, the parked-request queue, stabilization
//! and the timer loop all come from `contrarian-core` and
//! [`contrarian_protocol`] (see [`Cure`], this backend's flavor and
//! [`contrarian_protocol::ProtocolSpec`]).

// A deterministic crate (the rest of the rule is in the root clippy.toml).
#![warn(clippy::iter_over_hash_type)]

pub mod server;
pub mod spec;

pub use server::Server;
pub use spec::Cure;

/// Cure reuses Contrarian's wire protocol (the paper implements all systems
/// in one code base); only the server-side behaviour differs.
pub use contrarian_core::msg::Msg;

/// Cure reuses Contrarian's client session, pinned to 2-round ROTs by
/// [`Cure`].
pub use contrarian_core::{Client, SnapshotSession};

/// Shared timer kinds (re-exported from the protocol kernel).
pub use contrarian_protocol::timers;

/// One Cure node: a blocking physical-clock server, or the standard client
/// pinned to 2-round ROTs.
pub type Node = contrarian_protocol::Node<Server, Client>;
