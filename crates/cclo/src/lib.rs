//! **CC-LO** — the COPS-SNOW "latency-optimal" design (Lu et al., OSDI 2016),
//! as characterized in Section 3 of the paper.
//!
//! ROTs are *one round, one version, nonblocking*: a client sends one message
//! to each involved partition and gets one version back, always. The price is
//! paid by PUTs:
//!
//! * every partition tracks, per key, the **readers** of the current version
//!   (ROT id + logical read time);
//! * a PUT turns the current readers of the written key into **old readers**;
//! * before a PUT becomes visible, the partition runs the **readers check**:
//!   it queries every partition holding one of the PUT's dependencies for old
//!   readers of those keys, and merges the returned ROT ids into the new
//!   version's old-reader record;
//! * a ROT finding its id in a version's old-reader record must not see that
//!   version: it gets the most recent version older than its recorded read
//!   time instead.
//!
//! Geo-replication performs a combined *dependency check* (wait until the
//! dependencies are installed) and readers check in every remote DC before
//! installing a replicated update, so the write-side overhead grows linearly
//! with the number of DCs (Section 5.4).
//!
//! This implementation includes both optimizations of the paper's improved
//! CC-LO (Section 5.2): ROT ids are garbage-collected 500 ms after insertion,
//! and a readers-check response carries at most one ROT id per client (its
//! most recent — safe because clients issue one operation at a time).
//!
//! This crate contains only the CC-LO server, client session, messages and
//! reader records; the client operation loop, node dispatcher, cluster
//! builders and timer loop come from [`contrarian_protocol`] (see
//! [`CcLo`], this backend's [`contrarian_protocol::ProtocolSpec`]).

// A deterministic crate (the rest of the rule is in the root clippy.toml).
#![warn(clippy::iter_over_hash_type)]

pub mod client;
pub mod msg;
pub mod records;
pub mod server;
pub mod spec;

pub use client::DepSession;
pub use msg::Msg;
pub use records::{
    BlockRecord, CurrentReader, CurrentReaders, Reader, ReaderEntry, ReaderSet, RotFloor, Stamp,
};
pub use server::Server;
pub use spec::CcLo;

/// Shared timer kinds (re-exported from the protocol kernel).
pub use contrarian_protocol::timers;

/// A CC-LO client: the generic operation loop over this backend's
/// session.
pub type Client = contrarian_protocol::Client<DepSession>;

/// One CC-LO node (the generic kernel actor instantiated with this
/// backend's server and client session).
pub type Node = contrarian_protocol::Node<Server, Client>;

/// Metrics counter names (readers-check statistics, Figure 6).
pub mod stats {
    /// Readers checks performed (local PUTs).
    pub const CHECKS: &str = "cclo.checks";
    /// Dependency keys examined across checks.
    pub const CHECK_KEYS: &str = "cclo.check_keys";
    /// Remote partitions contacted across checks.
    pub const CHECK_PARTITIONS: &str = "cclo.check_partitions";
    /// ROT ids received across checks (cumulative, with duplicates).
    pub const CHECK_IDS_CUM: &str = "cclo.check_ids_cum";
    /// Distinct ROT ids received across checks.
    pub const CHECK_IDS_DISTINCT: &str = "cclo.check_ids_distinct";
    /// Bytes of readers-check responses.
    pub const CHECK_BYTES: &str = "cclo.check_bytes";
    /// Readers checks performed for replicated updates (remote DCs).
    pub const REPL_CHECKS: &str = "cclo.repl_checks";
    /// Reader-record entries walked by the periodic GC sweeps (kept +
    /// dropped): the resident size of the reader bookkeeping over time.
    pub const READER_ENTRIES_SWEPT: &str = "cclo.reader_entries_swept";
    /// ROT ids *stored* in the old-reader records sealed into installed
    /// versions (local PUTs and replicated updates). Sealing drops every
    /// ROT that can no longer read, so a record stores at most one id per
    /// client, fewer than the readers check returned (`CHECK_IDS_CUM`).
    pub const BLOCK_RECORD_IDS: &str = "cclo.block_record_ids";
}
