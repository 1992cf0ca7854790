//! Common types shared by every crate in the Contrarian workspace.
//!
//! This crate defines the vocabulary of the system model of Didona et al.,
//! *Causal Consistency and Latency Optimality: Friend or Foe?* (VLDB 2018):
//! a multi-version key-value store sharded over `N` partitions, each
//! replicated at `M` data centers (DCs) in a multi-master fashion, accessed
//! by clients issuing `PUT`s and causally consistent read-only transactions
//! (`ROT`s).
//!
//! Nothing in here is protocol specific; the three protocol crates
//! (`contrarian-core`, `contrarian-cclo`, `contrarian-cure`) all build on
//! these definitions.

// A deterministic crate (the rest of the rule is in the root clippy.toml).
#![warn(clippy::iter_over_hash_type)]

pub mod codec;
pub mod config;
pub mod error;
pub mod heap;
pub mod history;
pub mod ids;
pub mod intern;
pub mod key;
pub mod op;
pub mod trace;
pub mod value;
pub mod vector;
pub mod version;
pub mod wire;

pub use codec::{CodecError, Wire};
pub use config::{ClusterConfig, RotMode};
pub use error::{Error, Result};
pub use heap::HeapCensus;
pub use history::HistoryEvent;
pub use ids::{Addr, ClientId, DcId, NodeKind, PartitionId, TxId};
pub use intern::Interner;
pub use key::Key;
pub use op::Op;
pub use trace::{TraceEvent, TraceKind};
pub use value::Value;
pub use vector::DepVector;
pub use version::VersionId;
pub use wire::WireSize;

/// The value of the shared genesis version (see [`VersionId::GENESIS`]):
/// the preloaded initial content of every key on a prepopulated platform.
/// A static value: building, cloning and dropping it allocates nothing and
/// touches no reference count.
pub fn genesis_value() -> Value {
    Value::from_static(b"genesis\0")
}
