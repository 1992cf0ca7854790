//! Multi-version key-value storage engine.
//!
//! Each partition owns one [`MvStore`]: a lazily materialized map from key
//! to a [`Chain`] of versions, totally ordered by [`contrarian_types::VersionId`] (timestamp,
//! origin DC) — the last-writer-wins convergence order of Section 2.2. The
//! map is a 16-byte key index over an append-only slab of chains.
//!
//! The per-version metadata type `M` is protocol specific:
//! * Contrarian/Cure store a dependency vector `DV` per version;
//! * CC-LO stores the *old-reader record* per version (the set of ROT ids
//!   that must not observe the version).
//!
//! A key written once — most keys of a large data set — costs its index
//! entry and its slab slot and nothing else: a chain of one version is
//! stored in the slot and only the second version moves the chain's
//! versions to a vector (see [`Chain`]).
//!
//! Superseded versions are retained for a configurable window so that
//! slightly stale snapshot reads (and CC-LO's "most recent version before
//! time t" rule) can still be served, then garbage collected.

pub mod chain;
pub mod store;

pub use chain::{Chain, Version};
pub use store::MvStore;
