//! Clocks for the three protocol families.
//!
//! * [`LogicalClock`] — Lamport clocks, used by CC-LO (COPS-SNOW) to
//!   timestamp versions and reads.
//! * [`PhysicalClockModel`] — a simulated physical clock with a bounded
//!   offset from true time, used by Cure; physical clocks cannot be moved
//!   forward on demand, which is exactly what makes Cure's ROTs blocking.
//! * [`Hlc`] — Hybrid Logical Clocks (Kulkarni et al., OPODIS 2014), used by
//!   Contrarian: they advance with physical time (fresh snapshots, live
//!   stabilization) *and* can be moved forward to match an incoming snapshot
//!   timestamp (nonblocking ROTs). Section 4 of the paper.

// A deterministic crate (the rest of the rule is in the root clippy.toml).
#![warn(clippy::iter_over_hash_type)]

pub mod hlc;
pub mod logical;
pub mod physical;

pub use hlc::Hlc;
pub use logical::LogicalClock;
pub use physical::PhysicalClockModel;
