//! YCSB-style workload generation (Table 1 of the paper).
//!
//! Workloads are parameterized by:
//!
//! * **w** — write/read ratio, `w = #PUT / (#PUT + #reads)`, where a ROT of
//!   `k` keys counts as `k` reads (values 0.01 / 0.05 / 0.1);
//! * **p** — ROT size: number of partitions spanned, one key read per
//!   partition (4 / 8 / 24);
//! * **b** — value size in bytes (8 / 128 / 2048); keys are 8 bytes;
//! * **z** — zipfian skew of key popularity *within* a partition
//!   (0 / 0.8 / 0.99).
//!
//! Two load models share those knobs:
//!
//! * **Closed-loop** (the paper's experiments): each client issues its next
//!   operation as soon as the previous one completes; load is varied by
//!   the number of clients.
//! * **Open-loop** ([`openloop`], saturation experiments): every logical
//!   session is an independent Poisson arrival process; millions of
//!   sessions are multiplexed onto a bounded pool of driver actors, and
//!   latency clocks start at the *scheduled* arrival time so driver
//!   queueing delay is measured instead of omitted (no coordinated
//!   omission). Load is varied by the offered rate ([`OpenLoopSpec`]).

// A deterministic crate (the rest of the rule is in the root clippy.toml).
#![warn(clippy::iter_over_hash_type)]

pub mod driver;
pub mod openloop;
pub mod source;
pub mod spec;
pub mod zipf;

pub use driver::ClientDriver;
pub use openloop::OpenLoopDriver;
pub use source::{Draw, OpSource};
pub use spec::{OpenLoopSpec, WorkloadSpec};
pub use zipf::Zipf;
