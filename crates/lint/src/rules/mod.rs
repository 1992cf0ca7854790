//! The rule families. Each module exposes a `check` that appends
//! [`Diagnostic`](crate::Diagnostic)s for one file; cross-file context
//! (enum definitions, the env registry) is collected up front by the
//! engine and passed in. `deps` is the exception: it checks manifests,
//! once per workspace.

pub mod deps;
pub mod determinism;
pub mod envreg;
pub mod queues;
pub mod unsafe_hygiene;
pub mod wire;
