//! The `CONTRARIAN_*` environment-variable registry.
//!
//! Every env knob the stack reads is *declared* here — name constant,
//! one-line contract — and read through [`var`]. This is the only file
//! allowed to introduce a `CONTRARIAN_` string literal: `contrarian-lint`'s
//! `env-registry` rule checks that every such literal elsewhere (call
//! sites, tests, panic messages) starts with a name registered below, so
//! a typo'd knob (`CONTRARIAN_SHED=heap`) is a build failure instead of a
//! silent fallback that compares an engine against itself.
//!
//! The full table, with value grammars, is documented in the top-level
//! README ("Environment knobs").

/// Simulator event-loop engine: `heap`, `calendar` (default), `sharded`,
/// or `sharded:<count>`. Parsed by `contrarian_sim::SchedKind`.
pub const SCHED: &str = "CONTRARIAN_SCHED";

/// Worker threads for the sharded simulator's window barriers (default:
/// available parallelism). Thread count never changes results — only
/// wall-clock speed.
pub const SHARD_THREADS: &str = "CONTRARIAN_SHARD_THREADS";

/// Reactor pool size (default: available parallelism). Parsed by the
/// reactor's pool sizing.
pub const NET_THREADS: &str = "CONTRARIAN_NET_THREADS";

/// Experiment scale for the harness scenarios and benches: `smoke`,
/// `quick` (default), `paper`, `large`, `xlarge`; any other value is an
/// error. Parsed by `contrarian_harness::Scale`.
pub const SCALE: &str = "CONTRARIAN_SCALE";

/// Per-node trace-ring capacity in events (default 65536, zero clamps
/// to 1; anything but an integer panics). Parsed by
/// `crate::trace::parse_trace_cap`.
pub const TRACE_CAP: &str = "CONTRARIAN_TRACE_CAP";

/// Every registered knob, with a short contract — the machine-readable
/// side of the README table.
pub const REGISTERED: &[(&str, &str)] = &[
    (
        SCHED,
        "simulator engine: heap | calendar (default) | sharded[:<count>]",
    ),
    (
        SHARD_THREADS,
        "sharded-engine worker threads (positive integer; default: cores)",
    ),
    (
        NET_THREADS,
        "reactor pool size (positive integer; default: cores)",
    ),
    (
        SCALE,
        "experiment scale: smoke | quick (default) | paper | large | xlarge",
    ),
    (
        TRACE_CAP,
        "per-node trace ring capacity in events (default 65536)",
    ),
];

/// Reads a registered variable. Panics (in debug builds) on a name that
/// isn't in [`REGISTERED`] — call sites must go through the constants
/// above.
pub fn var(name: &str) -> Option<String> {
    debug_assert!(
        REGISTERED.iter().any(|(n, _)| *n == name),
        "unregistered env var `{name}` — add it to contrarian_runtime::env"
    );
    std::env::var(name).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_unique_sorted_and_prefixed() {
        for (name, doc) in REGISTERED {
            assert!(name.starts_with("CONTRARIAN_"), "{name}");
            assert!(!doc.is_empty());
        }
        let mut names: Vec<&str> = REGISTERED.iter().map(|(n, _)| *n).collect();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate registry entries");
    }

    #[test]
    fn var_reads_registered_names() {
        // Unset in the test environment: must be None, not a panic.
        assert_eq!(
            var(TRACE_CAP).as_deref(),
            std::env::var(TRACE_CAP).ok().as_deref()
        );
    }

    #[test]
    #[should_panic(expected = "unregistered env var")]
    #[cfg(debug_assertions)]
    fn var_rejects_unregistered_names() {
        let _ = var("CONTRARIAN_NOT_A_KNOB");
    }
}
