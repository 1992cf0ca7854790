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

/// Simulator event-loop engine: `calendar` (default) or `sharded` (one
/// event loop per DC). Parsed by `contrarian_sim::SchedKind`.
pub const SCHED: &str = "CONTRARIAN_SCHED";

/// Worker threads for the sharded simulator's window barriers (default:
/// available parallelism). Thread count never changes results — only
/// wall-clock speed. Parsed by [`parse_threads`].
pub const SHARD_THREADS: &str = "CONTRARIAN_SHARD_THREADS";

/// Reactor pool size (default: available parallelism). Parsed by
/// [`parse_threads`].
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
    (SCHED, "simulator engine: calendar (default) | sharded"),
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

/// Parses a thread-count knob ([`SHARD_THREADS`], [`NET_THREADS`]): unset
/// is the machine's available parallelism, anything but a positive integer
/// is an error naming the knob and the value.
pub fn parse_threads(name: &str, value: Option<&str>) -> Result<usize, String> {
    match value {
        // lint:allow(determinism): pool-size default only; a thread count changes wall-clock speed, never a produced history
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
        Some(v) => v
            .parse()
            .ok()
            .filter(|&n: &usize| n > 0)
            .ok_or_else(|| format!("{name} must be a positive integer, got `{v}`")),
    }
}

/// Reads a thread-count knob; a malformed value is a hard error (see
/// [`parse_threads`]).
pub fn threads(name: &str) -> usize {
    parse_threads(name, var(name).as_deref()).unwrap_or_else(|e| panic!("{e}"))
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
    fn thread_counts_default_to_the_machine_and_reject_non_positive_values() {
        assert!(parse_threads(SHARD_THREADS, None).unwrap() >= 1);
        assert_eq!(parse_threads(NET_THREADS, Some("3")), Ok(3));
        for bad in ["0", "x"] {
            let err = parse_threads(SHARD_THREADS, Some(bad)).unwrap_err();
            assert!(err.contains(SHARD_THREADS), "{err}");
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "unregistered env var")]
    #[cfg(debug_assertions)]
    fn var_rejects_unregistered_names() {
        let _ = var("CONTRARIAN_NOT_A_KNOB");
    }
}
