//! The `CONTRARIAN_*` environment-variable registry.
//!
//! Every env knob the stack reads is *declared* here — name constant,
//! one-line contract — and read through [`var`]. This is the only file
//! allowed to introduce a `CONTRARIAN_` string literal: `contrarian-lint`'s
//! `env-registry` rule checks that every such literal elsewhere (call
//! sites, tests, panic messages) starts with a name registered below, so
//! a typo'd knob (`CONTRARIAN_SCALLE=smoke`) is a build failure instead of
//! a silent fallback to the default.
//!
//! The full table, with value grammars, is documented in the top-level
//! README ("Environment knobs").

/// Experiment scale for the harness scenarios and benches: `smoke`,
/// `quick` (default), `paper`, `large`, `xlarge`; any other value is an
/// error. Parsed by `contrarian_harness::Scale`.
pub const SCALE: &str = "CONTRARIAN_SCALE";

/// Every registered knob, with a short contract — the machine-readable
/// side of the README table.
pub const REGISTERED: &[(&str, &str)] = &[(
    SCALE,
    "experiment scale: smoke | quick (default) | paper | large | xlarge",
)];

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
    fn registry_holds_exactly_the_scale_knob() {
        let names: Vec<&str> = REGISTERED.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, [SCALE]);
    }

    #[test]
    fn var_reads_registered_names() {
        // Reads the process environment as it is, set or unset.
        assert_eq!(var(SCALE).as_deref(), std::env::var(SCALE).ok().as_deref());
    }

    #[test]
    #[should_panic(expected = "unregistered env var")]
    #[cfg(debug_assertions)]
    fn var_rejects_unregistered_names() {
        let _ = var("CONTRARIAN_NOT_A_KNOB");
    }
}
