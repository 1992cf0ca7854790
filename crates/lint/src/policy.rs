//! The per-crate policy table: which invariants apply where.
//!
//! The workspace splits into two worlds. *Deterministic* crates are the
//! ones whose behavior must be a pure function of `(config, seed)` — the
//! protocol kernel, the backends, the simulator, storage, and the shared
//! types/runtime substrate. Calendar and sharded runs are
//! bit-identical only because nothing in these crates reads the wall
//! clock, the OS entropy pool, or iterates a randomized hash table into
//! an order that can leak into a history. *OS-facing* crates (the TCP
//! runtime, the harness, benches) exist to touch the
//! real world and are exempt from the determinism rule — but not from
//! unsafe hygiene, wire-codec, bounded queues, or the env registry.
//!
//! Two files inside deterministic crates are explicitly OS-facing (the
//! runtime's waitable history sink and the conformance battery's TCP
//! half); they are listed as overrides rather than moved, because the
//! crate split is about dependency layering, not about this rule.

/// How the determinism rule treats a file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileClass {
    /// Behavior must be a pure function of (config, seed): wall-clock,
    /// OS entropy, and hash-order iteration are forbidden.
    Deterministic,
    /// Talks to the real world; determinism rule does not apply.
    OsFacing,
}

/// The workspace policy: crate classes, per-file overrides, and the
/// locations the env-registry rule is anchored to.
pub struct Policy {
    /// Top-level crate directories (under `crates/`) whose sources are
    /// deterministic.
    deterministic_crates: Vec<&'static str>,
    /// Repo-relative paths inside deterministic crates that are OS-facing
    /// anyway (live-cluster plumbing).
    os_facing_files: Vec<&'static str>,
    /// The env-var registry module: the one file allowed to *define*
    /// `CONTRARIAN_*` names.
    pub registry_file: String,
    /// Paths exempt from the env-registry rule (the lint's own fixtures
    /// embed deliberately-unregistered names as test data).
    envreg_exempt: Vec<&'static str>,
}

impl Policy {
    /// The real workspace table. Documented in the top-level README.
    pub fn workspace() -> Policy {
        Policy {
            deterministic_crates: vec![
                "types", "clock", "storage", "runtime", "sim", "workload", "protocol", "core",
                "cclo", "cure", "okapi",
            ],
            os_facing_files: vec![
                // The conformance battery's TCP half sleeps wall-clock time
                // waiting for real sockets to drain.
                "crates/protocol/src/conformance.rs",
                // The Condvar-backed history sink's waiters run on OS
                // threads against real deadlines.
                "crates/runtime/src/history.rs",
            ],
            registry_file: "crates/runtime/src/env.rs".to_string(),
            // The lint's own sources and fixtures embed `CONTRARIAN_*`
            // fragments as rule machinery and deliberately-bad test data.
            envreg_exempt: vec!["crates/lint/"],
        }
    }

    /// Classifies a repo-relative path for the determinism rule.
    ///
    /// Integration tests, benches, and examples are OS-facing even in
    /// deterministic crates: a test may legitimately race a wall-clock
    /// deadline against a live cluster. (`#[cfg(test)]` modules inside
    /// deterministic sources are handled separately, by the rule itself.)
    pub fn classify(&self, rel: &str) -> FileClass {
        if self.os_facing_files.contains(&rel) {
            return FileClass::OsFacing;
        }
        if rel.contains("/tests/") || rel.contains("/benches/") || rel.contains("/examples/") {
            return FileClass::OsFacing;
        }
        match crate_dir(rel) {
            Some(c) if self.deterministic_crates.contains(&c) => FileClass::Deterministic,
            _ => FileClass::OsFacing,
        }
    }

    /// Whether the env-registry rule skips this file.
    pub fn envreg_exempt(&self, rel: &str) -> bool {
        rel == self.registry_file || self.envreg_exempt.iter().any(|p| rel.starts_with(p))
    }
}

/// The `crates/<dir>` component of a repo-relative path, if any.
pub fn crate_dir(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// The crate key used to resolve enum definitions: `crates/<dir>` for
/// crate members, `""` for the facade package at the repo root.
pub fn crate_key(rel: &str) -> String {
    match crate_dir(rel) {
        Some(c) => format!("crates/{c}"),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_crates_and_overrides() {
        let p = Policy::workspace();
        assert_eq!(
            p.classify("crates/types/src/codec.rs"),
            FileClass::Deterministic
        );
        assert_eq!(p.classify("crates/net/src/reactor.rs"), FileClass::OsFacing);
        assert_eq!(
            p.classify("crates/protocol/src/conformance.rs"),
            FileClass::OsFacing
        );
        assert_eq!(
            p.classify("crates/protocol/src/node.rs"),
            FileClass::Deterministic
        );
        assert_eq!(
            p.classify("crates/core/tests/net_smoke.rs"),
            FileClass::OsFacing
        );
        assert_eq!(p.classify("src/lib.rs"), FileClass::OsFacing);
    }

    #[test]
    fn crate_keys() {
        assert_eq!(crate_key("crates/core/src/msg.rs"), "crates/core");
        assert_eq!(crate_key("src/lib.rs"), "");
        assert_eq!(crate_key("tests/integration.rs"), "");
    }
}
