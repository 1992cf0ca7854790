//! `contrarian-lint`: the workspace invariant checker.
//!
//! Golden-fingerprint tests catch a determinism leak only *after* it
//! ships and only on replayed inputs; this crate rejects the constructs
//! that cause such leaks at build time, together with the other
//! machine-checkable invariants the stack's measurements rest on. Six
//! rule families, the first five scoped by the per-crate [`policy`] table:
//!
//! * **`determinism`** — deterministic crates must not read wall clocks
//!   (`Instant`, `SystemTime`), OS entropy (`thread_rng`), machine shape
//!   (`available_parallelism`), sleep, or iterate `HashMap`/`HashSet` in
//!   hash order.
//! * **`wire-codec`** — no hand-written `impl Wire for` an enum declared
//!   in the same crate: wire enums are declared with `wire_enum!`, whose
//!   tags are declaration order, so encode and decode cannot drift.
//! * **`unsafe-hygiene`** — every `unsafe` block/fn/impl carries a
//!   `// SAFETY:` comment.
//! * **`bounded-queues`** — unbounded channel constructors are forbidden;
//!   backpressure must be structural.
//! * **`env-registry`** — every `CONTRARIAN_*` string literal refers to a
//!   name registered in `contrarian_runtime::env`.
//! * **`dead-dependency`** — every `[dependencies]` / `[dev-dependencies]`
//!   key of a member manifest is named by some source of its package.
//!
//! Escape hatch: `// lint:allow(<rule>): <justification>` on the
//! offending line or the line above suppresses one rule there; the
//! justification is mandatory and checked. A dead dependency has no
//! escape hatch: the fix is always to delete the line.
//!
//! Everything is built on a hand-rolled [`scan`] lexer (offline policy:
//! no `syn`/`proc-macro2`), so the rules are heuristic line checks, not
//! type-checked semantics — precise enough for this workspace's idioms,
//! and cheap enough to run as a tier-1 gate.

pub mod policy;
pub mod rules;
pub mod scan;

use policy::Policy;
use rules::deps::Manifest;
use std::fmt;
use std::path::{Path, PathBuf};

/// The rule identifiers accepted by `lint:allow(...)`.
pub const RULES: &[&str] = &[
    "determinism",
    "wire-codec",
    "unsafe-hygiene",
    "bounded-queues",
    "env-registry",
    "dead-dependency",
];

/// One violation, anchored to a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// A scanned source file plus derived per-line facts.
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub rel: String,
    pub lines: Vec<scan::Line>,
    /// Whether each line sits inside a `#[cfg(test)]` module.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    pub fn new(rel: String, source: &str) -> SourceFile {
        let lines = scan::scan(source);
        let in_test = mark_cfg_test(&lines);
        SourceFile {
            rel,
            lines,
            in_test,
        }
    }
}

/// Marks the line ranges of `#[cfg(test)] mod ... { ... }` blocks.
fn mark_cfg_test(lines: &[scan::Line]) -> Vec<bool> {
    let mut marked = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") {
            // The mod header follows within a few lines (other attributes
            // may sit between).
            for j in i..lines.len().min(i + 4) {
                let code = lines[j].code.trim();
                if scan::has_word(code, "mod") && code.contains('{') {
                    let base = lines[j].depth;
                    marked[j] = true;
                    let mut k = j + 1;
                    while k < lines.len() && lines[k].depth > base {
                        marked[k] = true;
                        k += 1;
                    }
                    i = k;
                    break;
                }
            }
        }
        i += 1;
    }
    marked
}

/// A `lint:allow` annotation parsed from a comment.
struct Allow {
    line: usize, // 0-based
    rule: String,
    justified: bool,
}

/// Parses `lint:allow(rule): justification` annotations, emitting
/// diagnostics for malformed ones (unknown rule, missing justification).
///
/// An annotation must be the *whole* comment (`// lint:allow(...): ...`)
/// — prose that merely mentions the marker (like this crate's docs) is
/// not an annotation.
fn parse_allows(file: &SourceFile, diags: &mut Vec<Diagnostic>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let Some(rest) = line.comment.trim_start().strip_prefix("lint:allow") else {
            continue;
        };
        let mut bad = |msg: String| {
            diags.push(Diagnostic {
                file: file.rel.clone(),
                line: idx + 1,
                rule: "lint-allow",
                msg,
            })
        };
        let Some((rule, after)) = rest.strip_prefix('(').and_then(|open| {
            open.find(')')
                .map(|c| (open[..c].trim().to_string(), &open[c + 1..]))
        }) else {
            bad(
                "malformed lint:allow — expected `lint:allow(<rule>): <justification>`".to_string(),
            );
            continue;
        };
        if !RULES.contains(&rule.as_str()) {
            bad(format!(
                "unknown rule `{rule}` in lint:allow (rules: {})",
                RULES.join(", ")
            ));
        }
        let justified = after
            .strip_prefix(':')
            .is_some_and(|j| !j.trim().is_empty());
        if !justified {
            bad(format!(
                "lint:allow({rule}) requires a justification — `lint:allow({rule}): <why this is safe>`"
            ));
        }
        allows.push(Allow {
            line: idx,
            rule,
            justified,
        });
    }
    allows
}

/// The set of files to check, with the policy that scopes the rules.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    /// The member manifests: the root package's and every
    /// `crates/**/Cargo.toml` (never `benchmark/`, a workspace of its own).
    pub manifests: Vec<Manifest>,
    pub policy: Policy,
}

impl Workspace {
    /// Builds a workspace from in-memory `(repo-relative path, source)`
    /// pairs — the fixture tests' entry point. A path ending in
    /// `Cargo.toml` is a manifest, anything else a Rust source.
    pub fn from_sources(policy: Policy, sources: Vec<(String, String)>) -> Workspace {
        let mut files = Vec::new();
        let mut manifests = Vec::new();
        for (rel, text) in sources {
            if rel.ends_with("Cargo.toml") {
                manifests.push(Manifest { rel, text });
            } else {
                files.push(SourceFile::new(rel, &text));
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Workspace {
            files,
            manifests,
            policy,
        }
    }

    /// Loads every `.rs` file under `root` (skipping `target/` and
    /// `.git/`) and the member manifests, in sorted order for
    /// deterministic output.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut paths: Vec<PathBuf> = Vec::new();
        walk(root, &mut paths)?;
        paths.sort();
        let mut sources = Vec::with_capacity(paths.len());
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let member = rel == "Cargo.toml" || rel.starts_with("crates/");
            if rel.ends_with("Cargo.toml") && !member {
                continue;
            }
            sources.push((rel, std::fs::read_to_string(&path)?));
        }
        Ok(Workspace::from_sources(Policy::workspace(), sources))
    }

    /// Runs every rule over every file and returns the surviving
    /// diagnostics, sorted by `(file, line, rule)`.
    pub fn check(&self) -> Vec<Diagnostic> {
        let enums = rules::wire::collect_enums(&self.files);
        let registered = rules::envreg::registered_names(&self.files, &self.policy);
        let mut out = Vec::new();
        for file in &self.files {
            let mut raw = Vec::new();
            let mut meta = Vec::new(); // lint-allow diagnostics: unsuppressible
            let allows = parse_allows(file, &mut meta);
            rules::determinism::check(file, &self.policy, &mut raw);
            rules::wire::check(file, &enums, &mut raw);
            rules::unsafe_hygiene::check(file, &mut raw);
            rules::queues::check(file, &mut raw);
            rules::envreg::check(file, &self.policy, &registered, &mut raw);
            raw.retain(|d| {
                let idx = d.line - 1;
                !allows.iter().any(|a| {
                    a.justified && a.rule == d.rule && (a.line == idx || a.line + 1 == idx)
                })
            });
            out.extend(raw);
            out.extend(meta);
        }
        rules::deps::check(&self.manifests, &self.files, &mut out);
        out.sort();
        out
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "results" {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
    Ok(())
}

/// Finds the workspace root: walks up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("crates/sim/src/x.rs".to_string(), src)
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let f = file("fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n");
        assert_eq!(f.in_test, vec![false, false, true, true, true, false]);
    }

    #[test]
    fn allow_parsing_flags_missing_justification_and_unknown_rules() {
        let mut diags = Vec::new();
        let f = file("// lint:allow(determinism): per-run seed only\n// lint:allow(determinism)\n// lint:allow(bogus): x\n");
        let allows = parse_allows(&f, &mut diags);
        assert_eq!(allows.len(), 3);
        assert!(allows[0].justified);
        assert!(!allows[1].justified);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].msg.contains("justification"));
        assert!(diags[1].msg.contains("unknown rule"));
    }
}
