//! The lint configuration that enforces the workspace invariants.
//!
//! Determinism, bounded queues and unsafe hygiene are clippy and rustc
//! lints (README, "Workspace invariants"): the root `clippy.toml` bans the
//! methods a deterministic crate may not call, the OS-facing packages keep
//! only the channel ban in a `clippy.toml` of their own, and the workspace
//! lint table covers unsafe code. Clippy only enforces what that
//! configuration says, so a crate that stops inheriting it, a
//! `clippy.toml` that shadows the root's or a blanket allow silently turns
//! a rule off. These tests guard that structure; the root ban list lives
//! only in `clippy.toml`.

use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose runs must be a pure function of `(config, seed)`.
const DETERMINISTIC: [&str; 11] = [
    "types", "clock", "storage", "runtime", "sim", "workload", "protocol", "core", "cclo", "cure",
    "okapi",
];

/// Packages that talk to the OS by design, each with its own `clippy.toml`
/// (the shims share one).
const OS_FACING: [&str; 4] = ["net", "harness", "bench", "shims"];

const CHANNEL_BAN: &str = "std::sync::mpsc::channel";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: impl AsRef<Path>) -> String {
    let path = root().join(path);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `path = "…"` entries of a `clippy.toml`'s `disallowed-methods`.
fn banned(clippy_toml: &str) -> Vec<String> {
    let list = clippy_toml.split_once("disallowed-methods = [").unwrap().1;
    let list = list.split_once("\n]").unwrap().0;
    list.split("path = \"")
        .skip(1)
        .map(|s| s.split_once('"').unwrap().0.to_string())
        .collect()
}

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            out.extend(rust_files(&p));
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    out
}

/// The workspace's own sources: every crate, the root package's library,
/// tests and examples.
fn workspace_sources() -> Vec<PathBuf> {
    ["crates", "src", "tests", "examples"]
        .iter()
        .flat_map(|d| rust_files(&root().join(d)))
        .collect()
}

/// Each lint attribute (`#[allow(…)]`, `#[expect(…)]` or an inner
/// `#![…]`) in `src` that names one of `lints`: its text, its line and
/// whether it is an inner (file- or crate-wide) attribute.
fn lint_attributes<'a>(src: &'a str, lints: &[&str]) -> Vec<(&'a str, usize, bool)> {
    let mut found = Vec::new();
    // Spelled in pieces so that this file holds no attribute to find.
    for (hash, level) in [
        ("#", "allow("),
        ("#", "expect("),
        ("#!", "allow("),
        ("#!", "expect("),
    ] {
        let open = [hash, "[", level].concat();
        for (i, _) in src.match_indices(&open) {
            let body = &src[i..];
            let end = body.find(")]").expect("an unterminated attribute");
            let attr = &body[..end + 2];
            if lints.iter().any(|l| attr.contains(l)) {
                let line = src[..i].lines().count() + 1;
                found.push((attr, line, hash == "#!"));
            }
        }
    }
    found
}

const DETERMINISM_LINTS: [&str; 2] = ["clippy::disallowed_methods", "clippy::iter_over_hash_type"];

#[test]
fn every_package_inherits_the_workspace_lint_table() {
    let workspace = read("Cargo.toml");
    let (_, members) = workspace.split_once("\nmembers = [").unwrap();
    let members = members
        .split_once(']')
        .unwrap()
        .0
        .split('"')
        .skip(1)
        .step_by(2);
    let mut n = 0;
    for dir in std::iter::once(".").chain(members) {
        let manifest = read(Path::new(dir).join("Cargo.toml"));
        let lints = manifest.split_once("\n[lints]\n").map(|(_, t)| t);
        assert!(
            lints.is_some_and(|t| t.trim_start().starts_with("workspace = true")),
            "{dir}: no `[lints] workspace = true`"
        );
        n += 1;
    }
    assert_eq!(n, 18, "the root package and 17 members");
}

#[test]
fn each_deterministic_crate_denies_hash_order_for_loops() {
    for krate in DETERMINISTIC {
        let lib = read(format!("crates/{krate}/src/lib.rs"));
        assert!(
            lib.contains("#![warn(clippy::iter_over_hash_type)]"),
            "crates/{krate}: `for` loops over a hash table are unchecked"
        );
    }
}

#[test]
fn deterministic_crates_answer_to_the_root_clippy_toml() {
    // Clippy reads the nearest clippy.toml above a package, so one next to
    // a deterministic crate would replace the root's bans for it.
    for krate in DETERMINISTIC {
        let own = root().join(format!("crates/{krate}/clippy.toml"));
        assert!(!own.exists(), "{} overrides the root", own.display());
    }
    assert!(!root().join("crates/clippy.toml").exists());
}

#[test]
fn os_facing_packages_keep_only_the_channel_ban() {
    for dir in OS_FACING {
        let config = read(format!("crates/{dir}/clippy.toml"));
        assert_eq!(banned(&config), [CHANNEL_BAN], "crates/{dir}/clippy.toml");
    }
}

#[test]
fn unsafe_code_must_state_its_invariants() {
    let workspace = read("Cargo.toml");
    let (rust, clippy) = workspace
        .split_once("[workspace.lints.rust]")
        .unwrap()
        .1
        .split_once("[workspace.lints.clippy]")
        .unwrap();
    let clippy = clippy.split("\n[").next().unwrap();
    assert!(rust.contains("unsafe_op_in_unsafe_fn = \"deny\""));
    assert!(clippy.contains("undocumented_unsafe_blocks = \"warn\""));
}

#[test]
fn every_determinism_exemption_gives_its_reason() {
    let mut n = 0;
    for path in workspace_sources() {
        let src = fs::read_to_string(&path).unwrap();
        for (attr, line, _) in lint_attributes(&src, &DETERMINISM_LINTS) {
            assert!(
                attr.contains("reason = \""),
                "{}:{line}: an exemption without a reason",
                path.display()
            );
            n += 1;
        }
    }
    assert!(n >= 13, "found only {n} exemptions: is the search blind?");
}

#[test]
fn no_deterministic_crate_exempts_non_test_code_wholesale() {
    for krate in DETERMINISTIC {
        for path in rust_files(&root().join(format!("crates/{krate}/src"))) {
            let src = fs::read_to_string(&path).unwrap();
            for (attr, line, inner) in lint_attributes(&src, &DETERMINISM_LINTS) {
                let at = format!("{}:{line}", path.display());
                assert!(!inner, "{at}: a file-wide exemption");
                // A lasting `allow` only on a test module; any other site
                // takes an `expect`, which fails once it goes stale.
                if attr.starts_with("#[allow(") {
                    let before = src.lines().nth(line - 2).unwrap_or("");
                    assert_eq!(
                        before.trim(),
                        "#[cfg(test)]",
                        "{at}: `allow` off a test module"
                    );
                }
            }
        }
    }
}

#[test]
fn the_comment_escape_hatch_is_gone() {
    // Comments of the form `lint` + `:allow(rule)` were the old line
    // checker's exemptions; clippy ignores them, so one left behind
    // exempts nothing.
    let marker = ["lint", ":allow("].concat();
    for path in workspace_sources() {
        let src = fs::read_to_string(&path).unwrap();
        assert!(!src.contains(&marker), "{}", path.display());
    }
}

#[test]
fn ci_runs_both_clippy_gates() {
    let ci = read(".github/workflows/ci.yml");
    for step in [
        "cargo clippy --workspace --all-targets -- -D warnings",
        "cargo clippy --workspace --lib -- -D unused_crate_dependencies",
    ] {
        assert!(ci.contains(step), "CI no longer runs `{step}`");
    }
}
