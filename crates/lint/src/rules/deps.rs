//! Rule `dead-dependency`: every dependency a member manifest declares
//! is named by some `.rs` file of that package.
//!
//! A dependency no source names still costs a build edge, a lockfile
//! entry and a reader's time, and it keeps a crate that should be deleted
//! looking used. The rule reads the member manifests the engine loaded
//! (`crates/**/Cargo.toml` and the root package's) and checks every key
//! under `[dependencies]` and `[dev-dependencies]`: some code line of the
//! package must write `key::` or `use key`, with `-` read as `_`.
//! Comments and string literals do not count. A package's sources are the `.rs` files under
//! its `src/`, `tests/`, `examples/` and `benches/` directories, plus
//! `build.rs`: cargo's own target layout.
//!
//! One level up, every key of the root manifest's
//! `[workspace.dependencies]` must be declared by some loaded manifest, so
//! a deleted crate does not linger in the root table.

use crate::{scan, Diagnostic, SourceFile};

const RULE: &str = "dead-dependency";

/// The manifest tables whose keys are the package's dependencies.
const TABLES: &[&str] = &["dependencies", "dev-dependencies"];

/// The directories, under a package root, cargo discovers targets in.
const TARGET_DIRS: &[&str] = &["src/", "tests/", "examples/", "benches/"];

/// A loaded `Cargo.toml`: repo-relative path and text.
pub struct Manifest {
    pub rel: String,
    pub text: String,
}

/// The dependency keys a manifest declares, with 1-based line numbers.
pub fn dependency_keys(text: &str) -> Vec<(usize, String)> {
    table_keys(text, TABLES)
}

/// The keys under any of `tables` in a manifest, with 1-based line numbers.
fn table_keys(text: &str, tables: &[&str]) -> Vec<(usize, String)> {
    let mut keys = Vec::new();
    let mut in_table = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[') {
            in_table = tables.contains(&header.trim_end_matches(']').trim());
            continue;
        }
        if !in_table {
            continue;
        }
        let key = line.split(['=', '.']).next().unwrap_or("").trim();
        if !key.is_empty() {
            keys.push((idx + 1, key.to_string()));
        }
    }
    keys
}

/// Whether `rel` is a source file of the package rooted at `dir` (`""`
/// for the root package, `crates/x/` for a member).
fn belongs(rel: &str, dir: &str) -> bool {
    rel.strip_prefix(dir)
        .is_some_and(|rest| rest == "build.rs" || TARGET_DIRS.iter().any(|d| rest.starts_with(d)))
}

/// Whether `code` names crate `krate` as a path root (`krate::`) or in a
/// `use` declaration (`use krate`).
fn names(code: &str, krate: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = scan::find_word(&code[from..], krate) {
        let at = from + pos;
        from = at + krate.len();
        let last_word = code[..at]
            .trim_end()
            .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
            .next();
        if code[from..].starts_with("::") || last_word == Some("use") {
            return true;
        }
    }
    false
}

pub fn check(manifests: &[Manifest], files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    for manifest in manifests {
        let dir = manifest.rel.strip_suffix("Cargo.toml").unwrap_or("");
        let sources: Vec<&SourceFile> = files.iter().filter(|f| belongs(&f.rel, dir)).collect();
        for (line, key) in dependency_keys(&manifest.text) {
            let krate = key.replace('-', "_");
            let named = sources
                .iter()
                .any(|f| f.lines.iter().any(|l| names(&l.code, &krate)));
            if !named {
                out.push(Diagnostic {
                    file: manifest.rel.clone(),
                    line,
                    rule: RULE,
                    msg: format!(
                        "dependency `{key}` is never named (`{krate}::` or `use {krate}`) \
                         in this package's sources — remove it"
                    ),
                });
            }
        }
    }
    let declared: Vec<String> = manifests
        .iter()
        .flat_map(|m| dependency_keys(&m.text))
        .map(|(_, key)| key)
        .collect();
    for root in manifests.iter().filter(|m| m.rel == "Cargo.toml") {
        for (line, key) in table_keys(&root.text, &["workspace.dependencies"]) {
            if !declared.contains(&key) {
                out.push(Diagnostic {
                    file: root.rel.clone(),
                    line,
                    rule: RULE,
                    msg: format!(
                        "workspace dependency `{key}` is declared by no manifest — remove it"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_keys_from_both_tables_only() {
        let keys = dependency_keys(
            "[package]\nname = \"x\"\n\n[dependencies]\na-b.workspace = true\n\
             rand = { package = \"rand-shim\", path = \"p\" } # shim\n\n\
             [dev-dependencies]\nproptest.workspace = true\n\n\
             [workspace.dependencies]\nd = \"1\"\n",
        );
        let names: Vec<(usize, &str)> = keys.iter().map(|(l, k)| (*l, k.as_str())).collect();
        assert_eq!(names, vec![(5, "a-b"), (6, "rand"), (9, "proptest")]);
    }

    #[test]
    fn workspace_keys_come_from_the_workspace_table_only() {
        let text = "[workspace]\nmembers = [\"a\"]\n\n[workspace.dependencies]\n\
                    a = { path = \"crates/a\" }\nb.path = \"crates/b\"\n\n\
                    [dependencies]\nc.workspace = true\n";
        let keys = table_keys(text, &["workspace.dependencies"]);
        let names: Vec<(usize, &str)> = keys.iter().map(|(l, k)| (*l, k.as_str())).collect();
        assert_eq!(names, vec![(5, "a"), (6, "b")]);
    }

    #[test]
    fn a_name_counts_as_a_path_root_or_a_use() {
        assert!(names("use foo::Bar;", "foo"));
        assert!(names("pub use foo as f;", "foo"));
        assert!(names("let x = ::foo::f();", "foo"));
        assert!(!names("let foo = 1; foo.bar();", "foo"));
        assert!(!names("use my_foo::Bar; reuse foo;", "foo"));
    }

    #[test]
    fn package_sources_follow_cargo_layout() {
        assert!(belongs("crates/net/src/lib.rs", "crates/net/"));
        assert!(belongs("crates/net/tests/t.rs", "crates/net/"));
        assert!(!belongs("crates/network/src/lib.rs", "crates/net/"));
        assert!(belongs("examples/quickstart.rs", ""));
        assert!(!belongs("crates/net/src/lib.rs", ""));
        assert!(!belongs("benchmark/src/main.rs", ""));
    }
}
