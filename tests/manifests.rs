//! Dead declarations in the workspace's manifests. CI's `cargo clippy
//! --workspace --lib -- -D unused_crate_dependencies` catches a
//! `[dependencies]` entry the library never uses; this test catches what
//! rustc cannot see: a `[dev-dependencies]` key that no source of its
//! package names, and a `[workspace.dependencies]` key no package declares.

use std::fs;
use std::path::Path;

/// The keys under `[table]` in a manifest's text.
fn keys(manifest: &str, table: &str) -> Vec<String> {
    let Some((_, body)) = manifest.split_once(&format!("[{table}]")) else {
        return Vec::new();
    };
    let lines = body.split("\n[").next().unwrap().lines();
    let keys = lines.filter_map(|l| Some(l.split_once(['=', '.'])?.0.trim()));
    keys.filter(|k| !k.starts_with('#'))
        .map(String::from)
        .collect()
}

/// Every `.rs` file under `dir`, concatenated.
fn sources(dir: &Path) -> String {
    let paths = fs::read_dir(dir).into_iter().flatten().flatten();
    let read = |p: &Path| match p.extension() {
        _ if p.is_dir() => sources(p),
        Some(e) if e == "rs" => fs::read_to_string(p).unwrap(),
        _ => String::new(),
    };
    paths.map(|e| read(&e.path())).collect()
}

#[test]
fn every_declared_dependency_is_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let workspace = fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let (_, members) = workspace.split_once("\nmembers = [").unwrap();
    let members = members.split_once(']').unwrap().0.split('"').skip(1);
    let mut declared = Vec::new();
    for dir in std::iter::once(".").chain(members.step_by(2)) {
        let manifest = fs::read_to_string(root.join(dir).join("Cargo.toml")).unwrap();
        let targets = ["src", "tests", "examples", "benches"];
        let src: String = targets.map(|t| sources(&root.join(dir).join(t))).concat();
        for key in keys(&manifest, "dev-dependencies") {
            // Named as a path root or in a `use`, as a whole word.
            let krate = key.replace('-', "_");
            let named = src.match_indices(&krate).any(|(i, _)| {
                !src[..i].ends_with(|c: char| c.is_alphanumeric() || c == '_')
                    && (src[i + krate.len()..].starts_with("::") || src[..i].ends_with("use "))
            });
            assert!(named, "{dir}: dev-dependency `{key}` is never named");
        }
        declared.extend(keys(&manifest, "dependencies"));
        declared.extend(keys(&manifest, "dev-dependencies"));
    }
    assert!(declared.len() > 30, "read too few manifests: {declared:?}");
    for key in keys(&workspace, "workspace.dependencies") {
        assert!(declared.contains(&key), "`{key}` is declared by no package");
    }
}
