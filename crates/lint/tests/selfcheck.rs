//! The tier-1 gate: the real workspace must lint clean.
//!
//! CI also runs the `contrarian-lint` binary directly (for the artifact on
//! failure), but this test makes `cargo test` alone sufficient to catch a
//! violation — no workflow wiring required, and no way to forget the gate
//! when running the suite locally.

use contrarian_lint::{find_root, Workspace};
use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_root(manifest).expect("workspace root above crates/lint");
    let ws = Workspace::load(&root).expect("readable workspace sources");
    assert!(
        ws.files.len() > 50,
        "suspiciously few files ({}) — is the walk rooted correctly?",
        ws.files.len()
    );
    // The dead-dependency rule reads the root and every member manifest;
    // none loaded would pass it vacuously.
    assert!(
        ws.manifests.iter().any(|m| m.rel == "Cargo.toml")
            && ws.manifests.len() > 10
            && ws
                .manifests
                .iter()
                .all(|m| !m.rel.starts_with("benchmark/")),
        "unexpected manifest set: {:?}",
        ws.manifests.iter().map(|m| &m.rel).collect::<Vec<_>>()
    );
    let diags = ws.check();
    assert!(
        diags.is_empty(),
        "workspace has lint violations:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
