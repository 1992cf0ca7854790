//! Fixture battery: every rule family must catch a seeded violation and
//! stay quiet on the compliant twin. These tests pin the lint's contract
//! the same way golden histories pin the engines' — if a refactor of the
//! scanner or a rule loosens detection, a fixture here goes red before a
//! real regression slips into the workspace.

use contrarian_lint::policy::Policy;
use contrarian_lint::{Diagnostic, Workspace};

/// Runs the real workspace policy over in-memory fixture files.
fn check(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let sources = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect();
    Workspace::from_sources(Policy::workspace(), sources).check()
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---------------------------------------------------------------- determinism

#[test]
fn determinism_catches_wall_clock_entropy_and_sleep() {
    let diags = check(&[(
        "crates/sim/src/bad.rs",
        "fn f() {\n\
         \x20   let t = Instant::now();\n\
         \x20   let r = rand::thread_rng();\n\
         \x20   std::thread::sleep(d);\n\
         \x20   let n = std::thread::available_parallelism();\n\
         }\n",
    )]);
    assert_eq!(rules_of(&diags), vec!["determinism"; 4], "{diags:?}");
    assert_eq!(
        diags.iter().map(|d| d.line).collect::<Vec<_>>(),
        vec![2, 3, 4, 5]
    );
}

#[test]
fn determinism_catches_hash_order_iteration() {
    let diags = check(&[(
        "crates/protocol/src/bad.rs",
        "use std::collections::HashMap;\n\
         struct S { map: HashMap<u32, u32> }\n\
         impl S {\n\
         \x20   fn leak(&self) -> Vec<u32> {\n\
         \x20       self.map.keys().copied().collect()\n\
         \x20   }\n\
         \x20   fn fine(&self) -> Option<&u32> {\n\
         \x20       self.map.get(&1)\n\
         \x20   }\n\
         }\n",
    )]);
    assert_eq!(rules_of(&diags), vec!["determinism"], "{diags:?}");
    assert_eq!(diags[0].line, 5);
    assert!(diags[0].msg.contains("`map`"));
}

#[test]
fn determinism_ignores_os_facing_files_tests_and_cfg_test_modules() {
    let diags = check(&[
        // OS-facing crate: wall clock is its job.
        (
            "crates/net/src/ok.rs",
            "fn f() { let t = Instant::now(); }\n",
        ),
        // Integration test of a deterministic crate: may race deadlines.
        (
            "crates/sim/tests/ok.rs",
            "fn f() { let t = Instant::now(); }\n",
        ),
        // Unit-test module inside a deterministic source file.
        (
            "crates/sim/src/ok.rs",
            "fn pure() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t() { let t = Instant::now(); }\n\
             }\n",
        ),
    ]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ----------------------------------------------------------------- wire-codec

const WIRE_ENUM: &str = "contrarian_types::wire_enum! {\n\
     \x20   pub enum Msg {\n\
     \x20       Ping { n: u64 },\n\
     \x20       Pong,\n\
     \x20   }\n\
     }\n";

const HAND_WRITTEN: &str = "pub enum Msg {\n\
     \x20   Ping { n: u64 },\n\
     \x20   Pong,\n\
     }\n\
     impl Wire for Msg {\n\
     \x20   fn encode(&self, out: &mut Vec<u8>) {\n\
     \x20       match self {\n\
     \x20           Msg::Ping { n } => {\n\
     \x20               out.push(0);\n\
     \x20               n.encode(out);\n\
     \x20           }\n\
     \x20           Msg::Pong => out.push(1),\n\
     \x20       }\n\
     \x20   }\n\
     \x20   fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {\n\
     \x20       Ok(match r.take(1)?[0] {\n\
     \x20           0 => Msg::Ping { n: u64::decode(r)? },\n\
     \x20           1 => Msg::Pong,\n\
     \x20           tag => return Err(CodecError::BadTag { what: \"Msg\", tag }),\n\
     \x20       })\n\
     \x20   }\n\
     }\n";

#[test]
fn wire_codec_catches_a_hand_written_enum_impl() {
    // Consistent tags do not help: only `wire_enum!` ties them to the
    // declaration, so any hand-written enum codec can drift.
    let diags = check(&[("crates/core/src/msg.rs", HAND_WRITTEN)]);
    assert_eq!(rules_of(&diags), vec!["wire-codec"], "{diags:?}");
    assert_eq!(diags[0].line, 5);
    assert!(diags[0].msg.contains("`wire_enum!`"), "{diags:?}");
}

#[test]
fn wire_codec_accepts_an_enum_declared_with_wire_enum() {
    let diags = check(&[("crates/core/src/msg.rs", WIRE_ENUM)]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn wire_codec_accepts_a_struct_impl() {
    let diags = check(&[(
        "crates/net/src/conn.rs",
        "pub struct Hello {\n\
         \x20   pub id: u32,\n\
         }\n\
         impl Wire for Hello {\n\
         \x20   fn encode(&self, out: &mut Vec<u8>) {\n\
         \x20       self.id.encode(out);\n\
         \x20   }\n\
         }\n",
    )]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn wire_codec_honours_a_justified_allow() {
    let allowed = HAND_WRITTEN.replace(
        "impl Wire for Msg {",
        "// lint:allow(wire-codec): frozen legacy format with sparse tags\nimpl Wire for Msg {",
    );
    let diags = check(&[("crates/core/src/msg.rs", &allowed)]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ------------------------------------------------------------- unsafe-hygiene

#[test]
fn unsafe_without_safety_comment_is_caught_everywhere() {
    // OS-facing crates are not exempt from hygiene.
    let diags = check(&[(
        "crates/net/src/bad.rs",
        "fn f() {\n    let x = unsafe { g() };\n}\n",
    )]);
    assert_eq!(rules_of(&diags), vec!["unsafe-hygiene"], "{diags:?}");
    assert_eq!(diags[0].line, 2);
}

#[test]
fn safety_comment_satisfies_hygiene() {
    let diags = check(&[(
        "crates/net/src/ok.rs",
        "fn f() {\n\
         \x20   // SAFETY: g touches no shared state and the fd is owned here.\n\
         \x20   let x = unsafe { g() };\n\
         }\n",
    )]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ------------------------------------------------------------- bounded-queues

#[test]
fn unbounded_channels_are_caught() {
    let diags = check(&[(
        "crates/net/src/bad.rs",
        "fn f() {\n\
         \x20   let (tx, rx) = crossbeam::channel::unbounded();\n\
         \x20   let (tx2, rx2) = std::sync::mpsc::channel();\n\
         }\n",
    )]);
    assert_eq!(rules_of(&diags), vec!["bounded-queues"; 2], "{diags:?}");
}

#[test]
fn bounded_channels_pass() {
    let diags = check(&[(
        "crates/net/src/ok.rs",
        "fn f() {\n\
         \x20   let (tx, rx) = crossbeam::channel::bounded(1024);\n\
         \x20   let (tx2, rx2) = std::sync::mpsc::sync_channel(64);\n\
         }\n",
    )]);
    assert!(diags.is_empty(), "{diags:?}");
}

// --------------------------------------------------------------- env-registry

/// The real registry module, at the registry path.
const REGISTRY: &str = include_str!("../../runtime/src/env.rs");

#[test]
fn unregistered_env_literal_is_caught() {
    // A typo, then the knobs retired from the registry: bringing one back
    // without registering it fails the lint, and registering one again
    // fails this test.
    for name in [
        "SHED",
        "SHARD_GROUPS",
        "NET",
        "NET_POLLER",
        "SCHED",
        "SHARD_THREADS",
    ] {
        let src = format!("fn f() {{ let v = std::env::var(\"CONTRARIAN_{name}\"); }}\n");
        let diags = check(&[
            ("crates/runtime/src/env.rs", REGISTRY),
            ("crates/sim/src/bad.rs", &src),
        ]);
        assert_eq!(rules_of(&diags), vec!["env-registry"], "{diags:?}");
        let quoted = format!("`CONTRARIAN_{name}`");
        assert!(diags[0].msg.contains(&quoted), "{diags:?}");
    }
}

#[test]
fn registered_env_literal_passes() {
    let diags = check(&[
        ("crates/runtime/src/env.rs", REGISTRY),
        (
            "crates/harness/src/ok.rs",
            "fn f() { let v = std::env::var(\"CONTRARIAN_SCALE\"); }\n",
        ),
    ]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ------------------------------------------------------------ dead-dependency

const NET_MANIFEST: &str = "[package]\n\
     name = \"contrarian-net\"\n\
     \n\
     [dependencies]\n\
     contrarian-types.workspace = true\n\
     crossbeam.workspace = true\n\
     parking_lot.workspace = true\n\
     \n\
     [dev-dependencies]\n\
     proptest.workspace = true\n";

#[test]
fn dependencies_named_by_the_package_pass() {
    let diags = check(&[
        ("crates/net/Cargo.toml", NET_MANIFEST),
        (
            "crates/net/src/lib.rs",
            "use contrarian_types::Addr;\n\
             pub use parking_lot as locks;\n\
             fn f() { let (tx, rx) = crossbeam::channel::bounded::<u8>(1); }\n",
        ),
        // A dev-dependency may be named by an integration test only.
        ("crates/net/tests/props.rs", "use proptest::prelude::*;\n"),
    ]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn a_dependency_no_source_of_the_package_names_is_caught() {
    let diags = check(&[
        ("crates/net/Cargo.toml", NET_MANIFEST),
        (
            "crates/net/src/lib.rs",
            "use contrarian_types::Addr;\n\
             // parking_lot::Mutex is gone; a comment does not count.\n\
             fn f() { let s = \"parking_lot::Mutex\"; }\n\
             fn g() { let (tx, rx) = crossbeam::channel::bounded::<u8>(1); }\n",
        ),
        // Another package naming it does not count either.
        ("crates/workload/src/lib.rs", "use parking_lot::Mutex;\n"),
    ]);
    assert_eq!(rules_of(&diags), vec!["dead-dependency"; 2], "{diags:?}");
    assert_eq!(
        diags
            .iter()
            .map(|d| (d.file.as_str(), d.line))
            .collect::<Vec<_>>(),
        vec![("crates/net/Cargo.toml", 7), ("crates/net/Cargo.toml", 10)]
    );
    assert!(diags[0].msg.contains("`parking_lot`"), "{diags:?}");
    assert!(diags[1].msg.contains("`proptest`"), "{diags:?}");
}

#[test]
fn the_root_package_counts_only_its_own_sources() {
    let root_manifest = "[package]\n\
         name = \"contrarian\"\n\
         \n\
         [dependencies]\n\
         contrarian-net.workspace = true\n\
         bytes.workspace = true\n";
    let diags = check(&[
        ("Cargo.toml", root_manifest),
        // An example is a target of the root package: it names the dep.
        (
            "examples/live_cluster.rs",
            "use contrarian_net::NetCluster;\n",
        ),
        // A member crate under crates/ is not part of the root package.
        ("crates/net/src/lib.rs", "pub use bytes::Bytes;\n"),
    ]);
    assert_eq!(
        diags
            .iter()
            .map(|d| (d.rule, d.file.as_str(), d.line))
            .collect::<Vec<_>>(),
        vec![("dead-dependency", "Cargo.toml", 6)],
        "{diags:?}"
    );
    assert!(diags[0].msg.contains("`bytes`"), "{diags:?}");
}

#[test]
fn a_workspace_dependency_no_manifest_declares_is_caught() {
    let root_manifest = "[workspace]\n\
         members = [\"crates/net\"]\n\
         \n\
         [workspace.dependencies]\n\
         contrarian-net = { path = \"crates/net\" }\n\
         contrarian-bench = { path = \"crates/bench\" }\n\
         rand = { package = \"rand-shim\", path = \"crates/shims/rand\" }\n\
         \n\
         [package]\n\
         name = \"contrarian\"\n\
         \n\
         [dependencies]\n\
         contrarian-net.workspace = true\n";
    let diags = check(&[
        ("Cargo.toml", root_manifest),
        ("src/lib.rs", "pub use contrarian_net as net;\n"),
        // A member's declaration keeps the root's entry alive.
        (
            "crates/net/Cargo.toml",
            "[package]\nname = \"contrarian-net\"\n\n[dependencies]\nrand.workspace = true\n",
        ),
        ("crates/net/src/lib.rs", "use rand::Rng;\n"),
    ]);
    assert_eq!(
        diags
            .iter()
            .map(|d| (d.rule, d.file.as_str(), d.line))
            .collect::<Vec<_>>(),
        vec![("dead-dependency", "Cargo.toml", 6)],
        "{diags:?}"
    );
    assert!(diags[0].msg.contains("`contrarian-bench`"), "{diags:?}");
}

// ----------------------------------------------------------------- lint:allow

#[test]
fn justified_allow_suppresses_on_the_line_and_the_line_above() {
    let diags = check(&[(
        "crates/sim/src/ok.rs",
        "fn f() {\n\
         \x20   // lint:allow(determinism): startup cost probe; never reaches histories\n\
         \x20   let t = Instant::now();\n\
         \x20   let u = SystemTime::now(); // lint:allow(determinism): same probe\n\
         }\n",
    )]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn allow_without_justification_is_rejected_and_does_not_suppress() {
    let diags = check(&[(
        "crates/sim/src/bad.rs",
        "fn f() {\n\
         \x20   // lint:allow(determinism)\n\
         \x20   let t = Instant::now();\n\
         }\n",
    )]);
    // Both the malformed annotation and the violation it failed to cover.
    let mut rules = rules_of(&diags);
    rules.sort_unstable();
    assert_eq!(rules, vec!["determinism", "lint-allow"], "{diags:?}");
}

#[test]
fn allow_for_an_unknown_rule_is_rejected() {
    let diags = check(&[(
        "crates/sim/src/bad.rs",
        "// lint:allow(vibes): trust me\nfn f() {}\n",
    )]);
    assert_eq!(rules_of(&diags), vec!["lint-allow"], "{diags:?}");
    assert!(diags[0].msg.contains("unknown rule"), "{diags:?}");
}

#[test]
fn allow_only_covers_its_named_rule() {
    let diags = check(&[(
        "crates/sim/src/bad.rs",
        "fn f() {\n\
         \x20   // lint:allow(bounded-queues): wrong rule for this line\n\
         \x20   let t = Instant::now();\n\
         }\n",
    )]);
    assert_eq!(rules_of(&diags), vec!["determinism"], "{diags:?}");
}
