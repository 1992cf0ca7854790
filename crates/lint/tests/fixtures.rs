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

const GOOD_WIRE: &str = "pub enum Msg {\n\
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
     \x20   fn decode(buf: &mut &[u8]) -> Option<Self> {\n\
     \x20       Some(match u8::decode(buf)? {\n\
     \x20           0 => Msg::Ping { n: u64::decode(buf)? },\n\
     \x20           1 => Msg::Pong,\n\
     \x20           _ => return None,\n\
     \x20       })\n\
     \x20   }\n\
     }\n";

#[test]
fn wire_codec_accepts_a_consistent_impl() {
    let diags = check(&[("crates/core/src/msg.rs", GOOD_WIRE)]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn wire_codec_catches_a_tag_gap() {
    // Pong encodes as 2, skipping 1: the tag space is no longer dense, so
    // the next variant added silently collides or drifts.
    let gapped = GOOD_WIRE
        .replace("out.push(1)", "out.push(2)")
        .replace("1 => Msg::Pong,", "2 => Msg::Pong,");
    let diags = check(&[("crates/core/src/msg.rs", &gapped)]);
    assert_eq!(rules_of(&diags), vec!["wire-codec"], "{diags:?}");
    assert!(diags[0].msg.contains("dense"), "{diags:?}");
}

#[test]
fn wire_codec_catches_a_variant_missing_from_decode() {
    let missing = GOOD_WIRE.replace("\x20           1 => Msg::Pong,\n", "");
    let diags = check(&[("crates/core/src/msg.rs", &missing)]);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "wire-codec" && d.msg.contains("Pong") && d.msg.contains("decode")),
        "{diags:?}"
    );
}

#[test]
fn wire_codec_catches_encode_decode_tag_drift() {
    // Same tags on both sides but assigned to different variants.
    let drifted = GOOD_WIRE
        .replace(
            "0 => Msg::Ping { n: u64::decode(buf)? },",
            "1 => Msg::Ping { n: u64::decode(buf)? },",
        )
        .replace("1 => Msg::Pong,", "0 => Msg::Pong,");
    let diags = check(&[("crates/core/src/msg.rs", &drifted)]);
    assert!(diags.iter().any(|d| d.rule == "wire-codec"), "{diags:?}");
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
        "crates/transport/src/bad.rs",
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
        "crates/transport/src/ok.rs",
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
    for name in ["SHED", "SHARD_GROUPS", "NET", "NET_POLLER"] {
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
            "fn f() { let v = std::env::var(\"CONTRARIAN_SCHED\"); }\n",
        ),
    ]);
    assert!(diags.is_empty(), "{diags:?}");
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
