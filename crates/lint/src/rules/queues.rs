//! Rule `bounded-queues`: no unbounded channel constructors, anywhere.
//!
//! Every queue in the stack is bounded by design — the reactor's
//! per-connection rings (a full one pauses its node), the simulator's
//! cross-shard inboxes, the driver pools — so that overload turns into
//! backpressure instead of silent memory growth and
//! coordinated-omission-style latency lies. An unbounded constructor
//! anywhere re-opens that hole. The cross-shard inboxes are
//! `std::sync::mpsc::sync_channel`s; this rule keeps
//! `std::sync::mpsc::channel()` and any `unbounded` constructor out.

use crate::{Diagnostic, SourceFile};

const RULE: &str = "bounded-queues";

/// Substring patterns for unbounded constructors. A pattern only matches
/// as a *call*: the character before it must not extend an identifier
/// (`resize_unbounded(` is someone else's name, not a constructor), and
/// patterns not ending in `(` must be followed by a call paren.
const PATTERNS: &[(&str, &str)] = &[
    ("unbounded(", "unbounded channel constructor"),
    ("unbounded_channel", "unbounded channel constructor"),
    ("mpsc::channel(", "std::sync::mpsc::channel() is unbounded"),
    (
        "Vec::with_capacity(usize::MAX",
        "effectively unbounded buffer",
    ),
];

fn matches(code: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(pat) {
        let at = from + pos;
        from = at + pat.len();
        let before_ok = !code[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &code[at + pat.len()..];
        let after_ok =
            pat.ends_with('(') || pat.ends_with("MAX") || after.trim_start().starts_with('(');
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (idx, line) in file.lines.iter().enumerate() {
        for (pat, what) in PATTERNS {
            if matches(&line.code, pat) {
                out.push(Diagnostic {
                    file: file.rel.clone(),
                    line: idx + 1,
                    rule: RULE,
                    msg: format!(
                        "{what} — use a bounded queue (`mpsc::sync_channel`) so \
                         overload becomes backpressure"
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
    fn unbounded_constructors_are_flagged() {
        let f = SourceFile::new(
            "crates/net/src/x.rs".to_string(),
            "let (tx, rx) = channel::unbounded();\nlet (a, b) = std::sync::mpsc::channel();\n",
        );
        let mut out = Vec::new();
        check(&f, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn bounded_is_fine() {
        let f = SourceFile::new(
            "crates/net/src/x.rs".to_string(),
            "let (tx, rx) = channel::bounded(64);\nlet (a, b) = mpsc::sync_channel(8);\n// an unbounded( mention in prose is fine\n",
        );
        let mut out = Vec::new();
        check(&f, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn identifiers_containing_a_pattern_are_not_calls() {
        let f = SourceFile::new(
            "crates/net/src/x.rs".to_string(),
            "fn unbounded_channels_are_caught() {}\nlet x = resize_unbounded(3);\n",
        );
        let mut out = Vec::new();
        check(&f, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
