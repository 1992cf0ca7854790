//! Rule `env-registry`: every `CONTRARIAN_*` string literal must name a
//! variable registered in `contrarian_runtime::env` (the registry file
//! named by the policy).
//!
//! Env knobs used to be scattered string literals; a typo'd name
//! (`CONTRARIAN_SHED=heap`) silently fell back to the default and
//! "compared" an engine against itself. The registry module is the
//! single place a name may be *introduced*; everywhere else — code,
//! tests, panic messages — a `CONTRARIAN_…` literal must start with a
//! registered name. Literals in comments are ignored.

use crate::policy::Policy;
use crate::{Diagnostic, SourceFile};
use std::collections::BTreeSet;

const RULE: &str = "env-registry";
const PREFIX: &str = "CONTRARIAN_";

/// Collects the registered names: string literals in the registry file
/// that are exactly a `CONTRARIAN_*` identifier.
pub fn registered_names(files: &[crate::SourceFile], policy: &Policy) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for file in files {
        if file.rel != policy.registry_file {
            continue;
        }
        for line in &file.lines {
            for s in &line.strings {
                if s.starts_with(PREFIX) && is_env_name(s) {
                    names.insert(s.clone());
                }
            }
        }
    }
    names
}

fn is_env_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

pub fn check(
    file: &SourceFile,
    policy: &Policy,
    registered: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    if policy.envreg_exempt(&file.rel) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        for s in &line.strings {
            let Some(rest) = s.strip_prefix(PREFIX) else {
                continue;
            };
            // The leading `CONTRARIAN_<NAME>` run: literals may be whole
            // names (`env::var` arguments) or messages starting with one
            // (panic text).
            let name_len: usize = rest
                .chars()
                .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                .map(|c| c.len_utf8())
                .sum();
            let name = format!("{PREFIX}{}", &rest[..name_len]);
            if !registered.contains(&name) {
                out.push(Diagnostic {
                    file: file.rel.clone(),
                    line: idx + 1,
                    rule: RULE,
                    msg: format!(
                        "`{name}` is not a registered env var — add it to {} (and the README \
                         table) or fix the name",
                        policy.registry_file
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;

    #[test]
    fn unregistered_names_are_flagged_registered_pass() {
        let ws = Workspace::from_sources(
            Policy::workspace(),
            vec![
                (
                    "crates/runtime/src/env.rs".to_string(),
                    "pub const SCALE: &str = \"CONTRARIAN_SCALE\";\n".to_string(),
                ),
                (
                    "crates/sim/src/a.rs".to_string(),
                    "let v = std::env::var(\"CONTRARIAN_SCALE\");\n\
                     panic!(\"CONTRARIAN_SCALE must be set\");\n\
                     let w = std::env::var(\"CONTRARIAN_SHED\");\n"
                        .to_string(),
                ),
            ],
        );
        let diags = ws.check();
        let env: Vec<_> = diags.iter().filter(|d| d.rule == "env-registry").collect();
        assert_eq!(env.len(), 1, "{env:?}");
        assert!(env[0].msg.contains("CONTRARIAN_SHED"));
    }
}
