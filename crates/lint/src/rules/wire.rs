//! Rule `wire-codec`: every enum that crosses the wire is declared with
//! `wire_enum!`.
//!
//! `contrarian_types::wire_enum!` derives an enum's `Wire` impl from its
//! declaration — a variant's tag is its index in declaration order — so the
//! encode and decode sides cannot drift apart. A hand-written
//! `impl Wire for <Enum>`, where `<Enum>` is declared in the same crate,
//! gives that up and is a diagnostic. Struct impls (ids, the handshake,
//! test payloads) carry no tags and pass.

use crate::policy::crate_key;
use crate::scan::find_word;
use crate::{Diagnostic, SourceFile};
use std::collections::BTreeSet;

/// The leading identifier of `s`, if any.
fn ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// Every enum declared in the workspace, as `(crate key, name)`.
pub fn collect_enums(files: &[SourceFile]) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    for file in files {
        for line in &file.lines {
            if let Some(pos) = find_word(&line.code, "enum") {
                let name = ident(line.code[pos + 4..].trim_start());
                if !name.is_empty() {
                    out.insert((crate_key(&file.rel), name.to_string()));
                }
            }
        }
    }
    out
}

pub fn check(file: &SourceFile, enums: &BTreeSet<(String, String)>, out: &mut Vec<Diagnostic>) {
    let key = crate_key(&file.rel);
    for (i, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let Some((_, after)) = code.split_once(" Wire for ") else {
            continue;
        };
        let target = ident(after.trim_start());
        let rest = after.trim_start()[target.len()..].trim_start();
        let plain = rest.is_empty() || rest.starts_with('{');
        if find_word(code, "impl").is_some()
            && plain
            && enums.contains(&(key.clone(), target.to_string()))
        {
            out.push(Diagnostic {
                file: file.rel.clone(),
                line: i + 1,
                rule: "wire-codec",
                msg: format!(
                    "hand-written `impl Wire for` the enum `{target}`: declare `{target}` with \
                     `wire_enum!` so its tags follow declaration order"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let fs: Vec<SourceFile> = files
            .iter()
            .map(|(rel, src)| SourceFile::new(rel.to_string(), src))
            .collect();
        let enums = collect_enums(&fs);
        let mut out = Vec::new();
        for f in &fs {
            check(f, &enums, &mut out);
        }
        out
    }

    const ENUM: &str = "pub enum Msg { A, B }\n";
    const IMPL: &str = "impl Wire for Msg {\n    fn encode(&self, out: &mut Vec<u8>) {}\n}\n";

    #[test]
    fn a_same_crate_enum_impl_is_caught_on_its_header_line() {
        let out = run(&[("crates/core/src/msg.rs", &format!("{ENUM}{IMPL}"))]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 2);
        assert!(out[0].msg.contains("declare `Msg` with `wire_enum!`"));
    }

    #[test]
    fn struct_generic_and_other_crate_targets_pass() {
        let out = run(&[
            ("crates/cclo/src/msg.rs", ENUM),
            ("crates/core/src/msg.rs", IMPL),
            (
                "crates/types/src/codec.rs",
                "pub struct Msg;\nimpl Wire for Msg {}\nimpl<T: Wire> Wire for Option<T> {}\n",
            ),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }
}
