//! The `contrarian-lint` binary: scans the workspace, prints every
//! violation as `file:line: [rule] message`, and exits nonzero if any
//! survive. Run from anywhere inside the repo:
//!
//! ```text
//! cargo run --release -p contrarian-lint          # check the workspace
//! cargo run --release -p contrarian-lint -- PATH  # explicit root
//! ```

use contrarian_lint::{find_root, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = match std::env::args().nth(1) {
        Some(p) => PathBuf::from(p),
        None => {
            let cwd = std::env::current_dir().expect("cwd");
            match find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "contrarian-lint: no workspace Cargo.toml above {}",
                        cwd.display()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("contrarian-lint: failed to load {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let diags = ws.check();
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!(
            "contrarian-lint: {} files and {} manifests clean ({})",
            ws.files.len(),
            ws.manifests.len(),
            contrarian_lint::RULES.join(", ")
        );
        ExitCode::SUCCESS
    } else {
        println!("contrarian-lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}
