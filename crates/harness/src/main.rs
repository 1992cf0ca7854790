//! `contrarian-harness <scenario> [args]`: runs one experiment scenario
//! (see `contrarian_harness::scenarios`), writing its artifacts under
//! `results/`. No argument lists the scenarios.

use contrarian_harness::scenarios::{exit_code, run_cli};
use contrarian_harness::Scale;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = Path::new("results");
    let result = std::fs::create_dir_all(out)
        .and_then(|()| run_cli(&args, std::env::var(Scale::ENV).ok().as_deref(), out));
    if let Err(e) = &result {
        eprintln!("contrarian-harness: {e}");
    }
    ExitCode::from(exit_code(&result))
}
