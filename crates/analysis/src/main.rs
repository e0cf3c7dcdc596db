//! CLI for the workspace invariant checker.
//!
//! ```text
//! analysis check [--root <path>]
//! ```
//!
//! `check` runs every lint and exits non-zero if any finding survives the
//! per-site suppressions.

#![forbid(unsafe_code)]

use analysis::{check_workspace, default_root, Config, LINTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["check"] => default_root(),
        ["check", "--root", path] => path.into(),
        _ => {
            eprintln!("usage: analysis check [--root <path>]");
            return ExitCode::from(2);
        }
    };
    let cfg = Config::workspace(root);
    let findings = match check_workspace(&cfg) {
        Ok(findings) => findings,
        Err(err) => {
            eprintln!("error: failed to scan {}: {err}", cfg.root.display());
            return ExitCode::from(2);
        }
    };
    for finding in &findings {
        println!("{finding}");
    }
    if findings.is_empty() {
        println!("analysis: workspace clean ({} lints)", LINTS.len());
        ExitCode::SUCCESS
    } else {
        println!("analysis: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
