//! CLI for the workspace invariant checker.
//!
//! ```text
//! analysis check [--deny-all] [--allow <lint>]… [--root <path>]
//! analysis list
//! ```
//!
//! `check` exits non-zero if any finding survives suppressions; `--allow`
//! disables a lint wholesale (ignored under `--deny-all`, the CI mode);
//! `list` prints the lint names.

#![forbid(unsafe_code)]

use analysis::{check_workspace, default_root, Config, LINTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            for lint in LINTS {
                println!("{lint}");
            }
            ExitCode::SUCCESS
        }
        Some("check") => check(&args[1..]),
        _ => {
            eprintln!("usage: analysis check [--deny-all] [--allow <lint>]… [--root <path>]");
            eprintln!("       analysis list");
            ExitCode::from(2)
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let mut deny_all = false;
    let mut allow: Vec<String> = Vec::new();
    let mut root = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny-all" => deny_all = true,
            "--allow" => match it.next() {
                Some(name) if LINTS.contains(&name.as_str()) => allow.push(name.clone()),
                Some(name) => {
                    eprintln!("error: unknown lint `{name}` (see `analysis list`)");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("error: --allow needs a lint name");
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(path) => root = Some(path.into()),
                None => {
                    eprintln!("error: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    if deny_all {
        allow.clear();
    }

    let cfg = Config::workspace(root.unwrap_or_else(default_root));
    let findings = match check_workspace(&cfg, &allow) {
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
        println!(
            "analysis: workspace clean ({} lints{})",
            LINTS.len(),
            if deny_all { ", deny-all" } else { "" }
        );
        ExitCode::SUCCESS
    } else {
        println!("analysis: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
