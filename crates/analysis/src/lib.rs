//! Workspace invariant checker: a dependency-free lint pass over the
//! workspace's own sources.
//!
//! `cargo run -p analysis -- check` scans every `.rs` file (skipping
//! `target/`, the vendored shims and the known-bad lint fixtures) with a
//! hand-rolled comment/string-aware scanner and enforces the invariants the
//! code comments only used to *claim*:
//!
//! * **safety-comment / target-feature-parity** — in the kernel files (the
//!   compiler keeps `unsafe` out of everything else: `#![forbid(unsafe_code)]`
//!   per crate, `deny` + one `allow` in `geom`) every unsafe block carries a
//!   `// SAFETY:` argument and every accelerated kernel has a scalar twin
//!   exercised by a parity test;
//! * **determinism** — counter/metrics files and the three counter-gate
//!   experiments never read clocks or iterate hash containers, the rest of
//!   the bench serialization never lets hash order or `SystemTime` leak into
//!   `BENCH_*.json`, and the experiments binary's drift tables name real
//!   fields;
//! * **lock-order / guard-across-probe** — the declared lock-rank table
//!   (`mapreduce::sync::ranks`) is checked intra-function, and no lock
//!   guard is live across a probe/run call;
//! * **ordering-comment** — every `Ordering::Relaxed` justifies itself with
//!   an adjacent `// ORDERING:` comment.
//!
//! Panic-freedom on user-reachable paths is not checked here: the modules on
//! that perimeter deny clippy's `unwrap_used`, `expect_used`, `panic`,
//! `todo`, `unimplemented` and `indexing_slicing`, and CI runs clippy with
//! `-D warnings`.
//!
//! The runtime twin of this pass is the `debug-invariants` cargo feature
//! (see `mapreduce::sync`), which audits the same lock order dynamically
//! and asserts the delta-layer structural invariants on every mutation
//! commit.  Single sites opt out with
//! `// lint: allow(<name>) -- <reason>`; the reason is mandatory.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod lints;

pub use config::Config;
pub use lexer::SourceFile;
pub use lints::{Finding, LINTS};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "vendor", "fixtures"];

/// Loads every workspace `.rs` file under `root`, skipping build output,
/// vendored shims and the analysis fixtures (which are known-bad on
/// purpose).
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(root.join(&path))?;
        files.push(SourceFile::scan(path, text));
    }
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Runs the full pass over the workspace at `cfg.root`.
pub fn check_workspace(cfg: &Config, allow: &[String]) -> io::Result<Vec<Finding>> {
    let files = collect_sources(&cfg.root)?;
    Ok(lints::run(&files, cfg, allow))
}

/// Locates the workspace root: `--root` if given, else the current
/// directory, else (when running under cargo) the directory two levels
/// above this crate's manifest.
pub fn default_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("Cargo.toml").exists() && cwd.join("crates").is_dir() {
        return cwd;
    }
    if let Some(manifest) = std::env::var_os("CARGO_MANIFEST_DIR") {
        let manifest = PathBuf::from(manifest);
        if let Some(root) = manifest.ancestors().nth(2) {
            if root.join("Cargo.toml").exists() {
                return root.to_path_buf();
            }
        }
    }
    cwd
}
