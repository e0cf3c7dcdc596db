//! Fixture-based self-tests for the lint pass.
//!
//! `tests/fixtures/<lint>/bad.rs` holds one known-bad snippet per lint; each
//! must trip *exactly* its lint (a fixture tripping nothing means the lint
//! regressed, a fixture tripping a second lint means the snippets overlap
//! and a regression in one lint could hide behind the other).  A final smoke
//! test runs the full pass over the real workspace and requires it clean —
//! the same gate CI applies via `cargo run -p analysis -- check`.  The
//! kernels' `SAFETY:` rules and the determinism perimeter are clippy's, not
//! this pass's (see the crate docs).

use analysis::config::{Config, LockSite};
use analysis::lexer::SourceFile;
use analysis::{lints, LINTS};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn load_fixture(lint: &str) -> SourceFile {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(lint)
        .join("bad.rs");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    // Fixtures are scanned under a neutral relative path so the per-lint
    // configs below can name it.
    SourceFile::scan("bad.rs", text)
}

/// The narrowed policy the fixtures run under: the lock-order fixture's two
/// ranks.  Every other lint patrols every non-test file.
fn fixture_config() -> Config {
    let mut cfg = Config::empty(PathBuf::from("."));
    for (receiver, rank) in [("low", 10), ("high", 20)] {
        cfg.lock_table.push(LockSite {
            file: "bad.rs",
            receiver,
            rank,
        });
    }
    cfg
}

#[test]
fn every_lint_has_a_fixture_that_trips_exactly_it() {
    for lint in LINTS {
        let findings = lints::run(&[load_fixture(lint)], &fixture_config());
        assert!(
            !findings.is_empty(),
            "known-bad fixture for `{lint}` tripped nothing — the lint has regressed"
        );
        for finding in &findings {
            assert_eq!(
                finding.lint, *lint,
                "fixture for `{lint}` also tripped `{}`: {finding}",
                finding.lint
            );
        }
    }
}

#[test]
fn fixtures_and_lints_are_in_sync() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .filter_map(|entry| Some(entry.ok()?.file_name().to_string_lossy().into_owned()))
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = LINTS.iter().map(|l| l.to_string()).collect();
    expected.sort();
    assert_eq!(on_disk, expected, "fixture directories must mirror LINTS");
}

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/analysis")
        .to_path_buf()
}

/// The lint's lock table is a hand copy of `mapreduce::sync::ranks`: it must
/// name exactly the declared ranks, in files that exist, and so must the
/// rank table in the `sync` module's docs.
#[test]
fn lock_table_matches_the_declared_ranks() {
    let root = workspace_root();
    let sync_rs = root.join("crates/mapreduce/src/sync.rs");
    let text = std::fs::read_to_string(&sync_rs)
        .unwrap_or_else(|e| panic!("reading {}: {e}", sync_rs.display()));
    let module = text
        .split("pub mod ranks {")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .expect("sync.rs declares `pub mod ranks { .. }`");
    let declared: BTreeSet<u8> = module
        .lines()
        .filter_map(|line| line.trim().strip_prefix("pub const "))
        .map(|decl| {
            let value = decl.split(": u8 =").nth(1).expect("a `u8` rank");
            value.trim().trim_end_matches(';').parse().expect("a rank")
        })
        .collect();
    let documented: BTreeSet<u8> = text
        .lines()
        .filter_map(|line| line.strip_prefix("//! | "))
        .filter_map(|row| row.split(" |").next()?.parse().ok())
        .collect();
    let cfg = Config::workspace(root.clone());
    let linted: BTreeSet<u8> = cfg.lock_table.iter().map(|site| site.rank).collect();
    assert!(!declared.is_empty(), "no ranks parsed from sync.rs");
    assert_eq!(linted, declared, "analysis lock table vs `mod ranks`");
    assert_eq!(documented, declared, "sync.rs rank table vs `mod ranks`");
    for site in &cfg.lock_table {
        assert!(
            root.join(site.file).is_file(),
            "lock site {} (rank {}) names a missing file",
            site.file,
            site.rank
        );
    }
}

#[test]
fn workspace_is_clean() {
    let cfg = Config::workspace(workspace_root());
    let findings = analysis::check_workspace(&cfg).expect("scanning the workspace");
    assert!(
        findings.is_empty(),
        "the workspace must stay lint-clean; found:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
