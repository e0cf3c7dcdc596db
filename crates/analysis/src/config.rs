//! The workspace invariant tables the lint pass enforces.
//!
//! Everything here is policy, not mechanism: the declared lock-order table
//! and the calls a held guard must not span.  The fixture tests swap in a
//! narrowed config so each known-bad snippet trips exactly one lint.

use std::path::PathBuf;

/// One entry of the declared lock-order table: in `file`, a guard obtained
/// from a receiver named `receiver` (`receiver.lock()` / `.read()` /
/// `.write()`) carries `rank`.  Ranks must strictly increase along any
/// nesting chain; equal ranks may never nest (shards of one family).
///
/// The table mirrors `mapreduce::sync::ranks` — the runtime auditor checks
/// the same order dynamically under the `debug-invariants` feature.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Workspace-relative path, `/`-separated.
    pub file: &'static str,
    /// The identifier immediately before the acquisition call.
    pub receiver: &'static str,
    /// Rank from `mapreduce::sync::ranks`.
    pub rank: u8,
}

/// Full configuration for one lint run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root all paths are relative to.
    pub root: PathBuf,
    /// The declared lock-order table.
    pub lock_table: Vec<LockSite>,
    /// Call fragments a held guard must never span (`guard-across-probe`).
    pub probe_calls: Vec<&'static str>,
}

impl Config {
    /// The real workspace policy.
    pub fn workspace(root: PathBuf) -> Self {
        Self {
            root,
            lock_table: vec![
                LockSite {
                    file: "crates/knnjoin/src/prepared.rs",
                    receiver: "mutate",
                    rank: 10,
                },
                LockSite {
                    file: "crates/knnjoin/src/prepared.rs",
                    receiver: "epoch",
                    rank: 20,
                },
                LockSite {
                    file: "crates/knnjoin/src/prepared.rs",
                    receiver: "cumulative",
                    rank: 40,
                },
                LockSite {
                    file: "crates/knnjoin/src/serving/mod.rs",
                    receiver: "shard",
                    rank: 60,
                },
                LockSite {
                    file: "crates/knnjoin/src/serving/mod.rs",
                    receiver: "histograms",
                    rank: 60,
                },
            ],
            probe_calls: default_probe_calls(),
        }
    }

    /// An empty policy with no lock table — the fixture tests start from
    /// this and declare the ranks the lock-order fixture needs.
    pub fn empty(root: PathBuf) -> Self {
        Self {
            root,
            lock_table: Vec::new(),
            probe_calls: default_probe_calls(),
        }
    }
}

fn default_probe_calls() -> Vec<&'static str> {
    vec![
        ".probe(",
        ".run(",
        ".query(",
        ".query_one(",
        ".prepare(",
        "probe_rows(",
    ]
}
