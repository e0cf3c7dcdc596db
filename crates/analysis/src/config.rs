//! The workspace invariant tables the lint pass enforces.
//!
//! Everything here is policy, not mechanism: which files hold the `unsafe`
//! kernels, which files are on the user-reachable panic-freedom perimeter,
//! which files feed deterministic counters, and the declared lock-order
//! table.  The fixture tests swap in narrowed configs so each known-bad
//! snippet trips exactly one lint.

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
    /// The files the crates' `unsafe_code` attributes let `unsafe` compile
    /// in; `safety-comment` and `target-feature-parity` patrol them.
    pub allowed_unsafe: Vec<String>,
    /// Library files on user-reachable paths: no unwrap/expect/panic!/todo!/
    /// unimplemented! and no `[]` indexing outside test regions.
    pub user_reachable: Vec<String>,
    /// Files feeding deterministic counters: no `Instant`, `SystemTime`,
    /// `HashMap` or `HashSet` at all.
    pub determinism_strict: Vec<String>,
    /// Files (or directory prefixes ending in `/`) producing `BENCH_*.json`
    /// values: no `HashMap`/`HashSet`/`SystemTime` (wall-clock `Instant`
    /// readings are allowed — they are excluded from drift checks).
    pub determinism_no_maps: Vec<String>,
    /// The declared lock-order table.
    pub lock_table: Vec<LockSite>,
    /// Call fragments a held guard must never span (`guard-across-probe`).
    pub probe_calls: Vec<&'static str>,
    /// The experiments binary whose `*_FIELDS` drift tables are cross-checked
    /// against real identifiers, when present.
    pub drift_fields_file: Option<String>,
}

impl Config {
    /// The real workspace policy.
    pub fn workspace(root: PathBuf) -> Self {
        Self {
            root,
            allowed_unsafe: vec!["crates/geom/src/kernels.rs".into()],
            user_reachable: vec![
                "crates/knnjoin/src/builder.rs".into(),
                "crates/knnjoin/src/plan.rs".into(),
                "crates/knnjoin/src/prepared.rs".into(),
                "crates/knnjoin/src/result.rs".into(),
                "crates/knnjoin/src/serving/mod.rs".into(),
                "crates/knnjoin/src/delta.rs".into(),
                "crates/knnjoin/src/context.rs".into(),
                "crates/knnjoin/src/lib.rs".into(),
                "src/lib.rs".into(),
            ],
            determinism_strict: vec![
                "crates/knnjoin/src/metrics.rs".into(),
                "crates/mapreduce/src/metrics.rs".into(),
            ],
            determinism_no_maps: vec![
                "crates/bench/src/json.rs".into(),
                "crates/bench/src/report.rs".into(),
                "crates/bench/src/bin/experiments.rs".into(),
                "crates/bench/src/experiments/".into(),
            ],
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
            drift_fields_file: Some("crates/bench/src/bin/experiments.rs".into()),
        }
    }

    /// An empty policy with no perimeter files — the fixture tests start
    /// from this and enable exactly the table the lint under test reads.
    pub fn empty(root: PathBuf) -> Self {
        Self {
            root,
            allowed_unsafe: Vec::new(),
            user_reachable: Vec::new(),
            determinism_strict: Vec::new(),
            determinism_no_maps: Vec::new(),
            lock_table: Vec::new(),
            probe_calls: default_probe_calls(),
            drift_fields_file: None,
        }
    }

    /// Whether `rel_path` is inside the `determinism_no_maps` perimeter.
    pub fn in_no_maps_perimeter(&self, rel_path: &str) -> bool {
        self.determinism_no_maps.iter().any(|p| {
            if p.ends_with('/') {
                rel_path.starts_with(p.as_str())
            } else {
                rel_path == p
            }
        })
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
