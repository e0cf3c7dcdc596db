//! The persistent counter baseline: one fixed-seed workload, every
//! algorithm, the deterministic quantities future PRs regress against.
//!
//! Unlike the figure experiments (which sweep a parameter), `perf_baseline`
//! runs each join algorithm once on the default Forest-like workload and
//! records distance computations, pivot-assignment computations, index
//! builds, shuffle volume, and — against the nested-loop oracle — the
//! approximation quality (recall and distance ratio; exactly 1 for the exact
//! algorithms, the interesting row is H-zkNNJ's).  A last row,
//! `"PGBJ (prepared)"` (PGBJ's is the one index `prepare` keeps), runs the
//! serving path: one `JoinBuilder::prepare` build followed by
//! [`PREPARED_QUERIES`] repeated `PreparedJoin::query` calls, reporting the
//! per-query counters (which must show zero `index_builds` /
//! `pivot_selections`).  The JSON is written to `BENCH_baseline.json` (see
//! the README) so the repository always carries a reference trajectory:
//! every field is deterministic for the fixed seed and must not regress
//! silently.  The rows hold no time: how long a cold join, a build or a
//! prepared query takes is measured with a spread by `benchmark/`
//! (`pgbj_join_s`, `prepared.build_s`, `prepared.query_batch128_ms`, ...).

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use super::ExperimentOutput;
use crate::json::Value;
use crate::report::{fmt_f64, Table};
use crate::workloads::{ExperimentScale, Workloads};
use geom::DistanceMetric;
use knnjoin::{Algorithm, JoinBuilder, JoinResult};

/// Repeated `PreparedJoin::query` calls per serving row.
pub const PREPARED_QUERIES: u32 = 8;

/// One algorithm's baseline counters.  Cold rows count one
/// `JoinBuilder::run`; prepared rows count one `PreparedJoin::query` (the
/// last of [`PREPARED_QUERIES`] repetitions).
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Algorithm name (`"PGBJ"` cold, `"PGBJ (prepared)"` serving).
    pub algorithm: String,
    /// Join-phase distance computations (Equation 13 numerator).
    pub distance_computations: u64,
    /// Pruned pivot-assignment computations (job 1 of PGBJ and PBJ, the
    /// assignment step of the prepared probe; 0 elsewhere).
    pub pivot_assignment_computations: u64,
    /// Spatial indexes built by reducers (H-BRJ: one per S block; prepared
    /// rows must report 0 — the trees are resident).
    pub index_builds: u64,
    /// Pivot-selection runs (PGBJ/PBJ cold: 1; prepared rows must report 0).
    pub pivot_selections: u64,
    /// Bytes crossing the shuffle across all jobs.
    pub shuffle_bytes: u64,
    /// Records crossing the shuffle across all jobs (post-combine).
    pub shuffle_records: u64,
    /// `combine_output_records + r_records_shuffled + s_records_shuffled`,
    /// plus `r_records_shuffled` once more where a merge job runs (H-BRJ,
    /// PBJ, H-zkNNJ): the batches job 1's combiner let through (PGBJ, PBJ),
    /// one record per object a routing job replicated, and one partial list
    /// per routed `R` replica, which the merge job ships.  On every cold row
    /// that is every record of every job, so it equals `shuffle_records`
    /// exactly while each routed object, batch and list is charged one
    /// record (see [`cold_rows_off_their_shuffle_identity`]).
    pub batches_plus_routed_records: u64,
    /// Recall against the nested-loop oracle (1.0 for exact algorithms).
    pub recall: f64,
    /// Mean distance-approximation ratio against the oracle (1.0 = exact).
    pub distance_ratio: f64,
}

impl BaselineRow {
    /// The row `"<name><suffix>"` of one run of `algorithm`: counters from
    /// `result`'s metrics, quality against `oracle`.
    fn from_result(
        algorithm: Algorithm,
        suffix: &str,
        result: &JoinResult,
        oracle: &JoinResult,
    ) -> Self {
        let quality = result.quality_against(oracle);
        let m = &result.metrics;
        let merged_lists = match algorithm {
            Algorithm::Hbrj | Algorithm::Pbj | Algorithm::Zknn => m.r_records_shuffled,
            _ => 0,
        };
        Self {
            algorithm: format!("{}{suffix}", algorithm.name()),
            distance_computations: m.distance_computations,
            pivot_assignment_computations: m.pivot_assignment_computations,
            index_builds: m.index_builds,
            pivot_selections: m.pivot_selections,
            shuffle_bytes: m.shuffle_bytes,
            shuffle_records: m.shuffle_records,
            batches_plus_routed_records: m.combine_output_records
                + m.r_records_shuffled
                + m.s_records_shuffled
                + merged_lists,
            recall: quality.recall,
            distance_ratio: quality.distance_ratio,
        }
    }
}

/// Runs the baseline workload through every algorithm.
pub fn perf_baseline(scale: ExperimentScale) -> ExperimentOutput {
    let workloads = Workloads::new(scale);
    let data = workloads.forest_default();
    let k = workloads.default_k();
    let reducers = workloads.default_reducers();
    let pivots = workloads.default_pivots();

    let run = |algorithm: Algorithm| -> JoinResult {
        JoinBuilder::new(&data, &data)
            .k(k)
            .metric(DistanceMetric::Euclidean)
            .algorithm(algorithm)
            .pivot_count(pivots)
            .reducers(reducers)
            .shift_copies(workloads.default_shift_copies())
            .z_window(workloads.default_z_window())
            .run(workloads.context())
            .expect("baseline join must succeed")
    };

    // The oracle anchors the quality columns for every algorithm.
    let oracle = run(Algorithm::NestedLoopJoin);

    let algorithms = [
        Algorithm::Hbrj,
        Algorithm::Pbj,
        Algorithm::Pgbj,
        Algorithm::Zknn,
        Algorithm::BroadcastJoin,
        Algorithm::NestedLoopJoin,
    ];
    let mut rows: Vec<BaselineRow> = algorithms
        .iter()
        .map(|&algorithm| {
            let result = if algorithm == Algorithm::NestedLoopJoin {
                oracle.clone()
            } else {
                run(algorithm)
            };
            BaselineRow::from_result(algorithm, "", &result, &oracle)
        })
        .collect();

    // ---- The prepared serving row: one PGBJ build, PREPARED_QUERIES
    // queries.
    let prepared = JoinBuilder::new(&data, &data)
        .k(k)
        .metric(DistanceMetric::Euclidean)
        .algorithm(Algorithm::Pgbj)
        .pivot_count(pivots)
        .reducers(reducers)
        .prepare(workloads.context())
        .expect("baseline prepare must succeed");
    let mut last = None;
    for _ in 0..PREPARED_QUERIES {
        last = Some(prepared.query(&data).expect("prepared query"));
    }
    let result = last.expect("at least one query ran");
    rows.push(BaselineRow::from_result(
        Algorithm::Pgbj,
        " (prepared)",
        &result,
        &oracle,
    ));

    let mut table = Table::new(
        "Performance baseline (self-join on the default Forest-like workload)",
        &[
            "algorithm",
            "distance comps",
            "pivot-assign comps",
            "index builds",
            "pivot selections",
            "shuffle bytes",
            "shuffle records",
            "recall",
            "distance ratio",
        ],
    );
    let mut serving = Table::new(
        format!(
            "Prepared serving (1 build + {PREPARED_QUERIES} repeated queries; \
             counters of one query)"
        ),
        &["algorithm", "index builds/query", "pivot selections/query"],
    );
    for row in &rows {
        if row.algorithm.contains("(prepared") {
            serving.add_row(vec![
                row.algorithm.clone(),
                row.index_builds.to_string(),
                row.pivot_selections.to_string(),
            ]);
        } else {
            table.add_row(vec![
                row.algorithm.clone(),
                row.distance_computations.to_string(),
                row.pivot_assignment_computations.to_string(),
                row.index_builds.to_string(),
                row.pivot_selections.to_string(),
                row.shuffle_bytes.to_string(),
                row.shuffle_records.to_string(),
                fmt_f64(row.recall),
                fmt_f64(row.distance_ratio),
            ]);
        }
    }

    let json = Value::Array(
        rows.iter()
            .map(|row| {
                Value::object(vec![
                    ("algorithm", row.algorithm.as_str().into()),
                    (
                        "distance_computations",
                        (row.distance_computations as f64).into(),
                    ),
                    (
                        "pivot_assignment_computations",
                        (row.pivot_assignment_computations as f64).into(),
                    ),
                    ("index_builds", (row.index_builds as f64).into()),
                    ("pivot_selections", (row.pivot_selections as f64).into()),
                    ("shuffle_bytes", (row.shuffle_bytes as f64).into()),
                    ("shuffle_records", (row.shuffle_records as f64).into()),
                    (
                        "batches_plus_routed_records",
                        (row.batches_plus_routed_records as f64).into(),
                    ),
                    ("recall", row.recall.into()),
                    ("distance_ratio", row.distance_ratio.into()),
                ])
            })
            .collect(),
    );

    ExperimentOutput {
        id: "perf_baseline".into(),
        paper_artifact: "Persistent perf baseline (not a paper artifact)".into(),
        tables: vec![table, serving],
        json,
    }
}

/// The cold PBJ row of a `perf_baseline` run if its
/// `pivot_assignment_computations` differ from its PGBJ twin's, as a
/// description.  The two algorithms run one front half
/// (`voronoi::partition_job`) under one plan, so the number is the same by
/// construction; a difference means a second way from points to cells is
/// back.
pub fn pbj_rows_off_their_pgbj_twin(rows: &Value) -> Vec<String> {
    let field = "pivot_assignment_computations";
    match (
        row_field(rows, "PGBJ", field),
        row_field(rows, "PBJ", field),
    ) {
        (Some(pgbj), Some(pbj)) if pbj == pgbj => Vec::new(),
        (Some(pgbj), Some(pbj)) => vec![format!(
            "PBJ.{field}: {pbj} against PGBJ's {pgbj}: not equal, though both run the \
             same front half"
        )],
        _ => vec!["PGBJ / PBJ: row missing".into()],
    }
}

/// The cold rows of a `perf_baseline` run — all six algorithms — whose
/// `shuffle_records` is not the batches job 1's combiner let through plus one
/// record per routed object and one per merged partial list
/// (`batches_plus_routed_records`), each as a description.  Every job is
/// covered: PGBJ and PBJ job 1 ship combined batches, the join jobs charge one
/// record per object they route (a PGBJ or PBJ cell slice is accounted as its
/// rows), and the merge job of PBJ, H-BRJ and H-zkNNJ ships one partial list
/// per routed `R` replica.  The identity holds by construction and breaks the
/// moment a value standing for several objects or lists is charged as one
/// record, or one is charged twice.
pub fn cold_rows_off_their_shuffle_identity(rows: &Value) -> Vec<String> {
    let problems = Algorithm::ALL.into_iter().filter_map(|algorithm| {
        let row = algorithm.name();
        let of = |field: &str| row_field(rows, row, field);
        match (of("shuffle_records"), of("batches_plus_routed_records")) {
            (Some(shuffled), Some(accounted)) if shuffled == accounted => None,
            (Some(shuffled), Some(accounted)) => Some(format!(
                "{row}.shuffle_records: {shuffled} against {accounted} combined batches + \
                 routed objects + partial lists: a routed object, batch or list is not \
                 charged exactly one record"
            )),
            _ => Some(format!("{row}: row or field missing")),
        }
    });
    problems.collect()
}

/// The row named `algorithm`, if there is one.
fn row<'a>(rows: &'a Value, algorithm: &str) -> Option<&'a Value> {
    rows.as_array()
        .into_iter()
        .flatten()
        .find(|r| r["algorithm"].as_str() == Some(algorithm))
}

/// The numeric `field` of the row named `algorithm`, if both exist.
fn row_field(rows: &Value, algorithm: &str, field: &str) -> Option<f64> {
    row(rows, algorithm).and_then(|r| r[field].as_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The quick run the tests read, made once and shared.
    fn quick() -> &'static ExperimentOutput {
        static QUICK: OnceLock<ExperimentOutput> = OnceLock::new();
        QUICK.get_or_init(|| perf_baseline(ExperimentScale::Quick))
    }

    #[test]
    fn baseline_covers_all_algorithms_with_sane_numbers() {
        let out = quick();
        assert_eq!(out.id, "perf_baseline");
        let rows = out.json.as_array().expect("array of rows");
        // Six cold rows, then the PGBJ prepared row.
        assert_eq!(rows.len(), 7);
        let names: Vec<&str> = rows
            .iter()
            .map(|r| r["algorithm"].as_str().expect("name"))
            .collect();
        assert_eq!(
            names,
            [
                "H-BRJ",
                "PBJ",
                "PGBJ",
                "H-zkNNJ",
                "Broadcast",
                "NestedLoop",
                "PGBJ (prepared)"
            ]
        );
        for row in rows {
            assert!(row["distance_computations"].as_u64().expect("comps") > 0);
        }
        // Cold rows: only PGBJ and PBJ run the partitioning MapReduce job,
        // so only they report pivot-assignment computations; only H-BRJ
        // builds indexes; exactly the pivot algorithms select pivots.
        for row in &rows[..6] {
            let name = row["algorithm"].as_str().expect("name");
            let assign = row["pivot_assignment_computations"]
                .as_u64()
                .expect("assign comps");
            if name == "PGBJ" || name == "PBJ" {
                assert!(assign > 0);
            } else {
                assert_eq!(assign, 0);
            }
            let builds = row["index_builds"].as_u64().expect("index builds");
            if name == "H-BRJ" {
                // √N tree builds, one per distinct S block.
                assert!(builds > 0);
            } else {
                assert_eq!(builds, 0);
            }
            let selections = row["pivot_selections"].as_u64().expect("selections");
            if name == "PGBJ" || name == "PBJ" {
                assert_eq!(selections, 1, "{name}");
            } else {
                assert_eq!(selections, 0, "{name}");
            }
        }
        // Distributed algorithms shuffle; the nested-loop oracle does not.
        assert!(rows[0]["shuffle_bytes"].as_u64().expect("bytes") > 0);
        assert_eq!(rows[5]["shuffle_bytes"].as_u64(), Some(0));
    }

    #[test]
    fn pbj_rows_bill_the_front_half_like_pgbj_and_the_gate_notices_when_not() {
        let out = quick();
        assert_eq!(pbj_rows_off_their_pgbj_twin(&out.json), [""; 0]);
        // A PBJ row billed like the old driver-side scan (nothing) trips it.
        let rows = out.json.as_array().expect("rows").iter();
        let unbilled = Value::Array(
            rows.map(|row| match row["algorithm"].as_str() {
                Some("PBJ") => Value::object(vec![
                    ("algorithm", "PBJ".into()),
                    ("pivot_assignment_computations", 0.0.into()),
                ]),
                _ => row.clone(),
            })
            .collect(),
        );
        let problems = pbj_rows_off_their_pgbj_twin(&unbilled);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("PBJ."), "{problems:?}");
    }

    #[test]
    fn every_cold_row_keeps_its_shuffle_identity_and_the_gate_notices_when_not() {
        let out = quick();
        assert_eq!(cold_rows_off_their_shuffle_identity(&out.json), [""; 0]);
        // A PGBJ row whose slices were counted as one record each, and an
        // H-BRJ row whose merge job charged a cell's lists as one record,
        // each trip it; the prepared row is not its business.
        let rows = out.json.as_array().expect("rows").iter();
        let undercharged = Value::Array(
            rows.map(|row| match row["algorithm"].as_str() {
                Some(name @ ("PGBJ" | "H-BRJ" | "PGBJ (prepared)")) => Value::object(vec![
                    ("algorithm", name.into()),
                    ("shuffle_records", 100.0.into()),
                    (
                        "batches_plus_routed_records",
                        row["batches_plus_routed_records"].clone(),
                    ),
                ]),
                _ => row.clone(),
            })
            .collect(),
        );
        let problems = cold_rows_off_their_shuffle_identity(&undercharged);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].starts_with("PGBJ."), "{problems:?}");
        assert!(problems[1].starts_with("H-BRJ."), "{problems:?}");
        // A missing cold row is a problem of its own.
        let rows = out.json.as_array().expect("rows").iter();
        let without_zknn = Value::Array(
            rows.filter(|row| row["algorithm"].as_str() != Some("H-zkNNJ"))
                .cloned()
                .collect(),
        );
        let problems = cold_rows_off_their_shuffle_identity(&without_zknn);
        assert_eq!(problems, ["H-zkNNJ: row or field missing"]);
    }

    #[test]
    fn quick_rows_match_the_committed_baseline() {
        // Guard for the committed reference trajectory: every row of the
        // quick run must equal the checked-in BENCH_baseline_quick.json,
        // field for field.  (CI enforces the same via the experiments
        // binary's `--check` flag; this test catches the drift already at
        // `cargo test` time.)
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_baseline_quick.json"
        );
        let committed = std::fs::read_to_string(path).expect("committed baseline readable");
        let committed = Value::parse(&committed).expect("committed baseline parses");
        let out = quick();
        let drift =
            crate::experiments::diff_rows(&out.json, &committed["perf_baseline"], "algorithm");
        assert_eq!(drift, [""; 0]);
    }

    #[test]
    fn prepared_rows_keep_build_counters_flat() {
        let out = quick();
        let row = row(&out.json, "PGBJ (prepared)").expect("prepared row");
        // The serving invariant: no per-query index builds or pivot
        // selections — that work lives in the build phase.
        assert_eq!(row["index_builds"].as_u64(), Some(0));
        assert_eq!(row["pivot_selections"].as_u64(), Some(0));
        // Prepared answers stay exact.
        let recall = row["recall"].as_f64().expect("recall");
        assert!((recall - 1.0).abs() < 1e-12, "recall {recall}");
    }

    #[test]
    fn zknn_meets_the_quality_and_cost_bar_on_the_baseline() {
        let out = quick();
        let rows = out.json.as_array().expect("rows");
        let by_name = |name: &str| {
            rows.iter()
                .find(|r| r["algorithm"].as_str() == Some(name))
                .expect("row")
        };
        let zknn = by_name("H-zkNNJ");
        let hbrj = by_name("H-BRJ");
        // The approximate join must be worth its approximation: far fewer
        // distance computations than the R-tree baseline, with recall ≥ 0.9
        // at the default α = 2 shifted copies.
        assert!(
            zknn["distance_computations"].as_u64() < hbrj["distance_computations"].as_u64(),
            "H-zkNNJ must compute fewer distances than H-BRJ"
        );
        assert!(zknn["recall"].as_f64().expect("recall") >= 0.9);
        assert!(zknn["distance_ratio"].as_f64().expect("ratio") >= 1.0 - 1e-9);
        // Exact algorithms trivially score perfect quality.
        for name in ["H-BRJ", "PBJ", "PGBJ", "Broadcast", "NestedLoop"] {
            let row = by_name(name);
            assert!(
                (row["recall"].as_f64().unwrap() - 1.0).abs() < 1e-12,
                "{name}"
            );
            assert!((row["distance_ratio"].as_f64().unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zknn_holds_recall_on_the_osm_workload_too() {
        // The baseline table runs the Forest-like workload; the second bench
        // dataset (2-d OSM-like) must clear the same recall bar at α = 2.
        let workloads = Workloads::new(ExperimentScale::Quick);
        let data = workloads.osm_default();
        let k = workloads.default_k();
        let run = |algorithm| {
            JoinBuilder::new(&data, &data)
                .k(k)
                .algorithm(algorithm)
                .reducers(workloads.default_reducers())
                .shift_copies(workloads.default_shift_copies())
                .z_window(workloads.default_z_window())
                .run(workloads.context())
                .expect("join must succeed")
        };
        let oracle = run(Algorithm::NestedLoopJoin);
        let approx = run(Algorithm::Zknn);
        let quality = approx.quality_against(&oracle);
        assert!(quality.recall >= 0.9, "OSM recall {}", quality.recall);
        assert!(quality.distance_ratio >= 1.0 - 1e-9);
        assert!(
            approx.metrics.distance_computations < oracle.metrics.distance_computations,
            "approximate join must compute fewer distances than the oracle"
        );
    }

    #[test]
    fn deterministic_counters_for_fixed_seed() {
        // The rows hold no clock reading, so two runs agree on every field.
        assert_eq!(perf_baseline(ExperimentScale::Quick).json, quick().json);
    }
}
