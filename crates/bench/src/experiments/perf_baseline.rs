//! The persistent counter baseline: one fixed-seed workload, every
//! algorithm, the deterministic quantities future PRs regress against.
//!
//! Unlike the figure experiments (which sweep a parameter), `perf_baseline`
//! runs each join algorithm once on the default Forest-like workload and
//! records distance computations, pivot-assignment computations, index
//! builds, shuffle volume, and — against the nested-loop oracle — the
//! approximation quality (recall and distance ratio; exactly 1 for the exact
//! algorithms, the interesting row is H-zkNNJ's).  A second row set
//! (`"<name> (fast)"`) repeats each cold join with
//! `kernel_mode = KernelMode::Fast`, which no scan reads: on every
//! algorithm every deterministic field equals the `Exact` twin's (see
//! [`fast_rows_off_their_exact_twin`]).  A third row set
//! (`"<name> (prepared)"`, PGBJ and PBJ — the algorithms `prepare` keeps an
//! index for) runs the serving path: one `JoinBuilder::prepare` build
//! followed by [`PREPARED_QUERIES`] repeated `PreparedJoin::query` calls,
//! reporting the per-query counters (which must show zero `index_builds` /
//! `pivot_selections`); a fourth (`"<name> (prepared, fast)"`) repeats the
//! serving rows with `kernel_mode = Fast`.  The JSON is written to
//! `BENCH_baseline.json` (see the README) so the repository always carries
//! a reference trajectory: every field is deterministic for the fixed seed
//! and must not regress silently.  The rows
//! hold no time: how long a cold join, a build or a prepared query takes is
//! measured with a spread by `benchmark/` (`pgbj_join_s`, `prepared.build_s`,
//! `prepared.query_batch128_ms`, ...).

use super::ExperimentOutput;
use crate::json::Value;
use crate::report::{fmt_f64, Table};
use crate::workloads::{ExperimentScale, Workloads};
use geom::{DistanceMetric, KernelMode};
use knnjoin::{Algorithm, JoinBuilder, JoinResult};

/// Repeated `PreparedJoin::query` calls per algorithm in the serving rows.
pub const PREPARED_QUERIES: u32 = 8;

/// The perf-baseline fields that must be bit-stable for a fixed seed, for
/// the cold rows and the `"(prepared)"` serving rows alike (a prepared row
/// drifting on `index_builds` or `pivot_selections` means per-query rebuild
/// work leaked back in).
pub const BASELINE_FIELDS: [&str; 8] = [
    "distance_computations",
    "pivot_assignment_computations",
    "index_builds",
    "pivot_selections",
    "shuffle_bytes",
    "shuffle_records",
    "recall",
    "distance_ratio",
];

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
    /// assignment step of their prepared probes; 0 elsewhere).
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
    /// `combine_output_records + r_records_shuffled + s_records_shuffled`:
    /// job 1's post-combine batches plus one record per object the join job
    /// routed.  On a cold PGBJ row that is every record of both jobs, so it
    /// equals `shuffle_records` exactly while each routed object is charged
    /// one record — cells cross that shuffle as slices, accounted per row
    /// (see [`pgbj_rows_off_their_shuffle_identity`]).  Not gated against
    /// the committed file.
    pub batches_plus_routed_records: u64,
    /// Recall against the nested-loop oracle (1.0 for exact algorithms).
    pub recall: f64,
    /// Mean distance-approximation ratio against the oracle (1.0 = exact).
    pub distance_ratio: f64,
}

impl BaselineRow {
    /// The row of one run: counters from `result`'s metrics, quality against
    /// `oracle`.
    fn from_result(algorithm: String, result: &JoinResult, oracle: &JoinResult) -> Self {
        let quality = result.quality_against(oracle);
        let m = &result.metrics;
        Self {
            algorithm,
            distance_computations: m.distance_computations,
            pivot_assignment_computations: m.pivot_assignment_computations,
            index_builds: m.index_builds,
            pivot_selections: m.pivot_selections,
            shuffle_bytes: m.shuffle_bytes,
            shuffle_records: m.shuffle_records,
            batches_plus_routed_records: m.combine_output_records
                + m.r_records_shuffled
                + m.s_records_shuffled,
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

    let run = |algorithm: Algorithm, mode: KernelMode| -> JoinResult {
        JoinBuilder::new(&data, &data)
            .k(k)
            .metric(DistanceMetric::Euclidean)
            .algorithm(algorithm)
            .pivot_count(pivots)
            .reducers(reducers)
            .shift_copies(workloads.default_shift_copies())
            .z_window(workloads.default_z_window())
            .kernel_mode(mode)
            .run(workloads.context())
            .expect("baseline join must succeed")
    };

    // The oracle anchors the quality columns for every algorithm.
    let oracle = run(Algorithm::NestedLoopJoin, KernelMode::Exact);

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
                run(algorithm, KernelMode::Exact)
            };
            BaselineRow::from_result(algorithm.name().to_string(), &result, &oracle)
        })
        .collect();

    // ---- Fast-mode cold rows: the same joins with `kernel_mode = Fast`,
    // which no scan reads; every deterministic field must equal Exact's.
    let fast_rows: Vec<BaselineRow> = algorithms
        .iter()
        .map(|&algorithm| {
            let result = run(algorithm, KernelMode::Fast);
            let name = format!("{} (fast)", algorithm.name());
            BaselineRow::from_result(name, &result, &oracle)
        })
        .collect();
    rows.extend(fast_rows);

    // ---- Prepared serving rows of the Voronoi family: one build,
    // PREPARED_QUERIES queries, once per kernel mode (Exact first, so the
    // committed row order is stable).
    let prepared_rows: Vec<BaselineRow> = [KernelMode::Exact, KernelMode::Fast]
        .iter()
        .flat_map(|&mode| {
            let voronoi = algorithms
                .iter()
                .filter(|algorithm| algorithm.uses_pivots());
            voronoi.map(move |&algorithm| (mode, algorithm))
        })
        .map(|(mode, algorithm)| {
            let prepared = JoinBuilder::new(&data, &data)
                .k(k)
                .metric(DistanceMetric::Euclidean)
                .algorithm(algorithm)
                .pivot_count(pivots)
                .reducers(reducers)
                .kernel_mode(mode)
                .prepare(workloads.context())
                .expect("baseline prepare must succeed");
            let mut last = None;
            for _ in 0..PREPARED_QUERIES {
                last = Some(prepared.query(&data).expect("prepared query"));
            }
            let result = last.expect("at least one query ran");
            let suffix = match mode {
                KernelMode::Exact => "(prepared)",
                KernelMode::Fast => "(prepared, fast)",
            };
            BaselineRow::from_result(format!("{} {suffix}", algorithm.name()), &result, &oracle)
        })
        .collect();
    rows.extend(prepared_rows);

    let mut table = Table::new(
        "Performance baseline (self-join on the default Forest-like workload; \
         \"(fast)\" rows rerun the join with kernel_mode = Fast)",
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

/// The `Fast` rows of a `perf_baseline` run that are off their `Exact`
/// twin on any of [`BASELINE_FIELDS`], each as a description: every
/// algorithm's cold row, and PGBJ's and PBJ's prepared rows.  No scan reads
/// the kernel mode — every scan ranks its rows with the one exact column
/// kernel, and the R-tree knows no mode — so a difference means the mode
/// reached a scan again.
pub fn fast_rows_off_their_exact_twin(rows: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    for algorithm in Algorithm::ALL {
        let name = algorithm.name();
        let mut twins = vec![(name.to_string(), format!("{name} (fast)"))];
        if algorithm.uses_pivots() {
            twins.push((
                format!("{name} (prepared)"),
                format!("{name} (prepared, fast)"),
            ));
        }
        for (exact, fast) in twins {
            problems.extend(BASELINE_FIELDS.iter().filter_map(|field| {
                twin_problem(
                    rows,
                    (&fast, &exact),
                    field,
                    |exact, fast| fast == exact,
                    "not equal, though no scan reads the mode",
                )
            }));
        }
    }
    problems
}

/// The cold PBJ rows of a `perf_baseline` run whose
/// `pivot_assignment_computations` differ from their PGBJ twin's, each as a
/// description.  The two algorithms run one front half
/// (`voronoi::partition_job`) under one plan, so the number is the same by
/// construction; a difference means a second way from points to cells is
/// back.
pub fn pbj_rows_off_their_pgbj_twin(rows: &Value) -> Vec<String> {
    let twins = ["", " (fast)"].map(|suffix| (format!("PBJ{suffix}"), format!("PGBJ{suffix}")));
    let problems = twins.iter().filter_map(|(pbj, pgbj)| {
        twin_problem(
            rows,
            (pbj, pgbj),
            "pivot_assignment_computations",
            |pgbj, pbj| pbj == pgbj,
            "not equal, though both run the same front half",
        )
    });
    problems.collect()
}

/// The cold PGBJ rows of a `perf_baseline` run whose `shuffle_records` is not
/// job 1's batches plus one record per routed object
/// (`batches_plus_routed_records`), each as a description.  Job 2 moves a
/// cell's rows as one shared slice; the slice is *accounted* as its rows, so
/// the identity holds by construction and breaks the moment a slice is
/// charged as one record (or an object twice).
pub fn pgbj_rows_off_their_shuffle_identity(rows: &Value) -> Vec<String> {
    let problems = ["PGBJ", "PGBJ (fast)"].into_iter().filter_map(|row| {
        let of = |field: &str| row_field(rows, row, field);
        match (of("shuffle_records"), of("batches_plus_routed_records")) {
            (Some(shuffled), Some(accounted)) if shuffled == accounted => None,
            (Some(shuffled), Some(accounted)) => Some(format!(
                "{row}.shuffle_records: {shuffled} against {accounted} batches + routed \
                 objects: a routed object is not charged exactly one record"
            )),
            _ => Some(format!("{row}: row or field missing")),
        }
    });
    problems.collect()
}

/// The numeric `field` of the row named `algorithm`, if both exist.
fn row_field(rows: &Value, algorithm: &str, field: &str) -> Option<f64> {
    rows.as_array()
        .into_iter()
        .flatten()
        .find(|r| r["algorithm"].as_str() == Some(algorithm))
        .and_then(|r| r[field].as_f64())
}

/// Describes how the `row`'s `field` breaks `holds(twin's, row's)` — `rule`
/// says what the two should have been — or that one of the rows is missing.
fn twin_problem(
    rows: &Value,
    (row, twin): (&str, &str),
    field: &str,
    holds: impl Fn(f64, f64) -> bool,
    rule: &str,
) -> Option<String> {
    let value_of = |algorithm: &str| row_field(rows, algorithm, field);
    match (value_of(twin), value_of(row)) {
        (Some(t), Some(r)) if holds(t, r) => None,
        (Some(t), Some(r)) => Some(format!("{row}.{field}: {r} against {twin}'s {t}: {rule}")),
        _ => Some(format!("{twin} / {row}: row missing")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_covers_all_algorithms_with_sane_numbers() {
        let out = perf_baseline(ExperimentScale::Quick);
        assert_eq!(out.id, "perf_baseline");
        let rows = out.json.as_array().expect("array of rows");
        // Six exact cold rows, six fast-mode cold rows, then the PBJ and
        // PGBJ prepared rows in each mode.
        assert_eq!(rows.len(), 16);
        let names: Vec<&str> = rows
            .iter()
            .map(|r| r["algorithm"].as_str().expect("name"))
            .collect();
        assert_eq!(
            &names[..6],
            &["H-BRJ", "PBJ", "PGBJ", "H-zkNNJ", "Broadcast", "NestedLoop"]
        );
        assert!(names[6..12].iter().all(|n| n.ends_with("(fast)")));
        assert_eq!(
            &names[12..],
            &[
                "PBJ (prepared)",
                "PGBJ (prepared)",
                "PBJ (prepared, fast)",
                "PGBJ (prepared, fast)"
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
    fn fast_rows_equal_their_exact_twins_and_the_gate_notices_when_not() {
        let out = perf_baseline(ExperimentScale::Quick);
        assert_eq!(fast_rows_off_their_exact_twin(&out.json), [""; 0]);
        // A Fast row off its Exact twin on any deterministic field trips the
        // gate, on every algorithm: one more evaluation, one more shuffled
        // byte, one build less, a lower recall.
        let altered = [
            ("PGBJ (fast)", "distance_computations", 1.0),
            ("PBJ (prepared, fast)", "shuffle_bytes", 1.0),
            ("H-BRJ (fast)", "index_builds", -1.0),
            ("H-zkNNJ (fast)", "recall", -0.01),
            ("Broadcast (fast)", "distance_computations", -1.0),
            ("NestedLoop (fast)", "distance_ratio", 0.01),
        ];
        let rows = out.json.as_array().expect("rows").iter();
        let drifted = Value::Array(
            rows.map(|row| {
                let name = row["algorithm"].as_str();
                match (altered.iter().find(|a| Some(a.0) == name), row) {
                    (Some(&(_, field, by)), Value::Object(fields)) => Value::Object(
                        fields
                            .iter()
                            .map(|(name, value)| {
                                let value = if name == field {
                                    (value.as_f64().expect("field") + by).into()
                                } else {
                                    value.clone()
                                };
                                (name.clone(), value)
                            })
                            .collect(),
                    ),
                    _ => row.clone(),
                }
            })
            .collect(),
        );
        let problems = fast_rows_off_their_exact_twin(&drifted);
        assert_eq!(problems.len(), altered.len(), "{problems:?}");
        for (problem, (row, field, _)) in problems.iter().zip(altered) {
            assert!(
                problem.starts_with(&format!("{row}.{field}")),
                "{problems:?}"
            );
        }
    }

    #[test]
    fn pbj_rows_bill_the_front_half_like_pgbj_and_the_gate_notices_when_not() {
        let out = perf_baseline(ExperimentScale::Quick);
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
    fn pgbj_rows_account_a_slice_as_its_rows_and_the_gate_notices_when_not() {
        let out = perf_baseline(ExperimentScale::Quick);
        assert_eq!(pgbj_rows_off_their_shuffle_identity(&out.json), [""; 0]);
        // A PGBJ row whose slices were counted as one record each trips it.
        let rows = out.json.as_array().expect("rows").iter();
        let per_slice = Value::Array(
            rows.map(|row| match row["algorithm"].as_str() {
                Some("PGBJ") => Value::object(vec![
                    ("algorithm", "PGBJ".into()),
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
        let problems = pgbj_rows_off_their_shuffle_identity(&per_slice);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("PGBJ."), "{problems:?}");
    }

    #[test]
    fn exact_quick_counters_match_the_committed_baseline() {
        // Guard for the committed reference trajectory: the Exact path's
        // deterministic counters must stay bit-identical to the checked-in
        // BENCH_baseline_quick.json.  (CI enforces the same via the
        // experiments binary's `--check` flag; this test catches the drift
        // already at `cargo test` time.)
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_baseline_quick.json"
        );
        let committed = std::fs::read_to_string(path).expect("committed baseline readable");
        let committed = Value::parse(&committed).expect("committed baseline parses");
        let reference = committed["perf_baseline"]
            .as_array()
            .expect("perf_baseline rows")
            .to_vec();
        let out = perf_baseline(ExperimentScale::Quick);
        let rows = out.json.as_array().expect("rows");
        for name in ["H-BRJ", "PBJ", "PGBJ", "H-zkNNJ", "Broadcast", "NestedLoop"] {
            let want = reference
                .iter()
                .find(|r| r["algorithm"].as_str() == Some(name))
                .unwrap_or_else(|| panic!("committed baseline misses {name}"));
            let got = rows
                .iter()
                .find(|r| r["algorithm"].as_str() == Some(name))
                .unwrap_or_else(|| panic!("run misses {name}"));
            for field in [
                "distance_computations",
                "pivot_assignment_computations",
                "index_builds",
                "pivot_selections",
                "shuffle_bytes",
                "shuffle_records",
            ] {
                assert_eq!(
                    got[field].as_u64(),
                    want[field].as_u64(),
                    "{name}.{field} drifted from the committed baseline"
                );
            }
            for field in ["recall", "distance_ratio"] {
                let (g, w) = (
                    got[field].as_f64().expect("fresh"),
                    want[field].as_f64().expect("committed"),
                );
                assert!(
                    (g - w).abs() < 1e-9,
                    "{name}.{field}: got {g}, committed {w}"
                );
            }
        }
    }

    #[test]
    fn prepared_rows_keep_build_counters_flat() {
        let out = perf_baseline(ExperimentScale::Quick);
        let rows = out.json.as_array().expect("rows");
        for algorithm in ["PBJ", "PGBJ"] {
            let name = format!("{algorithm} (prepared)");
            let row = rows
                .iter()
                .find(|r| r["algorithm"].as_str() == Some(name.as_str()))
                .unwrap_or_else(|| panic!("missing row {name}"));
            // The serving invariant: no per-query index builds or pivot
            // selections — that work lives in the build phase.
            assert_eq!(row["index_builds"].as_u64(), Some(0), "{algorithm}");
            assert_eq!(row["pivot_selections"].as_u64(), Some(0), "{algorithm}");
            // Prepared answers stay exact.
            let recall = row["recall"].as_f64().expect("recall");
            assert!((recall - 1.0).abs() < 1e-12, "{algorithm} recall {recall}");
        }
    }

    #[test]
    fn zknn_meets_the_quality_and_cost_bar_on_the_baseline() {
        let out = perf_baseline(ExperimentScale::Quick);
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
        let a = perf_baseline(ExperimentScale::Quick);
        let b = perf_baseline(ExperimentScale::Quick);
        assert_eq!(a.json, b.json);
    }
}
