//! One module per experiment family.  Every experiment returns an
//! [`ExperimentOutput`] holding both human-readable markdown tables and
//! machine-readable JSON rows.
//!
//! Two kinds of experiment live here.  The paper's tables and figures
//! (`table2` … `fig12`) report what Section 6 reports, running-time panels
//! included; those times come from one run each and show a shape, not a
//! claim.  `perf_baseline` and `mutable_corpus` are counter gates: every
//! field of their rows is exact for the seed, and `experiments --check`
//! compares them against the committed `BENCH_*.json`.  No timing claim rests on either kind: running times,
//! latencies and throughput are measured with a spread by `benchmark/`, one
//! `BENCHMARK.json` metric each.

#![deny(clippy::disallowed_types)]

mod effect_of_k;
mod mutable_corpus;
mod parameter_study;
mod perf_baseline;
mod sweeps;

pub use effect_of_k::{fig8, fig9};
pub use mutable_corpus::{mutable_corpus, MutableRow};
pub use parameter_study::{fig6, fig7, table2, table3};
pub use perf_baseline::{
    cold_rows_off_their_shuffle_identity, fast_rows_off_their_exact_twin,
    pbj_rows_off_their_pgbj_twin, perf_baseline, BaselineRow, PREPARED_QUERIES,
};
pub use sweeps::{fig10, fig11, fig12};

use crate::json::Value;
use crate::report::{fmt_f64, Table};
use crate::workloads::{ExperimentScale, Workloads};
use geom::{DistanceMetric, PointSet};
use knnjoin::{Algorithm, JoinBuilder};

/// The result of running one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment id, e.g. `"table2"` or `"fig8"`.
    pub id: String,
    /// Which paper artifact this reproduces.
    pub paper_artifact: String,
    /// Rendered tables (one or more per experiment).
    pub tables: Vec<Table>,
    /// The raw rows as JSON for downstream plotting.
    pub json: Value,
}

impl ExperimentOutput {
    /// Renders every table of the experiment as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.paper_artifact);
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        out
    }
}

/// All experiment ids, in paper order; `perf_baseline` and
/// `mutable_corpus` (not paper artifacts) regenerate the committed
/// `BENCH_baseline.json` and `BENCH_mutable.json`.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table2",
    "table3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "perf_baseline",
    "mutable_corpus",
];

/// Runs one experiment by id.  Returns `None` for an unknown id.
pub fn run_by_id(id: &str, scale: ExperimentScale) -> Option<ExperimentOutput> {
    let out = match id {
        "table2" => table2(scale),
        "table3" => table3(scale),
        "fig6" => fig6(scale),
        "fig7" => fig7(scale),
        "fig8" => fig8(scale),
        "fig9" => fig9(scale),
        "fig10" => fig10(scale),
        "fig11" => fig11(scale),
        "fig12" => fig12(scale),
        "perf_baseline" => perf_baseline(scale),
        "mutable_corpus" => mutable_corpus(scale),
        _ => return None,
    };
    Some(out)
}

/// The field that keys the rows of a counter gate — the experiments whose
/// rows `experiments --check` compares against a committed `BENCH_*.json`.
pub fn check_key(id: &str) -> Option<&'static str> {
    match id {
        "perf_baseline" => Some("algorithm"),
        "mutable_corpus" => Some("label"),
        _ => None,
    }
}

/// Compares a fresh run's rows against the committed reference, matching
/// rows on `key_field`, and describes every drift: a row or a field on one
/// side only, or two values of a field more than 1e-9 apart (numbers) or
/// not equal (anything else).
pub fn diff_rows(got: &Value, committed: &Value, key_field: &str) -> Vec<String> {
    let (Some(got_rows), Some(want_rows)) = (got.as_array(), committed.as_array()) else {
        return vec!["both the run and the reference must be row arrays".into()];
    };
    let find = |rows: &[Value], name: &str| {
        rows.iter()
            .position(|r| r[key_field].as_str() == Some(name))
    };
    let mut problems = Vec::new();
    for want in want_rows {
        let Some(name) = want[key_field].as_str() else {
            problems.push(format!("reference row without a {key_field} key"));
            continue;
        };
        match find(got_rows, name) {
            Some(at) => problems.extend(field_drift(name, &got_rows[at], want, key_field)),
            None => problems.push(format!("{name}: missing from this run")),
        }
    }
    for got_row in got_rows {
        if let Some(name) = got_row[key_field].as_str() {
            if find(want_rows, name).is_none() {
                problems.push(format!(
                    "{name}: new in this run — regenerate the committed baseline"
                ));
            }
        }
    }
    problems
}

/// Every field but `skip` on which row `got` differs from row `want`, each
/// described under `name`: a field on one side only, or two values that are
/// not equal.  Numbers may differ by 1e-9 (counters are integral and compare
/// exactly; the quality ratios tolerate last-ulp float differences).
fn field_drift(name: &str, got: &Value, want: &Value, skip: &str) -> Vec<String> {
    let has = |row: &Value, field: &str| fields(row).iter().any(|(name, _)| name == field);
    let mut problems = Vec::new();
    for (field, w) in fields(want).iter().filter(|(field, _)| field != skip) {
        if !has(got, field) {
            problems.push(format!("{name}.{field}: missing from this run"));
            continue;
        }
        let g = &got[field.as_str()];
        let same = match (g.as_f64(), w.as_f64()) {
            (Some(g), Some(w)) => (g - w).abs() <= 1e-9,
            _ => g == w,
        };
        if !same {
            let (g, w) = (g.to_string_pretty(), w.to_string_pretty());
            problems.push(format!("{name}.{field}: got {g}, reference {w}"));
        }
    }
    for (field, _) in fields(got).iter().filter(|(field, _)| !has(want, field)) {
        problems.push(format!("{name}.{field}: new in this run"));
    }
    problems
}

/// The `(field, value)` pairs of a JSON object row; none for anything else.
fn fields(row: &Value) -> &[(String, Value)] {
    match row {
        Value::Object(pairs) => pairs,
        _ => &[],
    }
}

/// One measured algorithm run, as reported in Figures 8–12 of the paper
/// (running time, computation selectivity, shuffling cost).
#[derive(Debug, Clone)]
pub struct AlgorithmRow {
    /// Algorithm name ("PGBJ", "PBJ", "H-BRJ").
    pub algorithm: String,
    /// Total running time in seconds.
    pub running_time_s: f64,
    /// Computation selectivity in "per thousand" units, as plotted by the
    /// paper.
    pub selectivity_per_thousand: f64,
    /// Shuffling cost in MiB.
    pub shuffle_mib: f64,
    /// Records crossing the shuffle across all of the algorithm's jobs
    /// (post-combine).
    pub shuffle_records: u64,
    /// Average replication of `S` objects.
    pub avg_replication: f64,
}

impl AlgorithmRow {
    /// The row as a JSON object, prefixed with one sweep field (e.g.
    /// `"k": 10` or `"sweep": "x5"`).
    pub(crate) fn to_json_with(&self, sweep_key: &str, sweep: Value) -> Value {
        Value::object(vec![
            (sweep_key, sweep),
            ("algorithm", self.algorithm.as_str().into()),
            ("running_time_s", self.running_time_s.into()),
            (
                "selectivity_per_thousand",
                self.selectivity_per_thousand.into(),
            ),
            ("shuffle_mib", self.shuffle_mib.into()),
            ("shuffle_records", (self.shuffle_records as f64).into()),
            ("avg_replication", self.avg_replication.into()),
        ])
    }
}

/// Runs PGBJ, PBJ and H-BRJ on the same workload through the [`JoinBuilder`]
/// and the shared execution context, reporting one row per algorithm.  This
/// is the comparison core of Figures 8–12.
pub(crate) fn run_three_algorithms(
    workloads: &Workloads,
    r: &PointSet,
    s: &PointSet,
    k: usize,
    reducers: usize,
) -> Vec<AlgorithmRow> {
    let pivots = workloads.default_pivots();
    [Algorithm::Hbrj, Algorithm::Pbj, Algorithm::Pgbj]
        .iter()
        .map(|&algorithm| {
            let result = JoinBuilder::new(r, s)
                .k(k)
                .metric(DistanceMetric::Euclidean)
                .algorithm(algorithm)
                .pivot_count(pivots)
                .reducers(reducers)
                .run(workloads.context())
                .expect("experiment join must succeed");
            let m = &result.metrics;
            AlgorithmRow {
                algorithm: algorithm.name().to_string(),
                running_time_s: m.total_time().as_secs_f64(),
                selectivity_per_thousand: m.computation_selectivity() * 1000.0,
                shuffle_mib: m.shuffle_mib(),
                shuffle_records: m.shuffle_records,
                avg_replication: m.average_replication(),
            }
        })
        .collect()
}

/// Builds the standard three-metric tables (running time, selectivity,
/// shuffling cost) from rows keyed by a sweep variable; shared by the
/// Figure 8–12 experiments.
pub(crate) fn three_metric_tables(
    title_prefix: &str,
    sweep_name: &str,
    rows: &[(String, Vec<AlgorithmRow>)],
) -> Vec<Table> {
    let algorithms: Vec<String> = rows
        .first()
        .map(|(_, algs)| algs.iter().map(|a| a.algorithm.clone()).collect())
        .unwrap_or_default();
    let mut header: Vec<&str> = vec![sweep_name];
    let alg_names: Vec<&str> = algorithms.iter().map(String::as_str).collect();
    header.extend(&alg_names);

    let mut time = Table::new(format!("{title_prefix} (a) running time [s]"), &header);
    let mut selectivity = Table::new(
        format!("{title_prefix} (b) computation selectivity [per thousand]"),
        &header,
    );
    let mut shuffle = Table::new(format!("{title_prefix} (c) shuffling cost [MiB]"), &header);
    for (sweep_value, algs) in rows {
        let mut time_row = vec![sweep_value.clone()];
        let mut sel_row = vec![sweep_value.clone()];
        let mut shuf_row = vec![sweep_value.clone()];
        for a in algs {
            time_row.push(fmt_f64(a.running_time_s));
            sel_row.push(fmt_f64(a.selectivity_per_thousand));
            shuf_row.push(fmt_f64(a.shuffle_mib));
        }
        time.add_row(time_row);
        selectivity.add_row(sel_row);
        shuffle.add_row(shuf_row);
    }
    vec![time, selectivity, shuffle]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole-row diff `experiments --check` runs: every field of either
    /// row is compared, so a gate cannot silently compare nothing.
    #[test]
    fn diff_rows_compares_every_field_of_every_row() {
        let row = |label: &str, fields: Vec<(&str, Value)>| {
            let mut pairs = vec![("label", Value::from(label))];
            pairs.extend(fields);
            Value::object(pairs)
        };
        let committed = Value::Array(vec![
            row("a", vec![("count", 7.0.into()), ("recall", 0.9.into())]),
            row("b", vec![("count", 3.0.into())]),
        ]);
        let diff = |rows: Vec<Value>| diff_rows(&Value::Array(rows), &committed, "label");
        let b = row("b", vec![("count", 3.0.into())]);
        // `recall` off by 1e-12 is a last-ulp difference, not drift.
        let close = row(
            "a",
            vec![("count", 7.0.into()), ("recall", (0.9 + 1e-12).into())],
        );
        assert_eq!(diff(vec![close, b.clone()]), [""; 0]);
        // A changed counter.
        let changed = row("a", vec![("count", 8.0.into()), ("recall", 0.9.into())]);
        assert_eq!(
            diff(vec![changed, b.clone()]),
            ["a.count: got 8, reference 7"]
        );
        // A field missing from the run.
        let missing = row("a", vec![("count", 7.0.into())]);
        assert_eq!(
            diff(vec![missing, b.clone()]),
            ["a.recall: missing from this run"]
        );
        // A field new in the run.
        let new_field = row(
            "a",
            vec![
                ("count", 7.0.into()),
                ("recall", 0.9.into()),
                ("extra", 1.0.into()),
            ],
        );
        assert_eq!(
            diff(vec![new_field, b.clone()]),
            ["a.extra: new in this run"]
        );
        // A row new in the run.
        let a = row("a", vec![("count", 7.0.into()), ("recall", 0.9.into())]);
        let c = row("c", vec![("count", 1.0.into())]);
        assert_eq!(
            diff(vec![a, b, c]),
            ["c: new in this run — regenerate the committed baseline"]
        );
    }

    #[test]
    fn run_by_id_recognises_all_ids() {
        for id in ALL_EXPERIMENTS {
            // Only check dispatch for cheap experiments here; heavy ones are
            // covered by their own module tests in quick scale.
            if *id == "table2" {
                assert!(run_by_id(id, ExperimentScale::Quick).is_some());
            }
        }
        assert!(run_by_id("nonsense", ExperimentScale::Quick).is_none());
    }

    #[test]
    fn three_algorithm_comparison_produces_all_rows() {
        let w = Workloads::new(ExperimentScale::Quick);
        let data = w.forest_default();
        let rows = run_three_algorithms(&w, &data, &data, 5, 4);
        assert_eq!(rows.len(), 3);
        let names: Vec<&str> = rows.iter().map(|r| r.algorithm.as_str()).collect();
        assert_eq!(names, vec!["H-BRJ", "PBJ", "PGBJ"]);
        for row in &rows {
            assert!(row.running_time_s >= 0.0);
            assert!(row.selectivity_per_thousand > 0.0);
            assert!(row.shuffle_mib > 0.0);
            assert!(row.avg_replication >= 1.0);
        }
    }

    #[test]
    fn three_metric_tables_have_one_row_per_sweep_value() {
        let w = Workloads::new(ExperimentScale::Quick);
        let data = w.forest_default();
        let rows = vec![
            (
                "5".to_string(),
                run_three_algorithms(&w, &data, &data, 5, 4),
            ),
            (
                "10".to_string(),
                run_three_algorithms(&w, &data, &data, 10, 4),
            ),
        ];
        let tables = three_metric_tables("Figure X", "k", &rows);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.row_count(), 2);
        }
    }

    #[test]
    fn experiment_output_markdown_contains_tables() {
        let out = ExperimentOutput {
            id: "demo".into(),
            paper_artifact: "Demo artifact".into(),
            tables: vec![Table::new("T", &["a"])],
            json: Value::Array(vec![]),
        };
        let md = out.to_markdown();
        assert!(md.contains("## demo"));
        assert!(md.contains("### T"));
    }
}
