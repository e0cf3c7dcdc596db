//! Command-line harness regenerating the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! experiments <id|all> [--quick] [--markdown <path>] [--json <path>]
//!                      [--check <committed.json>]
//! ```
//!
//! where `<id>` is one of `table2 table3 fig6 fig7 fig8 fig9 fig10 fig11
//! fig12 perf_baseline mutable_corpus serving_slo`.  Without `--quick` the
//! full (report) scale is used;
//! with it, a much smaller smoke-test scale.  Tables are always printed to
//! stdout; `--markdown`/`--json` additionally write them to files.
//!
//! `--check` compares the run's rows against a committed reference JSON and
//! exits non-zero on any drift in the *deterministic* quantities.  Three
//! experiments carry committed references: `perf_baseline` (keyed by
//! `algorithm`; e.g. `BENCH_baseline_quick.json` — distance computations,
//! pivot-assignment computations, index builds, shuffle volume, recall and
//! distance ratio), `mutable_corpus` (keyed by `label`; e.g.
//! `BENCH_mutable.json` — delta-layer probe/tombstone/compaction counters)
//! and `serving_slo` (keyed by `label`; e.g. `BENCH_serving_quick.json` —
//! request/response/rejection accounting of the concurrent server).  Those
//! three write no clock reading into their rows: every field is exact for
//! the seed.  Running times, latencies and throughput are measured with a
//! spread by `benchmark/` and declared in `BENCHMARK.json`; the paper's
//! figures still print their running-time panels, which no check reads.
//! A `perf_baseline` check also fails when a `Fast` row of the run, cold
//! or prepared, differs from its `Exact` twin on any deterministic field
//! (no scan reads the mode), when a cold
//! PBJ row's pivot-assignment computations differ from its PGBJ twin's (they
//! run one front half), or when a cold PGBJ row's shuffle records are not
//! job 1's batches plus one per routed object (a cell slice is accounted as
//! its rows), whatever the reference says.
//! CI runs all three on every push, so an unexplained counter regression
//! fails the build instead of silently shifting the baseline.

#![forbid(unsafe_code)]

use bench::experiments::{
    fast_rows_off_their_exact_twin, pbj_rows_off_their_pgbj_twin,
    pgbj_rows_off_their_shuffle_identity, run_by_id, ExperimentOutput, ALL_EXPERIMENTS,
    BASELINE_FIELDS,
};
use bench::json::Value;
use bench::ExperimentScale;
use std::io::Write;
use std::process::ExitCode;

/// The mutable-corpus fields that must be bit-stable for a fixed seed.
/// A drift in `delta_probe_computations` or `tombstone_masked` means the
/// memtable merge changed; a drift in `distance_computations` on the
/// `churn=0%` rows means the frozen path is no longer bit-identical when
/// the overlay is empty.
const MUTABLE_FIELDS: [&str; 6] = [
    "distance_computations",
    "delta_probe_computations",
    "tombstone_masked",
    "compactions",
    "compacted_points",
    "live_points",
];

/// The serving-SLO fields that must be exact for a fixed configuration.
/// A drift in `responses` or `rows` means requests were dropped or
/// duplicated under concurrency; a drift in `rejected` on the overload row
/// means admission control stopped being deterministic.
const SERVING_FIELDS: [&str; 6] = [
    "clients",
    "requests",
    "responses",
    "result_errors",
    "rejected",
    "rows",
];

/// Which experiments carry a committed reference, which field uniquely keys
/// their rows, and which columns must match bit-for-bit.
fn check_spec(id: &str) -> Option<(&'static str, &'static [&'static str])> {
    match id {
        "perf_baseline" => Some(("algorithm", &BASELINE_FIELDS)),
        "mutable_corpus" => Some(("label", &MUTABLE_FIELDS)),
        "serving_slo" => Some(("label", &SERVING_FIELDS)),
        _ => None,
    }
}

/// Compares a fresh run's rows against the committed reference, matching
/// rows on `key_field`, returning a description of every drifted quantity.
fn diff_rows(got: &Value, committed: &Value, key_field: &str, fields: &[&str]) -> Vec<String> {
    let mut problems = Vec::new();
    let (Some(got_rows), Some(want_rows)) = (got.as_array(), committed.as_array()) else {
        return vec!["both the run and the reference must be row arrays".into()];
    };
    let find = |rows: &[Value], name: &str| -> Option<Value> {
        rows.iter()
            .find(|r| r[key_field].as_str() == Some(name))
            .cloned()
    };
    for want in want_rows {
        let Some(name) = want[key_field].as_str() else {
            problems.push(format!("reference row without a {key_field} key"));
            continue;
        };
        let Some(got_row) = find(got_rows, name) else {
            problems.push(format!("{name}: missing from this run"));
            continue;
        };
        for &field in fields {
            let (g, w) = (got_row[field].as_f64(), want[field].as_f64());
            match (g, w) {
                (Some(g), Some(w)) => {
                    // Counters are integral and compare exactly; the quality
                    // ratios tolerate last-ulp float differences.
                    if (g - w).abs() > 1e-9 {
                        problems.push(format!("{name}.{field}: got {g}, reference {w}"));
                    }
                }
                _ => problems.push(format!("{name}.{field}: missing on one side")),
            }
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_usage();
        return ExitCode::SUCCESS;
    }

    let target = args[0].clone();
    let mut scale = ExperimentScale::Full;
    let mut markdown_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = ExperimentScale::Quick,
            "--markdown" => {
                i += 1;
                markdown_path = args.get(i).cloned();
                if markdown_path.is_none() {
                    eprintln!("--markdown requires a path");
                    return ExitCode::FAILURE;
                }
            }
            "--json" => {
                i += 1;
                json_path = args.get(i).cloned();
                if json_path.is_none() {
                    eprintln!("--json requires a path");
                    return ExitCode::FAILURE;
                }
            }
            "--check" => {
                i += 1;
                check_path = args.get(i).cloned();
                if check_path.is_none() {
                    eprintln!("--check requires a path");
                    return ExitCode::FAILURE;
                }
            }
            other => {
                eprintln!("unknown argument: {other}");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let ids: Vec<&str> = if target == "all" {
        ALL_EXPERIMENTS.to_vec()
    } else if ALL_EXPERIMENTS.contains(&target.as_str()) {
        vec![target.as_str()]
    } else {
        eprintln!("unknown experiment id: {target}");
        print_usage();
        return ExitCode::FAILURE;
    };

    let mut outputs: Vec<ExperimentOutput> = Vec::new();
    for id in ids {
        eprintln!("running {id} ({:?} scale)...", scale);
        let started = std::time::Instant::now();
        let output = run_by_id(id, scale).expect("id validated above");
        eprintln!("  done in {:.1}s", started.elapsed().as_secs_f64());
        println!("{}", output.to_markdown());
        outputs.push(output);
    }

    if let Some(path) = markdown_path {
        let mut content = String::new();
        for o in &outputs {
            content.push_str(&o.to_markdown());
            content.push('\n');
        }
        if let Err(e) = write_file(&path, content.as_bytes()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = json_path {
        let combined = bench::json::Value::Object(
            outputs
                .iter()
                .map(|o| (o.id.clone(), o.json.clone()))
                .collect(),
        );
        let rendered = combined.to_string_pretty();
        if let Err(e) = write_file(&path, rendered.as_bytes()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }

    if let Some(path) = check_path {
        let committed = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let committed = match Value::parse(&committed) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("failed to parse {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut checked = 0usize;
        let mut problems: Vec<String> = Vec::new();
        for output in &outputs {
            let Some((key_field, fields)) = check_spec(&output.id) else {
                continue;
            };
            // Accept both the {"<id>": [...]} wrapper the --json flag
            // writes and (for perf_baseline back-compat) a bare row array.
            let reference = match &committed {
                Value::Object(_) => committed[output.id.as_str()].clone(),
                other if output.id == "perf_baseline" => other.clone(),
                _ => Value::Null,
            };
            if reference.as_array().is_none() {
                eprintln!("{path} has no {} rows — skipping that check", output.id);
                continue;
            }
            checked += 1;
            let mut drift = diff_rows(&output.json, &reference, key_field, fields);
            if output.id == "perf_baseline" {
                drift.extend(fast_rows_off_their_exact_twin(&output.json));
                drift.extend(pbj_rows_off_their_pgbj_twin(&output.json));
                drift.extend(pgbj_rows_off_their_shuffle_identity(&output.json));
            }
            problems.extend(drift.into_iter().map(|p| format!("{}: {p}", output.id)));
        }
        if checked == 0 {
            eprintln!(
                "--check requires a checkable experiment (one of: perf_baseline, \
                 mutable_corpus, serving_slo) to have run with reference rows in {path}"
            );
            return ExitCode::FAILURE;
        }
        if problems.is_empty() {
            eprintln!("baseline check against {path}: all deterministic counters match");
        } else {
            eprintln!("baseline check against {path} FAILED:");
            for p in &problems {
                eprintln!("  {p}");
            }
            eprintln!(
                "if the change is intentional, regenerate the committed baseline \
                 (see README, \"The persistent perf baseline\")"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn write_file(path: &str, contents: &[u8]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(contents)
}

fn print_usage() {
    eprintln!(
        "usage: experiments <id|all> [--quick] [--markdown <path>] [--json <path>] \
         [--check <committed.json>]"
    );
    eprintln!("  ids: {}", ALL_EXPERIMENTS.join(" "));
    eprintln!(
        "  --check: diff the deterministic counters of perf_baseline, \
         mutable_corpus and/or serving_slo against a committed reference; \
         non-zero exit on drift"
    );
}
