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
//! fig12 perf_baseline mutable_corpus`.  Without `--quick` the full (report)
//! scale is used; with it, a much smaller smoke-test scale.  Tables are always printed to
//! stdout; `--markdown`/`--json` additionally write them to files.
//!
//! `--check` compares the run's rows against a committed reference JSON,
//! whole rows, and exits non-zero on any drift: a row or a field on one
//! side only, or two values more than 1e-9 apart.  Two experiments carry
//! committed references: `perf_baseline` (keyed by `algorithm`; e.g.
//! `BENCH_baseline_quick.json` — distance computations, pivot-assignment
//! computations, index builds, shuffle volume, recall and distance ratio)
//! and `mutable_corpus` (keyed by `label`; `BENCH_mutable.json` —
//! delta-layer probe/tombstone/compaction counters).  Neither writes a clock
//! reading into its rows: every field is exact for the seed.  Running times, latencies and throughput are measured with a
//! spread by `benchmark/` and declared in `BENCHMARK.json`; the paper's
//! figures still print their running-time panels, which no check reads.
//! A `perf_baseline` check also fails when a `Fast` row of the run, cold
//! or prepared, differs from its `Exact` twin on any field but its name
//! (no scan reads the mode), when a cold
//! PBJ row's pivot-assignment computations differ from its PGBJ twin's (they
//! run one front half), or when a cold row's shuffle records are not the
//! batches job 1's combiner lets through plus one per routed object and one
//! per merge-job partial list (a cell slice is accounted as its rows, a
//! partial list as one), whatever the reference says.
//! CI runs the three gates (`perf_baseline` quick and full,
//! `mutable_corpus` quick) on every push, so an unexplained counter regression
//! fails the build instead of silently shifting the baseline.

#![forbid(unsafe_code)]
// Progress lines time each experiment; no clock reading reaches a row.
#![allow(clippy::disallowed_methods)]
#![deny(clippy::disallowed_types)]

use bench::experiments::{
    check_key, cold_rows_off_their_shuffle_identity, diff_rows, fast_rows_off_their_exact_twin,
    pbj_rows_off_their_pgbj_twin, run_by_id, ExperimentOutput, ALL_EXPERIMENTS,
};
use bench::json::Value;
use bench::ExperimentScale;
use std::io::Write;
use std::process::ExitCode;

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
            let Some(key_field) = check_key(&output.id) else {
                continue;
            };
            // The {"<id>": [...]} wrapper the --json flag writes.
            let reference = &committed[output.id.as_str()];
            if reference.as_array().is_none() {
                eprintln!("{path} has no {} rows — skipping that check", output.id);
                continue;
            }
            checked += 1;
            let mut drift = diff_rows(&output.json, reference, key_field);
            if output.id == "perf_baseline" {
                drift.extend(fast_rows_off_their_exact_twin(&output.json));
                drift.extend(pbj_rows_off_their_pgbj_twin(&output.json));
                drift.extend(cold_rows_off_their_shuffle_identity(&output.json));
            }
            problems.extend(drift.into_iter().map(|p| format!("{}: {p}", output.id)));
        }
        if checked == 0 {
            eprintln!(
                "--check requires a checkable experiment (perf_baseline or \
                 mutable_corpus) to have run with reference rows in {path}"
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
        "  --check: diff the rows of perf_baseline and/or mutable_corpus \
         against a committed reference, every field; non-zero exit on drift"
    );
}
