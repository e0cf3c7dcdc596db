//! `knnbench` — the repo's one benchmark: cold batch joins, serving and
//! churn, timed end to end and attributed layer by layer.
//!
//! Rule for keeping this crate compilable across the roadmap: it drives the
//! program only through `JoinBuilder` / `JoinPlan` / `PreparedJoin` /
//! `Server` / `JoinMetrics` and, for the per-layer numbers, the layers' own
//! public entry points (`geom::kernels`, `select_pivots`,
//! `VoronoiPartitioner`, `SummaryTables::build`, `PartitionBounds::compute`,
//! `build_grouping`, `mapreduce::JobBuilder`, `spatial::RTree`).  It must not
//! import `knnjoin::algorithms::common::*` or any `*Config` struct of an
//! algorithm: ROADMAP item 1 deletes them.
//!
//! ```text
//! knnbench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! knnbench run <all|W> [--seed N] [--seconds S]            untraced + traced run of each workload
//! knnbench repeat [--seed A --seed B] [--seconds S]        two sets per seed, compared with the bounds
//! knnbench manifest | fields                               BENCHMARK.json | the README field table
//! ```

mod data;
mod layers;
mod loadgen;
mod metrics;
mod oracle;
mod stats;
mod trace;
mod workload;
mod yardstick;

use data::{Scale, WORKLOADS};
use metrics::{Values, END_TO_END, HIGHER, RUN_SECONDS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::RunConfig;

/// Where traced runs leave `trace-<workload>.json`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The result line of one finished run and whether every output was right.
struct Finished {
    line: String,
    correct: bool,
}

/// One run of one workload in this process: measures, checks, prints the
/// metrics by name with their units, and returns the driver's result line.
fn run_once(cfg: &RunConfig, trace_dir: &Path) -> Result<Finished, String> {
    let rec = trace::Recorder::new(cfg.trace);
    let (measured, stage) = workload::run(cfg, &rec).map_err(|e| e.to_string())?;
    let values = if cfg.trace {
        let first_pgbj = measured.rounds[0]
            .metrics
            .first()
            .cloned()
            .unwrap_or_default();
        let counts = layers::measure(&rec, &stage, &first_pgbj).map_err(|e| e.to_string())?;
        let spans = rec.spans();
        std::fs::create_dir_all(trace_dir).map_err(|e| e.to_string())?;
        let path = trace_dir.join(format!("trace-{}.json", cfg.workload.name));
        std::fs::write(&path, trace::to_json(cfg.workload.name, cfg.seed, &spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# {} spans written to {}", spans.len(), path.display());
        metrics::per_layer_values(&measured, &spans, &counts)
    } else {
        metrics::end_to_end_values(cfg.min_cycles(), &measured)
    };

    let layers = metrics::per_layer();
    let expected: Vec<(&str, &str)> = if cfg.trace {
        layers.iter().map(|m| (m.name.as_str(), m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    println!(
        "# workload {} seed {} seconds {} trace {} threads {}",
        cfg.workload.name,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        stage.ctx.workers()
    );
    print_samples(&measured);
    for (name, unit) in &expected {
        println!("{name:<44} {:>16.6} {unit}", values[*name]);
    }
    for why in &measured.gate.examples {
        println!("# FAILED: {why}");
    }
    let gate = &measured.gate;
    let line = metrics::result_line(&values, &expected, gate.attempted.max(1), gate.failed)?;
    Ok(Finished {
        line,
        correct: gate.failed == 0,
    })
}

/// Beside the metrics: each sample's size, its median as the clock read it
/// and speed-adjusted, and the highest percentile a sample of that size
/// supports (at least ten samples beyond it).
fn print_samples(m: &workload::Measured) {
    let line = |name: &str, unit: &str, raw: &[f64], adjusted: &[f64]| {
        let q = stats::highest_supported_percentile(raw.len());
        println!(
            "# {name}: n={} p50 {:.4} (adjusted {:.4}) p{} {:.4} {unit}",
            raw.len(),
            stats::median(raw),
            stats::median(adjusted),
            q * 100.0,
            stats::quantile(&stats::sorted(raw.to_vec()), q),
        );
    };
    let (raw, adj) = (&m.raw, &m.adjusted);
    line("set-ups", "s", &raw.setup_s, &adj.setup_s);
    for (i, op) in workload::BATCH_OPS.iter().enumerate() {
        line(
            &format!("{} joins", op.key),
            "s",
            &raw.join_s[i],
            &adj.join_s[i],
        );
    }
    line(
        "lone singles",
        "us",
        &raw.lone.single_us,
        &adj.lone.single_us,
    );
    line(
        "mixed singles",
        "us",
        &raw.mixed.single_us,
        &adj.mixed.single_us,
    );
    line(
        "mixed batches",
        "ms",
        &raw.mixed.batch_ms,
        &adj.mixed.batch_ms,
    );
    line(
        "generator lag (lone)",
        "us",
        &raw.lone.lag_us,
        &raw.lone.lag_us,
    );
    line(
        "generator lag (mixed)",
        "us",
        &raw.mixed.lag_us,
        &raw.mixed.lag_us,
    );
    line(
        "capacity",
        "1/s",
        &raw.capacity.answered_per_s,
        &adj.capacity.answered_per_s,
    );
    line(
        "churn writes",
        "us",
        &raw.churn.write_us,
        &adj.churn.write_us,
    );
    line(
        "churn compacting writes",
        "ms",
        &raw.churn.compact_ms,
        &adj.churn.compact_ms,
    );
    line("churn reads", "us", &raw.churn.read_us, &adj.churn.read_us);
    line(
        "cycle write means",
        "us",
        &raw.churn.write_mean_us,
        &adj.churn.write_mean_us,
    );
    line(
        "cycle read medians",
        "us",
        &raw.churn.read_p50_us,
        &adj.churn.read_p50_us,
    );
    line("cycle slowdowns", "x", &m.slowdowns, &m.slowdowns);
    println!(
        "# gate: {} attempted, {} failed",
        m.gate.attempted, m.gate.failed
    );
}

/// Options shared by every mode.
struct Options {
    workload: Option<String>,
    seeds: Vec<u64>,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seeds: Vec::new(),
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        scale: Scale::Full,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            options.scale = Scale::Smoke;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => options.workload = Some(value.clone()),
            "--seed" => options.seeds.push(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| bad())?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(options)
}

/// Runs one workload in a fresh process (so `peak_rss_mib` is its own) and
/// reads its result line back.
fn run_child(
    workload: &str,
    seed: u64,
    options: &Options,
    trace: bool,
) -> Result<(bool, Values), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload, "--seed", &seed.to_string()]);
    command.args(["--seconds", &options.seconds.to_string()]);
    command.args(["--trace", if trace { "1" } else { "0" }]);
    if options.scale == Scale::Smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout.lines().last().and_then(metrics::parse_result_line);
    let Some((correct, _, _, values)) = parsed else {
        return Err(format!(
            "{workload} printed no result:\n{stdout}{}",
            String::from_utf8_lossy(&output.stderr)
        ));
    };
    Ok((correct, values))
}

fn chosen_workloads(which: &str) -> Result<Vec<&'static str>, String> {
    if which == "all" {
        return Ok(WORKLOADS.iter().map(|w| w.name).collect());
    }
    data::workload(which)
        .map(|w| vec![w.name])
        .ok_or_else(|| format!("unknown workload {which}"))
}

/// `knnbench run`: every metric of every chosen workload, untraced run for
/// the end-to-end table and traced run for the per-layer table.
fn run_mode(which: &str, options: &Options) -> Result<bool, String> {
    let seed = options.seeds.first().copied().unwrap_or(2012);
    let mut all_correct = true;
    let units = metrics::units();
    for name in chosen_workloads(which)? {
        for trace in [false, true] {
            let (correct, values) = run_child(name, seed, options, trace)?;
            all_correct &= correct;
            println!(
                "## {name} seed {seed} trace {} correct {correct}",
                u8::from(trace)
            );
            for (metric, value) in &values {
                let unit = units.get(metric).copied().unwrap_or("?");
                println!("{metric:<44} {value:>16.6} {unit}");
            }
        }
    }
    Ok(all_correct)
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(first: f64, second: f64, better: &str) -> f64 {
    let change = (second - first) / first;
    if better == HIGHER {
        -change
    } else {
        change
    }
}

/// `knnbench repeat`: two full sets per seed.  Same-seed sets must agree
/// within each end-to-end metric's bound and exactly on the exact counts;
/// the difference between seeds is printed beside them.
fn repeat_mode(options: &Options) -> Result<bool, String> {
    let seeds = match options.seeds.as_slice() {
        [] => vec![2012, 2013],
        [only] => vec![*only, only + 1],
        given => given.to_vec(),
    };
    let exact: Vec<String> = END_TO_END
        .iter()
        .filter(|m| m.exact)
        .map(|m| m.name.to_string())
        .chain(
            metrics::per_layer()
                .into_iter()
                .filter(|m| m.exact)
                .map(|m| m.name),
        )
        .collect();
    let mut agree = true;
    let mut first_sets: Vec<Values> = Vec::new();
    println!(
        "# knnbench repeat: seeds {seeds:?}, {} s per run, 2 sets per seed",
        options.seconds
    );
    println!("| workload | metric | seed | set 1 | set 2 | worse by | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|");
    for name in chosen_workloads("all")? {
        for &seed in &seeds {
            let mut sets = Vec::new();
            for set in 1..=2 {
                eprintln!("# {name} seed {seed} set {set} ...");
                let (correct, mut values) = run_child(name, seed, options, false)?;
                let (traced_correct, layers) = run_child(name, seed, options, true)?;
                agree &= correct && traced_correct;
                values.extend(layers);
                sets.push(values);
            }
            for m in &END_TO_END {
                let (a, b) = (sets[0][m.name], sets[1][m.name]);
                let worse = worsening(a, b, m.better).abs();
                let ok = worse <= m.bound;
                agree &= ok;
                println!(
                    "| {name} | {} | {seed} | {a:.4} | {b:.4} | {:.1}% | {:.0}% | {} |",
                    m.name,
                    worse * 100.0,
                    m.bound * 100.0,
                    if ok { "ok" } else { "DISAGREE" }
                );
            }
            for metric in &exact {
                let (a, b) = (sets[0][metric], sets[1][metric]);
                let ok = a == b;
                agree &= ok;
                println!(
                    "| {name} | {metric} | {seed} | {a} | {b} | exact | 0 | {} |",
                    if ok { "ok" } else { "DISAGREE" }
                );
            }
            first_sets.push(sets.swap_remove(0));
        }
    }
    println!("\n# between seeds (set 1 of each; informative, not gated)");
    println!(
        "| workload | metric | {} | spread ÷ median |",
        seeds
            .iter()
            .map(|s| format!("seed {s}"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    println!("|---|---|{}---|", "---|".repeat(seeds.len()));
    for (w, name) in chosen_workloads("all")?.into_iter().enumerate() {
        let sets = &first_sets[w * seeds.len()..(w + 1) * seeds.len()];
        for m in &END_TO_END {
            let values: Vec<f64> = sets.iter().map(|s| s[m.name]).collect();
            let sorted = stats::sorted(values.clone());
            let spread = (sorted[sorted.len() - 1] - sorted[0]) / stats::median(&values);
            let cells: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "| {name} | {} | {} | {:.1}% |",
                m.name,
                cells.join(" | "),
                spread * 100.0
            );
        }
    }
    println!(
        "\n{}",
        if agree {
            "AGREE: every same-seed pair is within its bound"
        } else {
            "DISAGREE"
        }
    );
    Ok(agree)
}

/// The README's field table, generated from the metric tables.
fn fields_markdown() -> String {
    let mut out = String::from(
        "| name | unit | better | bound | kind | layer → end-to-end metric it should move |\n|---|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        let kind = if m.name == "pgbj_shuffle_bytes" {
            "exact count"
        } else {
            "timed"
        };
        out += &format!(
            "| `{}` | {} | {} | {:.0}% | {kind} | end to end: {} |\n",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0,
            m.what
        );
    }
    for m in metrics::per_layer() {
        let layer = m.name.split('.').next().unwrap_or_default();
        let kind = if m.exact {
            "exact count"
        } else {
            "timed / varies"
        };
        out += &format!(
            "| `{}` | {} | {} | – | {kind} | `{layer}` → {} |\n",
            m.name, m.unit, m.better, m.moves
        );
    }
    out
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => print!("{}", metrics::benchmark_json()),
        Some("fields") => print!("{}", fields_markdown()),
        Some("run") => {
            let which = args.get(1).ok_or("run needs `all` or a workload name")?;
            return run_mode(which, &parse_options(&args[2..])?);
        }
        Some("repeat") => return repeat_mode(&parse_options(&args[1..])?),
        _ => {
            let options = parse_options(args)?;
            let name = options
                .workload
                .as_deref()
                .ok_or("--workload is required")?;
            let cfg = RunConfig {
                workload: data::workload(name).ok_or_else(|| format!("unknown workload {name}"))?,
                seed: options.seeds.last().copied().unwrap_or(2012),
                seconds: options.seconds,
                scale: options.scale,
                trace: options.trace,
            };
            let finished = run_once(&cfg, &out_dir())?;
            println!("{}", finished.line);
            return Ok(finished.correct);
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("knnbench: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at smoke scale, untraced and traced: the run is
    /// correct and prints exactly the metric names of the tables (which
    /// `committed_manifest_is_the_generated_one` ties to `BENCHMARK.json`).
    #[test]
    fn smoke_runs_print_exactly_the_declared_metrics() {
        for w in &WORKLOADS {
            for trace in [false, true] {
                let cfg = RunConfig {
                    workload: w,
                    seed: 5,
                    seconds: 1.5,
                    scale: Scale::Smoke,
                    trace,
                };
                let started = std::time::Instant::now();
                let finished = run_once(&cfg, &out_dir().join("smoke")).expect("smoke run");
                assert!(started.elapsed().as_secs_f64() < 20.0, "smoke run too slow");
                assert!(finished.correct, "{}", finished.line);
                let (correct, attempted, failed, values) =
                    metrics::parse_result_line(&finished.line).expect("result line parses");
                assert!(correct && attempted > 100 && failed == 0);
                let names: Vec<String> = values.into_keys().collect();
                let mut declared: Vec<String> = if trace {
                    metrics::per_layer().into_iter().map(|m| m.name).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name.to_string()).collect()
                };
                declared.sort_unstable();
                assert_eq!(names, declared);
            }
        }
        let trace = std::fs::read_to_string(out_dir().join("smoke/trace-osm2d.json")).unwrap();
        assert!(trace.contains("\"name\": \"pivots.select_pivots\""));
        assert!(trace.contains("\"name\": \"algorithms.knn_join\""));
    }

    #[test]
    fn readme_field_table_is_the_generated_one() {
        let readme = include_str!("../README.md");
        assert!(
            readme.contains(&fields_markdown()),
            "paste the output of `knnbench fields` into README.md"
        );
    }

    #[test]
    fn options_parse_the_driver_flags() {
        let args: Vec<String> = "--workload osm2d --seed 9 --seconds 3 --trace 1 --smoke"
            .split(' ')
            .map(String::from)
            .collect();
        let options = parse_options(&args).unwrap();
        assert_eq!(options.workload.as_deref(), Some("osm2d"));
        assert_eq!(options.seeds, [9]);
        assert_eq!(options.seconds, 3.0);
        assert!(options.trace && options.scale == Scale::Smoke);
        assert!(parse_options(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_options(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_options(&["--seed".into()]).is_err());
        assert!(parse_options(&["--what".into(), "1".into()]).is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, metrics::LOWER) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, HIGHER) - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, metrics::LOWER) < 0.0);
    }
}
