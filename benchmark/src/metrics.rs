//! The metric tables — the one place a metric's name, unit, direction and
//! bound are written down — and the arithmetic that turns a run's samples
//! into values.  `BENCHMARK.json` and the README field table are generated
//! from these tables, and a run refuses to report if the names it produced
//! differ from them.

use crate::data::WORKLOADS;
use crate::layers::LayerCounts;
use crate::stats::{mean, median, quantile, sorted};
use crate::trace::{durations_s, self_times, Span};
use crate::workload::{Measured, OpRounds, BATCH_OPS, ROUNDS_PER_CYCLE};
use knnjoin::metrics::phases;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one driver run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 50;

pub const LOWER: &str = "lower";
pub const HIGHER: &str = "higher";

/// A metric a user of the system sees; gated by `bound`.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    /// A count that repeats bit for bit for a seed.
    pub exact: bool,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 15] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: LOWER,
        bound: 0.25,
        exact: false,
        what: "one set-up: generate inputs, `prepare`, start a `Server`, first answer; one per cycle; adjusted",
    },
    EndToEnd {
        name: "pgbj_join_s",
        unit: "s",
        better: LOWER,
        bound: 0.20,
        exact: false,
        what: "wall of one cold `JoinBuilder::run`, PGBJ, `KernelMode::Exact`; two per cycle; adjusted",
    },
    EndToEnd {
        name: "pgbj_fast_join_s",
        unit: "s",
        better: LOWER,
        bound: 0.20,
        exact: false,
        what: "same, `KernelMode::Fast`",
    },
    EndToEnd {
        name: "pbj_join_s",
        unit: "s",
        better: LOWER,
        bound: 0.25,
        exact: false,
        what: "same, PBJ Exact",
    },
    EndToEnd {
        name: "hbrj_join_s",
        unit: "s",
        better: LOWER,
        bound: 0.25,
        exact: false,
        what: "same, H-BRJ Exact",
    },
    EndToEnd {
        name: "pgbj_shuffle_bytes",
        unit: "bytes",
        better: LOWER,
        bound: 0.10,
        exact: true,
        what: "`JoinMetrics::shuffle_bytes` of the PGBJ Exact join (the paper's shuffling cost), mean of the first 6 rounds; exact for a seed",
    },
    EndToEnd {
        name: "lone_p50_us",
        unit: "us",
        better: LOWER,
        bound: 0.25,
        exact: false,
        what: "single-point latency through `Server` at 500/s, where nothing coalesces; from the due time; as measured",
    },
    EndToEnd {
        name: "single_p50_us",
        unit: "us",
        better: LOWER,
        bound: 0.25,
        exact: false,
        what: "single-point latency in the mixed phase (1000 singles/s beside 10 batches/s); from the due time; as measured",
    },
    EndToEnd {
        name: "single_slo_share",
        unit: "share",
        better: HIGHER,
        bound: 0.15,
        exact: false,
        what: "mixed-phase singles answered correctly within 5 ms of their due time ÷ singles sent",
    },
    EndToEnd {
        name: "batch_p50_ms",
        unit: "ms",
        better: LOWER,
        bound: 0.25,
        exact: false,
        what: "latency of a 128-row `Server::submit` in the mixed phase; from the due time; adjusted",
    },
    EndToEnd {
        name: "serve_capacity_qps",
        unit: "1/s",
        better: HIGHER,
        bound: 0.25,
        exact: false,
        what: "singles answered per second, closed loop, 2 clients × 32 in flight; median over cycles; adjusted",
    },
    EndToEnd {
        name: "write_mean_us",
        unit: "us",
        better: LOWER,
        bound: 0.25,
        exact: false,
        what: "a `PreparedJoin::insert`/`delete` that did not compact, beside a reader; each cycle's mean without its slowest 1%, median over cycles; half adjusted (÷ √slowdown)",
    },
    EndToEnd {
        name: "compact_p50_ms",
        unit: "ms",
        better: LOWER,
        bound: 0.25,
        exact: false,
        what: "a write that crossed `delta_threshold` and compacted; adjusted",
    },
    EndToEnd {
        name: "churn_read_p50_us",
        unit: "us",
        better: LOWER,
        bound: 0.25,
        exact: false,
        what: "`PreparedJoin::query_one` back to back while 4000 writes/s land; each cycle's median, median over cycles; adjusted",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: LOWER,
        bound: 0.25,
        exact: false,
        what: "`VmHWM` of the run's process at exit",
    },
];

/// A single layer's metric; never gated.
#[derive(Debug)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// A count that repeats bit for bit for a seed (otherwise a timing, or a
    /// count that depends on thread timing).
    pub exact: bool,
    /// The end-to-end metric(s) it should move, and where.
    pub moves: &'static str,
}

fn layer(
    name: &str,
    unit: &'static str,
    better: &'static str,
    exact: bool,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name: name.to_string(),
        unit,
        better,
        exact,
        moves,
    }
}

pub fn per_layer() -> Vec<PerLayer> {
    const JOINS: &str = "*_join_s";
    const KERNEL: &str = "*_join_s on forest10d; nothing on osm2d or the serving phases";
    const SERVE: &str = "lone_p50_us, single_p50_us, batch_p50_ms, serve_capacity_qps";
    const CHURN: &str = "write_mean_us, compact_p50_ms, churn_read_p50_us";
    let mut all = vec![
        layer("geom.l2_scalar_ns_per_eval", "ns", LOWER, false, KERNEL),
        layer("geom.l2_batch_ns_per_eval", "ns", LOWER, false, KERNEL),
        layer(
            "pivots.select_s",
            "s",
            LOWER,
            false,
            "*_join_s (<1% share), setup_s",
        ),
        layer(
            "partition.assign_s",
            "s",
            LOWER,
            false,
            "pgbj_join_s, mostly on osm2d",
        ),
        layer(
            "partition.evals_per_point",
            "count",
            LOWER,
            true,
            "pgbj_join_s, mostly on osm2d",
        ),
        layer(
            "partition.pruned_share",
            "share",
            HIGHER,
            true,
            "pgbj_join_s, mostly on osm2d",
        ),
        layer("summary.build_s", "s", LOWER, false, "pgbj_join_s"),
        layer("bounds.compute_s", "s", LOWER, false, "pgbj_join_s"),
        layer("grouping.build_s", "s", LOWER, false, "pgbj_join_s"),
        layer(
            "grouping.replication_alpha",
            "ratio",
            LOWER,
            true,
            "pgbj_shuffle_bytes, pgbj_join_s",
        ),
        layer(
            "grouping.max_over_mean_group",
            "ratio",
            LOWER,
            true,
            "pgbj_join_s: the largest group sets knn_join_s",
        ),
        layer(
            "mapreduce.empty_job_us",
            "us",
            LOWER,
            false,
            "lone_p50_us, churn_read_p50_us (fixed cost per probe)",
        ),
        layer(
            "mapreduce.identity_job_s",
            "s",
            LOWER,
            false,
            "pgbj_join_s, hbrj_join_s on osm2d",
        ),
        layer(
            "mapreduce.records_per_s",
            "1/s",
            HIGHER,
            false,
            "pgbj_join_s, hbrj_join_s on osm2d",
        ),
        layer(
            "mapreduce.shuffle_mib_per_s",
            "MiB/s",
            HIGHER,
            false,
            "pgbj_join_s, hbrj_join_s on osm2d",
        ),
        layer(
            "mapreduce.shuffle_records",
            "count",
            LOWER,
            true,
            "pgbj_shuffle_bytes",
        ),
        layer(
            "mapreduce.combine_ratio",
            "ratio",
            LOWER,
            true,
            "pgbj_shuffle_bytes",
        ),
    ];
    for op in &BATCH_OPS {
        let key = op.key;
        for (infix, _) in op.phases {
            all.push(layer(
                &format!("algorithms.{key}.{infix}_s"),
                "s",
                LOWER,
                false,
                JOINS,
            ));
        }
        all.push(layer(
            &format!("algorithms.{key}.dist_evals"),
            "count",
            LOWER,
            true,
            JOINS,
        ));
        all.push(layer(
            &format!("algorithms.{key}.selectivity_permille"),
            "permille",
            LOWER,
            true,
            JOINS,
        ));
        all.push(layer(
            &format!("algorithms.{key}.ns_per_dist_eval"),
            "ns",
            LOWER,
            false,
            JOINS,
        ));
    }
    all.extend([
        layer(
            "algorithms.pgbj.pivot_assign_evals",
            "count",
            LOWER,
            true,
            "pgbj_join_s",
        ),
        layer("spatial.rtree_build_s", "s", LOWER, false, "hbrj_join_s"),
        layer("spatial.rtree_knn_us", "us", LOWER, false, "hbrj_join_s"),
        layer(
            "spatial.rtree_evals_per_query",
            "count",
            LOWER,
            true,
            "hbrj_join_s",
        ),
        layer("prepared.build_s", "s", LOWER, false, "setup_s"),
        layer("prepared.query_one_us", "us", LOWER, false, SERVE),
        layer("prepared.query_batch128_ms", "ms", LOWER, false, SERVE),
        layer("prepared.evals_per_row", "count", LOWER, true, SERVE),
        layer(
            "prepared.index_builds_per_query",
            "count",
            LOWER,
            true,
            "must stay 0",
        ),
        layer(
            "prepared.pivot_selections_per_query",
            "count",
            LOWER,
            true,
            "must stay 0",
        ),
        layer("delta.insert_us", "us", LOWER, false, CHURN),
        layer("delta.delete_us", "us", LOWER, false, CHURN),
        layer("delta.compact_ms", "ms", LOWER, false, CHURN),
        layer(
            "delta.query_one_us_full",
            "us",
            LOWER,
            false,
            "churn_read_p50_us (read amplification of a full overlay)",
        ),
        layer("delta.compactions", "count", LOWER, false, CHURN),
        layer(
            "delta.compacted_points_per_compaction",
            "count",
            LOWER,
            false,
            "compact_p50_ms",
        ),
        layer(
            "delta.probe_evals_per_query",
            "count",
            LOWER,
            false,
            "churn_read_p50_us",
        ),
        layer(
            "delta.tombstone_masked_per_query",
            "count",
            LOWER,
            false,
            "churn_read_p50_us",
        ),
        layer(
            "serving.overhead_us",
            "us",
            LOWER,
            false,
            "lone_p50_us (queue + coalesce wait + rendezvous)",
        ),
        layer(
            "serving.mean_coalesced_batch.lone",
            "count",
            LOWER,
            false,
            "lone_p50_us",
        ),
        layer(
            "serving.mean_coalesced_batch.mixed",
            "count",
            HIGHER,
            false,
            "single_p50_us, single_slo_share",
        ),
        layer(
            "serving.mean_coalesced_batch.capacity",
            "count",
            HIGHER,
            false,
            "serve_capacity_qps",
        ),
        layer(
            "serving.rejected",
            "count",
            LOWER,
            false,
            "single_slo_share",
        ),
        layer("serving.failed", "count", LOWER, false, "single_slo_share"),
        layer(
            "serving.gen_lag_p99_us",
            "us",
            LOWER,
            false,
            "none: how late the load generator ran",
        ),
        layer(
            "serving.single_p95_us",
            "us",
            LOWER,
            false,
            "single_slo_share",
        ),
        layer(
            "serving.single_p99_us",
            "us",
            LOWER,
            false,
            "single_slo_share",
        ),
        layer("serving.batch_p95_ms", "ms", LOWER, false, "batch_p50_ms"),
    ]);
    for op in &BATCH_OPS {
        all.push(layer(
            &format!("trace.overhead_share.{}", op.key),
            "share",
            LOWER,
            false,
            "none: traced ÷ untraced join median − 1",
        ));
        all.push(layer(
            &format!("trace.phase_coverage.{}", op.key),
            "share",
            HIGHER,
            false,
            "none: share of the join span its phase spans cover",
        ));
    }
    all.extend([
        layer("host.yardstick_ms", "ms", LOWER, false, "none: the machine, not the program; median reading of the fixed yardstick"),
        layer("host.slowdown_median", "ratio", LOWER, false, "none: median over cycles of yardstick ÷ nominal, the factor adjusted timings are divided by"),
        layer("host.slowdown_range", "ratio", LOWER, false, "none: largest − smallest cycle slowdown of the run, the drift the adjustment removes"),
        layer("failed_share", "share", LOWER, false, "operations failed ÷ attempted; 0 or the run is not correct"),
    ]);
    all
}

/// `BENCHMARK.json`, generated so the manifest cannot drift from the tables.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// Unit of every metric of either table, by name.
pub fn units() -> BTreeMap<String, &'static str> {
    let end_to_end = END_TO_END.iter().map(|m| (m.name.to_string(), m.unit));
    end_to_end
        .chain(per_layer().into_iter().map(|m| (m.name, m.unit)))
        .collect()
}

fn op_index(key: &str) -> usize {
    BATCH_OPS
        .iter()
        .position(|op| op.key == key)
        .expect("a batch op key")
}

fn op_rounds<'a>(measured: &'a Measured, key: &str) -> &'a OpRounds {
    &measured.rounds[op_index(key)]
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The end-to-end metrics of an untraced run.  CPU-bound timings are the
/// speed-adjusted samples; the two open-loop single latencies, which are
/// half timer wait, are as the clock read them.
pub fn end_to_end_values(min_cycles: usize, measured: &Measured) -> Values {
    let mut v = Values::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    let (raw, adjusted) = (&measured.raw, &measured.adjusted);
    put("setup_s", median(&adjusted.setup_s));
    for (op, walls) in BATCH_OPS.iter().zip(&adjusted.join_s) {
        put(&format!("{}_join_s", op.key), median(walls));
    }
    let shuffled: Vec<f64> = op_rounds(measured, "pgbj")
        .metrics
        .iter()
        .take(min_cycles * ROUNDS_PER_CYCLE)
        .map(|m| m.shuffle_bytes as f64)
        .collect();
    put("pgbj_shuffle_bytes", mean(&shuffled));
    put("lone_p50_us", median(&raw.lone.single_us));
    put("single_p50_us", median(&raw.mixed.single_us));
    put(
        "single_slo_share",
        raw.mixed.singles_within_slo as f64 / raw.mixed.singles_sent.max(1) as f64,
    );
    put("batch_p50_ms", median(&adjusted.mixed.batch_ms));
    put(
        "serve_capacity_qps",
        median(&adjusted.capacity.answered_per_s),
    );
    put("write_mean_us", median(&adjusted.churn.write_mean_us));
    put("compact_p50_ms", median(&adjusted.churn.compact_ms));
    put("churn_read_p50_us", median(&adjusted.churn.read_p50_us));
    put("peak_rss_mib", peak_rss_mib());
    v
}

/// The per-layer metrics of a traced run: timings from the spans, counts
/// from the boundaries they were taken at.
pub fn per_layer_values(measured: &Measured, spans: &[Span], counts: &LayerCounts) -> Values {
    let mut v = Values::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    let self_ns = self_times(spans);
    let span_median_s = |name: &str| median(&durations_s(spans, name, None));
    let span_total_s = |name: &str| durations_s(spans, name, None).iter().sum::<f64>();

    put(
        "geom.l2_scalar_ns_per_eval",
        span_total_s("geom.squared_euclidean") * 1e9 / counts.geom_evals,
    );
    put(
        "geom.l2_batch_ns_per_eval",
        span_total_s("geom.squared_euclidean_batch") * 1e9 / counts.geom_evals,
    );
    put("pivots.select_s", span_median_s("pivots.select_pivots"));
    put("partition.assign_s", span_median_s("partition.partition"));
    let replay = measured.replay.clone().unwrap_or_default();
    put("partition.evals_per_point", replay.assign_evals_per_point);
    put(
        "partition.pruned_share",
        1.0 - replay.assign_evals_per_point / replay.pivots.max(1) as f64,
    );
    put("summary.build_s", span_median_s("summary.build"));
    put("bounds.compute_s", span_median_s("bounds.compute"));
    put("grouping.build_s", span_median_s("grouping.build_grouping"));
    put("grouping.max_over_mean_group", replay.max_over_mean_group);

    let pgbj = op_rounds(measured, "pgbj")
        .metrics
        .first()
        .cloned()
        .unwrap_or_default();
    put("grouping.replication_alpha", pgbj.average_replication());
    put("mapreduce.shuffle_records", pgbj.shuffle_records as f64);
    put(
        "mapreduce.combine_ratio",
        pgbj.combine_output_records as f64 / pgbj.combine_input_records.max(1) as f64,
    );
    put(
        "algorithms.pgbj.pivot_assign_evals",
        pgbj.pivot_assignment_computations as f64,
    );
    put(
        "mapreduce.empty_job_us",
        span_median_s("mapreduce.empty_job") * 1e6,
    );
    let identity_s = span_median_s("mapreduce.identity_job");
    put("mapreduce.identity_job_s", identity_s);
    put(
        "mapreduce.records_per_s",
        counts.identity_records / identity_s,
    );
    put(
        "mapreduce.shuffle_mib_per_s",
        counts.identity_bytes / (1024.0 * 1024.0) / identity_s,
    );

    for op in &BATCH_OPS {
        let key = op.key;
        let samples = op_rounds(measured, key);
        let wall_s = &measured.adjusted.join_s[op_index(key)];
        let phase_median = |phase: &str| {
            median(
                &samples
                    .metrics
                    .iter()
                    .map(|m| m.phase(phase).as_secs_f64())
                    .collect::<Vec<_>>(),
            )
        };
        for (infix, phase) in op.phases {
            put(&format!("algorithms.{key}.{infix}_s"), phase_median(phase));
        }
        let first = samples.metrics.first().cloned().unwrap_or_default();
        put(
            &format!("algorithms.{key}.dist_evals"),
            first.distance_computations as f64,
        );
        put(
            &format!("algorithms.{key}.selectivity_permille"),
            first.computation_selectivity() * 1e3,
        );
        let ns_per_eval: Vec<f64> = samples
            .metrics
            .iter()
            .map(|m| {
                m.phase(phases::KNN_JOIN).as_secs_f64() * 1e9
                    / m.distance_computations.max(1) as f64
            })
            .collect();
        put(
            &format!("algorithms.{key}.ns_per_dist_eval"),
            median(&ns_per_eval),
        );

        let walls = |traced: bool| -> Vec<f64> {
            wall_s
                .iter()
                .zip(&samples.traced)
                .filter(|(_, t)| **t == traced)
                .map(|(w, _)| *w)
                .collect()
        };
        put(
            &format!("trace.overhead_share.{key}"),
            median(&walls(true)) / median(&walls(false)) - 1.0,
        );
        put(
            &format!("trace.phase_coverage.{key}"),
            phase_coverage(spans, &self_ns, key),
        );
    }

    put(
        "spatial.rtree_build_s",
        span_median_s("spatial.rtree_build"),
    );
    put(
        "spatial.rtree_knn_us",
        span_median_s("spatial.rtree_knn") * 1e6,
    );
    put(
        "spatial.rtree_evals_per_query",
        counts.rtree_evals / counts.rtree_queries,
    );

    put("prepared.build_s", span_median_s("prepared.prepare"));
    let query_one_us = span_median_s("prepared.query_one") * 1e6;
    put("prepared.query_one_us", query_one_us);
    put(
        "prepared.query_batch128_ms",
        span_median_s("prepared.query_batch") * 1e3,
    );
    let batch = &counts.batch_query;
    put(
        "prepared.evals_per_row",
        batch.distance_computations as f64 / counts.batch_rows,
    );
    let batch_queries = durations_s(spans, "prepared.query_batch", None)
        .len()
        .max(1) as f64;
    put(
        "prepared.index_builds_per_query",
        batch.index_builds as f64 / batch_queries,
    );
    put(
        "prepared.pivot_selections_per_query",
        batch.pivot_selections as f64 / batch_queries,
    );

    put("delta.insert_us", span_median_s("delta.insert") * 1e6);
    put("delta.delete_us", span_median_s("delta.delete") * 1e6);
    put("delta.compact_ms", span_median_s("delta.compact") * 1e3);
    put(
        "delta.query_one_us_full",
        span_median_s("delta.query_one_full") * 1e6,
    );
    let churn = &measured.raw.churn;
    let reads = churn.read_us.len().max(1) as f64;
    put("delta.compactions", churn.compactions as f64);
    put(
        "delta.compacted_points_per_compaction",
        churn.compacted_points as f64 / churn.compactions.max(1) as f64,
    );
    put(
        "delta.probe_evals_per_query",
        churn.delta_probe_evals as f64 / reads,
    );
    put(
        "delta.tombstone_masked_per_query",
        churn.tombstone_masked as f64 / reads,
    );

    let serve = &measured.raw;
    put(
        "serving.overhead_us",
        median(&serve.lone.single_us) - query_one_us,
    );
    put(
        "serving.mean_coalesced_batch.lone",
        serve.lone.mean_coalesced_batch(),
    );
    put(
        "serving.mean_coalesced_batch.mixed",
        serve.mixed.mean_coalesced_batch(),
    );
    put(
        "serving.mean_coalesced_batch.capacity",
        serve.capacity.mean_coalesced_batch(),
    );
    put("serving.rejected", measured.server_rejected as f64);
    put("serving.failed", measured.server_failed as f64);
    let lag: Vec<f64> = serve
        .lone
        .lag_us
        .iter()
        .chain(&serve.mixed.lag_us)
        .copied()
        .collect();
    put("serving.gen_lag_p99_us", quantile(&sorted(lag), 0.99));
    let singles = sorted(serve.mixed.single_us.clone());
    put("serving.single_p95_us", quantile(&singles, 0.95));
    put("serving.single_p99_us", quantile(&singles, 0.99));
    put(
        "serving.batch_p95_ms",
        quantile(&sorted(serve.mixed.batch_ms.clone()), 0.95),
    );
    put("host.yardstick_ms", median(&measured.yardstick_s) * 1e3);
    let slowdowns = sorted(measured.slowdowns.clone());
    put("host.slowdown_median", quantile(&slowdowns, 0.5));
    put(
        "host.slowdown_range",
        slowdowns[slowdowns.len() - 1] - slowdowns[0],
    );
    put("failed_share", measured.gate.failed_share());
    v
}

/// Median, over the traced joins of `op`, of the share of the join's span
/// that its child phase spans cover (1 − self time ÷ duration).
fn phase_coverage(spans: &[Span], self_ns: &BTreeMap<u64, u64>, op: &str) -> f64 {
    let shares: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "algorithms.join" && s.op == op && s.duration_ns() > 0)
        .map(|s| 1.0 - self_ns[&s.id] as f64 / s.duration_ns() as f64)
        .collect();
    median(&shares)
}

/// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` — the line
/// the driver reads.  Fails if the values are not exactly the metrics of
/// `expected`, or one is not a finite number.
pub fn result_line(
    values: &Values,
    expected: &[(&str, &str)],
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let produced: Vec<&str> = values.keys().map(String::as_str).collect();
    let mut wanted: Vec<&str> = expected.iter().map(|(name, _)| *name).collect();
    wanted.sort_unstable();
    if produced != wanted {
        return Err(format!(
            "metric names differ from the tables: produced {produced:?}, tables say {wanted:?}"
        ));
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit)) in expected.iter().enumerate() {
        let value = values[*name];
        if !value.is_finite() {
            return Err(format!(
                "{name} is {value}: the phase behind it produced no sample"
            ));
        }
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// Reads a line written by [`result_line`] back: `(correct, attempted,
/// failed, values)`.
pub fn parse_result_line(line: &str) -> Option<(bool, u64, u64, Values)> {
    let field = |key: &str| -> Option<&str> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let mut values = Values::new();
    let mut rest = &line[line.find("\"metrics\": {")? + 12..];
    while let Some(open) = rest.find('"') {
        let name_end = open + 1 + rest[open + 1..].find('"')?;
        let name = &rest[open + 1..name_end];
        let value_at = name_end + rest[name_end..].find("\"value\": ")? + 9;
        let value_end = value_at + rest[value_at..].find(',')?;
        values.insert(name.to_string(), rest[value_at..value_end].parse().ok()?);
        rest = &rest[value_end + rest[value_end..].find('}')? + 1..];
    }
    Some((correct, attempted, failed, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let layers = per_layer();
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&layers.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(layers.iter().map(|m| m.name.as_str()))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for name in &names {
            assert!(name_ok(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(layers.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", LOWER));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `knnbench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn result_line_round_trips_and_rejects_a_wrong_name_set() {
        let mut values = Values::new();
        values.insert("a_s".into(), 1.25);
        values.insert("b.count".into(), 27493390.0);
        let expected = [("b.count", "count"), ("a_s", "s")];
        let line = result_line(&values, &expected, 10, 0).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"b.count\": {\"value\": 27493390, \"unit\": \"count\"}"));
        let (correct, attempted, failed, parsed) = parse_result_line(&line).unwrap();
        assert_eq!((correct, attempted, failed), (true, 10, 0));
        assert_eq!(parsed, values);
        assert!(result_line(&values, &expected, 10, 1)
            .unwrap()
            .contains("\"correct\": false"));

        assert!(result_line(&values, &expected[..1], 1, 0).is_err());
        values.insert("a_s".into(), f64::NAN);
        assert!(result_line(&values, &expected, 1, 0).is_err());
    }
}
