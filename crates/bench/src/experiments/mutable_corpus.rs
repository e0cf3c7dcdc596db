//! The mutable-corpus experiment: query cost and delta-layer counters under
//! churn, before and after compaction.
//!
//! Not a paper artifact — the paper's corpus is immutable — but the serving
//! question its batch design leaves open: what does a resident delta overlay
//! cost at query time, and does compaction restore frozen-path parity?  For
//! both prepared algorithms (PGBJ and PBJ) and every churn level (0%, 5%,
//! 20% of the corpus inserted *and* deleted), one `JoinBuilder::prepare`
//! handle is mutated through `PreparedJoin::insert`/`delete` with
//! auto-compaction disabled, queried (the `"overlay"` rows: delta probes and
//! tombstone masks at their peak), then force-compacted and queried again
//! (the `"compacted"` rows: the delta counters must return to zero, the live
//! corpus unchanged).
//!
//! The deterministic columns (`distance_computations`,
//! `delta_probe_computations`, `tombstone_masked`, `compactions`,
//! `compacted_points`, `live_points`) are fixed for the seed and regress via
//! `experiments mutable_corpus --quick --check BENCH_mutable.json` in CI.
//! The rows hold no time: the cost of a write, a compaction and a read under
//! churn is measured with a spread by `benchmark/` (`write_mean_us`,
//! `delta.compact_ms`, `churn_read_p50_us` in `BENCHMARK.json`).

use super::ExperimentOutput;
use crate::json::Value;
use crate::report::Table;
use crate::workloads::{ExperimentScale, Workloads};
use geom::{DistanceMetric, Point, PointSet};
use knnjoin::{Algorithm, JoinBuilder, PreparedJoin};

/// Queries run per measurement; the row counts the last one.
const QUERIES: u32 = 4;

/// Churn levels: fraction of the corpus inserted and (independently) deleted.
const CHURN_PERCENTS: [usize; 3] = [0, 5, 20];

/// One measured (algorithm, churn, phase) cell.
#[derive(Debug, Clone)]
pub struct MutableRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Churn level in percent of the corpus size.
    pub churn_pct: usize,
    /// `"overlay"` (delta resident) or `"compacted"` (overlay folded in).
    pub phase: String,
    /// Frozen-side distance computations per query.
    pub distance_computations: u64,
    /// Memtable-side distance computations per query.
    pub delta_probe_computations: u64,
    /// Frozen candidates masked by tombstones per query.
    pub tombstone_masked: u64,
    /// Lifetime compactions of the handle at measurement time.
    pub compactions: u64,
    /// Lifetime points rewritten by compaction.
    pub compacted_points: u64,
    /// Live corpus size ([`PreparedJoin::s_len`]).
    pub live_points: u64,
}

/// Applies `pct`% churn: inserts midpoints of consecutive corpus points
/// under fresh ids, deletes an even stride of original ids.  Deterministic
/// for a fixed corpus.
fn apply_churn(prepared: &PreparedJoin, data: &PointSet, pct: usize) {
    let n = data.len();
    let count = n * pct / 100;
    if count == 0 {
        return;
    }
    let next_id = data.iter().map(|p| p.id).max().unwrap_or(0) + 1;
    let points = data.points();
    for i in 0..count {
        let (a, b) = (&points[i % n], &points[(i + 1) % n]);
        let mid: Vec<f64> = a
            .coords
            .iter()
            .zip(&b.coords)
            .map(|(x, y)| (x + y) / 2.0)
            .collect();
        prepared
            .insert(Point::new(next_id + i as u64, mid))
            .expect("churn insert");
    }
    for i in 0..count {
        let victim = points[(i * n / count) % n].id;
        assert!(prepared.delete(victim), "churn delete of a live id");
    }
}

fn measure(prepared: &PreparedJoin, data: &PointSet, churn_pct: usize, phase: &str) -> MutableRow {
    let mut last = None;
    for _ in 0..QUERIES {
        last = Some(prepared.query(data).expect("mutable query"));
    }
    let result = last.expect("at least one query ran");
    let m = &result.metrics;
    let stats = prepared.delta_stats();
    // The corpus is derived from the Voronoi cells on demand: one id each,
    // ascending, as many as the live count says.
    let corpus = prepared.materialized_corpus();
    assert_eq!(prepared.s_len(), corpus.len(), "live count vs corpus");
    assert!(
        corpus.points().is_sorted_by(|a, b| a.id < b.id),
        "corpus ids must ascend strictly"
    );
    MutableRow {
        algorithm: prepared.algorithm().name().to_string(),
        churn_pct,
        phase: phase.to_string(),
        distance_computations: m.distance_computations,
        delta_probe_computations: m.delta_probe_computations,
        tombstone_masked: m.tombstone_masked,
        compactions: stats.compactions,
        compacted_points: stats.compacted_points,
        live_points: prepared.s_len() as u64,
    }
}

/// Runs the churn grid over the algorithms `prepare` keeps an index for.
pub fn mutable_corpus(scale: ExperimentScale) -> ExperimentOutput {
    let workloads = Workloads::new(scale);
    let data = workloads.forest_default();
    let k = workloads.default_k();

    let mut rows: Vec<MutableRow> = Vec::new();
    for &algorithm in &[Algorithm::Pbj, Algorithm::Pgbj] {
        for &pct in &CHURN_PERCENTS {
            let prepared = JoinBuilder::new(&data, &data)
                .k(k)
                .metric(DistanceMetric::Euclidean)
                .algorithm(algorithm)
                .pivot_count(workloads.default_pivots())
                .reducers(workloads.default_reducers())
                // Keep the full churn resident so the overlay rows measure
                // the delta probe path at its peak, not a mid-churn rebuild.
                .delta_threshold(usize::MAX)
                .prepare(workloads.context())
                .expect("mutable prepare");
            apply_churn(&prepared, &data, pct);
            rows.push(measure(&prepared, &data, pct, "overlay"));
            prepared.compact();
            rows.push(measure(&prepared, &data, pct, "compacted"));
        }
    }

    let mut table = Table::new(
        "Mutable corpus (insert+delete churn on the default Forest-like workload)",
        &[
            "algorithm",
            "churn [%]",
            "phase",
            "distance comps",
            "delta probe comps",
            "tombstone masked",
            "compactions",
            "compacted points",
            "live points",
        ],
    );
    for row in &rows {
        table.add_row(vec![
            row.algorithm.clone(),
            row.churn_pct.to_string(),
            row.phase.clone(),
            row.distance_computations.to_string(),
            row.delta_probe_computations.to_string(),
            row.tombstone_masked.to_string(),
            row.compactions.to_string(),
            row.compacted_points.to_string(),
            row.live_points.to_string(),
        ]);
    }

    let json = Value::Array(
        rows.iter()
            .map(|row| {
                Value::object(vec![
                    (
                        "label",
                        format!("{} churn={}% {}", row.algorithm, row.churn_pct, row.phase).into(),
                    ),
                    ("algorithm", row.algorithm.as_str().into()),
                    ("churn_pct", (row.churn_pct as f64).into()),
                    ("phase", row.phase.as_str().into()),
                    (
                        "distance_computations",
                        (row.distance_computations as f64).into(),
                    ),
                    (
                        "delta_probe_computations",
                        (row.delta_probe_computations as f64).into(),
                    ),
                    ("tombstone_masked", (row.tombstone_masked as f64).into()),
                    ("compactions", (row.compactions as f64).into()),
                    ("compacted_points", (row.compacted_points as f64).into()),
                    ("live_points", (row.live_points as f64).into()),
                ])
            })
            .collect(),
    );

    ExperimentOutput {
        id: "mutable_corpus".into(),
        paper_artifact: "Delta-layer churn study (not a paper artifact)".into(),
        tables: vec![table],
        json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(out: &ExperimentOutput) -> &[Value] {
        out.json.as_array().expect("rows")
    }

    fn find<'a>(rows: &'a [Value], label: &str) -> &'a Value {
        rows.iter()
            .find(|r| r["label"].as_str() == Some(label))
            .unwrap_or_else(|| panic!("missing row {label}"))
    }

    #[test]
    fn covers_both_algorithms_every_churn_level_and_phase() {
        let out = mutable_corpus(ExperimentScale::Quick);
        assert_eq!(out.id, "mutable_corpus");
        let rows = rows_of(&out);
        // 2 algorithms × 3 churn levels × 2 phases.
        assert_eq!(rows.len(), 12);
        let labels: Vec<&str> = rows.iter().filter_map(|r| r["label"].as_str()).collect();
        let mut unique = labels.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), labels.len(), "labels must be unique keys");
    }

    #[test]
    fn overlay_rows_probe_the_delta_and_compaction_restores_parity() {
        let out = mutable_corpus(ExperimentScale::Quick);
        let rows = rows_of(&out);
        for algorithm in ["PBJ", "PGBJ"] {
            let frozen = find(rows, &format!("{algorithm} churn=0% overlay"));
            let churned = find(rows, &format!("{algorithm} churn=5% overlay"));
            let compacted = find(rows, &format!("{algorithm} churn=5% compacted"));

            // 0% churn: the frozen path exactly — no delta work at all.
            assert_eq!(frozen["delta_probe_computations"].as_u64(), Some(0));
            assert_eq!(frozen["tombstone_masked"].as_u64(), Some(0));
            assert_eq!(frozen["compactions"].as_u64(), Some(0));

            // 5% churn keeps the corpus size (equal inserts and deletes)
            // and probes the memtable.
            assert_eq!(
                churned["live_points"].as_u64(),
                frozen["live_points"].as_u64()
            );
            assert!(
                churned["delta_probe_computations"].as_u64().unwrap() > 0,
                "{algorithm}: overlay adds must be probed"
            );

            // The acceptance bar: serving through the overlay at 5% churn
            // costs < 1.5× the frozen-only query in distance kernels.
            let frozen_cost = frozen["distance_computations"].as_u64().unwrap() as f64;
            let churned_cost = (churned["distance_computations"].as_u64().unwrap()
                + churned["delta_probe_computations"].as_u64().unwrap())
                as f64;
            assert!(
                churned_cost < 1.5 * frozen_cost,
                "{algorithm}: overlay cost {churned_cost} vs frozen {frozen_cost}"
            );

            // Compaction folds everything in: delta counters silent again,
            // live corpus unchanged, work accounted.
            assert_eq!(
                compacted["delta_probe_computations"].as_u64(),
                Some(0),
                "{algorithm}"
            );
            assert_eq!(
                compacted["tombstone_masked"].as_u64(),
                Some(0),
                "{algorithm}"
            );
            assert_eq!(compacted["compactions"].as_u64(), Some(1), "{algorithm}");
            assert!(compacted["compacted_points"].as_u64().unwrap() > 0);
            assert_eq!(
                compacted["live_points"].as_u64(),
                churned["live_points"].as_u64()
            );
        }
    }

    #[test]
    fn deterministic_counters_for_fixed_seed() {
        // The rows hold no clock reading, so two runs agree on every field.
        let a = mutable_corpus(ExperimentScale::Quick);
        let b = mutable_corpus(ExperimentScale::Quick);
        assert_eq!(a.json, b.json);
    }
}
