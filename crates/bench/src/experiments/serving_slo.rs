//! The serving-SLO experiment: request accounting of the concurrent
//! [`knnjoin::Server`] front-end over one prepared PGBJ handle.
//!
//! Not a paper artifact — the paper measures batch joins — but the natural
//! follow-on question for the prepared/delta serving stack: does every
//! request come back exactly once when many closed-loop clients share one
//! corpus?  The grid:
//!
//! * **closed-loop c=N** — N clients, each issuing single-point queries
//!   back-to-back, for several concurrency levels.
//! * **mixed singles+batches** — half the clients submit small prepared
//!   batches instead of singles, exercising both queue lanes at once.
//! * **churn** — closed-loop readers while a writer thread churns the
//!   corpus through `PreparedJoin::insert`/`delete`, the serving path
//!   snapshotting epochs underneath.
//! * **overload paused** — a single-permit server with a tiny admission
//!   cap, filled past capacity before any ticket is waited (an unwaited
//!   request stays queued): the surplus must be *rejected* (typed
//!   `JoinError::Overloaded`), deterministically, and every admitted request
//!   still completes once waited.
//!
//! The deterministic columns (`clients`, `requests`, `responses`,
//! `result_errors`, `rejected`, `rows`) are fixed for the configuration and
//! regress via `experiments serving_slo --quick --check
//! BENCH_serving_quick.json` in CI.  The rows hold no time: latency
//! percentiles, throughput and coalescing are measured with a spread by
//! `benchmark/` (`lone_p50_us`, `single_p50_us`, `single_slo_share` and the
//! other serving metrics of `BENCHMARK.json`).

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use super::ExperimentOutput;
use crate::json::Value;
use crate::report::Table;
use crate::workloads::{ExperimentScale, Workloads};
use geom::{DistanceMetric, Point, PointSet};
use knnjoin::{Algorithm, JoinBuilder, JoinError, PreparedJoin, Server, ServerConfig};
use std::sync::Mutex;

/// Points per batch submit on the mixed row.
const BATCH_POINTS: usize = 4;

/// Admission cap of the overload row; submissions beyond it must be
/// rejected with the typed overload error.
const OVERLOAD_CAP: usize = 4;

/// Total submissions thrown at the overload server before the first wait.
const OVERLOAD_SUBMITS: usize = 10;

/// One measured serving configuration.
#[derive(Debug, Clone)]
pub struct ServingRow {
    /// Row label (the `--check` key).
    pub label: String,
    /// Closed-loop client threads (writers excluded).
    pub clients: usize,
    /// Submissions attempted, including rejected ones.
    pub requests: u64,
    /// Successful responses received by clients.
    pub responses: u64,
    /// Admitted requests that came back as errors (must stay 0).
    pub result_errors: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Result rows received (a batch of B counts B).
    pub rows: u64,
}

/// What one client thread tallied; summed across the row's clients.
#[derive(Debug, Default, Clone, Copy)]
struct ClientTally {
    requests: u64,
    responses: u64,
    result_errors: u64,
    rejected: u64,
    rows: u64,
}

impl ClientTally {
    fn absorb(&mut self, other: ClientTally) {
        self.requests += other.requests;
        self.responses += other.responses;
        self.result_errors += other.result_errors;
        self.rejected += other.rejected;
        self.rows += other.rows;
    }

    fn count<T>(&mut self, outcome: Result<T, JoinError>, rows_on_ok: u64) {
        self.requests += 1;
        match outcome {
            Ok(_) => {
                self.responses += 1;
                self.rows += rows_on_ok;
            }
            Err(JoinError::Overloaded { .. }) => self.rejected += 1,
            Err(_) => self.result_errors += 1,
        }
    }
}

fn row_from(label: String, clients: usize, tally: ClientTally) -> ServingRow {
    ServingRow {
        label,
        clients,
        requests: tally.requests,
        responses: tally.responses,
        result_errors: tally.result_errors,
        rejected: tally.rejected,
        rows: tally.rows,
    }
}

/// Builds the shared prepared handle every row serves from.
fn prepare(workloads: &Workloads, corpus: &PointSet, queries: &PointSet) -> PreparedJoin {
    JoinBuilder::new(queries, corpus)
        .k(workloads.default_k())
        .metric(DistanceMetric::Euclidean)
        .algorithm(Algorithm::Pgbj)
        .pivot_count(workloads.default_pivots())
        .reducers(workloads.default_reducers())
        .delta_threshold(usize::MAX)
        .prepare(workloads.context())
        .expect("serving prepare")
}

/// Runs `clients` closed-loop threads against `server`, each issuing
/// `per_client` requests.  Client `c` submits batches instead of singles
/// when `batch_clients(c)` says so.
fn drive_clients(
    server: &Server,
    queries: &PointSet,
    clients: usize,
    per_client: usize,
    batch_clients: impl Fn(usize) -> bool + Sync,
) -> ClientTally {
    let total = Mutex::new(ClientTally::default());
    let points = queries.points();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let total = &total;
            let batch_clients = &batch_clients;
            scope.spawn(move || {
                let mut tally = ClientTally::default();
                for i in 0..per_client {
                    let at = c * per_client + i;
                    if batch_clients(c) {
                        let batch: Vec<Point> = (0..BATCH_POINTS)
                            .map(|j| points[(at + j) % points.len()].clone())
                            .collect();
                        let outcome = server.query(PointSet::from_points(batch));
                        let rows = outcome.as_ref().map_or(0, |r| r.rows.len() as u64);
                        tally.count(outcome, rows);
                    } else {
                        tally.count(server.query_one(points[at % points.len()].clone()), 1);
                    }
                }
                total.lock().expect("tally lock").absorb(tally);
            });
        }
    });
    total.into_inner().expect("tally lock")
}

/// The closed-loop and mixed rows: fresh server per row over a clone of the
/// shared prepared handle.
fn closed_loop_row(
    prepared: &PreparedJoin,
    queries: &PointSet,
    label: String,
    clients: usize,
    per_client: usize,
    batch_clients: impl Fn(usize) -> bool + Sync,
) -> ServingRow {
    let server = Server::start(prepared.clone(), ServerConfig::default());
    let tally = drive_clients(&server, queries, clients, per_client, batch_clients);
    server.shutdown();
    row_from(label, clients, tally)
}

/// The churn row: closed-loop readers while one writer inserts and then
/// deletes fresh points through the shared handle (the corpus size is the
/// same before and after, every intermediate epoch is a valid corpus).
fn churn_row(
    prepared: &PreparedJoin,
    queries: &PointSet,
    clients: usize,
    per_client: usize,
    writer_ops: usize,
) -> ServingRow {
    let server = Server::start(prepared.clone(), ServerConfig::default());
    let writer = prepared.clone();
    let next_id = 1 + queries
        .iter()
        .chain(prepared.materialized_corpus().iter())
        .map(|p| p.id)
        .max()
        .unwrap_or(0);
    let dims = queries.dims();
    let tally = std::thread::scope(|scope| {
        let churn = scope.spawn(move || {
            for op in 0..writer_ops {
                let id = next_id + op as u64;
                let coords: Vec<f64> = (0..dims).map(|d| (op + d) as f64).collect();
                writer.insert(Point::new(id, coords)).expect("churn insert");
                assert!(writer.delete(id), "churn delete of a point just added");
            }
        });
        let tally = drive_clients(&server, queries, clients, per_client, |_| false);
        churn.join().expect("writer thread");
        tally
    });
    server.shutdown();
    row_from(format!("churn c={clients}"), clients, tally)
}

/// The overload row: a single-permit server with a tiny queue cap, filled
/// past capacity from one thread so the admit/reject split is exact.
/// Unwaited tickets run nothing, so the queue fills to the cap; the first
/// wait drains it in one batch.
fn overload_row(prepared: &PreparedJoin, queries: &PointSet) -> ServingRow {
    let server = Server::start(
        prepared.clone(),
        ServerConfig::default().workers(1).queue_depth(OVERLOAD_CAP),
    );
    let points = queries.points();
    let mut tally = ClientTally::default();
    let mut tickets = Vec::new();
    for i in 0..OVERLOAD_SUBMITS {
        tally.requests += 1;
        match server.submit_one(points[i % points.len()].clone()) {
            Ok(ticket) => tickets.push(ticket),
            Err(JoinError::Overloaded { .. }) => tally.rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    for ticket in tickets {
        match ticket.wait() {
            Ok(_) => {
                tally.responses += 1;
                tally.rows += 1;
            }
            Err(_) => tally.result_errors += 1,
        }
    }
    server.shutdown();
    row_from("overload paused".into(), 1, tally)
}

/// Runs the serving grid: three closed-loop concurrency levels, the mixed
/// singles+batches row, the churn row and the overload row.
pub fn serving_slo(scale: ExperimentScale) -> ExperimentOutput {
    let workloads = Workloads::new(scale);
    let corpus = workloads.forest_default();
    let queries = workloads.forest_with(scale.scaled(128, 32), 10);
    let prepared = prepare(&workloads, &corpus, &queries);

    let levels: Vec<usize> = match scale {
        ExperimentScale::Full => vec![2, 8, 32],
        ExperimentScale::Quick => vec![1, 2, 4],
    };
    let per_client = scale.scaled(30, 6);

    let mut rows: Vec<ServingRow> = Vec::new();
    for &clients in &levels {
        let row = closed_loop_row(
            &prepared,
            &queries,
            format!("closed-loop c={clients}"),
            clients,
            per_client,
            |_| false,
        );
        rows.push(row);
    }
    let mixed_clients = *levels.last().expect("at least one level");
    let mixed = closed_loop_row(
        &prepared,
        &queries,
        format!("mixed singles+batches c={mixed_clients}"),
        mixed_clients,
        per_client,
        |c| c % 2 == 1,
    );
    rows.push(mixed);
    rows.push(churn_row(
        &prepared,
        &queries,
        levels[levels.len() / 2],
        per_client,
        scale.scaled(40, 10),
    ));
    rows.push(overload_row(&prepared, &queries));

    let mut table = Table::new(
        "Serving SLOs (closed-loop clients over one prepared PGBJ handle)",
        &[
            "configuration",
            "clients",
            "requests",
            "responses",
            "rejected",
            "rows",
        ],
    );
    for row in &rows {
        table.add_row(vec![
            row.label.clone(),
            row.clients.to_string(),
            row.requests.to_string(),
            row.responses.to_string(),
            row.rejected.to_string(),
            row.rows.to_string(),
        ]);
    }

    let json = Value::Array(
        rows.iter()
            .map(|row| {
                Value::object(vec![
                    ("label", row.label.as_str().into()),
                    ("clients", (row.clients as f64).into()),
                    ("requests", (row.requests as f64).into()),
                    ("responses", (row.responses as f64).into()),
                    ("result_errors", (row.result_errors as f64).into()),
                    ("rejected", (row.rejected as f64).into()),
                    ("rows", (row.rows as f64).into()),
                ])
            })
            .collect(),
    );

    ExperimentOutput {
        id: "serving_slo".into(),
        paper_artifact: "Concurrent serving SLO study (not a paper artifact)".into(),
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
    fn covers_three_levels_plus_mixed_churn_and_overload() {
        let out = serving_slo(ExperimentScale::Quick);
        assert_eq!(out.id, "serving_slo");
        let rows = rows_of(&out);
        assert_eq!(rows.len(), 6);
        let labels: Vec<&str> = rows.iter().filter_map(|r| r["label"].as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "closed-loop c=1",
                "closed-loop c=2",
                "closed-loop c=4",
                "mixed singles+batches c=4",
                "churn c=2",
                "overload paused",
            ]
        );
    }

    #[test]
    fn closed_loop_rows_answer_every_request() {
        let out = serving_slo(ExperimentScale::Quick);
        let rows = rows_of(&out);
        for (label, clients) in [
            ("closed-loop c=1", 1),
            ("closed-loop c=2", 2),
            ("closed-loop c=4", 4),
            ("churn c=2", 2),
        ] {
            let row = find(rows, label);
            let requests = row["requests"].as_u64().unwrap();
            assert_eq!(requests, clients * 6, "{label}");
            assert_eq!(row["responses"].as_u64(), Some(requests), "{label}");
            assert_eq!(row["rows"].as_u64(), Some(requests), "{label}");
            assert_eq!(row["result_errors"].as_u64(), Some(0), "{label}");
            assert_eq!(row["rejected"].as_u64(), Some(0), "{label}");
        }
    }

    #[test]
    fn mixed_row_counts_batch_rows() {
        let out = serving_slo(ExperimentScale::Quick);
        let row = find(rows_of(&out), "mixed singles+batches c=4");
        // 2 single clients × 6 rows + 2 batch clients × 6 × BATCH_POINTS.
        assert_eq!(row["requests"].as_u64(), Some(24));
        assert_eq!(row["responses"].as_u64(), Some(24));
        assert_eq!(row["rows"].as_u64(), Some(12 + 12 * BATCH_POINTS as u64));
        assert_eq!(row["result_errors"].as_u64(), Some(0));
    }

    #[test]
    fn overload_row_rejects_the_surplus_exactly() {
        let out = serving_slo(ExperimentScale::Quick);
        let row = find(rows_of(&out), "overload paused");
        assert_eq!(row["requests"].as_u64(), Some(OVERLOAD_SUBMITS as u64));
        assert_eq!(row["responses"].as_u64(), Some(OVERLOAD_CAP as u64));
        assert_eq!(
            row["rejected"].as_u64(),
            Some((OVERLOAD_SUBMITS - OVERLOAD_CAP) as u64)
        );
        assert_eq!(row["result_errors"].as_u64(), Some(0));
    }

    #[test]
    fn deterministic_counters_for_fixed_configuration() {
        // The rows hold no clock reading, so two runs agree on every field.
        let a = serving_slo(ExperimentScale::Quick);
        let b = serving_slo(ExperimentScale::Quick);
        assert_eq!(a.json, b.json);
    }
}
