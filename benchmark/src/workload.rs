//! What every workload runs.  A run is a sequence of identical *cycles*; one
//! cycle sets up from scratch, then measures every operation once or for a
//! fixed stretch: two rounds of the four cold joins, three serving phases
//! through a `Server`, and churn on the prepared corpus.  Cycles repeat until
//! `--seconds` have passed, so every metric's samples are spread over the
//! whole run, and each cycle's CPU-bound timings are adjusted by the machine
//! speed measured in that cycle (see [`crate::yardstick`]).

use crate::data::{Inputs, Scale, SplitMix64, Workload, K, SAMPLE_ROWS};
use crate::loadgen::{wait_until, Pacer};
use crate::oracle::{nearest_distances, row_mismatch, Gate};
use crate::stats::{median, trimmed_mean};
use crate::trace::{Recorder, ROOT};
use crate::yardstick::{Yardstick, NOMINAL_S};
use geom::{KernelMode, Point, PointSet};
use knnjoin::bounds::PartitionBounds;
use knnjoin::grouping::build_grouping;
use knnjoin::metrics::phases;
use knnjoin::{
    select_pivots, Algorithm, ExecutionContext, JoinBuilder, JoinError, JoinMetrics, JoinPlan,
    JoinResult, JoinRow, PreparedJoin, Server, ServerConfig, ServerStats, SummaryTables, Ticket,
    VoronoiPartitioner,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A single answered correctly within this long of its due time meets the
/// serving limit.
const SLO: Duration = Duration::from_millis(5);

/// One in this many answers of the open-loop phases is checked against
/// brute force; the capacity phase answers ~20 times as many, so it checks
/// one in `20 * CHECK_EVERY` to keep a run's checking time bounded.
const CHECK_EVERY: u64 = 50;

/// Rows of the sample re-checked against brute force after each cycle's
/// churn (over the model of the live set and over the program's corpus).
const CHURN_SAMPLE_ROWS: usize = 64;

/// Rounds of the four cold joins per cycle.
pub const ROUNDS_PER_CYCLE: usize = 2;
const LONE_SINGLES_PER_S: f64 = 500.0;
const MIXED_SINGLES_PER_S: f64 = 1000.0;
const MIXED_BATCHES_PER_S: f64 = 10.0;
pub const BATCH_ROWS: usize = 128;
const CAPACITY_CLIENTS: usize = 2;
const CAPACITY_PIPELINE: usize = 32;
const WRITES_PER_S: f64 = 4000.0;

/// Of every this many acknowledged writes, the first insert and the first
/// delete are read back at once.
const READ_BACK_EVERY: u64 = 64;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub trace: bool,
}

impl RunConfig {
    /// How long each timed stretch of a cycle lasts.
    fn stretch(&self, full_scale_s: f64) -> Duration {
        Duration::from_secs_f64(match self.scale {
            Scale::Full => full_scale_s,
            Scale::Smoke => full_scale_s / 5.0,
        })
    }
    fn lone(&self) -> Duration {
        self.stretch(0.5)
    }
    fn mixed(&self) -> Duration {
        self.stretch(1.0)
    }
    fn capacity(&self) -> Duration {
        self.stretch(0.5)
    }
    fn churn(&self) -> Duration {
        self.stretch(1.0)
    }

    /// Cycles a run has however short `--seconds` is; the exact counts are
    /// taken from these, so they repeat for a seed.
    pub fn min_cycles(&self) -> usize {
        match self.scale {
            Scale::Full => 3,
            Scale::Smoke => 2,
        }
    }
}

/// One cold-join operation of the batch phase.
#[derive(Debug)]
pub struct BatchOp {
    /// Name inside metric names (`algorithms.<key>.…`, `<key>_join_s`).
    pub key: &'static str,
    pub algorithm: Algorithm,
    pub mode: KernelMode,
    /// `(metric infix, JoinMetrics phase name)` of every phase the cold
    /// driver of this algorithm reports.
    pub phases: &'static [(&'static str, &'static str)],
}

const PGBJ_PHASES: &[(&str, &str)] = &[
    ("pivot_selection", phases::PIVOT_SELECTION),
    ("data_partitioning", phases::DATA_PARTITIONING),
    ("index_merging", phases::INDEX_MERGING),
    ("partition_grouping", phases::PARTITION_GROUPING),
    ("knn_join", phases::KNN_JOIN),
];

pub const BATCH_OPS: [BatchOp; 4] = [
    BatchOp {
        key: "pgbj",
        algorithm: Algorithm::Pgbj,
        mode: KernelMode::Exact,
        phases: PGBJ_PHASES,
    },
    BatchOp {
        key: "pgbj_fast",
        algorithm: Algorithm::Pgbj,
        mode: KernelMode::Fast,
        phases: PGBJ_PHASES,
    },
    BatchOp {
        key: "pbj",
        algorithm: Algorithm::Pbj,
        mode: KernelMode::Exact,
        phases: &[
            ("pivot_selection", phases::PIVOT_SELECTION),
            ("data_partitioning", phases::DATA_PARTITIONING),
            ("index_merging", phases::INDEX_MERGING),
            ("knn_join", phases::KNN_JOIN),
            ("result_merging", phases::RESULT_MERGING),
        ],
    },
    BatchOp {
        key: "hbrj",
        algorithm: Algorithm::Hbrj,
        mode: KernelMode::Exact,
        phases: &[
            ("knn_join", phases::KNN_JOIN),
            ("result_merging", phases::RESULT_MERGING),
        ],
    },
];

impl BatchOp {
    pub fn builder<'a>(&self, inputs: &'a Inputs, plan_seed: u64) -> JoinBuilder<'a> {
        JoinBuilder::new(&inputs.r, &inputs.s)
            .k(K)
            .algorithm(self.algorithm)
            .kernel_mode(self.mode)
            .seed(plan_seed)
    }
}

/// What the rounds recorded about one cold-join operation besides its wall
/// time: whether the round was traced (traced runs alternate, so the two
/// halves give the tracing overhead) and the program's own metrics.
#[derive(Debug, Default)]
pub struct OpRounds {
    pub traced: Vec<bool>,
    pub metrics: Vec<JoinMetrics>,
}

/// Pre-join layer counts of one replayed PGBJ round.
#[derive(Debug, Default, Clone)]
pub struct ReplayCounts {
    pub pivots: usize,
    pub assign_evals_per_point: f64,
    pub max_over_mean_group: f64,
}

#[derive(Debug, Default)]
pub struct ServeSamples {
    pub single_us: Vec<f64>,
    pub batch_ms: Vec<f64>,
    /// How late the generator sent each request.
    pub lag_us: Vec<f64>,
    pub singles_sent: u64,
    pub singles_within_slo: u64,
    pub coalesced_points: u64,
    pub coalesced_batches: u64,
    /// Singles answered per second, one value per cycle (capacity phase).
    pub answered_per_s: Vec<f64>,
}

impl ServeSamples {
    pub fn mean_coalesced_batch(&self) -> f64 {
        self.coalesced_points as f64 / self.coalesced_batches.max(1) as f64
    }

    fn absorb(&mut self, cycle: &ServeSamples, slowdown: f64) {
        extend_scaled(&mut self.single_us, &cycle.single_us, 1.0 / slowdown);
        extend_scaled(&mut self.batch_ms, &cycle.batch_ms, 1.0 / slowdown);
        extend_scaled(&mut self.answered_per_s, &cycle.answered_per_s, slowdown);
        self.lag_us.extend(&cycle.lag_us);
        self.singles_sent += cycle.singles_sent;
        self.singles_within_slo += cycle.singles_within_slo;
        self.coalesced_points += cycle.coalesced_points;
        self.coalesced_batches += cycle.coalesced_batches;
    }
}

#[derive(Debug, Default)]
pub struct ChurnSamples {
    pub write_us: Vec<f64>,
    pub compact_ms: Vec<f64>,
    pub read_us: Vec<f64>,
    /// One value per cycle: the mean of the cycle's `write_us` without its
    /// slowest 1%, and the median of its `read_us`.  Now and then the
    /// scheduler packs a whole churn phase's threads onto one core, where
    /// writes cost a quarter and reads two thirds of what they cost side by
    /// side; a median over cycles stays with the usual placement, which
    /// pooled samples would not.
    pub write_mean_us: Vec<f64>,
    pub read_p50_us: Vec<f64>,
    pub compactions: u64,
    pub compacted_points: u64,
    pub delta_probe_evals: u64,
    pub tombstone_masked: u64,
}

impl ChurnSamples {
    fn absorb(&mut self, cycle: &ChurnSamples, slowdown: f64) {
        extend_scaled(&mut self.write_us, &cycle.write_us, 1.0 / slowdown);
        extend_scaled(&mut self.compact_ms, &cycle.compact_ms, 1.0 / slowdown);
        extend_scaled(&mut self.read_us, &cycle.read_us, 1.0 / slowdown);
        // A write beside a reader is not all computation (it also waits on
        // memory and on the other core), so it follows the yardstick only
        // partly: over 40 runs the write mean tracked the slowdown's square
        // root (spread between runs 3-4%), not the slowdown (5-11%) and not
        // the clock alone (4-10%).
        extend_scaled(
            &mut self.write_mean_us,
            &cycle.write_mean_us,
            1.0 / slowdown.sqrt(),
        );
        extend_scaled(&mut self.read_p50_us, &cycle.read_p50_us, 1.0 / slowdown);
        self.compactions += cycle.compactions;
        self.compacted_points += cycle.compacted_points;
        self.delta_probe_evals += cycle.delta_probe_evals;
        self.tombstone_masked += cycle.tombstone_masked;
    }
}

fn extend_scaled(into: &mut Vec<f64>, from: &[f64], factor: f64) {
    into.extend(from.iter().map(|v| v * factor));
}

/// Timing samples of a cycle, or of a whole run.
#[derive(Debug, Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    /// Wall of every cold join, indexed like [`BATCH_OPS`].
    pub join_s: [Vec<f64>; BATCH_OPS.len()],
    pub lone: ServeSamples,
    pub mixed: ServeSamples,
    pub capacity: ServeSamples,
    pub churn: ChurnSamples,
}

impl Samples {
    /// Appends a cycle's samples with times divided, and rates multiplied,
    /// by `slowdown` (1.0 keeps them as measured).
    fn absorb(&mut self, cycle: &Samples, slowdown: f64) {
        extend_scaled(&mut self.setup_s, &cycle.setup_s, 1.0 / slowdown);
        for (mine, theirs) in self.join_s.iter_mut().zip(&cycle.join_s) {
            extend_scaled(mine, theirs, 1.0 / slowdown);
        }
        self.lone.absorb(&cycle.lone, slowdown);
        self.mixed.absorb(&cycle.mixed, slowdown);
        self.capacity.absorb(&cycle.capacity, slowdown);
        self.churn.absorb(&cycle.churn, slowdown);
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Samples as the clock read them.
    pub raw: Samples,
    /// The same samples, each cycle's adjusted by that cycle's slowdown.
    pub adjusted: Samples,
    /// One per cycle: median yardstick reading ÷ `NOMINAL_S`.
    pub slowdowns: Vec<f64>,
    pub yardstick_s: Vec<f64>,
    pub rounds: [OpRounds; BATCH_OPS.len()],
    pub replay: Option<ReplayCounts>,
    pub server_rejected: u64,
    pub server_failed: u64,
    pub gate: Gate,
}

/// The inputs and program state one cycle runs against.
pub struct Stage {
    pub scale: Scale,
    pub inputs: Inputs,
    pub ctx: ExecutionContext,
    pub prepared: PreparedJoin,
}

/// What every phase of one cycle works with.
struct Cycle<'a> {
    cfg: &'a RunConfig,
    stage: &'a Stage,
    rec: &'a Recorder,
    /// The cycle's span, parent of every phase's.
    span: u64,
    index: usize,
}

impl Stage {
    pub fn sample(&self) -> &[Point] {
        let rows = self.inputs.r.points();
        &rows[..SAMPLE_ROWS.min(rows.len())]
    }
}

/// The PGBJ join the serving and churn phases prepare: plan defaults, except
/// that the smoke scale compacts sooner so its short churn phase still sees
/// compactions.
pub fn prepared_join(inputs: &Inputs, scale: Scale) -> JoinBuilder<'_> {
    let builder = JoinBuilder::new(&inputs.r, &inputs.s)
        .k(K)
        .algorithm(Algorithm::Pgbj);
    match scale {
        Scale::Full => builder,
        Scale::Smoke => builder.delta_threshold(96),
    }
}

pub fn server_config(ctx: &ExecutionContext) -> ServerConfig {
    ServerConfig::default().workers(ctx.workers())
}

/// One set-up, as a user of the system pays it: generate the inputs, prepare
/// the join, start a server, get a first answer.
fn set_up(
    cfg: &RunConfig,
    ctx: &ExecutionContext,
) -> Result<(Inputs, PreparedJoin, Server), JoinError> {
    let fresh = (WRITES_PER_S * cfg.churn().as_secs_f64() / 2.0) as usize + 64;
    let inputs = cfg.workload.generate(cfg.scale, cfg.seed, fresh);
    let prepared = prepared_join(&inputs, cfg.scale).prepare(ctx)?;
    let server = Server::start(prepared.clone(), server_config(ctx));
    server.query_one(inputs.queries.points()[0].clone())?;
    Ok((inputs, prepared, server))
}

/// Runs the whole workload; the returned stage is the last cycle's.
pub fn run(cfg: &RunConfig, rec: &Recorder) -> Result<(Measured, Stage), JoinError> {
    let mut measured = Measured::default();
    let ctx = ExecutionContext::default();
    let yard = Yardstick::new(ctx.workers());

    // One unmeasured set-up and round of joins, so first-touch page faults
    // and cold caches are not charged to the first cycle.  Every cycle sets
    // up the same inputs again, so the brute-force neighbour distances of
    // the sampled rows of R are worked out once, here.
    let (inputs, _, server) = set_up(cfg, &ctx)?;
    server.shutdown();
    let expected: Vec<Vec<f64>> = inputs.r.points()[..SAMPLE_ROWS.min(inputs.r.len())]
        .iter()
        .map(|r| nearest_distances(r, &inputs.s, K))
        .collect();
    for op in &BATCH_OPS {
        op.builder(&inputs, cfg.seed).run(&ctx)?;
    }
    drop(inputs);

    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    for index in 0.. {
        let mut samples = Samples::default();
        let mut readings = vec![yard.reading()];
        let span = rec.open(ROOT, "cycle", "cycle");

        let start = Instant::now();
        let (inputs, prepared, server) = set_up(cfg, &ctx)?;
        let ready = Instant::now();
        samples.setup_s.push((ready - start).as_secs_f64());
        rec.record(
            span.id(),
            "prepared.set_up",
            "setup",
            (rec.ns_at(start), rec.ns_at(ready)),
            &[],
        );
        let stage = Stage {
            scale: cfg.scale,
            inputs,
            ctx: ctx.clone(),
            prepared,
        };
        let cycle = Cycle {
            cfg,
            stage: &stage,
            rec,
            span: span.id(),
            index,
        };

        batch_rounds(
            &cycle,
            &expected,
            &yard,
            &mut readings,
            &mut samples,
            &mut measured,
        );
        let gate = &mut measured.gate;
        samples.lone = open_loop(
            &cycle,
            "lone",
            &server,
            (LONE_SINGLES_PER_S, 0.0),
            cfg.lone(),
            gate,
        );
        readings.push(yard.reading());
        let mixed = (MIXED_SINGLES_PER_S, MIXED_BATCHES_PER_S);
        samples.mixed = open_loop(&cycle, "mixed", &server, mixed, cfg.mixed(), gate);
        readings.push(yard.reading());
        samples.capacity = capacity_phase(&cycle, &server, cfg.capacity(), gate);
        readings.push(yard.reading());
        let stats = server.shutdown();
        measured.server_rejected += stats.rejected;
        measured.server_failed += stats.failed;
        samples.churn = churn_phase(&cycle, gate);
        readings.push(yard.reading());

        let slowdown = median(&readings) / NOMINAL_S;
        rec.close(span, &[("slowdown", slowdown)]);
        measured.raw.absorb(&samples, 1.0);
        measured.adjusted.absorb(&samples, slowdown);
        measured.slowdowns.push(slowdown);
        measured.yardstick_s.extend(readings);

        if index + 1 >= cfg.min_cycles() && Instant::now() >= deadline {
            return Ok((measured, stage));
        }
    }
    unreachable!("the cycle loop only ends by returning")
}

// ---------------------------------------------------------------------------
// Batch: cold joins, closed loop, one at a time
// ---------------------------------------------------------------------------

/// `ROUNDS_PER_CYCLE` rounds of the four cold joins, a yardstick reading
/// after each join.
fn batch_rounds(
    cycle: &Cycle,
    expected: &[Vec<f64>],
    yard: &Yardstick,
    readings: &mut Vec<f64>,
    samples: &mut Samples,
    measured: &mut Measured,
) {
    let Cycle { stage, rec, .. } = *cycle;
    let first = cycle.index * ROUNDS_PER_CYCLE;
    for round in first..first + ROUNDS_PER_CYCLE {
        // Every round draws its pivots under another plan seed, so a median
        // over rounds describes the typical draw, not one lucky one.
        let plan_seed = cycle.cfg.seed.wrapping_add(round as u64);
        // Traced runs record spans on every other round; the two halves
        // give the tracing overhead.
        let traced = rec.enabled() && round % 2 == 0;
        for (i, op) in BATCH_OPS.iter().enumerate() {
            let start = Instant::now();
            let outcome = op.builder(&stage.inputs, plan_seed).run(&stage.ctx);
            let end = Instant::now();
            readings.push(yard.reading());
            let result = match outcome {
                Ok(result) => result,
                Err(e) => {
                    measured.gate.fail(format!("{} join: {e}", op.key));
                    continue;
                }
            };
            measured
                .gate
                .check(check_sample(stage, expected, &result, op.key));
            samples.join_s[i].push((end - start).as_secs_f64());
            measured.rounds[i].traced.push(traced);
            if traced {
                record_join_spans(rec, cycle.span, op, (start, end), &result.metrics);
                if op.key == "pgbj" {
                    let plan = op.builder(&stage.inputs, plan_seed).plan();
                    let counts =
                        replay_pre_join(rec, cycle.span, &plan.expect("it just ran"), stage);
                    measured.replay.get_or_insert(counts);
                }
            }
            measured.rounds[i].metrics.push(result.metrics);
        }
    }
}

/// Every sampled row of a finished join against brute force.
fn check_sample(
    stage: &Stage,
    expected: &[Vec<f64>],
    result: &JoinResult,
    op: &str,
) -> Result<(), String> {
    for (point, expected) in stage.sample().iter().zip(expected) {
        let row = result
            .row(point.id)
            .ok_or_else(|| format!("{op} join: no row for {}", point.id))?;
        if let Some(why) = row_mismatch(row, expected) {
            return Err(format!("{op} join: {why}"));
        }
    }
    Ok(())
}

/// The join's span, with the phases the program timed itself as children
/// laid end to end from the join's start (the cold drivers run them
/// strictly in sequence).
fn record_join_spans(
    rec: &Recorder,
    parent: u64,
    op: &BatchOp,
    (start, end): (Instant, Instant),
    metrics: &JoinMetrics,
) {
    let span = (rec.ns_at(start), rec.ns_at(end));
    let id = rec.record(
        parent,
        "algorithms.join",
        op.key,
        span,
        &[
            ("dist_evals", metrics.distance_computations as f64),
            ("shuffle_bytes", metrics.shuffle_bytes as f64),
            ("shuffle_records", metrics.shuffle_records as f64),
        ],
    );
    let mut cursor = span.0;
    for (name, elapsed) in &metrics.phase_times {
        let until = cursor + elapsed.as_nanos() as u64;
        let name = format!("algorithms.{}", name.replace(' ', "_"));
        rec.record(id, &name, op.key, (cursor, until), &[]);
        cursor = until;
    }
}

/// Replays what the PGBJ driver does before its join job, one layer call at
/// a time on the inputs and plan the join just used, so each layer's share
/// can be timed from outside.
fn replay_pre_join(rec: &Recorder, parent: u64, plan: &JoinPlan, stage: &Stage) -> ReplayCounts {
    let (r, s) = (&stage.inputs.r, &stage.inputs.s);
    let replay = rec.open(parent, "replay.pre_join", "pgbj");
    let at = replay.id();
    let pivots = rec.time(at, "pivots.select_pivots", "pgbj", || {
        select_pivots(
            r,
            plan.pivot_count,
            plan.pivot_strategy,
            plan.pivot_sample_size,
            plan.metric,
            plan.seed,
        )
    });
    let (partitioner, parts_r, parts_s) = rec.time(at, "partition.partition", "pgbj", || {
        let partitioner = VoronoiPartitioner::new(pivots.clone(), plan.metric);
        let parts = (partitioner.partition(r), partitioner.partition(s));
        (partitioner, parts.0, parts.1)
    });
    let pivot_count = pivots.len();
    let tables = rec.time(at, "summary.build", "pgbj", || {
        SummaryTables::build(pivots, plan.metric, &parts_r, &parts_s, plan.k)
    });
    let bounds = rec.time(at, "bounds.compute", "pgbj", || {
        PartitionBounds::compute(&tables, plan.k)
    });
    let grouping = rec.time(at, "grouping.build_grouping", "pgbj", || {
        build_grouping(plan.grouping_strategy, &tables, &bounds, plan.reducers)
    });
    rec.close(replay, &[("pivots", pivot_count as f64)]);

    let assign_evals: u64 = r
        .iter()
        .chain(s.iter())
        .map(|p| partitioner.nearest_pivot(&p.coords).computations)
        .sum();
    let groups = grouping.group_object_counts(&tables);
    let mean_group = groups.iter().sum::<usize>() as f64 / groups.len().max(1) as f64;
    ReplayCounts {
        pivots: pivot_count,
        assign_evals_per_point: assign_evals as f64 / (r.len() + s.len()) as f64,
        max_over_mean_group: groups.iter().copied().max().unwrap_or(0) as f64 / mean_group,
    }
}

// ---------------------------------------------------------------------------
// Serving: open loop at a fixed rate
// ---------------------------------------------------------------------------

enum Pending {
    Single {
        due: Instant,
        query: usize,
        ticket: Result<Ticket<JoinRow>, JoinError>,
    },
    Batch {
        due: Instant,
        first_query: usize,
        ticket: Result<Ticket<JoinResult>, JoinError>,
    },
}

/// An answer kept for checking after the phase (never during: brute force
/// would compete with the server for the two cores).
struct Kept {
    query: usize,
    row: JoinRow,
}

fn batch_of(queries: &PointSet, first: usize) -> PointSet {
    PointSet::from_points(queries.points()[first..first + BATCH_ROWS].to_vec())
}

/// Sends singles (and batches) on an absolute schedule from one generator
/// thread, redeems the tickets in order on this thread, and times every
/// request from its due time.
fn open_loop(
    cycle: &Cycle,
    phase: &str,
    server: &Server,
    (singles_per_s, batches_per_s): (f64, f64),
    duration: Duration,
    gate: &mut Gate,
) -> ServeSamples {
    let Cycle { stage, rec, .. } = *cycle;
    let queries = &stage.inputs.queries;
    let span = rec.open(cycle.span, "phase.serve", phase);
    let before = server.stats();
    let mut samples = ServeSamples::default();
    let mut kept = Vec::new();
    let (tx, rx) = mpsc::channel::<(Pending, f64)>();

    std::thread::scope(|scope| {
        scope.spawn(move || {
            let start = Instant::now();
            let end_ns = duration.as_nanos() as u64;
            let mut singles = Pacer::per_second(singles_per_s);
            let mut batches = (batches_per_s > 0.0).then(|| Pacer::per_second(batches_per_s));
            let (mut single_count, mut batch_count) = (0usize, 0usize);
            loop {
                let batch_first = batches
                    .as_ref()
                    .is_some_and(|b| b.peek_due_ns() <= singles.peek_due_ns());
                let pacer = match &mut batches {
                    Some(b) if batch_first => b,
                    _ => &mut singles,
                };
                let slot = pacer.next_slot();
                if slot.due_ns >= end_ns {
                    break;
                }
                wait_until(start + Duration::from_nanos(slot.not_before_ns));
                let now_ns = start.elapsed().as_nanos() as u64;
                pacer.sent(now_ns);
                let due = start + Duration::from_nanos(slot.due_ns);
                let lag_us = now_ns.saturating_sub(slot.due_ns) as f64 / 1e3;
                let pending = if batch_first {
                    let first_query = (batch_count * BATCH_ROWS) % (queries.len() - BATCH_ROWS + 1);
                    batch_count += 1;
                    Pending::Batch {
                        due,
                        first_query,
                        ticket: server.submit(batch_of(queries, first_query)),
                    }
                } else {
                    let query = single_count % queries.len();
                    single_count += 1;
                    Pending::Single {
                        due,
                        query,
                        ticket: server.submit_one(queries.points()[query].clone()),
                    }
                };
                if tx.send((pending, lag_us)).is_err() {
                    break;
                }
            }
        });

        for (pending, lag_us) in rx {
            samples.lag_us.push(lag_us);
            match pending {
                Pending::Single { due, query, ticket } => {
                    samples.singles_sent += 1;
                    let answer = ticket.and_then(Ticket::wait);
                    let done = Instant::now();
                    match answer {
                        Ok(row) => {
                            samples.single_us.push((done - due).as_secs_f64() * 1e6);
                            if done - due <= SLO {
                                samples.singles_within_slo += 1;
                            }
                            rec.record(
                                span.id(),
                                "serving.single",
                                phase,
                                (rec.ns_at(due), rec.ns_at(done)),
                                &[],
                            );
                            if samples.singles_sent.is_multiple_of(CHECK_EVERY) {
                                kept.push(Kept { query, row });
                            } else {
                                gate.pass();
                            }
                        }
                        Err(e) => gate.fail(format!("{phase}: {e}")),
                    }
                }
                Pending::Batch {
                    due,
                    first_query,
                    ticket,
                } => {
                    let answer = ticket.and_then(Ticket::wait);
                    let done = Instant::now();
                    match answer {
                        Ok(result) => {
                            samples.batch_ms.push((done - due).as_secs_f64() * 1e3);
                            rec.record(
                                span.id(),
                                "serving.batch",
                                phase,
                                (rec.ns_at(due), rec.ns_at(done)),
                                &[("rows", result.rows.len() as f64)],
                            );
                            gate.check(check_batch(&result, first_query, queries, &mut kept));
                        }
                        Err(e) => gate.fail(format!("{phase}: {e}")),
                    }
                }
            }
        }
    });

    count_coalesced(&mut samples, &before, &server.stats());
    rec.close(
        span,
        &[
            ("singles_sent", samples.singles_sent as f64),
            ("mean_coalesced_batch", samples.mean_coalesced_batch()),
        ],
    );
    check_kept(stage, kept, phase, gate);
    samples
}

/// A served batch must answer its rows in order; a few of them are kept for
/// the brute-force check.
fn check_batch(
    result: &JoinResult,
    first_query: usize,
    queries: &PointSet,
    kept: &mut Vec<Kept>,
) -> Result<(), String> {
    if result.rows.len() != BATCH_ROWS {
        return Err(format!("batch answered {} rows", result.rows.len()));
    }
    let sent = &queries.points()[first_query..first_query + BATCH_ROWS];
    for (offset, (row, point)) in result.rows.iter().zip(sent).enumerate() {
        if row.r_id != point.id {
            return Err(format!("batch row {offset} answers {}", row.r_id));
        }
        if (offset as u64).is_multiple_of(CHECK_EVERY) {
            kept.push(Kept {
                query: first_query + offset,
                row: row.clone(),
            });
        }
    }
    Ok(())
}

/// Brute-forces the kept answers over the initial S (the serving phases run
/// before any write).
fn check_kept(stage: &Stage, kept: Vec<Kept>, phase: &str, gate: &mut Gate) {
    for Kept { query, row } in kept {
        let point = &stage.inputs.queries.points()[query];
        let expected = nearest_distances(point, &stage.inputs.s, K);
        let verdict = if row.r_id != point.id {
            Err(format!("{phase}: asked {} answered {}", point.id, row.r_id))
        } else {
            row_mismatch(&row, &expected).map_or(Ok(()), |why| Err(format!("{phase}: {why}")))
        };
        gate.check(verdict);
    }
}

fn count_coalesced(samples: &mut ServeSamples, before: &ServerStats, after: &ServerStats) {
    samples.coalesced_batches = after.coalesced_batches - before.coalesced_batches;
    samples.coalesced_points = after.coalesced_points - before.coalesced_points;
}

// ---------------------------------------------------------------------------
// Serving: closed loop at saturation
// ---------------------------------------------------------------------------

/// `CAPACITY_CLIENTS` clients each keep `CAPACITY_PIPELINE` singles in
/// flight; the answer rate is the server's capacity with the coalescer full.
fn capacity_phase(
    cycle: &Cycle,
    server: &Server,
    duration: Duration,
    gate: &mut Gate,
) -> ServeSamples {
    let Cycle { stage, rec, .. } = *cycle;
    let queries = &stage.inputs.queries;
    let span = rec.open(cycle.span, "phase.serve", "capacity");
    let before = server.stats();
    let start = Instant::now();
    let deadline = start + duration;

    let clients: Vec<(u64, Vec<Kept>, Vec<JoinError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CAPACITY_CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut in_flight = VecDeque::with_capacity(CAPACITY_PIPELINE);
                    let (mut answered, mut kept, mut errors) = (0u64, Vec::new(), Vec::new());
                    let mut next = client * queries.len() / CAPACITY_CLIENTS;
                    loop {
                        while in_flight.len() < CAPACITY_PIPELINE && Instant::now() < deadline {
                            let query = next % queries.len();
                            next += 1;
                            match server.submit_one(queries.points()[query].clone()) {
                                Ok(ticket) => in_flight.push_back((query, ticket)),
                                Err(e) => errors.push(e),
                            }
                        }
                        let Some((query, ticket)) = in_flight.pop_front() else {
                            break;
                        };
                        match ticket.wait() {
                            Ok(row) => {
                                answered += 1;
                                if answered.is_multiple_of(20 * CHECK_EVERY) {
                                    kept.push(Kept { query, row });
                                }
                            }
                            Err(e) => errors.push(e),
                        }
                    }
                    (answered, kept, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("capacity client panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut samples = ServeSamples::default();
    let mut kept_all = Vec::new();
    let mut answered_all = 0;
    for (answered, kept, errors) in clients {
        samples.singles_sent += answered + errors.len() as u64;
        answered_all += answered;
        for _ in kept.len() as u64..answered {
            gate.pass();
        }
        kept_all.extend(kept);
        for e in errors {
            gate.fail(format!("capacity: {e}"));
        }
    }
    let answered_per_s = answered_all as f64 / elapsed;
    samples.answered_per_s.push(answered_per_s);
    count_coalesced(&mut samples, &before, &server.stats());
    rec.close(
        span,
        &[
            ("answered_per_s", answered_per_s),
            ("mean_coalesced_batch", samples.mean_coalesced_batch()),
        ],
    );
    check_kept(stage, kept_all, "capacity", gate);
    samples
}

// ---------------------------------------------------------------------------
// Churn: writes on a schedule beside a closed-loop reader
// ---------------------------------------------------------------------------

/// A reader calls `query_one` back to back (closed loop, no server) while
/// this thread applies `WRITES_PER_S` writes on a fixed schedule, alternating
/// an insert of a fresh id with a delete of a random live id.
fn churn_phase(cycle: &Cycle, gate: &mut Gate) -> ChurnSamples {
    let Cycle {
        cfg, stage, rec, ..
    } = *cycle;
    let prepared = &stage.prepared;
    let queries = stage.inputs.queries.points();
    let span = rec.open(cycle.span, "phase.churn", "churn");
    let stats_before = prepared.delta_stats();
    let cumulative_before = prepared.cumulative_metrics();
    let mut samples = ChurnSamples::default();
    // The benchmark's own model of the live corpus.
    let mut live: Vec<Point> = stage.inputs.s.points().to_vec();
    let mut fresh = stage.inputs.fresh.iter();
    let mut rng = SplitMix64::new(cfg.seed ^ 0xC0FFEE);
    let stop = AtomicBool::new(false);

    let (read_us, read_errors) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let (mut read_us, mut errors) = (Vec::new(), Vec::new());
            let mut next = 0usize;
            // ORDERING: Relaxed — a stop flag; the join below orders the rest.
            while !stop.load(Ordering::Relaxed) {
                let start = Instant::now();
                let answer = prepared.query_one(&queries[next % queries.len()]);
                read_us.push(start.elapsed().as_secs_f64() * 1e6);
                if let Err(e) = answer {
                    errors.push(e);
                }
                next += 1;
            }
            (read_us, errors)
        });

        let start = Instant::now();
        let end_ns = cfg.churn().as_nanos() as u64;
        let mut pacer = Pacer::per_second(WRITES_PER_S);
        let mut writes = 0u64;
        loop {
            let slot = pacer.next_slot();
            if slot.due_ns >= end_ns {
                break;
            }
            // Writes are timed by themselves, not from their due time, so a
            // plain sleep (no spin stealing a core from the reader) will do.
            std::thread::sleep(
                (start + Duration::from_nanos(slot.not_before_ns))
                    .saturating_duration_since(Instant::now()),
            );
            pacer.sent(start.elapsed().as_nanos() as u64);
            let compactions = prepared.delta_stats().compactions;
            let insert = writes.is_multiple_of(2);
            let (point, began, acknowledged) = if insert {
                let Some(point) = fresh.next().cloned() else {
                    break;
                };
                let began = Instant::now();
                let outcome = prepared.insert(point.clone());
                (point, began, outcome.map_err(|e| e.to_string()))
            } else {
                let victim = live.swap_remove(rng.below(live.len()));
                let began = Instant::now();
                let was_live = prepared.delete(victim.id);
                let outcome = was_live
                    .then_some(())
                    .ok_or_else(|| format!("delete of live id {} found nothing", victim.id));
                (victim, began, outcome)
            };
            let took = began.elapsed();
            let compacted = prepared.delta_stats().compactions > compactions;
            if compacted {
                samples.compact_ms.push(took.as_secs_f64() * 1e3);
            } else {
                samples.write_us.push(took.as_secs_f64() * 1e6);
            }
            let name = if compacted {
                "delta.compacting_write"
            } else {
                "delta.write"
            };
            rec.record(
                span.id(),
                name,
                "churn",
                (rec.ns_at(began), rec.ns_at(began + took)),
                &[],
            );
            if insert {
                live.push(point.clone());
            }
            gate.check(acknowledged);
            if writes % READ_BACK_EVERY < 2 {
                gate.check(read_back(prepared, &point, insert));
            }
            writes += 1;
        }
        // ORDERING: Relaxed — only tells the reader to stop; its samples
        // come back through the join.
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("churn reader panicked")
    });

    for _ in read_errors.len()..read_us.len() {
        gate.pass();
    }
    for e in read_errors {
        gate.fail(format!("churn read: {e}"));
    }
    samples.read_us = read_us;
    if !samples.write_us.is_empty() {
        samples
            .write_mean_us
            .push(trimmed_mean(&samples.write_us, 0.01));
    }
    if !samples.read_us.is_empty() {
        samples.read_p50_us.push(median(&samples.read_us));
    }
    let stats = prepared.delta_stats();
    let cumulative = prepared.cumulative_metrics();
    samples.compactions = stats.compactions - stats_before.compactions;
    samples.compacted_points = stats.compacted_points - stats_before.compacted_points;
    samples.delta_probe_evals =
        cumulative.delta_probe_computations - cumulative_before.delta_probe_computations;
    samples.tombstone_masked = cumulative.tombstone_masked - cumulative_before.tombstone_masked;
    rec.close(
        span,
        &[
            (
                "writes",
                (samples.write_us.len() + samples.compact_ms.len()) as f64,
            ),
            ("reads", samples.read_us.len() as f64),
            ("compactions", samples.compactions as f64),
        ],
    );
    check_final_corpus(stage, &live, gate);
    samples
}

/// Read-your-writes: the point of an acknowledged insert is its own nearest
/// neighbour at once, and the id of an acknowledged delete is never returned
/// again.
fn read_back(prepared: &PreparedJoin, point: &Point, inserted: bool) -> Result<(), String> {
    let row = prepared.query_one(point).map_err(|e| e.to_string())?;
    let found = row.neighbors.iter().find(|n| n.id == point.id);
    match (inserted, found) {
        (true, Some(n)) if n.distance == 0.0 => Ok(()),
        (true, _) => Err(format!("inserted {} is not read back", point.id)),
        (false, Some(_)) => Err(format!("deleted {} is still returned", point.id)),
        (false, None) => Ok(()),
    }
}

/// After the last write: the program's corpus is the model's (every
/// acknowledged insert present, every acknowledged delete gone), and `query`
/// on the sample matches brute force over both.
fn check_final_corpus(stage: &Stage, live: &[Point], gate: &mut Gate) {
    let corpus = stage.prepared.materialized_corpus();
    let ids = |points: &[Point]| {
        let mut ids: Vec<u64> = points.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids
    };
    gate.check(if ids(corpus.points()) == ids(live) {
        Ok(())
    } else {
        Err(format!(
            "after churn the corpus holds {} ids, the model {}",
            corpus.len(),
            live.len()
        ))
    });
    let rows = &stage.sample()[..CHURN_SAMPLE_ROWS.min(stage.sample().len())];
    match stage.prepared.query(&PointSet::from_points(rows.to_vec())) {
        Ok(result) => {
            for point in rows {
                let over_model = nearest_distances(point, live, K);
                let over_corpus = nearest_distances(point, &corpus, K);
                let verdict = match result.row(point.id) {
                    Some(row) => row_mismatch(row, &over_model)
                        .or_else(|| row_mismatch(row, &over_corpus))
                        .map_or(Ok(()), |why| Err(format!("after churn: {why}"))),
                    None => Err(format!("after churn: no row for {}", point.id)),
                };
                gate.check(verdict);
            }
        }
        Err(e) => gate.fail(format!("after churn: {e}")),
    }
}
