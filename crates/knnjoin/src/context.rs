//! The execution context every join runs inside.
//!
//! The paper's algorithms run on a Hadoop deployment whose cluster-wide
//! settings (task slots per node, counters collection) live outside any
//! single job.  [`ExecutionContext`] is the in-process analogue: it owns the
//! worker-pool size used by the MapReduce engine and a pluggable
//! [`MetricsSink`] that observes the [`JoinMetrics`] of every join executed
//! through the [`crate::JoinBuilder`].  One context is typically created per
//! application (or per experiment suite) and shared across joins, so
//! benchmarks stop re-plumbing pool sizes and metrics collection for every
//! run.

use crate::metrics::JoinMetrics;
use mapreduce::sync::{ranks, RankedMutex};
use std::sync::Arc;
use std::time::Duration;

/// Session-scoped serving statistics of one [`crate::PreparedJoin`]: how
/// many queries the prepared state has answered and how its one-time build
/// cost amortizes over them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServingStats {
    /// Queries answered so far (across all clones of the handle).
    pub queries: u64,
    /// Wall time of the one-time S-side build.
    pub build_time: Duration,
    /// Cumulative wall time spent answering queries.
    pub total_query_time: Duration,
}

impl ServingStats {
    /// Mean per-query wall time (zero before the first query).
    pub fn mean_query_time(&self) -> Duration {
        div_duration(self.total_query_time, self.queries)
    }

    /// The build cost amortized over the queries served: `build_time /
    /// queries` (the full build cost before the first query).
    pub fn amortized_build_time(&self) -> Duration {
        if self.queries == 0 {
            self.build_time
        } else {
            div_duration(self.build_time, self.queries)
        }
    }

    /// Mean end-to-end cost per query with the build amortized in:
    /// `(build_time + total_query_time) / queries`.
    pub fn amortized_query_time(&self) -> Duration {
        if self.queries == 0 {
            self.build_time
        } else {
            div_duration(self.build_time + self.total_query_time, self.queries)
        }
    }
}

/// `d / n`, zero when `n` is zero (nanosecond precision).
fn div_duration(d: Duration, n: u64) -> Duration {
    if n == 0 {
        Duration::ZERO
    } else {
        Duration::from_nanos((d.as_nanos() / n as u128) as u64)
    }
}

/// Observes the metrics of completed joins.
///
/// Implementations must tolerate concurrent calls: a context may be shared by
/// joins running on several threads.
pub trait MetricsSink: Send + Sync {
    /// Called once per completed join with the algorithm's display name and
    /// the metrics it produced.
    fn record(&self, algorithm: &str, metrics: &JoinMetrics);
}

/// A sink that discards everything (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMetricsSink;

impl MetricsSink for NullMetricsSink {
    fn record(&self, _algorithm: &str, _metrics: &JoinMetrics) {}
}

/// One recorded join execution.
#[derive(Debug, Clone)]
pub struct RecordedJoin {
    /// Display name of the algorithm that ran ("PGBJ", "H-BRJ", ...).
    pub algorithm: String,
    /// The metrics it reported.
    pub metrics: JoinMetrics,
}

/// A sink that keeps every record in memory, in the order the `record`
/// calls took its lock; used by the experiment harness and by tests that
/// assert on executed-join history.  One lock: nothing on a serving path
/// installs this sink (the default is [`NullMetricsSink`]).
#[derive(Debug)]
pub struct MemoryMetricsSink {
    records: RankedMutex<Vec<RecordedJoin>>,
}

impl Default for MemoryMetricsSink {
    fn default() -> Self {
        Self {
            records: RankedMutex::new(ranks::SINK_SHARD, "sink.records", Vec::new()),
        }
    }
}

impl MemoryMetricsSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of joins recorded so far.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of everything recorded so far, in execution order.
    pub fn snapshot(&self) -> Vec<RecordedJoin> {
        self.records.lock().clone()
    }

    /// Clears the history.
    pub fn clear(&self) {
        self.records.lock().clear();
    }
}

impl MetricsSink for MemoryMetricsSink {
    fn record(&self, algorithm: &str, metrics: &JoinMetrics) {
        let record = RecordedJoin {
            algorithm: algorithm.to_string(),
            metrics: metrics.clone(),
        };
        self.records.lock().push(record);
    }
}

/// Shared runtime owned by the caller and threaded through every join: worker
/// pool size, metrics sink.
///
/// Cloning is cheap; clones share the sink (like several drivers talking to
/// one cluster).
#[derive(Clone)]
pub struct ExecutionContext {
    workers: usize,
    metrics_sink: Arc<dyn MetricsSink>,
}

impl ExecutionContext {
    /// Starts building a context.
    pub fn builder() -> ExecutionContextBuilder {
        ExecutionContextBuilder::default()
    }

    /// Number of worker threads the MapReduce engine may use for this
    /// context's jobs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The metrics sink observing completed joins.
    pub fn metrics_sink(&self) -> &Arc<dyn MetricsSink> {
        &self.metrics_sink
    }

    /// Reports a completed join to the sink.
    pub fn record_join(&self, algorithm: &str, metrics: &JoinMetrics) {
        self.metrics_sink.record(algorithm, metrics);
    }
}

impl Default for ExecutionContext {
    fn default() -> Self {
        Self {
            workers: mapreduce::default_workers(),
            metrics_sink: Arc::new(NullMetricsSink),
        }
    }
}

impl std::fmt::Debug for ExecutionContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionContext")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

/// Fluent constructor for [`ExecutionContext`].
#[derive(Default)]
pub struct ExecutionContextBuilder {
    workers: Option<usize>,
    metrics_sink: Option<Arc<dyn MetricsSink>>,
}

impl ExecutionContextBuilder {
    /// Sets the worker-pool size (clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Installs a metrics sink.
    pub fn metrics_sink(mut self, sink: Arc<dyn MetricsSink>) -> Self {
        self.metrics_sink = Some(sink);
        self
    }

    /// Finishes the context, filling unset fields with defaults.
    pub fn build(self) -> ExecutionContext {
        ExecutionContext {
            workers: self.workers.unwrap_or_else(mapreduce::default_workers),
            metrics_sink: self
                .metrics_sink
                .unwrap_or_else(|| Arc::new(NullMetricsSink)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_metrics() -> JoinMetrics {
        let mut m = JoinMetrics {
            r_size: 10,
            s_size: 20,
            ..Default::default()
        };
        m.record_phase("knn join", Duration::from_millis(3));
        m
    }

    #[test]
    fn default_context_has_sane_fields() {
        let ctx = ExecutionContext::default();
        assert!(ctx.workers() >= 1);
        // The null sink accepts records without effect.
        ctx.record_join("PGBJ", &sample_metrics());
    }

    #[test]
    fn builder_overrides_and_clones_share_state() {
        let sink = Arc::new(MemoryMetricsSink::new());
        let ctx = ExecutionContext::builder()
            .workers(3)
            .metrics_sink(sink.clone())
            .build();
        assert_eq!(ctx.workers(), 3);

        let clone = ctx.clone();
        clone.record_join("PBJ", &sample_metrics());
        ctx.record_join("PGBJ", &sample_metrics());
        assert_eq!(sink.len(), 2);
        let names: Vec<String> = sink.snapshot().into_iter().map(|r| r.algorithm).collect();
        assert_eq!(names, vec!["PBJ".to_string(), "PGBJ".to_string()]);
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn memory_sink_survives_concurrent_record_join_calls() {
        // Parallel prepared queries all report into one shared context; the
        // sink must lose nothing and tear nothing.
        const THREADS: usize = 8;
        const RECORDS_PER_THREAD: usize = 50;
        let sink = Arc::new(MemoryMetricsSink::new());
        let ctx = ExecutionContext::builder()
            .metrics_sink(sink.clone())
            .build();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let ctx = ctx.clone();
                scope.spawn(move || {
                    for i in 0..RECORDS_PER_THREAD {
                        let mut m = JoinMetrics {
                            r_size: t,
                            s_size: i,
                            distance_computations: (t * RECORDS_PER_THREAD + i) as u64,
                            ..Default::default()
                        };
                        m.record_phase("knn join", Duration::from_nanos(1));
                        ctx.record_join("PGBJ", &m);
                    }
                });
            }
        });
        let records = sink.snapshot();
        // No lost records...
        assert_eq!(records.len(), THREADS * RECORDS_PER_THREAD);
        // ...and no torn ones: every (r_size, s_size, computations) triple is
        // internally consistent and each thread's sequence appears exactly
        // once.
        let mut seen = std::collections::HashSet::new();
        for r in &records {
            assert_eq!(r.algorithm, "PGBJ");
            let expected = (r.metrics.r_size * RECORDS_PER_THREAD + r.metrics.s_size) as u64;
            assert_eq!(r.metrics.distance_computations, expected, "torn record");
            assert!(
                seen.insert((r.metrics.r_size, r.metrics.s_size)),
                "duplicate record"
            );
            assert_eq!(r.metrics.phase_times.len(), 1);
        }
        assert_eq!(seen.len(), THREADS * RECORDS_PER_THREAD);
    }

    #[test]
    fn serving_stats_amortization_math() {
        let fresh = ServingStats {
            queries: 0,
            build_time: Duration::from_millis(80),
            total_query_time: Duration::ZERO,
        };
        // Before any query the build is unamortized.
        assert_eq!(fresh.mean_query_time(), Duration::ZERO);
        assert_eq!(fresh.amortized_build_time(), Duration::from_millis(80));
        assert_eq!(fresh.amortized_query_time(), Duration::from_millis(80));

        let served = ServingStats {
            queries: 8,
            build_time: Duration::from_millis(80),
            total_query_time: Duration::from_millis(40),
        };
        assert_eq!(served.mean_query_time(), Duration::from_millis(5));
        assert_eq!(served.amortized_build_time(), Duration::from_millis(10));
        assert_eq!(served.amortized_query_time(), Duration::from_millis(15));
    }

    #[test]
    fn zero_workers_is_clamped() {
        let ctx = ExecutionContext::builder().workers(0).build();
        assert_eq!(ctx.workers(), 1);
    }

    #[test]
    fn debug_formatting_does_not_require_sink_debug() {
        let ctx = ExecutionContext::default();
        let rendered = format!("{ctx:?}");
        assert!(rendered.contains("workers"));
    }
}
