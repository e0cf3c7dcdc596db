//! The execution context every join runs inside.
//!
//! The paper's algorithms run on a Hadoop deployment whose cluster-wide
//! settings (task slots per node, counters collection) live outside any
//! single job.  [`ExecutionContext`] is the in-process analogue: it owns the
//! worker-pool size used by the MapReduce engine and the prepared probes.
//! One context is typically created per application (or per experiment
//! suite) and shared across joins.  What a join cost is read from its
//! [`crate::JoinResult::metrics`]; what a prepared join has cost so far from
//! [`crate::PreparedJoin::cumulative_metrics`].

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
}

/// `d / n`, zero when `n` is zero (nanosecond precision).
fn div_duration(d: Duration, n: u64) -> Duration {
    if n == 0 {
        Duration::ZERO
    } else {
        Duration::from_nanos((d.as_nanos() / n as u128) as u64)
    }
}

/// Shared runtime owned by the caller and threaded through every join: the
/// worker-pool size.
#[derive(Debug, Clone)]
pub struct ExecutionContext {
    workers: usize,
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
}

impl Default for ExecutionContext {
    fn default() -> Self {
        Self::builder().build()
    }
}

/// Fluent constructor for [`ExecutionContext`].
#[derive(Debug, Default)]
pub struct ExecutionContextBuilder {
    workers: Option<usize>,
}

impl ExecutionContextBuilder {
    /// Sets the worker-pool size (clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Finishes the context, filling unset fields with defaults.
    pub fn build(self) -> ExecutionContext {
        ExecutionContext {
            workers: self.workers.unwrap_or_else(mapreduce::default_workers),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_context_has_sane_fields() {
        assert!(ExecutionContext::default().workers() >= 1);
    }

    #[test]
    fn builder_sets_the_worker_count_and_clones_keep_it() {
        let ctx = ExecutionContext::builder().workers(3).build();
        assert_eq!(ctx.workers(), 3);
        assert_eq!(ctx.clone().workers(), 3);
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

        let served = ServingStats {
            queries: 8,
            build_time: Duration::from_millis(80),
            total_query_time: Duration::from_millis(40),
        };
        assert_eq!(served.mean_query_time(), Duration::from_millis(5));
        assert_eq!(served.amortized_build_time(), Duration::from_millis(10));
    }

    #[test]
    fn zero_workers_is_clamped() {
        let ctx = ExecutionContext::builder().workers(0).build();
        assert_eq!(ctx.workers(), 1);
    }
}
