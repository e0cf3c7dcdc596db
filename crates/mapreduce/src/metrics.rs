//! Job execution metrics.
//!
//! The paper reports running time broken into phases (Figure 6) and shuffling
//! cost in bytes (Figures 8c–12c).  The engine fills a [`JobMetrics`] for
//! every executed job; drivers fold each job's into their own totals.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::time::Duration;

/// Wall-clock duration of each phase of a job.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Time spent running map tasks, including the per-partition routing,
    /// spill sort and combiner work each map task performs before handing
    /// its buffers over.
    pub map: Duration,
    /// Time spent moving the per-task partition buffers to their reduce
    /// partitions (a transpose of already-routed buffers; the per-record work
    /// happens inside the map and reduce phases).
    pub shuffle: Duration,
    /// Time spent running reduce tasks, including each task's run merge: the
    /// stable sort that merges the sorted runs it received into key groups.
    pub reduce: Duration,
}

impl PhaseTimings {
    /// Total wall-clock time of the job.
    pub fn total(&self) -> Duration {
        self.map + self.shuffle + self.reduce
    }
}

/// Everything the engine knows about a finished job.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// Job name (for experiment reports).
    pub job_name: String,
    /// Number of map tasks executed.
    pub map_tasks: usize,
    /// Number of reduce tasks executed.
    pub reduce_tasks: usize,
    /// Number of input pairs consumed by the map phase.
    pub input_records: u64,
    /// Number of intermediate pairs that crossed the shuffle.
    pub shuffle_records: u64,
    /// Number of bytes that crossed the shuffle (the paper's shuffling cost).
    pub shuffle_bytes: u64,
    /// Number of pairs fed into the map-side combiner (zero without one).
    pub combine_input_records: u64,
    /// Number of pairs the combiner emitted towards the shuffle (zero
    /// without one).
    pub combine_output_records: u64,
    /// Number of output pairs produced by the reduce phase.
    pub output_records: u64,
    /// Per-phase wall clock durations.
    pub timings: PhaseTimings,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_timings_total() {
        let t = PhaseTimings {
            map: Duration::from_millis(10),
            shuffle: Duration::from_millis(20),
            reduce: Duration::from_millis(30),
        };
        assert_eq!(t.total(), Duration::from_millis(60));
    }
}
