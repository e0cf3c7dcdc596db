//! Join-level metrics matching the quantities reported in the paper's
//! evaluation (Section 6).
//!
//! * **running time**, broken into the phases of Figure 6 (pivot selection,
//!   data partitioning, index merging, partition grouping, kNN join);
//! * **computation selectivity** (Equation 13): the fraction of object pairs
//!   whose distance is actually computed, counting pivots as objects;
//! * **replication of S**: how many copies of `S` objects are shuffled to
//!   reducers, and the average per object (`α` in Section 3);
//! * **shuffling cost**: the number of bytes crossing the MapReduce shuffle.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use geom::RecordKind;
use mapreduce::JobMetrics;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The counts one cold MapReduce job's tasks keep: one relaxed atomic per
/// [`JoinMetrics`] field a job feeds.  The driver lends `&Tally` to the
/// job's mapper and reducer and, once the job is done, folds it in with
/// [`JoinMetrics::absorb_tally`].
#[derive(Debug, Default)]
pub(crate) struct Tally {
    distance_computations: AtomicU64,
    pivot_assignment_computations: AtomicU64,
    r_records_shuffled: AtomicU64,
    s_records_shuffled: AtomicU64,
    index_builds: AtomicU64,
}

/// What a task adds to a [`Tally`]; each names the [`JoinMetrics`] field it
/// lands in.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Count {
    /// [`JoinMetrics::distance_computations`].
    Distances,
    /// [`JoinMetrics::pivot_assignment_computations`].
    PivotAssignments,
    /// [`JoinMetrics::r_records_shuffled`] or
    /// [`JoinMetrics::s_records_shuffled`], by dataset.
    Shuffled(RecordKind),
    /// [`JoinMetrics::index_builds`].
    IndexBuilds,
}

impl Tally {
    /// Adds `n` to `count`, from any of the job's worker threads.
    pub(crate) fn add(&self, count: Count, n: u64) {
        let slot = match count {
            Count::Distances => &self.distance_computations,
            Count::PivotAssignments => &self.pivot_assignment_computations,
            Count::Shuffled(RecordKind::R) => &self.r_records_shuffled,
            Count::Shuffled(RecordKind::S) => &self.s_records_shuffled,
            Count::IndexBuilds => &self.index_builds,
        };
        // ORDERING: Relaxed — the slots are independent sums no task reads;
        // the driver reads them only after the worker pool's threads are
        // joined, and the join synchronizes.
        slot.fetch_add(n, Ordering::Relaxed);
    }
}

/// Phase names used by the harness; kept as constants so experiment tables use
/// the same labels as Figure 6 of the paper.
pub mod phases {
    /// Pivot selection on the master node (preprocessing step).
    pub const PIVOT_SELECTION: &str = "pivot selection";
    /// First MapReduce job: Voronoi partitioning of `R ∪ S`.
    pub const DATA_PARTITIONING: &str = "data partitioning";
    /// Merging the per-split statistics into the summary tables.
    pub const INDEX_MERGING: &str = "index merging";
    /// Grouping partitions of `R` into reducer groups.
    pub const PARTITION_GROUPING: &str = "partition grouping";
    /// Second MapReduce job: the kNN join itself.
    pub const KNN_JOIN: &str = "knn join";
    /// Extra MapReduce job merging partial results (H-BRJ / PBJ only).
    pub const RESULT_MERGING: &str = "result merging";
    /// Folding a [`crate::delta::DeltaOverlay`] into the frozen serving
    /// structures of a [`crate::PreparedJoin`].  Appears in the cumulative
    /// metrics, never in per-query metrics.
    pub const COMPACTION: &str = "compaction";
}

/// Metrics of one kNN-join execution.
#[derive(Debug, Clone, Default)]
pub struct JoinMetrics {
    /// Wall-clock duration of each phase, in execution order.
    pub phase_times: Vec<(String, Duration)>,
    /// Number of object-pair distance computations performed during the join
    /// phase (between `R` objects and `S` objects *or pivots*, per the paper's
    /// definition of selectivity).
    pub distance_computations: u64,
    /// Point-to-pivot distance computations spent by the pruned
    /// nearest-pivot assignment: job 1 of cold PGBJ and PBJ, `prepare` over
    /// `S`, a prepared probe over its batch.  Kept separate from
    /// [`JoinMetrics::distance_computations`] so the selectivity of
    /// Equation 13 stays comparable with the paper.
    pub pivot_assignment_computations: u64,
    /// Number of `R` records shuffled to reducers in the join job.  Zero for
    /// a [`crate::PreparedJoin`] query, like every `shuffle_*` field: `S` is
    /// resident and the probe reads `R` in place, so nothing is shuffled.
    pub r_records_shuffled: u64,
    /// Number of `S` records (replicas included) shuffled to reducers in the
    /// join job.
    pub s_records_shuffled: u64,
    /// Number of spatial indexes built by the reducers (H-BRJ: one per
    /// distinct `S` block; zero for the index-free algorithms).
    pub index_builds: u64,
    /// Number of pivot-selection runs performed (PGBJ / PBJ: one per cold
    /// join, one per [`crate::PreparedJoin`] build, zero per prepared
    /// query).  Together with [`JoinMetrics::index_builds`] this is the
    /// counter pair that must stay flat across repeated prepared queries.
    pub pivot_selections: u64,
    /// Total bytes crossing the shuffle, across all MapReduce jobs involved
    /// (zero for a prepared query, which runs no job).
    pub shuffle_bytes: u64,
    /// Total records crossing the shuffle (post-combine), across all jobs.
    pub shuffle_records: u64,
    /// Records fed into the map-side combiner of PGBJ's and PBJ's
    /// partitioning job (zero for the other algorithms, which run none).
    pub combine_input_records: u64,
    /// Records that combiner let through to the shuffle.
    pub combine_output_records: u64,
    /// Distance computations spent scanning the S-delta memtable of a mutated
    /// [`crate::PreparedJoin`]; zero whenever the delta overlay is empty.
    pub delta_probe_computations: u64,
    /// Frozen-structure candidates masked by tombstones before ranking; zero
    /// whenever the delta overlay is empty.
    pub tombstone_masked: u64,
    /// Delta compactions performed (mutation path only).
    pub compactions: u64,
    /// Points re-laid-out into frozen serving structures by compactions.
    pub compacted_points: u64,
    /// |R| of the join that produced these metrics.
    pub r_size: usize,
    /// |S| of the join that produced these metrics.
    pub s_size: usize,
}

impl JoinMetrics {
    /// Records the duration of a named phase (phases keep insertion order so
    /// stacked-bar outputs match Figure 6).
    pub fn record_phase(&mut self, name: &str, elapsed: Duration) {
        self.phase_times.push((name.to_string(), elapsed));
    }

    /// Folds one MapReduce job's shuffle volume and combiner throughput
    /// into this join's totals; what the job's tasks counted comes through
    /// its tally.  Every job is folded — PGBJ's
    /// partitioning job counts towards shuffling cost just like its join
    /// job, exactly as the paper's cluster measurements would.
    pub fn absorb_job(&mut self, job: &JobMetrics) {
        self.shuffle_bytes += job.shuffle_bytes;
        self.shuffle_records += job.shuffle_records;
        self.combine_input_records += job.combine_input_records;
        self.combine_output_records += job.combine_output_records;
    }

    /// Folds the counts one job's tasks kept into this join's totals.
    pub(crate) fn absorb_tally(&mut self, tally: Tally) {
        self.distance_computations += tally.distance_computations.into_inner();
        self.pivot_assignment_computations += tally.pivot_assignment_computations.into_inner();
        self.r_records_shuffled += tally.r_records_shuffled.into_inner();
        self.s_records_shuffled += tally.s_records_shuffled.into_inner();
        self.index_builds += tally.index_builds.into_inner();
    }

    /// Folds another join's metrics into this one: counters and shuffle
    /// volume add up, phase times merge by name (a phase already present
    /// grows in place, a new one is appended, so first-seen order is kept
    /// and the list never outgrows the set of phase names), and the dataset
    /// sizes are taken from `other` when unset.  [`crate::PreparedJoin`] uses
    /// this to accumulate per-query metrics into a session-wide total.
    pub fn absorb(&mut self, other: &JoinMetrics) {
        for (name, d) in &other.phase_times {
            match self.phase_times.iter_mut().find(|(n, _)| n == name) {
                Some((_, total)) => *total += *d,
                None => self.record_phase(name, *d),
            }
        }
        self.distance_computations += other.distance_computations;
        self.pivot_assignment_computations += other.pivot_assignment_computations;
        self.r_records_shuffled += other.r_records_shuffled;
        self.s_records_shuffled += other.s_records_shuffled;
        self.index_builds += other.index_builds;
        self.pivot_selections += other.pivot_selections;
        self.shuffle_bytes += other.shuffle_bytes;
        self.shuffle_records += other.shuffle_records;
        self.combine_input_records += other.combine_input_records;
        self.combine_output_records += other.combine_output_records;
        self.delta_probe_computations += other.delta_probe_computations;
        self.tombstone_masked += other.tombstone_masked;
        self.compactions += other.compactions;
        self.compacted_points += other.compacted_points;
        if self.r_size == 0 {
            self.r_size = other.r_size;
        }
        if self.s_size == 0 {
            self.s_size = other.s_size;
        }
    }

    /// Total running time across phases.
    pub fn total_time(&self) -> Duration {
        self.phase_times.iter().map(|(_, d)| *d).sum()
    }

    /// Duration of a phase by name (zero if the phase never ran).
    pub fn phase(&self, name: &str) -> Duration {
        self.phase_times
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, d)| *d)
            .sum()
    }

    /// Computation selectivity (Equation 13): distance computations divided by
    /// `|R| · |S|`.  Expressed as a fraction; multiply by 1000 for the "per
    /// thousand" unit the paper plots.
    pub fn computation_selectivity(&self) -> f64 {
        if self.r_size == 0 || self.s_size == 0 {
            return 0.0;
        }
        self.distance_computations as f64 / (self.r_size as f64 * self.s_size as f64)
    }

    /// Average number of replicas of an `S` object shipped to reducers (`α`).
    pub fn average_replication(&self) -> f64 {
        if self.s_size == 0 {
            return 0.0;
        }
        self.s_records_shuffled as f64 / self.s_size as f64
    }

    /// Shuffling cost in mebibytes.
    pub fn shuffle_mib(&self) -> f64 {
        self.shuffle_bytes as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_in_order() {
        let mut m = JoinMetrics::default();
        m.record_phase(phases::PIVOT_SELECTION, Duration::from_millis(5));
        m.record_phase(phases::KNN_JOIN, Duration::from_millis(20));
        m.record_phase(phases::KNN_JOIN, Duration::from_millis(10));
        assert_eq!(m.total_time(), Duration::from_millis(35));
        assert_eq!(m.phase(phases::KNN_JOIN), Duration::from_millis(30));
        assert_eq!(m.phase(phases::RESULT_MERGING), Duration::ZERO);
        assert_eq!(m.phase_times[0].0, phases::PIVOT_SELECTION);
    }

    #[test]
    fn selectivity_and_replication() {
        let m = JoinMetrics {
            distance_computations: 500,
            r_size: 100,
            s_size: 50,
            s_records_shuffled: 150,
            shuffle_bytes: 1024 * 1024,
            ..Default::default()
        };
        assert!((m.computation_selectivity() - 0.1).abs() < 1e-12);
        assert!((m.average_replication() - 3.0).abs() < 1e-12);
        assert!((m.shuffle_mib() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_job_accumulates_volume_and_counters() {
        let mut join = JoinMetrics::default();
        let job = JobMetrics {
            shuffle_records: 100,
            shuffle_bytes: 4_000,
            combine_input_records: 150,
            combine_output_records: 100,
            ..Default::default()
        };
        let tally = || {
            let tally = Tally::default();
            tally.add(Count::Distances, 7);
            tally.add(Count::PivotAssignments, 5);
            tally.add(Count::Shuffled(RecordKind::R), 40);
            tally.add(Count::Shuffled(RecordKind::S), 30);
            tally.add(Count::Shuffled(RecordKind::S), 1);
            tally.add(Count::IndexBuilds, 3);
            tally
        };
        for _ in 0..2 {
            // Two jobs of the same algorithm.
            join.absorb_job(&job);
            join.absorb_tally(tally());
        }
        assert_eq!(join.shuffle_records, 200);
        assert_eq!(join.shuffle_bytes, 8_000);
        assert_eq!(join.combine_input_records, 300);
        assert_eq!(join.combine_output_records, 200);
        assert_eq!(join.distance_computations, 14);
        assert_eq!(join.pivot_assignment_computations, 10);
        assert_eq!(join.r_records_shuffled, 80);
        assert_eq!(join.s_records_shuffled, 62);
        assert_eq!(join.index_builds, 6);
        assert_eq!(join.delta_probe_computations, 0);
        assert_eq!(join.tombstone_masked, 0);
    }

    #[test]
    fn absorb_accumulates_counters_and_phases() {
        let mut total = JoinMetrics::default();
        let mut per_query = JoinMetrics {
            distance_computations: 10,
            pivot_assignment_computations: 4,
            r_records_shuffled: 3,
            index_builds: 1,
            pivot_selections: 1,
            shuffle_bytes: 100,
            shuffle_records: 5,
            delta_probe_computations: 7,
            tombstone_masked: 3,
            compactions: 1,
            compacted_points: 12,
            r_size: 30,
            s_size: 40,
            ..Default::default()
        };
        per_query.record_phase(phases::KNN_JOIN, Duration::from_millis(2));
        total.absorb(&per_query);
        total.absorb(&per_query);
        assert_eq!(total.distance_computations, 20);
        assert_eq!(total.pivot_assignment_computations, 8);
        assert_eq!(total.r_records_shuffled, 6);
        assert_eq!(total.index_builds, 2);
        assert_eq!(total.pivot_selections, 2);
        assert_eq!(total.shuffle_bytes, 200);
        assert_eq!(total.shuffle_records, 10);
        assert_eq!(total.delta_probe_computations, 14);
        assert_eq!(total.tombstone_masked, 6);
        assert_eq!(total.compactions, 2);
        assert_eq!(total.compacted_points, 24);
        assert_eq!(total.phase(phases::KNN_JOIN), Duration::from_millis(4));
        assert_eq!((total.r_size, total.s_size), (30, 40));
    }

    #[test]
    fn absorb_merges_phases_by_name_instead_of_growing_per_call() {
        let mut per_query = JoinMetrics::default();
        per_query.record_phase(phases::DATA_PARTITIONING, Duration::from_micros(1));
        per_query.record_phase(phases::INDEX_MERGING, Duration::from_micros(2));
        per_query.record_phase(phases::KNN_JOIN, Duration::from_micros(3));
        let mut compaction = JoinMetrics::default();
        compaction.record_phase(phases::COMPACTION, Duration::from_micros(10));

        let mut total = JoinMetrics::default();
        for i in 0..2_000 {
            total.absorb(&per_query);
            if i == 0 {
                total.absorb(&compaction);
            }
        }
        // One entry per distinct phase, in first-seen order, however many
        // queries were absorbed.
        let names: Vec<&str> = total.phase_times.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                phases::DATA_PARTITIONING,
                phases::INDEX_MERGING,
                phases::KNN_JOIN,
                phases::COMPACTION
            ]
        );
        assert_eq!(total.phase(phases::KNN_JOIN), Duration::from_micros(6_000));
        assert_eq!(total.total_time(), Duration::from_micros(12_010));
    }

    #[test]
    fn empty_inputs_do_not_divide_by_zero() {
        let m = JoinMetrics::default();
        assert_eq!(m.computation_selectivity(), 0.0);
        assert_eq!(m.average_replication(), 0.0);
        assert_eq!(m.total_time(), Duration::ZERO);
    }
}
