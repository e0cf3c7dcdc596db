//! The fluent front door of the crate: [`JoinBuilder`].
//!
//! ```
//! use datagen::uniform;
//! use knnjoin::{Algorithm, DistanceMetric, ExecutionContext, JoinBuilder};
//!
//! let r = uniform(120, 2, 100.0, 1);
//! let s = uniform(150, 2, 100.0, 2);
//! let ctx = ExecutionContext::default();
//!
//! let result = JoinBuilder::new(&r, &s)
//!     .k(5)
//!     .metric(DistanceMetric::Euclidean)
//!     .algorithm(Algorithm::Pgbj)
//!     .reducers(4)
//!     .run(&ctx)
//!     .unwrap();
//! assert_eq!(result.rows.len(), 120);
//! ```
//!
//! The builder resolves to a validated [`JoinPlan`] first (see
//! [`JoinBuilder::plan`]): invalid requests are rejected with typed
//! [`JoinError`] variants before anything runs, and unset tuning knobs are
//! filled with auto-tuned defaults — most notably `pivot_count ≈ √|R|`,
//! following the paper's parameter study, which found pivot counts growing
//! with the dataset (2000–8000 pivots for multi-million-object inputs).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::algorithms::zknn::check_z_bits;
use crate::context::ExecutionContext;
use crate::exact::validate_inputs;
use crate::grouping::GroupingStrategy;
use crate::pivots::PivotSelectionStrategy;
use crate::plan::{Algorithm, JoinPlan};
use crate::result::{JoinError, JoinResult};
use geom::{DistanceMetric, KernelMode, PointSet};

/// Fluent configuration of one kNN join over borrowed datasets.
///
/// Construct with [`JoinBuilder::new`] (also re-exported as `pgbj::Join`),
/// chain setters, then either [`JoinBuilder::plan`] to inspect the resolved
/// plan or [`JoinBuilder::run`] to execute inside an [`ExecutionContext`].
#[derive(Debug, Clone)]
pub struct JoinBuilder<'a> {
    r: &'a PointSet,
    s: &'a PointSet,
    /// The plan as requested so far: [`JoinPlan::default`] overwritten by the
    /// setters, except for the three values below.
    plan: JoinPlan,
    /// Auto-tuned from `|R|` unless requested.
    pivot_count: Option<usize>,
    /// The default plan's unless requested.
    reducers: Option<usize>,
    /// Twice the reducers unless requested.
    map_tasks: Option<usize>,
}

impl<'a> JoinBuilder<'a> {
    /// Starts a join of `r` against `s` (each object of `r` receives `k`
    /// neighbours from `s`).
    pub fn new(r: &'a PointSet, s: &'a PointSet) -> Self {
        Self {
            r,
            s,
            plan: JoinPlan::default(),
            pivot_count: None,
            reducers: None,
            map_tasks: None,
        }
    }

    /// Sets the number of neighbours per `R` object (default 1).
    pub fn k(mut self, k: usize) -> Self {
        self.plan.k = k;
        self
    }

    /// Sets the distance metric (default Euclidean).
    pub fn metric(mut self, metric: DistanceMetric) -> Self {
        self.plan.metric = metric;
        self
    }

    /// Selects the algorithm (default [`Algorithm::Pgbj`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.plan.algorithm = algorithm;
        self
    }

    /// Sets the number of Voronoi pivots explicitly.  When unset, the plan
    /// auto-tunes `pivot_count ≈ √|R|`.
    pub fn pivot_count(mut self, pivot_count: usize) -> Self {
        self.pivot_count = Some(pivot_count);
        self
    }

    /// Sets the pivot-selection strategy (default: random candidate sets, the
    /// paper's recommendation).
    pub fn pivot_strategy(mut self, strategy: PivotSelectionStrategy) -> Self {
        self.plan.pivot_strategy = strategy;
        self
    }

    /// Caps how many objects of `R` pivot selection may examine.
    pub fn pivot_sample_size(mut self, sample_size: usize) -> Self {
        self.plan.pivot_sample_size = sample_size;
        self
    }

    /// Sets the PGBJ grouping strategy (default geometric).
    pub fn grouping_strategy(mut self, strategy: GroupingStrategy) -> Self {
        self.plan.grouping_strategy = strategy;
        self
    }

    /// Sets the number of reducers / "computing nodes" (default 4).
    pub fn reducers(mut self, reducers: usize) -> Self {
        self.reducers = Some(reducers);
        self
    }

    /// Sets the number of map tasks (default: twice the reducer count).
    pub fn map_tasks(mut self, map_tasks: usize) -> Self {
        self.map_tasks = Some(map_tasks);
        self
    }

    /// Sets `α`, the number of randomly shifted data copies H-zkNNJ joins
    /// over (default 2).  This is the accuracy knob: each copy adds 2k
    /// z-order candidates per `R` object, healing z-curve seams the other
    /// copies miss, at proportionally more shuffle volume.
    pub fn shift_copies(mut self, copies: usize) -> Self {
        self.plan.shift_copies = copies;
        self
    }

    /// Sets H-zkNNJ's candidate-window multiplier (default 4): each `R`
    /// object considers `z_window · k` z-neighbours per side per shifted
    /// copy.  The second accuracy knob, trading distance computations for
    /// recall at fixed shuffle volume (wider windows cost no extra shuffle,
    /// unlike more `shift_copies`).
    pub fn z_window(mut self, multiplier: usize) -> Self {
        self.plan.z_window = multiplier;
        self
    }

    /// Seeds pivot selection (experiments fix this for reproducibility).
    pub fn seed(mut self, seed: u64) -> Self {
        self.plan.seed = seed;
        self
    }

    /// Sets how many pending delta entries (adds + tombstones) a
    /// [`crate::PreparedJoin`] tolerates before a mutation triggers an
    /// automatic compaction (default
    /// [`crate::plan::DEFAULT_DELTA_THRESHOLD`]).  Lower values keep probes
    /// closer to frozen-only cost at the price of compacting more often;
    /// irrelevant to one-shot [`JoinBuilder::run`] joins.
    pub fn delta_threshold(mut self, threshold: usize) -> Self {
        self.plan.delta_threshold = threshold;
        self
    }

    /// Accepts a [`KernelMode`] and changes nothing: no scan reads it, since
    /// every scan ranks its rows with the bit-exact column kernels.  Kept
    /// for `benchmark/` and the `(fast)` gate rows, which still name a mode.
    pub fn kernel_mode(self, _mode: KernelMode) -> Self {
        self
    }

    /// Validates the request and resolves every unset knob, producing the
    /// concrete [`JoinPlan`] that [`JoinBuilder::run`] would execute.
    ///
    /// # Errors
    /// Returns a typed [`JoinError`] describing the first problem found, in
    /// this order: the inputs ([`JoinError::InvalidK`],
    /// [`JoinError::EmptyInput`], [`JoinError::RaggedInput`],
    /// [`JoinError::NonFiniteInput`], [`JoinError::DimensionalityMismatch`]),
    /// an explicit pivot count against them
    /// ([`JoinError::PivotCountOutOfRange`]), then the resolved plan's own
    /// rules ([`JoinPlan::validate`]: [`JoinError::ZeroReducers`],
    /// [`JoinError::ZeroMapTasks`], [`JoinError::InvalidConfig`]).
    pub fn plan(&self) -> Result<JoinPlan, JoinError> {
        validate_inputs(self.r, self.s, self.plan.k)?;

        let pivot_ceiling = self.r.len().min(self.s.len());
        let (pivot_count, pivots_auto_tuned) = match self.pivot_count {
            Some(requested) => {
                if requested == 0 || requested > pivot_ceiling {
                    return Err(JoinError::PivotCountOutOfRange {
                        pivot_count: requested,
                        r_len: self.r.len(),
                        s_len: self.s.len(),
                    });
                }
                (requested, false)
            }
            // §7 of the paper: pivot counts grow with |R|; √|R| keeps the
            // per-partition population near √|R| as well, balancing the
            // partitioning job against the join job.
            None => (
                ((self.r.len() as f64).sqrt().ceil() as usize)
                    .min(pivot_ceiling)
                    .min(self.plan.pivot_sample_size)
                    .max(1),
                true,
            ),
        };
        let reducers = self.reducers.unwrap_or(self.plan.reducers);
        let plan = JoinPlan {
            pivot_count,
            pivots_auto_tuned,
            reducers,
            map_tasks: self.map_tasks.unwrap_or(reducers * 2),
            ..self.plan.clone()
        };
        plan.validate()?;
        if plan.algorithm == Algorithm::Zknn {
            check_z_bits(self.r.dims())?;
        }
        Ok(plan)
    }

    /// Plans and executes the join inside `ctx`; what it cost comes back in
    /// [`JoinResult::metrics`].
    ///
    /// # Errors
    /// Returns the planning error ([`JoinBuilder::plan`]) or any runtime /
    /// substrate [`JoinError`].
    pub fn run(self, ctx: &ExecutionContext) -> Result<JoinResult, JoinError> {
        self.plan()?.execute(self.r, self.s, ctx)
    }

    /// Splits a PGBJ join into its build and probe phases: validates
    /// the plan, builds the S-side Voronoi state once (pivot set +
    /// partitioned `S`) and returns a [`crate::PreparedJoin`] that answers
    /// arbitrary `R` batches without rebuilding any of it —
    /// [`crate::PreparedJoin::query`] over this builder's `R` produces the
    /// same neighbours as [`JoinBuilder::run`], with the per-query
    /// `index_builds` and `pivot_selections` counters pinned at zero.
    ///
    /// The builder's `R` doubles as the calibration sample (pivot selection
    /// is seeded from it, exactly as the one-shot path does); every bound
    /// remains valid for any later batch, so the prepared state serves them
    /// exactly.
    ///
    /// # Errors
    /// Returns the planning error ([`JoinBuilder::plan`]), then
    /// [`JoinError::InvalidConfig`] for an algorithm other than PGBJ (PBJ
    /// would probe the same index; the competitors keep none: all run cold
    /// only) and
    /// [`JoinError::DuplicateId`] when two `S` objects share an id.
    pub fn prepare(self, ctx: &ExecutionContext) -> Result<crate::PreparedJoin, JoinError> {
        let plan = self.plan()?;
        crate::PreparedJoin::build(self.r, self.s, plan, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::NestedLoopJoin;
    use crate::plan::DEFAULT_DELTA_THRESHOLD;
    use datagen::uniform;

    #[test]
    fn builder_runs_pgbj_and_matches_oracle() {
        let r = uniform(90, 3, 60.0, 1);
        let s = uniform(110, 3, 60.0, 2);
        let ctx = ExecutionContext::default();
        let result = JoinBuilder::new(&r, &s)
            .k(4)
            .algorithm(Algorithm::Pgbj)
            .reducers(3)
            .run(&ctx)
            .unwrap();
        let oracle = NestedLoopJoin
            .join(&r, &s, 4, DistanceMetric::Euclidean)
            .unwrap();
        assert!(result.matches(&oracle, 1e-9));
    }

    #[test]
    fn auto_tuned_pivot_count_is_about_sqrt_r() {
        let r = uniform(400, 2, 10.0, 3);
        let s = uniform(400, 2, 10.0, 4);
        let plan = JoinBuilder::new(&r, &s).k(2).plan().unwrap();
        assert_eq!(plan.pivot_count, 20);
        assert!(plan.pivots_auto_tuned);
        // Explicit counts are respected and flagged as such.
        let plan = JoinBuilder::new(&r, &s).k(2).pivot_count(7).plan().unwrap();
        assert_eq!(plan.pivot_count, 7);
        assert!(!plan.pivots_auto_tuned);
    }

    #[test]
    fn map_tasks_default_follows_reducers() {
        let r = uniform(20, 2, 10.0, 5);
        let s = uniform(20, 2, 10.0, 6);
        let plan = JoinBuilder::new(&r, &s).k(1).reducers(6).plan().unwrap();
        assert_eq!(plan.reducers, 6);
        assert_eq!(plan.map_tasks, 12);
        let plan = JoinBuilder::new(&r, &s)
            .k(1)
            .reducers(6)
            .map_tasks(3)
            .plan()
            .unwrap();
        assert_eq!(plan.map_tasks, 3);
    }

    #[test]
    fn each_run_returns_its_own_metrics() {
        let r = uniform(40, 2, 30.0, 7);
        let half = uniform(20, 2, 30.0, 8);
        let ctx = ExecutionContext::default();
        let broadcast = JoinBuilder::new(&r, &r)
            .k(3)
            .algorithm(Algorithm::BroadcastJoin)
            .run(&ctx)
            .unwrap();
        let nested = JoinBuilder::new(&half, &r)
            .k(3)
            .algorithm(Algorithm::NestedLoopJoin)
            .run(&ctx)
            .unwrap();
        assert_eq!(broadcast.metrics.r_size, 40);
        assert!(broadcast.metrics.shuffle_bytes > 0);
        assert_eq!(nested.metrics.r_size, 20);
        // The single-machine oracle runs no job, so it shuffles nothing.
        assert_eq!(nested.metrics.shuffle_bytes, 0);
    }

    #[test]
    fn zero_pivot_sample_size_is_rejected_not_a_panic() {
        let r = uniform(20, 2, 10.0, 9);
        let err = JoinBuilder::new(&r, &r)
            .k(2)
            .pivot_sample_size(0)
            .plan()
            .unwrap_err();
        assert!(matches!(err, JoinError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn ragged_inputs_are_rejected_at_planning_time() {
        use geom::{Point, PointSet};
        let good = uniform(10, 3, 10.0, 20);
        let mut ragged = uniform(10, 3, 10.0, 21);
        ragged.points_mut()[4] = Point::new(99, vec![1.0, 2.0]);
        let err = JoinBuilder::new(&ragged, &good).k(2).plan().unwrap_err();
        assert_eq!(
            err,
            JoinError::RaggedInput {
                dataset: "R",
                index: 4,
                dims: 2,
                expected: 3
            }
        );
        let err = JoinBuilder::new(&good, &ragged).k(2).plan().unwrap_err();
        assert!(matches!(err, JoinError::RaggedInput { dataset: "S", .. }));
        // A ragged set whose *first* point matches the other set's dims used
        // to slip through the cross-set check entirely.
        let sneaky = PointSet::from_points(vec![
            Point::new(0, vec![0.0, 0.0, 0.0]),
            Point::new(1, vec![1.0]),
        ]);
        let err = JoinBuilder::new(&good, &sneaky).k(1).plan().unwrap_err();
        assert!(matches!(err, JoinError::RaggedInput { dataset: "S", .. }));
    }

    #[test]
    fn zknn_knobs_resolve_into_the_plan_and_are_validated() {
        let r = uniform(50, 2, 10.0, 22);
        let plan = JoinBuilder::new(&r, &r)
            .k(3)
            .algorithm(Algorithm::Zknn)
            .shift_copies(4)
            .plan()
            .unwrap();
        assert_eq!(plan.shift_copies, 4);
        assert_eq!(plan.algorithm.name(), "H-zkNNJ");

        let err = JoinBuilder::new(&r, &r)
            .k(3)
            .shift_copies(0)
            .plan()
            .unwrap_err();
        assert!(matches!(err, JoinError::InvalidConfig(_)), "{err}");
        // More dimensions than the 256-bit z-value has bits cannot be
        // interleaved, but only Zknn interleaves, so the plan is only
        // rejected when Zknn is selected.
        let wide = uniform(4, 257, 10.0, 23);
        assert!(JoinBuilder::new(&wide, &wide).k(3).plan().is_ok());
        let err = JoinBuilder::new(&wide, &wide)
            .k(3)
            .algorithm(Algorithm::Zknn)
            .plan()
            .unwrap_err();
        assert!(matches!(err, JoinError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn builder_runs_zknn_with_high_recall() {
        let r = uniform(150, 2, 60.0, 24);
        let s = uniform(180, 2, 60.0, 25);
        let ctx = ExecutionContext::default();
        let result = JoinBuilder::new(&r, &s)
            .k(5)
            .algorithm(Algorithm::Zknn)
            .reducers(4)
            .run(&ctx)
            .unwrap();
        assert_eq!(result.rows.len(), 150);
        let oracle = NestedLoopJoin
            .join(&r, &s, 5, DistanceMetric::Euclidean)
            .unwrap();
        let quality = result.quality_against(&oracle);
        assert!(quality.recall >= 0.9, "recall {}", quality.recall);
        assert!(quality.distance_ratio >= 1.0 - 1e-9);
    }

    #[test]
    fn delta_threshold_resolves_into_the_plan_and_rejects_zero() {
        let r = uniform(30, 2, 10.0, 30);
        let plan = JoinBuilder::new(&r, &r).k(2).plan().unwrap();
        assert_eq!(plan.delta_threshold, DEFAULT_DELTA_THRESHOLD);
        let plan = JoinBuilder::new(&r, &r)
            .k(2)
            .delta_threshold(8)
            .plan()
            .unwrap();
        assert_eq!(plan.delta_threshold, 8);
        let err = JoinBuilder::new(&r, &r)
            .k(2)
            .delta_threshold(0)
            .plan()
            .unwrap_err();
        assert!(matches!(err, JoinError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn kernel_mode_leaves_the_plan_as_it_is() {
        use geom::KernelMode;
        let r = uniform(30, 2, 10.0, 31);
        let plan = JoinBuilder::new(&r, &r).k(2).plan().unwrap();
        for mode in [KernelMode::Exact, KernelMode::Fast] {
            let moded = JoinBuilder::new(&r, &r).k(2).kernel_mode(mode).plan();
            assert_eq!(moded.unwrap(), plan);
        }
    }

    #[test]
    fn pivot_count_beyond_sample_size_is_rejected_not_silently_clamped() {
        let r = uniform(500, 2, 10.0, 10);
        // Explicit count above the sample cap would be clamped at runtime,
        // making the plan lie; it must be rejected instead.
        let err = JoinBuilder::new(&r, &r)
            .k(2)
            .pivot_count(200)
            .pivot_sample_size(100)
            .plan()
            .unwrap_err();
        assert!(matches!(err, JoinError::InvalidConfig(_)), "{err}");
        // The auto-tuned count respects the sample cap (√500 ≈ 23 > 16).
        let plan = JoinBuilder::new(&r, &r)
            .k(2)
            .pivot_sample_size(16)
            .plan()
            .unwrap();
        assert_eq!(plan.pivot_count, 16);
        assert!(plan.pivots_auto_tuned);
    }
}
