//! Validated execution plans and runtime algorithm selection.
//!
//! A [`JoinPlan`] is the fully-resolved description of one kNN join: which
//! [`Algorithm`] runs, with which `k`, metric and tuning parameters.  Plans
//! are produced by [`crate::JoinBuilder::plan`] (which validates inputs and
//! auto-tunes unset knobs) and executed against an
//! [`crate::ExecutionContext`]; they can also be inspected, logged or reused
//! across datasets of similar shape.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::algorithms::{broadcast, hbrj, pbj, pgbj, zknn};
use crate::context::ExecutionContext;
use crate::exact::{validate_inputs, FlatBlock};
use crate::grouping::GroupingStrategy;
use crate::metrics::JoinMetrics;
use crate::pivots::PivotSelectionStrategy;
use crate::result::{JoinError, JoinResult};
use geom::{DistanceMetric, PointSet};

/// The join algorithms selectable at runtime.
///
/// The exact algorithms all produce identical results and differ only in cost
/// structure — exactly what the paper's evaluation compares.  [`Algorithm::Zknn`] is the
/// one approximate algorithm (the z-value competitor of §6): its reported
/// distances are true distances, but its candidate sets are z-order
/// neighbourhoods, so recall can fall below 1 (see
/// [`Algorithm::is_exact`] and [`crate::result::QualityReport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// The paper's contribution: Voronoi partitioning + grouping (§4–5).
    #[default]
    Pgbj,
    /// Voronoi bounds inside the √N×√N block framework, no grouping (§6).
    Pbj,
    /// The R-tree block baseline of Zhang et al. (§3).
    Hbrj,
    /// The z-value-based *approximate* join of Zhang, Li and Jestes (the
    /// H-zkNNJ competitor of §6).
    Zknn,
    /// The naive "broadcast S everywhere" strategy (§3).
    BroadcastJoin,
    /// The single-machine exact oracle.
    NestedLoopJoin,
}

impl Algorithm {
    /// Every selectable algorithm, in paper order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Pgbj,
        Algorithm::Pbj,
        Algorithm::Hbrj,
        Algorithm::Zknn,
        Algorithm::BroadcastJoin,
        Algorithm::NestedLoopJoin,
    ];

    /// Display name, matching experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Pgbj => "PGBJ",
            Algorithm::Pbj => "PBJ",
            Algorithm::Hbrj => "H-BRJ",
            Algorithm::Zknn => "H-zkNNJ",
            Algorithm::BroadcastJoin => "Broadcast",
            Algorithm::NestedLoopJoin => "NestedLoop",
        }
    }

    /// Whether the algorithm consumes the Voronoi pivot machinery — and so
    /// whether [`crate::JoinBuilder::prepare`] keeps a resident index for it.
    pub fn uses_pivots(&self) -> bool {
        matches!(self, Algorithm::Pgbj | Algorithm::Pbj)
    }

    /// Whether the algorithm returns the exact kNN join.  Everything except
    /// [`Algorithm::Zknn`] does; H-zkNNJ trades recall for a much cheaper
    /// join, and its deviation from exact is measured by
    /// [`crate::result::QualityReport`].
    pub fn is_exact(&self) -> bool {
        !matches!(self, Algorithm::Zknn)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A validated, fully-resolved join plan.
///
/// Every field holds a concrete value: defaults and auto-tuned parameters are
/// already substituted by the time a plan exists.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    /// Which algorithm executes the join.
    pub algorithm: Algorithm,
    /// Number of neighbours per `R` object.
    pub k: usize,
    /// The distance metric.
    pub metric: DistanceMetric,
    /// Number of Voronoi pivots (meaningful for PGBJ/PBJ).  The paper uses
    /// 2000–8000 for multi-million-object datasets; scale proportionally to
    /// the data.
    pub pivot_count: usize,
    /// Whether `pivot_count` was auto-tuned (≈ √|R|) rather than requested.
    pub pivots_auto_tuned: bool,
    /// How pivots are selected from `R`.
    pub pivot_strategy: PivotSelectionStrategy,
    /// Sample-size cap for pivot selection.
    pub pivot_sample_size: usize,
    /// How Voronoi cells are merged into reducer groups (PGBJ).
    pub grouping_strategy: GroupingStrategy,
    /// Number of reducers ("computing nodes").
    pub reducers: usize,
    /// Number of map tasks.
    pub map_tasks: usize,
    /// `α`, the number of randomly shifted copies (H-zkNNJ; the first copy is
    /// always unshifted).  More copies heal more z-curve seams (higher
    /// recall) at proportionally more shuffle and candidate work; the EDBT
    /// paper uses 2–4.
    pub shift_copies: usize,
    /// Candidate-window multiplier (H-zkNNJ): `z_window · k` z-neighbours per
    /// side per shifted copy (the EDBT paper's window is `z_window = 1`).
    /// Widening the window compensates for the curve's distortion at higher
    /// dimensionality, where true neighbours spread further along the curve;
    /// the default 4 holds recall ≈ 0.9 at `shift_copies = 2` on the paper's
    /// 10-d Forest workload while staying far below the exact algorithms'
    /// distance work.
    pub z_window: usize,
    /// Whether map-side combiners run (the PGBJ / PBJ partitioning job, the block
    /// algorithms' merge job) to cut shuffle volume.
    pub combiner: bool,
    /// Seed driving pivot selection.
    pub seed: u64,
    /// Maximum resident delta-overlay size (adds + tombstones) of a
    /// [`crate::PreparedJoin`] before a mutation triggers an automatic
    /// compaction (see [`crate::delta`]).  Irrelevant to cold joins.
    pub delta_threshold: usize,
}

/// Default [`JoinPlan::delta_threshold`]: mutations beyond this many pending
/// delta entries compact the prepared join's serving structures.
pub const DEFAULT_DELTA_THRESHOLD: usize = 1024;

impl JoinPlan {
    /// Checks every data-independent rule a plan must satisfy — the single
    /// place these live, called by [`crate::JoinBuilder::plan`] and again by
    /// [`JoinPlan::execute`] (the fields are public, so a plan need not have
    /// come from the builder).
    ///
    /// # Errors
    /// [`JoinError::InvalidK`], [`JoinError::ZeroReducers`],
    /// [`JoinError::ZeroMapTasks`] or [`JoinError::InvalidConfig`] naming the
    /// offending knob.
    pub fn validate(&self) -> Result<(), JoinError> {
        let invalid = |msg: String| Err(JoinError::InvalidConfig(msg));
        if self.k == 0 {
            return Err(JoinError::InvalidK);
        }
        if self.pivot_count == 0 {
            return invalid("pivot_count must be positive".into());
        }
        if self.pivot_sample_size == 0 {
            return invalid("pivot_sample_size must be positive".into());
        }
        // Pivot selection only examines `pivot_sample_size` objects, so a
        // larger pivot count would be silently clamped at runtime; reject it
        // instead so the plan stays truthful.
        if self.pivot_count > self.pivot_sample_size {
            return invalid(format!(
                "pivot_count {} exceeds pivot_sample_size {}",
                self.pivot_count, self.pivot_sample_size
            ));
        }
        if self.reducers == 0 {
            return Err(JoinError::ZeroReducers);
        }
        if self.map_tasks == 0 {
            return Err(JoinError::ZeroMapTasks);
        }
        if self.shift_copies == 0 {
            return invalid("shift_copies must be at least 1".into());
        }
        if self.z_window == 0 {
            return invalid("z_window must be at least 1".into());
        }
        if self.delta_threshold == 0 {
            return invalid("delta_threshold must be at least 1".into());
        }
        Ok(())
    }

    /// Executes the plan against `r` and `s` inside `ctx`.
    ///
    /// # Errors
    /// Returns the plan's [`JoinPlan::validate`] error, the input validation
    /// error (`k`, empty / ragged / non-finite / mismatched datasets) or any
    /// runtime / substrate [`JoinError`].
    pub fn execute(
        &self,
        r: &PointSet,
        s: &PointSet,
        ctx: &ExecutionContext,
    ) -> Result<JoinResult, JoinError> {
        self.validate()?;
        validate_inputs(r, s, self.k)?;
        let mut metrics = JoinMetrics {
            r_size: r.len(),
            s_size: s.len(),
            ..Default::default()
        };
        let rows = match self.algorithm {
            Algorithm::Pgbj => pgbj::join(self, r, s, ctx, &mut metrics),
            Algorithm::Pbj => pbj::join(self, r, s, ctx, &mut metrics),
            Algorithm::Hbrj => hbrj::join(self, r, s, ctx, &mut metrics),
            Algorithm::Zknn => zknn::join(self, r, s, ctx, &mut metrics),
            Algorithm::BroadcastJoin => broadcast::join(self, r, s, ctx, &mut metrics),
            Algorithm::NestedLoopJoin => Ok(FlatBlock::join(self, r, s, &mut metrics)),
        }?;
        let mut result = JoinResult { rows, metrics };
        result.normalize();
        Ok(result)
    }
}

impl Default for JoinPlan {
    fn default() -> Self {
        Self {
            algorithm: Algorithm::default(),
            k: 1,
            metric: DistanceMetric::default(),
            pivot_count: 32,
            pivots_auto_tuned: false,
            pivot_strategy: PivotSelectionStrategy::default(),
            pivot_sample_size: 10_000,
            grouping_strategy: GroupingStrategy::Geometric,
            reducers: 4,
            map_tasks: 8,
            shift_copies: 2,
            z_window: 4,
            combiner: true,
            seed: 0xC0FFEE,
            delta_threshold: DEFAULT_DELTA_THRESHOLD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_predicates_are_stable() {
        assert_eq!(Algorithm::Pgbj.name(), "PGBJ");
        assert_eq!(Algorithm::Pbj.name(), "PBJ");
        assert_eq!(Algorithm::Hbrj.name(), "H-BRJ");
        assert_eq!(Algorithm::Zknn.name(), "H-zkNNJ");
        assert_eq!(Algorithm::BroadcastJoin.name(), "Broadcast");
        assert_eq!(Algorithm::NestedLoopJoin.name(), "NestedLoop");
        assert_eq!(Algorithm::default(), Algorithm::Pgbj);
        assert_eq!(format!("{}", Algorithm::Hbrj), "H-BRJ");
        assert!(Algorithm::Pbj.uses_pivots());
        assert!(!Algorithm::Hbrj.uses_pivots());
        assert!(!Algorithm::Zknn.uses_pivots());
        assert_eq!(Algorithm::ALL.len(), 6);
        // Exactly one algorithm is approximate.
        let approx: Vec<Algorithm> = Algorithm::ALL
            .into_iter()
            .filter(|a| !a.is_exact())
            .collect();
        assert_eq!(approx, vec![Algorithm::Zknn]);
    }

    #[test]
    fn validate_rejects_each_broken_rule_and_execute_never_panics_on_one() {
        use crate::result::JoinErrorKind;
        type Rule = (&'static str, fn(&mut JoinPlan));
        let rows: [Rule; 8] = [
            ("k", |p| p.k = 0),
            ("pivot_count", |p| p.pivot_count = 0),
            ("pivot_sample_size", |p| p.pivot_sample_size = 0),
            ("reducers", |p| p.reducers = 0),
            ("map_tasks", |p| p.map_tasks = 0),
            ("shift_copies", |p| p.shift_copies = 0),
            ("z_window", |p| p.z_window = 0),
            ("delta_threshold", |p| p.delta_threshold = 0),
        ];
        let data = datagen::uniform(20, 2, 10.0, 1);
        let ctx = ExecutionContext::default();
        assert_eq!(JoinPlan::default().validate(), Ok(()));
        for (rule, break_it) in rows {
            for algorithm in Algorithm::ALL {
                let mut plan = JoinPlan {
                    algorithm,
                    pivot_count: 4,
                    ..Default::default()
                };
                break_it(&mut plan);
                let err = plan.validate().expect_err(rule);
                match rule {
                    "k" => assert_eq!(err, JoinError::InvalidK),
                    "reducers" => assert_eq!(err, JoinError::ZeroReducers),
                    "map_tasks" => assert_eq!(err, JoinError::ZeroMapTasks),
                    _ => {
                        assert_eq!(err.kind(), JoinErrorKind::Configuration, "{rule}: {err}");
                        assert!(err.to_string().contains(rule), "{rule}: {err}");
                    }
                }
                // A hand-built plan reaches `execute` without the builder:
                // the same typed error, never a panic deeper in.
                assert_eq!(plan.execute(&data, &data, &ctx).unwrap_err(), err, "{rule}");
            }
        }
        // A pivot count the sampler would silently clamp is refused too.
        let plan = JoinPlan {
            pivot_count: 9,
            pivot_sample_size: 8,
            ..Default::default()
        };
        assert!(matches!(plan.validate(), Err(JoinError::InvalidConfig(_))));
    }
}
