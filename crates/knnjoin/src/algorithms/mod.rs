//! The distributed kNN-join algorithms evaluated in the paper.
//!
//! | Algorithm | Section | Framework | Pruning |
//! |-----------|---------|-----------|---------|
//! | PGBJ ([`crate::Algorithm::Pgbj`], `pgbj.rs`) | §4–5 | partition + group, single join job | Voronoi bounds (Theorems 1–6) |
//! | PBJ ([`crate::Algorithm::Pbj`], `pbj.rs`) | §6 | √N × √N blocks + merge job | Voronoi bounds within each block pair |
//! | H-BRJ ([`crate::Algorithm::Hbrj`], `hbrj.rs`) | §3 (baseline, Zhang et al.) | √N × √N blocks + merge job | R-tree per S block |
//! | Broadcast ([`crate::Algorithm::BroadcastJoin`], `broadcast.rs`) | §3 ("basic strategy") | R split N ways, S broadcast | none |
//! | H-zkNNJ ([`crate::Algorithm::Zknn`], `zknn.rs`) | §6 competitor (Zhang, Li, Jestes) | per-copy z-order slabs + merge job | approximate: 2k z-neighbours per shifted copy |
//!
//! Each module exposes a cold driver `join(&JoinPlan, r, s, ctx, &mut
//! JoinMetrics)` returning the join rows ([`crate::JoinPlan::execute`]
//! dispatches to it, seeds the metrics and normalises the result); PGBJ's
//! Voronoi state is also the one index a [`crate::PreparedJoin`] keeps
//! resident.  PGBJ and PBJ share their front half, `voronoi::partition_job`.
//! One scan implementation serves each family, cold and prepared alike:
//! [`voronoi::VoronoiScan`] (Algorithm 3) for PGBJ and PBJ, `FlatBlock::scan`
//! in [`crate::exact`] for the broadcast and nested-loop joins, the R-tree search for H-BRJ and the
//! z-window scan for H-zkNNJ.  All but the R-tree search rank a column-major
//! `FlatBlock` through its one tiled offer, `FlatBlock::offer`, and write into
//! a `NeighborList` their caller reuses or keeps as the answer.  H-zkNNJ is
//! the one *approximate* algorithm:
//! its reported distances are true distances, but its candidate sets are
//! z-order neighbourhoods, so recall can fall below 1 (measured by
//! [`crate::result::QualityReport`]).

mod blocks;
pub(crate) mod broadcast;
pub mod common;
pub(crate) mod hbrj;
pub(crate) mod pbj;
pub(crate) mod pgbj;
pub mod voronoi;
pub(crate) mod zknn;

/// Shared by the in-file unit tests of the algorithm modules: every join is
/// driven through [`crate::JoinBuilder`], the crate's one configuration API.
#[cfg(test)]
pub(crate) mod testing {
    use crate::{Algorithm, ExecutionContext, JoinBuilder, JoinResult, NestedLoopJoin};
    use geom::{DistanceMetric, PointSet};

    /// Runs `algorithm` over `(r, s)` with `tune` applied to the builder.
    pub(crate) fn run(
        algorithm: Algorithm,
        r: &PointSet,
        s: &PointSet,
        k: usize,
        metric: DistanceMetric,
        tune: impl FnOnce(JoinBuilder<'_>) -> JoinBuilder<'_>,
    ) -> JoinResult {
        tune(
            JoinBuilder::new(r, s)
                .algorithm(algorithm)
                .k(k)
                .metric(metric),
        )
        .run(&ExecutionContext::default())
        .expect("join must succeed")
    }

    /// [`run`], asserting the result equals the exact oracle within 1e-9.
    pub(crate) fn assert_matches_oracle(
        algorithm: Algorithm,
        r: &PointSet,
        s: &PointSet,
        k: usize,
        metric: DistanceMetric,
        tune: impl FnOnce(JoinBuilder<'_>) -> JoinBuilder<'_>,
    ) {
        let expected = NestedLoopJoin.join(r, s, k, metric).unwrap();
        let got = run(algorithm, r, s, k, metric, tune);
        if let Some(msg) = got.mismatch_against(&expected, 1e-9) {
            panic!("{algorithm} result differs from exact join: {msg}");
        }
    }
}
