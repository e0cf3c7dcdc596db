//! Join results, the consolidated [`JoinError`] taxonomy, and result
//! verification helpers.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::metrics::JoinMetrics;
use geom::{Neighbor, PointId};
use mapreduce::JobError;

/// Errors surfaced by the join algorithms and the [`crate::JoinBuilder`].
///
/// The taxonomy distinguishes three families, exposed by [`JoinError::kind`]:
///
/// * **plan validation** — the requested join is ill-formed regardless of any
///   algorithm (`InvalidK`, `EmptyInput`, `DimensionalityMismatch`,
///   `PivotCountOutOfRange`, `ZeroReducers`, `ZeroMapTasks`);
/// * **configuration** — an algorithm-specific knob is out of range
///   (`InvalidConfig`);
/// * **substrate** — the MapReduce runtime itself failed (`Substrate`, which
///   chains the engine's [`JobError`] through
///   [`std::error::Error::source`]);
/// * **serving** — the concurrent serving front-end declined the request
///   (`Overloaded` under admission control, `ServerShutdown` during drain);
///   the join itself is fine and the request may be retried;
/// * **internal** — an invariant of this crate failed (`Internal`): a bug
///   here, reported as a typed error instead of a panic so serving paths
///   stay panic-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinError {
    /// `k` was zero.
    InvalidK,
    /// One of the input datasets was empty.
    EmptyInput(&'static str),
    /// `R` and `S` have different dimensionality.
    DimensionalityMismatch {
        /// Dimensionality of `R`.
        r_dims: usize,
        /// Dimensionality of `S`.
        s_dims: usize,
    },
    /// One dataset is internally ragged: a point's dimensionality differs
    /// from the dataset's.  Rejected up front because the distance kernels
    /// only `debug_assert` slice lengths — a ragged set would index-panic or
    /// silently truncate coordinates in release builds.
    RaggedInput {
        /// Which dataset (`"R"` or `"S"`).
        dataset: &'static str,
        /// Index of the first offending point.
        index: usize,
        /// That point's dimensionality.
        dims: usize,
        /// The dataset's dimensionality (from its first point).
        expected: usize,
    },
    /// A coordinate is `NaN`, infinite, or out of range: larger in magnitude
    /// than `sqrt(f64::MAX / (16·dims))`.  Rejected up front at every entry
    /// point (`run`, `prepare`, `query*`, `insert`): `NaN` breaks the total
    /// order the summary tables and bounds sort by, `±∞` turns distance
    /// arithmetic into `NaN`, and beyond the range a squared distance can
    /// overflow.
    NonFiniteInput {
        /// Which dataset (`"R"` or `"S"`).
        dataset: &'static str,
        /// Index of the first offending point.
        index: usize,
    },
    /// Two objects of one dataset share an id.  Refused by `prepare`, whose
    /// resident corpus is keyed by id: an upsert, a delete or a compaction
    /// would otherwise find two rows behind one key.
    DuplicateId {
        /// Which dataset (`"S"`).
        dataset: &'static str,
        /// The repeated id.
        id: PointId,
    },
    /// An explicitly requested pivot count was zero or exceeded the datasets.
    PivotCountOutOfRange {
        /// The requested number of pivots.
        pivot_count: usize,
        /// `|R|` of the join being planned.
        r_len: usize,
        /// `|S|` of the join being planned.
        s_len: usize,
    },
    /// Zero reducers ("computing nodes") were requested.
    ZeroReducers,
    /// Zero map tasks were requested.
    ZeroMapTasks,
    /// An algorithm-specific configuration knob is invalid (explanation
    /// inside).
    InvalidConfig(String),
    /// The underlying MapReduce job failed.
    Substrate {
        /// Name of the failed job.
        job: String,
        /// The engine error, chained via [`std::error::Error::source`].
        source: JobError,
    },
    /// The serving front-end's admission queue is at capacity: the request
    /// was rejected immediately instead of queueing unboundedly
    /// (back-pressure, see [`crate::serving::Server`]).  Retry later or shed
    /// load upstream.
    Overloaded {
        /// Requests queued when the request was rejected.
        depth: usize,
        /// The configured queue-depth cap.
        capacity: usize,
    },
    /// The serving front-end is shutting down and no longer admits requests
    /// (in-flight requests still drain).
    ServerShutdown,
    /// An internal invariant did not hold (a bug in this crate, not in the
    /// request).  Surfaced as a typed error instead of a panic so a serving
    /// process degrades one request rather than a whole worker.
    Internal(&'static str),
}

/// Which family of the [`JoinError`] taxonomy an error belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinErrorKind {
    /// The join request itself is invalid (inputs or core parameters).
    PlanValidation,
    /// An algorithm-specific configuration value is invalid.
    Configuration,
    /// The MapReduce substrate failed at runtime.
    Substrate,
    /// The serving front-end declined the request (overload or shutdown);
    /// retryable, unlike the other families.
    Serving,
    /// An internal invariant failed — a bug in this crate.
    Internal,
}

impl JoinError {
    /// Wraps a substrate failure, preserving the failed job's name.
    pub fn substrate(job: impl Into<String>, source: JobError) -> Self {
        JoinError::Substrate {
            job: job.into(),
            source,
        }
    }

    /// The taxonomy family this error belongs to.
    pub fn kind(&self) -> JoinErrorKind {
        match self {
            JoinError::InvalidK
            | JoinError::EmptyInput(_)
            | JoinError::DimensionalityMismatch { .. }
            | JoinError::RaggedInput { .. }
            | JoinError::NonFiniteInput { .. }
            | JoinError::DuplicateId { .. }
            | JoinError::PivotCountOutOfRange { .. }
            | JoinError::ZeroReducers
            | JoinError::ZeroMapTasks => JoinErrorKind::PlanValidation,
            JoinError::InvalidConfig(_) => JoinErrorKind::Configuration,
            JoinError::Substrate { .. } => JoinErrorKind::Substrate,
            JoinError::Overloaded { .. } | JoinError::ServerShutdown => JoinErrorKind::Serving,
            JoinError::Internal(_) => JoinErrorKind::Internal,
        }
    }
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::InvalidK => write!(f, "k must be at least 1"),
            JoinError::EmptyInput(which) => write!(f, "dataset {which} is empty"),
            JoinError::DimensionalityMismatch { r_dims, s_dims } => {
                write!(f, "R has {r_dims} dimensions but S has {s_dims}")
            }
            JoinError::RaggedInput {
                dataset,
                index,
                dims,
                expected,
            } => write!(
                f,
                "dataset {dataset} is ragged: point at index {index} has {dims} \
                 dimensions, expected {expected}"
            ),
            JoinError::NonFiniteInput { dataset, index } => write!(
                f,
                "dataset {dataset} has a non-finite or out-of-range coordinate in the point \
                 at index {index}"
            ),
            JoinError::DuplicateId { dataset, id } => {
                write!(f, "dataset {dataset} holds id {id} more than once")
            }
            JoinError::PivotCountOutOfRange {
                pivot_count,
                r_len,
                s_len,
            } => write!(
                f,
                "pivot count {pivot_count} is outside 1..=min(|R|, |S|) = min({r_len}, {s_len})"
            ),
            JoinError::ZeroReducers => write!(f, "at least one reducer is required"),
            JoinError::ZeroMapTasks => write!(f, "at least one map task is required"),
            JoinError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            JoinError::Substrate { job, source } => {
                write!(f, "MapReduce job '{job}' failed: {source}")
            }
            JoinError::Overloaded { depth, capacity } => write!(
                f,
                "serving queue overloaded: {depth} requests queued, capacity {capacity}"
            ),
            JoinError::ServerShutdown => write!(f, "server is shutting down"),
            JoinError::Internal(what) => write!(f, "internal invariant violated: {what}"),
        }
    }
}

impl std::error::Error for JoinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JoinError::Substrate { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One output row of the join: an `R` object id and its `k` nearest
/// neighbours, sorted by ascending distance.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinRow {
    /// Id of the `R` object.
    pub r_id: PointId,
    /// Its `k` nearest neighbours from `S` (fewer if `|S| < k`).
    pub neighbors: Vec<Neighbor>,
}

/// The complete result of a kNN join: one row per `R` object plus the
/// execution metrics.
#[derive(Debug, Clone, Default)]
pub struct JoinResult {
    /// Output rows sorted by `r_id`.
    pub rows: Vec<JoinRow>,
    /// Metrics gathered while executing the join.
    pub metrics: JoinMetrics,
}

impl JoinResult {
    /// Number of output rows (one per `R` object).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over the output rows in `r_id` order.
    pub fn iter(&self) -> std::slice::Iter<'_, JoinRow> {
        self.rows.iter()
    }

    /// Sorts rows by `r_id`; algorithms call this before returning so results
    /// are directly comparable.
    pub fn normalize(&mut self) {
        self.rows.sort_by_key(|r| r.r_id);
        for row in &mut self.rows {
            row.neighbors.sort();
        }
    }

    /// Looks up the row of a given `R` object.
    pub fn row(&self, r_id: PointId) -> Option<&JoinRow> {
        self.rows
            .binary_search_by_key(&r_id, |r| r.r_id)
            .ok()
            .and_then(|i| self.rows.get(i))
    }

    /// Verifies that this result is equivalent to `expected` up to ties:
    /// both must cover the same `R` objects, produce the same number of
    /// neighbours per object, and the *distances* of corresponding neighbours
    /// must match within `tolerance` (ids may legitimately differ when several
    /// `S` objects are equidistant).
    ///
    /// Returns a human-readable description of the first mismatch, or `None`
    /// if the results are equivalent.
    pub fn mismatch_against(&self, expected: &JoinResult, tolerance: f64) -> Option<String> {
        if self.rows.len() != expected.rows.len() {
            return Some(format!(
                "row count differs: {} vs {}",
                self.rows.len(),
                expected.rows.len()
            ));
        }
        for (mine, theirs) in self.rows.iter().zip(&expected.rows) {
            if mine.r_id != theirs.r_id {
                return Some(format!("row ids differ: {} vs {}", mine.r_id, theirs.r_id));
            }
            if mine.neighbors.len() != theirs.neighbors.len() {
                return Some(format!(
                    "object {}: neighbour count {} vs {}",
                    mine.r_id,
                    mine.neighbors.len(),
                    theirs.neighbors.len()
                ));
            }
            for (idx, (a, b)) in mine.neighbors.iter().zip(&theirs.neighbors).enumerate() {
                if (a.distance - b.distance).abs() > tolerance {
                    return Some(format!(
                        "object {}: neighbour #{idx} distance {} vs {}",
                        mine.r_id, a.distance, b.distance
                    ));
                }
            }
        }
        None
    }

    /// Convenience wrapper around [`JoinResult::mismatch_against`] that just
    /// reports equivalence.
    pub fn matches(&self, expected: &JoinResult, tolerance: f64) -> bool {
        self.mismatch_against(expected, tolerance).is_none()
    }

    /// Measures the approximation quality of this result against an exact
    /// oracle (normally the nested-loop join over the same inputs).
    ///
    /// The exact algorithms trivially score `recall = distance_ratio = 1.0`;
    /// the interesting caller is H-zkNNJ, whose candidate sets are z-order
    /// neighbourhoods rather than true neighbourhoods.  Rows are matched by
    /// `r_id`; an `R` object missing from this result contributes zero
    /// recall.
    pub fn quality_against(&self, exact: &JoinResult) -> QualityReport {
        const TOL: f64 = 1e-9;
        let mut recall_sum = 0.0;
        let mut ratio_sum = 0.0;
        let mut ratio_pairs = 0usize;
        let mut rows = 0usize;
        for exact_row in &exact.rows {
            // Skips empty oracle rows; for every other row `last()` is the
            // oracle's k-th neighbour.
            let Some(kth_neighbor) = exact_row.neighbors.last() else {
                continue;
            };
            rows += 1;
            let Some(mine) = self.row(exact_row.r_id) else {
                continue;
            };
            // A reported neighbour is a hit if it is at least as close as the
            // oracle's k-th distance (id-agnostic, so ties don't penalise).
            let kth = kth_neighbor.distance;
            let hits = mine
                .neighbors
                .iter()
                .filter(|n| n.distance <= kth + TOL)
                .count()
                .min(exact_row.neighbors.len());
            recall_sum += hits as f64 / exact_row.neighbors.len() as f64;
            for (got, want) in mine.neighbors.iter().zip(&exact_row.neighbors) {
                if want.distance > TOL {
                    ratio_sum += got.distance / want.distance;
                    ratio_pairs += 1;
                } else if got.distance <= TOL {
                    // Both exact-zero: a perfect pair (self-joins hit this).
                    ratio_sum += 1.0;
                    ratio_pairs += 1;
                }
                // Exact zero but approximate positive: the pair has no finite
                // ratio; recall already records the miss.
            }
        }
        QualityReport {
            rows_compared: rows,
            recall: if rows == 0 {
                1.0
            } else {
                recall_sum / rows as f64
            },
            distance_ratio: if ratio_pairs == 0 {
                1.0
            } else {
                ratio_sum / ratio_pairs as f64
            },
        }
    }
}

impl IntoIterator for JoinResult {
    type Item = JoinRow;
    type IntoIter = std::vec::IntoIter<JoinRow>;

    /// Consumes the result, yielding rows in `r_id` order (the metrics are
    /// dropped — snapshot them first if needed).
    fn into_iter(self) -> Self::IntoIter {
        self.rows.into_iter()
    }
}

impl<'a> IntoIterator for &'a JoinResult {
    type Item = &'a JoinRow;
    type IntoIter = std::slice::Iter<'a, JoinRow>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

/// How close an (approximate) join result is to the exact answer; produced by
/// [`JoinResult::quality_against`] and reported by the bench harness next to
/// the cost metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// Number of `R` objects compared (oracle rows with at least one
    /// neighbour).
    pub rows_compared: usize,
    /// Mean fraction of each object's true `k` nearest neighbours that the
    /// result found (distance-based, so equidistant ties count as found).
    /// `1.0` means exact.
    pub recall: f64,
    /// Mean per-rank ratio `d(r, reported_i) / d(r, true_i)` over all pairs
    /// with a positive true distance (zero-distance pairs count as perfect
    /// when reproduced).  `1.0` means exact; `1.05` means reported
    /// neighbours are on average 5% farther than the true ones.
    pub distance_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(r_id: PointId, dists: &[f64]) -> JoinRow {
        JoinRow {
            r_id,
            neighbors: dists
                .iter()
                .enumerate()
                .map(|(i, d)| Neighbor::new(i as PointId + 100, *d))
                .collect(),
        }
    }

    #[test]
    fn normalize_sorts_rows_and_neighbors() {
        let mut res = JoinResult {
            rows: vec![row(2, &[3.0, 1.0]), row(1, &[0.5])],
            metrics: JoinMetrics::default(),
        };
        res.normalize();
        assert_eq!(res.rows[0].r_id, 1);
        assert_eq!(res.rows[1].neighbors[0].distance, 1.0);
        assert!(res.row(2).is_some());
        assert!(res.row(7).is_none());
    }

    #[test]
    fn identical_results_match() {
        let a = JoinResult {
            rows: vec![row(1, &[1.0, 2.0])],
            metrics: JoinMetrics::default(),
        };
        let b = a.clone();
        assert!(a.matches(&b, 1e-9));
    }

    #[test]
    fn distance_ties_with_different_ids_still_match() {
        let a = JoinResult {
            rows: vec![JoinRow {
                r_id: 1,
                neighbors: vec![Neighbor::new(10, 2.0)],
            }],
            metrics: JoinMetrics::default(),
        };
        let b = JoinResult {
            rows: vec![JoinRow {
                r_id: 1,
                neighbors: vec![Neighbor::new(99, 2.0)],
            }],
            metrics: JoinMetrics::default(),
        };
        assert!(a.matches(&b, 1e-9));
    }

    #[test]
    fn mismatches_are_detected_and_described() {
        let a = JoinResult {
            rows: vec![row(1, &[1.0, 2.0])],
            metrics: JoinMetrics::default(),
        };
        let fewer_rows = JoinResult {
            rows: vec![],
            metrics: JoinMetrics::default(),
        };
        assert!(a
            .mismatch_against(&fewer_rows, 1e-9)
            .unwrap()
            .contains("row count"));
        let wrong_id = JoinResult {
            rows: vec![row(2, &[1.0, 2.0])],
            metrics: JoinMetrics::default(),
        };
        assert!(a
            .mismatch_against(&wrong_id, 1e-9)
            .unwrap()
            .contains("row ids"));
        let wrong_count = JoinResult {
            rows: vec![row(1, &[1.0])],
            metrics: JoinMetrics::default(),
        };
        assert!(a
            .mismatch_against(&wrong_count, 1e-9)
            .unwrap()
            .contains("neighbour count"));
        let wrong_dist = JoinResult {
            rows: vec![row(1, &[1.0, 5.0])],
            metrics: JoinMetrics::default(),
        };
        assert!(a
            .mismatch_against(&wrong_dist, 1e-9)
            .unwrap()
            .contains("distance"));
    }

    #[test]
    fn quality_of_an_exact_result_is_perfect() {
        let exact = JoinResult {
            rows: vec![row(1, &[1.0, 2.0]), row(2, &[0.5, 3.0])],
            metrics: JoinMetrics::default(),
        };
        let q = exact.quality_against(&exact);
        assert_eq!(q.rows_compared, 2);
        assert!((q.recall - 1.0).abs() < 1e-12);
        assert!((q.distance_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quality_counts_misses_and_farther_neighbours() {
        let exact = JoinResult {
            rows: vec![row(1, &[1.0, 2.0])],
            metrics: JoinMetrics::default(),
        };
        // One true neighbour found (distance 1.0 ≤ kth 2.0), one replaced by
        // a farther candidate: recall 1/2... the 4.0 candidate is beyond the
        // kth distance so only the first counts.
        let approx = JoinResult {
            rows: vec![row(1, &[1.0, 4.0])],
            metrics: JoinMetrics::default(),
        };
        let q = approx.quality_against(&exact);
        assert_eq!(q.rows_compared, 1);
        assert!((q.recall - 0.5).abs() < 1e-12, "recall {}", q.recall);
        // Ratio pairs: 1.0/1.0 and 4.0/2.0 → mean 1.5.
        assert!((q.distance_ratio - 1.5).abs() < 1e-12);
    }

    #[test]
    fn quality_handles_missing_rows_and_zero_distances() {
        let exact = JoinResult {
            rows: vec![
                JoinRow {
                    r_id: 1,
                    neighbors: vec![Neighbor::new(1, 0.0), Neighbor::new(9, 2.0)],
                },
                row(2, &[1.0]),
            ],
            metrics: JoinMetrics::default(),
        };
        // Row 2 is missing entirely; row 1 reproduces the zero-distance self
        // match and the true second neighbour.
        let approx = JoinResult {
            rows: vec![JoinRow {
                r_id: 1,
                neighbors: vec![Neighbor::new(1, 0.0), Neighbor::new(9, 2.0)],
            }],
            metrics: JoinMetrics::default(),
        };
        let q = approx.quality_against(&exact);
        assert_eq!(q.rows_compared, 2);
        assert!((q.recall - 0.5).abs() < 1e-12, "recall {}", q.recall);
        assert!((q.distance_ratio - 1.0).abs() < 1e-12);
        // Degenerate oracle: nothing to compare is reported as perfect.
        let empty = JoinResult::default();
        let q = empty.quality_against(&empty);
        assert_eq!(q.rows_compared, 0);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.distance_ratio, 1.0);
    }

    #[test]
    fn quality_against_all_empty_oracle_rows_is_defined_not_nan() {
        // Regression: k ≥ |S| joins over filtered sets can legitimately
        // produce rows with zero neighbours on BOTH sides (every S object
        // filtered away).  The report must be the defined perfect score, not
        // a 0/0 NaN.
        let empty_rows = JoinResult {
            rows: vec![
                JoinRow {
                    r_id: 1,
                    neighbors: vec![],
                },
                JoinRow {
                    r_id: 2,
                    neighbors: vec![],
                },
            ],
            metrics: JoinMetrics::default(),
        };
        let q = empty_rows.quality_against(&empty_rows);
        assert_eq!(q.rows_compared, 0);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.distance_ratio, 1.0);
        assert!(q.recall.is_finite() && q.distance_ratio.is_finite());

        // Same when the approximate side reports neighbours the (empty)
        // oracle could never confirm: nothing is comparable, score defined.
        let with_neighbors = JoinResult {
            rows: vec![row(1, &[0.5]), row(2, &[0.25])],
            metrics: JoinMetrics::default(),
        };
        let q = with_neighbors.quality_against(&empty_rows);
        assert_eq!(q.rows_compared, 0);
        assert_eq!((q.recall, q.distance_ratio), (1.0, 1.0));

        // And against a fully empty oracle result.
        let q = with_neighbors.quality_against(&JoinResult::default());
        assert_eq!((q.recall, q.distance_ratio), (1.0, 1.0));
        assert!(!q.recall.is_nan() && !q.distance_ratio.is_nan());
    }

    #[test]
    fn result_iteration_len_and_into_iterator() {
        let res = JoinResult {
            rows: vec![row(1, &[1.0]), row(2, &[2.0]), row(3, &[3.0])],
            metrics: JoinMetrics::default(),
        };
        assert_eq!(res.len(), 3);
        assert!(!res.is_empty());
        let ids: Vec<PointId> = res.iter().map(|r| r.r_id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        // Borrowed IntoIterator (for loops without `.rows`).
        let mut count = 0;
        for row in &res {
            assert!(!row.neighbors.is_empty());
            count += 1;
        }
        assert_eq!(count, 3);
        // Owned IntoIterator consumes the result.
        let owned_ids: Vec<PointId> = res.into_iter().map(|r| r.r_id).collect();
        assert_eq!(owned_ids, vec![1, 2, 3]);
        assert!(JoinResult::default().is_empty());
    }

    #[test]
    fn error_display() {
        assert!(JoinError::InvalidK.to_string().contains("k"));
        assert!(JoinError::EmptyInput("R").to_string().contains("R"));
        assert!(JoinError::DimensionalityMismatch {
            r_dims: 2,
            s_dims: 3
        }
        .to_string()
        .contains("2"));
        assert!(JoinError::PivotCountOutOfRange {
            pivot_count: 9,
            r_len: 4,
            s_len: 5
        }
        .to_string()
        .contains("9"));
        assert!(JoinError::ZeroReducers.to_string().contains("reducer"));
        assert!(JoinError::ZeroMapTasks.to_string().contains("map task"));
        assert!(JoinError::InvalidConfig("nope".into())
            .to_string()
            .contains("nope"));
        let ragged = JoinError::RaggedInput {
            dataset: "S",
            index: 7,
            dims: 1,
            expected: 3,
        };
        assert!(ragged.to_string().contains("S is ragged"));
        assert!(ragged.to_string().contains("index 7"));
        let substrate = JoinError::substrate("pgbj-join", mapreduce::JobError::NoReducers);
        assert!(substrate.to_string().contains("pgbj-join"));
        let overloaded = JoinError::Overloaded {
            depth: 128,
            capacity: 128,
        };
        assert!(overloaded.to_string().contains("128"));
        assert!(overloaded.to_string().contains("overloaded"));
        assert!(JoinError::ServerShutdown.to_string().contains("shut"));
    }

    #[test]
    fn errors_classify_into_the_taxonomy() {
        use super::JoinErrorKind;
        use std::error::Error as _;

        for e in [
            JoinError::InvalidK,
            JoinError::EmptyInput("S"),
            JoinError::DimensionalityMismatch {
                r_dims: 1,
                s_dims: 2,
            },
            JoinError::PivotCountOutOfRange {
                pivot_count: 0,
                r_len: 1,
                s_len: 1,
            },
            JoinError::ZeroReducers,
            JoinError::ZeroMapTasks,
            JoinError::RaggedInput {
                dataset: "R",
                index: 3,
                dims: 2,
                expected: 4,
            },
        ] {
            assert_eq!(e.kind(), JoinErrorKind::PlanValidation, "{e}");
            assert!(e.source().is_none());
        }
        let config = JoinError::InvalidConfig("x".into());
        assert_eq!(config.kind(), JoinErrorKind::Configuration);
        for e in [
            JoinError::Overloaded {
                depth: 4,
                capacity: 4,
            },
            JoinError::ServerShutdown,
        ] {
            assert_eq!(e.kind(), JoinErrorKind::Serving, "{e}");
            assert!(e.source().is_none());
        }
        let substrate = JoinError::substrate("job", mapreduce::JobError::NoMapTasks);
        assert_eq!(substrate.kind(), JoinErrorKind::Substrate);
        // The engine error is reachable through the std error chain.
        let source = substrate.source().expect("chained source");
        assert!(source.to_string().contains("map task"));
        // Internal invariant failures surface as a typed error (so serving
        // degrades one request, not a worker thread) with the what-string in
        // the message.
        let internal = JoinError::Internal("probe returned no row for its object");
        assert_eq!(internal.kind(), JoinErrorKind::Internal);
        assert!(internal.source().is_none());
        assert!(internal.to_string().contains("invariant"));
        assert!(internal.to_string().contains("no row"));
    }
}
