//! The correctness gate: brute-force neighbours and the tally of operations
//! attempted and failed.

use geom::{DistanceMetric, Point};
use knnjoin::JoinRow;

/// Distances may differ from brute force by this much (Exact and Fast).
pub const TOLERANCE: f64 = 1e-9;

/// The `k` smallest distances from `query` to `corpus`, ascending, computed
/// with `DistanceMetric::distance` and nothing else of the program.
pub fn nearest_distances<'a>(
    query: &Point,
    corpus: impl IntoIterator<Item = &'a Point>,
    k: usize,
) -> Vec<f64> {
    let mut distances: Vec<f64> = corpus
        .into_iter()
        .map(|s| DistanceMetric::Euclidean.distance(query, s))
        .collect();
    distances.sort_by(f64::total_cmp);
    distances.truncate(k);
    distances
}

/// Why `row` is not the answer `expected` describes, if it is not.
/// Neighbour ids are not compared: equidistant objects may tie either way.
pub fn row_mismatch(row: &JoinRow, expected: &[f64]) -> Option<String> {
    if row.neighbors.len() != expected.len() {
        return Some(format!(
            "row {} has {} neighbours, expected {}",
            row.r_id,
            row.neighbors.len(),
            expected.len()
        ));
    }
    row.neighbors
        .iter()
        .zip(expected)
        .position(|(got, want)| (got.distance - want).abs() > TOLERANCE)
        .map(|i| {
            format!(
                "row {} neighbour {i}: distance {} but brute force says {}",
                row.r_id, row.neighbors[i].distance, expected[i]
            )
        })
}

/// Operations attempted and failed.  An operation fails when it returns an
/// error, is refused, or returns a row brute force disagrees with.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub examples: Vec<String>,
}

impl Gate {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(why);
        }
    }

    /// One operation whose outcome is `Ok` or the reason it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.pass(),
            Err(why) => self.fail(why),
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::{Neighbor, PointSet};
    use knnjoin::{ExecutionContext, JoinBuilder};

    #[test]
    fn brute_force_keeps_the_k_smallest_ascending() {
        let corpus = PointSet::from_coords(vec![vec![3.0], vec![-1.0], vec![10.0], vec![0.5]]);
        let query = Point::new(99, vec![0.0]);
        assert_eq!(nearest_distances(&query, &corpus, 3), vec![0.5, 1.0, 3.0]);
        assert_eq!(nearest_distances(&query, &corpus, 9).len(), 4);
    }

    #[test]
    fn a_corrupted_row_trips_the_gate() {
        let s = datagen::uniform(300, 3, 50.0, 1);
        let r = datagen::uniform(20, 3, 50.0, 2);
        let result = JoinBuilder::new(&r, &s)
            .k(4)
            .run(&ExecutionContext::default())
            .unwrap();
        let mut gate = Gate::default();
        for (row, query) in result.rows.iter().zip(&r) {
            let expected = nearest_distances(query, &s, 4);
            gate.check(row_mismatch(row, &expected).map_or(Ok(()), Err));
        }
        assert_eq!((gate.attempted, gate.failed), (20, 0));

        // Nudge one distance beyond the tolerance: the gate must notice.
        let expected = nearest_distances(&r.points()[0], &s, 4);
        let mut corrupted = result.rows[0].clone();
        corrupted.neighbors[2].distance += 1e-6;
        let why = row_mismatch(&corrupted, &expected).expect("corruption goes unnoticed");
        assert!(why.contains("neighbour 2"), "{why}");
        gate.check(Err(why));
        assert_eq!(gate.failed, 1);
        assert!(gate.failed_share() > 0.0);

        // A wrong neighbour count is a mismatch too; a swapped id at the
        // same distance is not.
        let mut short = result.rows[0].clone();
        short.neighbors.pop();
        assert!(row_mismatch(&short, &expected).is_some());
        let mut tie = result.rows[0].clone();
        tie.neighbors[1] = Neighbor::new(u64::MAX, tie.neighbors[1].distance);
        assert!(row_mismatch(&tie, &expected).is_none());
    }
}
