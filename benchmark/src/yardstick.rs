//! A fixed piece of work that measures how fast the machine is right now.
//!
//! The sandbox this benchmark runs in is a shared micro-VM whose speed
//! drifts: the same pure-CPU loop takes ±15% from one minute to the next, and
//! unadjusted join medians of identical code differ by 15–20% between runs —
//! more than any bound worth gating on.  So a run is cut into cycles, every
//! cycle times this yardstick a dozen times between its operations, and the
//! cycle's CPU-bound timings are divided by its *slowdown*: the median
//! yardstick reading over [`NOMINAL_S`].  What is reported is therefore the
//! time the operation would have taken on a machine that runs the yardstick
//! in exactly `NOMINAL_S` — comparable between runs, and between a parent
//! commit and a change measured minutes apart.
//!
//! The yardstick is the benchmark's own code and touches nothing of the
//! program, so no change to the program can move it.  It runs one thread per
//! worker the program uses, because a slow sibling core slows a parallel
//! join as a whole.

use std::hint::black_box;
use std::time::Instant;

/// What a reading takes on the reference machine (this sandbox on a calm
/// minute).  Only pins the unit: every adjusted time scales with it.
pub const NOMINAL_S: f64 = 0.018;

const ROWS: usize = 20_000;
const DIMS: usize = 10;
const SCANS_PER_READING: usize = 150;

#[derive(Debug)]
pub struct Yardstick {
    matrix: Vec<f64>,
    threads: usize,
}

impl Yardstick {
    pub fn new(threads: usize) -> Self {
        Self {
            matrix: (0..ROWS * DIMS).map(|i| (i % 977) as f64).collect(),
            threads: threads.max(1),
        }
    }

    /// Seconds the fixed work takes now: every thread scans the matrix
    /// `SCANS_PER_READING` times, summing each row's distance to the first.
    pub fn reading(&self) -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                scope.spawn(|| {
                    for _ in 0..SCANS_PER_READING {
                        black_box(scan(black_box(&self.matrix)));
                    }
                });
            }
        });
        start.elapsed().as_secs_f64()
    }
}

fn scan(matrix: &[f64]) -> f64 {
    let query = &matrix[..DIMS];
    matrix
        .chunks_exact(DIMS)
        .map(|row| {
            let squared: f64 = query.iter().zip(row).map(|(a, b)| (a - b) * (a - b)).sum();
            squared.sqrt()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_is_a_positive_time_and_the_work_is_fixed() {
        let yard = Yardstick::new(2);
        assert!(yard.reading() > 0.0);
        assert_eq!(scan(&yard.matrix), scan(&Yardstick::new(1).matrix));
        assert!(scan(&yard.matrix) > 0.0);
    }
}
