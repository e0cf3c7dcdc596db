//! Workload definitions and seeded input generation.
//!
//! A workload is one set of inputs; every workload runs the same phases and
//! reports every metric (the driver's contract), so the two differ only in
//! what the program is fed.  Each draws its inputs from a fixed *population*
//! generated once with `datagen` under a constant seed, and `--seed` decides
//! which members become `S`, `R`, the query pool and the points inserted
//! during churn.  Seeds therefore give different inputs of the same
//! distribution: seeding `datagen` directly moves the cluster centres, and
//! with them a PGBJ join's time by ±20%, which would drown a 10% bound.

use datagen::{forest_like, osm_like, ForestConfig, OsmConfig};
use geom::{Point, PointSet};

/// Seed of the fixed populations (the paper's year).
const POPULATION_SEED: u64 = 2012;

/// Neighbours per query in every operation.
pub const K: usize = 10;

/// Rows of `R` whose neighbours are checked after every timed join.
pub const SAMPLE_ROWS: usize = 256;

/// Id ranges of the drawn sets, far enough apart never to collide.
const R_ID_BASE: u64 = 10_000_000;
const QUERY_ID_BASE: u64 = 20_000_000;
const FRESH_ID_BASE: u64 = 30_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the committed numbers are measured at.
    Full,
    /// Tiny inputs for the self-tests: every phase in well under a second.
    Smoke,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Population {
    Forest10d,
    Osm2d,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    population: Population,
    /// `|S|` at full scale.
    s_len: usize,
    /// `|R|` at full scale; `None` = self-join (`R` is `S`).
    r_len: Option<usize>,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "forest10d",
        why: "10-d forest_like self-join: scans and distance kernels dominate, so kernel, pruning and reducer work shows here",
        population: Population::Forest10d,
        s_len: 12_000,
        r_len: None,
    },
    Workload {
        name: "osm2d",
        why: "2-d osm_like, R and S disjoint: distances are nearly free, so pivot assignment, shuffle and R-tree dominate; bypasses kernel changes",
        population: Population::Osm2d,
        s_len: 48_000,
        r_len: Some(12_000),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one run feeds the program.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub s: PointSet,
    pub r: PointSet,
    /// Probe points for the serving and churn readers (disjoint from `S`).
    pub queries: PointSet,
    /// Points the churn writer inserts, under ids no other set uses.
    pub fresh: PointSet,
}

/// SplitMix64: the benchmark's only source of randomness, so inputs depend
/// on `--seed` and nothing else.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

impl Workload {
    /// `(|S|, |R| unless self-join, size of the query pool)`.
    fn sizes(&self, scale: Scale) -> (usize, Option<usize>, usize) {
        match scale {
            Scale::Full => (self.s_len, self.r_len, 8_000),
            Scale::Smoke => (self.s_len / 20, self.r_len.map(|r| r / 20), 400),
        }
    }

    /// Draws the run's inputs; `fresh` is how many insertable points the
    /// churn phase may need.
    pub fn generate(&self, scale: Scale, seed: u64, fresh_len: usize) -> Inputs {
        let (s_len, r_len, query_len) = self.sizes(scale);
        let drawn = s_len + r_len.unwrap_or(0) + query_len + fresh_len;
        // Twice what is drawn, so two seeds share about half their points.
        let pool = self.population(2 * drawn);
        let pool = pool.points();
        let mut order: Vec<u32> = (0..pool.len() as u32).collect();
        let mut rng = SplitMix64::new(seed);
        for i in 0..drawn {
            let j = i + rng.below(order.len() - i);
            order.swap(i, j);
        }
        let mut next = order[..drawn].iter().map(|&i| &pool[i as usize].coords);
        let mut draw = |count: usize, id_base: u64| {
            PointSet::from_points(
                (0..count as u64)
                    .zip(&mut next)
                    .map(|(i, coords)| Point::new(id_base + i, coords.clone()))
                    .collect(),
            )
        };
        let s = draw(s_len, 0);
        let r = match r_len {
            Some(len) => draw(len, R_ID_BASE),
            None => s.clone(),
        };
        let queries = draw(query_len, QUERY_ID_BASE);
        let fresh = draw(fresh_len, FRESH_ID_BASE);
        Inputs {
            s,
            r,
            queries,
            fresh,
        }
    }

    fn population(&self, n_points: usize) -> PointSet {
        match self.population {
            Population::Forest10d => forest_like(
                &ForestConfig {
                    n_points,
                    ..ForestConfig::default()
                },
                POPULATION_SEED,
            ),
            Population::Osm2d => osm_like(
                &OsmConfig {
                    n_points,
                    ..OsmConfig::default()
                },
                POPULATION_SEED,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in &WORKLOADS {
            let a = w.generate(Scale::Smoke, 7, 50);
            let b = w.generate(Scale::Smoke, 7, 50);
            let c = w.generate(Scale::Smoke, 8, 50);
            assert_eq!(a.s, b.s);
            assert_eq!(a.r, b.r);
            assert_eq!(a.queries, b.queries);
            assert_eq!(a.fresh, b.fresh);
            assert_ne!(a.s, c.s);
            assert_ne!(a.queries, c.queries);
        }
    }

    #[test]
    fn drawn_sets_have_the_stated_shape_and_distinct_ids() {
        let forest = WORKLOADS[0].generate(Scale::Smoke, 1, 30);
        assert_eq!(forest.s.dims(), 10);
        assert_eq!(forest.r, forest.s, "forest10d is a self-join");
        let osm = WORKLOADS[1].generate(Scale::Smoke, 1, 30);
        assert_eq!(osm.s.dims(), 2);
        assert_eq!(osm.s.len(), 4 * osm.r.len());
        assert_eq!(osm.fresh.len(), 30);
        let mut ids: Vec<u64> = [&osm.s, &osm.r, &osm.queries, &osm.fresh]
            .into_iter()
            .flat_map(|set| set.iter().map(|p| p.id))
            .collect();
        let total = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total);
    }

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        assert_eq!(workload("forest10d").unwrap().name, "forest10d");
        assert_eq!(workload("osm2d").unwrap().name, "osm2d");
        assert!(workload("nope").is_none());
    }
}
