//! Workload construction: the datasets and default parameters every
//! experiment shares, in both full (report) and quick (CI / unit-test) scale.

use datagen::{expand_dataset, forest_like, osm_like, ForestConfig, OsmConfig};
use geom::PointSet;
use knnjoin::ExecutionContext;

/// How large the experiment inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Sizes used for the committed `EXPERIMENTS.md` numbers (minutes to run).
    Full,
    /// Much smaller sizes used by unit tests and smoke runs (seconds).
    Quick,
}

impl ExperimentScale {
    /// Scales a full-size quantity down in quick mode.
    pub fn scaled(&self, full: usize, quick: usize) -> usize {
        match self {
            ExperimentScale::Full => full,
            ExperimentScale::Quick => quick,
        }
    }
}

/// Dataset and parameter factory shared by the experiments.
///
/// The paper's defaults: Forest ×10 (5.8M objects), k = 10, |P| = 4000 pivots,
/// random selection + geometric grouping, 36 nodes.  Scaled defaults here:
/// Forest-like base of a few thousand objects, the same k, pivots and nodes
/// scaled proportionally.
#[derive(Debug, Clone)]
pub struct Workloads {
    scale: ExperimentScale,
    seed: u64,
    context: ExecutionContext,
}

impl Workloads {
    /// Creates the factory, with one [`ExecutionContext`] shared by every
    /// join the experiments run.
    pub fn new(scale: ExperimentScale) -> Self {
        Self {
            scale,
            seed: 2012,
            context: ExecutionContext::default(),
        }
    }

    /// The scale in use.
    pub fn scale(&self) -> ExperimentScale {
        self.scale
    }

    /// The execution context every experiment join runs inside.
    pub fn context(&self) -> &ExecutionContext {
        &self.context
    }

    /// Default `k`, as in the paper.
    pub fn default_k(&self) -> usize {
        10
    }

    /// Default number of reducers, standing in for the paper's default of 36
    /// computing nodes.
    pub fn default_reducers(&self) -> usize {
        self.scale.scaled(16, 4)
    }

    /// Default number of pivots, standing in for the paper's default of 4000.
    pub fn default_pivots(&self) -> usize {
        self.scale.scaled(128, 12)
    }

    /// Default number of H-zkNNJ shifted copies (`α`), as in the EDBT paper.
    pub fn default_shift_copies(&self) -> usize {
        2
    }

    /// Default H-zkNNJ candidate-window multiplier.  The window needed for a
    /// given recall grows with the dataset (denser data packs more objects
    /// between two z-ranks), so it scales with the workload like the pivot
    /// and reducer counts do; these values hold recall ≥ 0.9 at α = 2 on
    /// both bench datasets at their respective scales.
    pub fn default_z_window(&self) -> usize {
        self.scale.scaled(24, 4)
    }

    /// The pivot sweep of Table 2/3 and Figures 6–7 (paper: 2000–8000).
    pub fn pivot_sweep(&self) -> Vec<usize> {
        match self.scale {
            ExperimentScale::Full => vec![64, 128, 192, 256],
            ExperimentScale::Quick => vec![8, 16],
        }
    }

    /// The k sweep of Figures 8 and 9 (paper: 10–50).
    pub fn k_sweep(&self) -> Vec<usize> {
        match self.scale {
            ExperimentScale::Full => vec![10, 20, 30, 40, 50],
            ExperimentScale::Quick => vec![5, 10],
        }
    }

    /// The dimensionality sweep of Figure 10 (paper: 2–10).
    pub fn dimension_sweep(&self) -> Vec<usize> {
        match self.scale {
            ExperimentScale::Full => vec![2, 4, 6, 8, 10],
            ExperimentScale::Quick => vec![2, 4],
        }
    }

    /// The data-size sweep of Figure 11 (paper: Forest ×1 – ×25).
    pub fn size_sweep(&self) -> Vec<usize> {
        match self.scale {
            ExperimentScale::Full => vec![1, 5, 10, 15, 20, 25],
            ExperimentScale::Quick => vec![1, 3],
        }
    }

    /// The node-count sweep of Figure 12 (paper: 9–36 nodes).
    pub fn node_sweep(&self) -> Vec<usize> {
        match self.scale {
            ExperimentScale::Full => vec![9, 16, 25, 36],
            ExperimentScale::Quick => vec![4, 9],
        }
    }

    /// The Forest-like default dataset (the paper's "Forest ×10"), full
    /// dimensionality.
    pub fn forest_default(&self) -> PointSet {
        self.forest_with(self.scale.scaled(12_000, 300), 10)
    }

    /// A Forest-like dataset of a given size and dimensionality.
    pub fn forest_with(&self, n_points: usize, dims: usize) -> PointSet {
        forest_like(
            &ForestConfig {
                n_points,
                dims,
                n_clusters: 7,
            },
            self.seed,
        )
    }

    /// The base Forest-like dataset used by the scalability experiment before
    /// expansion ("Forest ×1").
    pub fn forest_base_for_scaling(&self) -> PointSet {
        self.forest_with(self.scale.scaled(800, 80), 10)
    }

    /// The paper's ×t expansion applied to the scaling base.
    pub fn forest_scaled(&self, factor: usize) -> PointSet {
        expand_dataset(&self.forest_base_for_scaling(), factor)
    }

    /// The OSM-like 2-d dataset of Figure 9.
    pub fn osm_default(&self) -> PointSet {
        osm_like(
            &OsmConfig {
                n_points: self.scale.scaled(12_000, 300),
                ..Default::default()
            },
            self.seed ^ 0x05A7,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_smaller_than_full() {
        let quick = Workloads::new(ExperimentScale::Quick);
        let full = Workloads::new(ExperimentScale::Full);
        assert!(quick.forest_default().len() < full.forest_default().len());
        assert!(quick.default_pivots() < full.default_pivots());
        assert!(quick.pivot_sweep().len() <= full.pivot_sweep().len());
        assert_eq!(quick.default_k(), full.default_k());
    }

    #[test]
    fn datasets_are_deterministic() {
        let w = Workloads::new(ExperimentScale::Quick);
        assert_eq!(w.forest_default(), w.forest_default());
        assert_eq!(w.osm_default(), w.osm_default());
        assert_eq!(w.forest_scaled(3), w.forest_scaled(3));
    }

    #[test]
    fn scaling_multiplies_base_size() {
        let w = Workloads::new(ExperimentScale::Quick);
        let base = w.forest_base_for_scaling().len();
        assert_eq!(w.forest_scaled(3).len(), base * 3);
    }

    #[test]
    fn forest_dimensionality_is_respected() {
        let w = Workloads::new(ExperimentScale::Quick);
        for d in w.dimension_sweep() {
            assert_eq!(w.forest_with(100, d).dims(), d);
        }
    }

    #[test]
    fn osm_is_two_dimensional() {
        let w = Workloads::new(ExperimentScale::Quick);
        assert_eq!(w.osm_default().dims(), 2);
    }

    #[test]
    fn scaled_helper() {
        assert_eq!(ExperimentScale::Full.scaled(10, 2), 10);
        assert_eq!(ExperimentScale::Quick.scaled(10, 2), 2);
    }
}
