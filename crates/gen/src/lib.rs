//! # paotr-gen — random problem instances for the PAOTR experiments
//!
//! Reproduces the paper's three experiment grids with deterministic
//! seeding:
//!
//! * [`and_grid::fig4_grid`] — 157 AND-tree configurations × 1000
//!   instances (Figure 4);
//! * [`dnf_grid::fig5_grid`] — 216 small-DNF configurations × 100
//!   instances (Figure 5);
//! * [`dnf_grid::fig6_grid`] — 324 large-DNF configurations × 100
//!   instances (Figure 6).
//!
//! Parameters follow Section III-B: `p ~ U[0,1]`, `d ~ U{1..5}`,
//! `c ~ U[1,10]`; the sharing ratio `rho` is realised by drawing each
//! leaf's stream uniformly from `round(leaves / rho)` streams.
#![forbid(unsafe_code)]

pub(crate) mod and_grid;
pub(crate) mod churn;
pub mod distributions;
pub(crate) mod dnf_grid;
pub mod seeds;
pub mod workload;

pub use and_grid::{fig4_grid, random_and_instance, AndConfig, FIG4_INSTANCES_PER_CONFIG};
pub use churn::{churn_script, random_query_source, ChurnConfig, ChurnEvent};
pub use distributions::ParamDistributions;
pub use dnf_grid::{
    fig5_grid, fig6_grid, random_dnf_instance, DnfConfig, Shape, DNF_INSTANCES_PER_CONFIG,
};
pub use seeds::{instance_seed, Experiment};
pub use workload::{mean_pairwise_overlap, random_workload, workload_instance, WorkloadConfig};

use paotr_core::prelude::DnfInstance;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generates instance `index` of Figure-4 configuration `config`
/// (addressable regeneration; see [`seeds`]).
pub fn fig4_instance(
    config_idx: usize,
    index: usize,
) -> (paotr_core::tree::AndTree, paotr_core::stream::StreamCatalog) {
    let grid = fig4_grid();
    let seed = instance_seed(Experiment::Fig4, config_idx, index);
    let mut rng = StdRng::seed_from_u64(seed);
    random_and_instance(grid[config_idx], &ParamDistributions::paper(), &mut rng)
}

/// Generates instance `index` of Figure-5 configuration `config`.
pub fn fig5_instance(config_idx: usize, index: usize) -> DnfInstance {
    let grid = fig5_grid();
    let seed = instance_seed(Experiment::Fig5, config_idx, index);
    let mut rng = StdRng::seed_from_u64(seed);
    random_dnf_instance(grid[config_idx], &ParamDistributions::paper(), &mut rng)
}

/// Generates instance `index` of Figure-6 configuration `config`.
pub fn fig6_instance(config_idx: usize, index: usize) -> DnfInstance {
    let grid = fig6_grid();
    let seed = instance_seed(Experiment::Fig6, config_idx, index);
    let mut rng = StdRng::seed_from_u64(seed);
    random_dnf_instance(grid[config_idx], &ParamDistributions::paper(), &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addressable_instances_are_reproducible() {
        assert_eq!(fig5_instance(12, 34), fig5_instance(12, 34));
        assert_ne!(fig5_instance(12, 34), fig5_instance(12, 35));
        let (t1, c1) = fig4_instance(100, 999);
        let (t2, c2) = fig4_instance(100, 999);
        assert_eq!(t1, t2);
        assert_eq!(c1, c2);
        assert_eq!(fig6_instance(0, 0), fig6_instance(0, 0));
    }

    #[test]
    fn fig4_instance_matches_grid_config() {
        let grid = fig4_grid();
        let (tree, cat) = fig4_instance(0, 0);
        assert_eq!(tree.len(), grid[0].leaves);
        assert_eq!(cat.len(), grid[0].num_streams());
    }
}
