//! Random shared AND-trees: the Figure 4 experiment grid.
//!
//! Section III-B: "For a given number of leaves m = 2, ..., 20 and a given
//! sharing ratio rho = 1, 5/4, 4/3, 3/2, 2, 3, 4, 5, 10, we generate 1,000
//! random trees for a total of 157,000 random trees (note that rho cannot
//! be larger than the number of leaves)."
//!
//! The sharing ratio is realised by drawing each leaf's stream uniformly
//! from `round(m / rho)` streams, so the *expected* number of leaves per
//! stream is `rho` (individual trees vary, as in any uniform assignment).

use crate::distributions::ParamDistributions;
use paotr_core::prelude::*;
use rand::Rng;

/// The paper's nine sharing-ratio values.
pub(crate) const SHARING_RATIOS: [f64; 9] = [1.0, 1.25, 4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, 5.0, 10.0];

/// The paper's leaf-count range `m = 2..=20`.
pub(crate) const LEAF_COUNTS: std::ops::RangeInclusive<usize> = 2..=20;

/// One cell of the Figure 4 grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AndConfig {
    /// Number of leaves, `m`.
    pub leaves: usize,
    /// Target sharing ratio, `rho` (expected leaves per stream).
    pub rho: f64,
}

impl AndConfig {
    /// Number of streams realising the target ratio: `round(m / rho)`,
    /// at least 1.
    pub(crate) fn num_streams(&self) -> usize {
        ((self.leaves as f64 / self.rho).round() as usize).max(1)
    }
}

/// The full 157-configuration grid of Figure 4 (all `(m, rho)` pairs with
/// `rho <= m`).
pub fn fig4_grid() -> Vec<AndConfig> {
    let mut grid = Vec::new();
    for m in LEAF_COUNTS {
        for &rho in SHARING_RATIOS.iter() {
            if rho <= m as f64 {
                grid.push(AndConfig { leaves: m, rho });
            }
        }
    }
    grid
}

/// Number of instances per grid cell in the paper.
pub const FIG4_INSTANCES_PER_CONFIG: usize = 1000;

/// Generates one random AND-tree instance for a grid cell.
pub fn random_and_instance<R: Rng + ?Sized>(
    config: AndConfig,
    dist: &ParamDistributions,
    rng: &mut R,
) -> (AndTree, StreamCatalog) {
    let s = config.num_streams();
    let catalog = dist.sample_catalog(rng, s);
    let leaves: Vec<Leaf> = (0..config.leaves)
        .map(|_| {
            let stream = StreamId(rng.gen_range(0..s));
            dist.sample_leaf(rng, stream)
        })
        .collect();
    (AndTree::new(leaves).expect("m >= 2"), catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn grid_has_exactly_157_configurations() {
        // 5+6+7+8+8+8+8+8 (m = 2..9) + 9 * 11 (m = 10..20) = 157,
        // the count that makes the paper's 157,000 trees.
        assert_eq!(fig4_grid().len(), 157);
    }

    #[test]
    fn rho_never_exceeds_leaf_count() {
        for cfg in fig4_grid() {
            assert!(cfg.rho <= cfg.leaves as f64);
            assert!(cfg.num_streams() >= 1);
        }
    }

    #[test]
    fn stream_count_matches_ratio() {
        let cfg = AndConfig {
            leaves: 20,
            rho: 10.0,
        };
        assert_eq!(cfg.num_streams(), 2);
        let cfg = AndConfig {
            leaves: 20,
            rho: 1.0,
        };
        assert_eq!(cfg.num_streams(), 20);
        let cfg = AndConfig {
            leaves: 10,
            rho: 4.0 / 3.0,
        };
        assert_eq!(cfg.num_streams(), 8); // round(7.5)
    }

    #[test]
    fn generated_instances_validate() {
        let mut rng = StdRng::seed_from_u64(7);
        let dist = ParamDistributions::paper();
        for cfg in fig4_grid().into_iter().step_by(13) {
            let (tree, cat) = random_and_instance(cfg, &dist, &mut rng);
            assert_eq!(tree.len(), cfg.leaves);
            tree.validate(&cat).unwrap();
        }
    }

    #[test]
    fn realized_sharing_ratio_is_close_on_average() {
        let mut rng = StdRng::seed_from_u64(8);
        let dist = ParamDistributions::paper();
        let cfg = AndConfig {
            leaves: 20,
            rho: 2.0,
        };
        let mut total = 0.0;
        let n = 200;
        for _ in 0..n {
            let (tree, _) = random_and_instance(cfg, &dist, &mut rng);
            total += tree.len() as f64 / cfg.num_streams() as f64;
            let _ = tree.sharing_ratio();
        }
        let mean = total / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean target ratio {mean}");
    }
}
