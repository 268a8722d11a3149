//! Random shared DNF trees: the Figure 5 ("small") and Figure 6 ("large")
//! experiment grids.
//!
//! The paper specifies:
//!
//! * **small** — "DNF trees with N = 2, ..., 9 AND nodes and up to at most
//!   20 leaves and 8 leaves per AND, generating 100 random instances for
//!   each configuration, for a total of 21,600 instances";
//! * **large** — "N = 2, ..., 10 AND nodes and m = 5, 10, 15, 20 leaves
//!   per AND node, with 100 random instances per configuration, for a
//!   total of 32,400 instances".
//!
//! 21,600 = 216 configs x 100 and 32,400 = 324 configs x 100. The large
//! grid factorizes exactly as `9 N-values x 4 m-values x 9 sharing ratios
//! = 324`; we reconstruct the small grid the same way as `8 N-values x
//! 3 total-leaf targets {10, 15, 20} x 9 sharing ratios = 216`, with
//! leaves distributed randomly over AND nodes (1..=8 each) — this matches
//! every constraint stated in the paper and its instance counts.
//! DESIGN.md documents this reconstruction.

use crate::and_grid::SHARING_RATIOS;
use crate::distributions::ParamDistributions;
use paotr_core::prelude::*;
use rand::Rng;

/// How leaves are apportioned to AND nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// "Up to" a total-leaf budget: the actual total is drawn uniformly
    /// from `terms..=min(total, cap * terms)` and split randomly across
    /// terms, each term getting between 1 and `cap` leaves (the "small"
    /// grid; cap = 8). The uniform draw matches the paper's "up to at
    /// most 20 leaves" phrasing and keeps the exhaustive baseline
    /// tractable (a hard cap would make every 2-AND instance the
    /// worst-case 8+8 shape).
    TotalWithCap {
        /// Maximum total leaves in the tree.
        total: usize,
        /// Maximum leaves per AND node.
        cap: usize,
    },
    /// Every AND node has exactly this many leaves (the "large" grid).
    PerTerm(usize),
}

/// One cell of a DNF experiment grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DnfConfig {
    /// Number of AND nodes, `N`.
    pub terms: usize,
    /// Leaf apportioning.
    pub shape: Shape,
    /// Target sharing ratio `rho` (expected leaves per stream).
    pub rho: f64,
}

impl DnfConfig {
    /// Maximum total number of leaves this configuration can produce.
    pub fn total_leaves(&self) -> usize {
        match self.shape {
            Shape::TotalWithCap { total, cap } => total.min(self.terms * cap),
            Shape::PerTerm(m) => self.terms * m,
        }
    }

    /// Number of streams realising the target sharing ratio for an
    /// instance with `leaves` leaves.
    pub(crate) fn num_streams_for(&self, leaves: usize) -> usize {
        ((leaves as f64 / self.rho).round() as usize).max(1)
    }
}

/// Instances per configuration in both DNF experiments.
pub const DNF_INSTANCES_PER_CONFIG: usize = 100;

/// The 216-configuration "small" grid (Figure 5).
pub fn fig5_grid() -> Vec<DnfConfig> {
    let mut grid = Vec::new();
    for n in 2..=9 {
        for total in [10usize, 15, 20] {
            for &rho in SHARING_RATIOS.iter() {
                grid.push(DnfConfig {
                    terms: n,
                    shape: Shape::TotalWithCap { total, cap: 8 },
                    rho,
                });
            }
        }
    }
    grid
}

/// The 324-configuration "large" grid (Figure 6).
pub fn fig6_grid() -> Vec<DnfConfig> {
    let mut grid = Vec::new();
    for n in 2..=10 {
        for m in [5usize, 10, 15, 20] {
            for &rho in SHARING_RATIOS.iter() {
                grid.push(DnfConfig {
                    terms: n,
                    shape: Shape::PerTerm(m),
                    rho,
                });
            }
        }
    }
    grid
}

/// Randomly splits `total` leaves over `terms` AND nodes, each receiving
/// between 1 and `cap` leaves. Uses repeated balanced perturbation so all
/// feasible compositions are reachable.
fn random_composition<R: Rng + ?Sized>(
    total: usize,
    terms: usize,
    cap: usize,
    rng: &mut R,
) -> Vec<usize> {
    let total = total.clamp(terms, terms * cap);
    let mut sizes = vec![1usize; terms];
    let mut left = total - terms;
    while left > 0 {
        let i = rng.gen_range(0..terms);
        if sizes[i] < cap {
            sizes[i] += 1;
            left -= 1;
        }
    }
    sizes
}

/// Generates one random DNF instance for a grid cell.
pub fn random_dnf_instance<R: Rng + ?Sized>(
    config: DnfConfig,
    dist: &ParamDistributions,
    rng: &mut R,
) -> DnfInstance {
    let sizes: Vec<usize> = match config.shape {
        Shape::TotalWithCap { total, cap } => {
            // "up to at most `total` leaves": draw the actual size first
            let hi = total.min(config.terms * cap);
            let actual = rng.gen_range(config.terms..=hi.max(config.terms));
            random_composition(actual, config.terms, cap, rng)
        }
        Shape::PerTerm(m) => vec![m; config.terms],
    };
    let s = config.num_streams_for(sizes.iter().sum());
    let catalog = dist.sample_catalog(rng, s);
    let terms: Vec<Vec<Leaf>> = sizes
        .iter()
        .map(|&m| {
            (0..m)
                .map(|_| {
                    let stream = StreamId(rng.gen_range(0..s));
                    dist.sample_leaf(rng, stream)
                })
                .collect()
        })
        .collect();
    let tree = DnfTree::from_leaves(terms).expect("terms are non-empty");
    DnfInstance::new(tree, catalog).expect("generated instances validate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn small_grid_has_216_configs_matching_21600_instances() {
        assert_eq!(fig5_grid().len(), 216);
        assert_eq!(fig5_grid().len() * DNF_INSTANCES_PER_CONFIG, 21_600);
    }

    #[test]
    fn large_grid_has_324_configs_matching_32400_instances() {
        assert_eq!(fig6_grid().len(), 324);
        assert_eq!(fig6_grid().len() * DNF_INSTANCES_PER_CONFIG, 32_400);
    }

    #[test]
    fn compositions_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let sizes = random_composition(20, 9, 8, &mut rng);
            assert_eq!(sizes.len(), 9);
            assert_eq!(sizes.iter().sum::<usize>(), 20);
            assert!(sizes.iter().all(|&s| (1..=8).contains(&s)));
        }
        // infeasible total is clamped: 2 terms, cap 8 -> at most 16
        let sizes = random_composition(20, 2, 8, &mut rng);
        assert_eq!(sizes.iter().sum::<usize>(), 16);
        // sampled totals across the whole range are reachable
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let cfg = DnfConfig {
                terms: 2,
                shape: Shape::TotalWithCap { total: 20, cap: 8 },
                rho: 2.0,
            };
            let dist = crate::distributions::ParamDistributions::paper();
            let inst = random_dnf_instance(cfg, &dist, &mut rng);
            seen.insert(inst.num_leaves());
        }
        assert!(seen.len() > 8, "sampled sizes cover a range: {seen:?}");
        assert!(*seen.iter().max().unwrap() <= 16);
        assert!(*seen.iter().min().unwrap() >= 2);
    }

    #[test]
    fn small_instances_respect_paper_constraints() {
        let mut rng = StdRng::seed_from_u64(10);
        let dist = ParamDistributions::paper();
        for cfg in fig5_grid().into_iter().step_by(17) {
            let inst = random_dnf_instance(cfg, &dist, &mut rng);
            assert_eq!(inst.num_terms(), cfg.terms);
            assert!(inst.num_leaves() <= 20);
            assert!(inst.tree.terms().iter().all(|t| t.len() <= 8));
            inst.tree.validate(&inst.catalog).unwrap();
        }
    }

    #[test]
    fn large_instances_have_exact_term_sizes() {
        let mut rng = StdRng::seed_from_u64(11);
        let dist = ParamDistributions::paper();
        let cfg = DnfConfig {
            terms: 10,
            shape: Shape::PerTerm(20),
            rho: 5.0,
        };
        let inst = random_dnf_instance(cfg, &dist, &mut rng);
        assert_eq!(inst.num_terms(), 10);
        assert!(inst.tree.terms().iter().all(|t| t.len() == 20));
        assert_eq!(inst.num_leaves(), 200);
        assert_eq!(inst.catalog.len(), 40);
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let dist = ParamDistributions::paper();
        let cfg = DnfConfig {
            terms: 4,
            shape: Shape::TotalWithCap { total: 10, cap: 8 },
            rho: 2.0,
        };
        let a = random_dnf_instance(cfg, &dist, &mut StdRng::seed_from_u64(77));
        let b = random_dnf_instance(cfg, &dist, &mut StdRng::seed_from_u64(77));
        assert_eq!(a, b);
    }
}
