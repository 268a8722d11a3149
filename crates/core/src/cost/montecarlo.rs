//! Monte-Carlo estimation of schedule costs.
//!
//! Samples truth assignments from the leaf probabilities and runs the
//! ground-truth interpreter. This gives a *statistical* cross-check of the
//! analytic evaluators (used heavily in tests) and is the only tractable
//! exact-semantics estimator for large general trees.

use crate::cost::execution::execute_dnf_impl;
use crate::schedule::DnfSchedule;
use crate::stream::StreamCatalog;
use crate::tree::DnfTree;
use rand::Rng;

/// A Monte-Carlo estimate with its standard error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean of the cost.
    pub mean: f64,
    /// Standard error of the mean (`sigma / sqrt(n)`).
    pub std_error: f64,
    /// Number of samples drawn.
    pub samples: usize,
    /// Fraction of runs in which the query evaluated to TRUE.
    pub truth_rate: f64,
}

impl Estimate {
    /// True when `value` lies within `k` standard errors of the mean
    /// (with a small absolute floor for near-deterministic cases).
    pub fn consistent_with(&self, value: f64, k: f64) -> bool {
        let tol = k * self.std_error + 1e-9;
        (self.mean - value).abs() <= tol
    }
}

fn summarize(costs: &[f64], truths: usize) -> Estimate {
    let n = costs.len();
    let mean = costs.iter().sum::<f64>() / n as f64;
    let var = costs.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / (n.max(2) - 1) as f64;
    Estimate {
        mean,
        std_error: (var / n as f64).sqrt(),
        samples: n,
        truth_rate: truths as f64 / n as f64,
    }
}

/// Estimates the expected cost of a DNF schedule from `samples` random
/// executions.
pub fn dnf_cost<R: Rng + ?Sized>(
    tree: &DnfTree,
    catalog: &StreamCatalog,
    schedule: &DnfSchedule,
    samples: usize,
    rng: &mut R,
) -> Estimate {
    assert!(samples > 0, "need at least one sample");
    let probs: Vec<f64> = tree.leaves().map(|(_, l)| l.prob.value()).collect();
    let mut assignment = vec![false; probs.len()];
    let mut costs = Vec::with_capacity(samples);
    let mut truths = 0;
    for _ in 0..samples {
        for (a, &p) in assignment.iter_mut().zip(&probs) {
            *a = rng.gen::<f64>() < p;
        }
        let e = execute_dnf_impl(tree, catalog, schedule, &assignment);
        costs.push(e.cost);
        truths += usize::from(e.value);
    }
    summarize(&costs, truths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{and_eval, dnf_eval};
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::schedule::AndSchedule;
    use crate::stream::StreamId;
    use crate::tree::AndTree;
    use rand::prelude::*;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    #[test]
    fn and_tree_estimate_converges_to_analytic_cost() {
        let t = AndTree::new(vec![leaf(0, 1, 0.75), leaf(0, 2, 0.1), leaf(1, 1, 0.5)]).unwrap();
        let cat = StreamCatalog::unit(2);
        let s = AndSchedule::identity(3);
        // An AND-tree samples as its one-term DNF in declaration order.
        let dnf = DnfTree::from_and_tree(&t);
        let ds = DnfSchedule::declaration_order(&dnf);
        let mut rng = StdRng::seed_from_u64(1);
        let est = dnf_cost(&dnf, &cat, &ds, 200_000, &mut rng);
        let analytic = and_eval::expected_cost(&t, &cat, &s);
        assert!(est.consistent_with(analytic, 4.0), "{est:?} vs {analytic}");
    }

    #[test]
    fn dnf_estimate_converges_to_analytic_cost() {
        let t = DnfTree::from_leaves(vec![
            vec![leaf(0, 3, 0.4), leaf(1, 1, 0.7)],
            vec![leaf(0, 5, 0.6), leaf(1, 2, 0.2)],
        ])
        .unwrap();
        let cat = StreamCatalog::from_costs([2.0, 3.0]).unwrap();
        let s = DnfSchedule::declaration_order(&t);
        let mut rng = StdRng::seed_from_u64(2);
        let est = dnf_cost(&t, &cat, &s, 200_000, &mut rng);
        let analytic = dnf_eval::expected_cost(&t, &cat, &s);
        assert!(est.consistent_with(analytic, 4.0), "{est:?} vs {analytic}");
    }

    #[test]
    fn truth_rate_tracks_success_probability() {
        let t = DnfTree::from_leaves(vec![vec![leaf(0, 1, 0.5)], vec![leaf(1, 1, 0.5)]]).unwrap();
        let cat = StreamCatalog::unit(2);
        let s = DnfSchedule::declaration_order(&t);
        let mut rng = StdRng::seed_from_u64(3);
        let est = dnf_cost(&t, &cat, &s, 100_000, &mut rng);
        assert!((est.truth_rate - 0.75).abs() < 0.01);
    }

    #[test]
    fn deterministic_instance_has_zero_stderr() {
        let t = AndTree::new(vec![leaf(0, 2, 1.0), leaf(1, 1, 1.0)]).unwrap();
        let cat = StreamCatalog::unit(2);
        let dnf = DnfTree::from_and_tree(&t);
        let s = DnfSchedule::declaration_order(&dnf);
        let mut rng = StdRng::seed_from_u64(4);
        let est = dnf_cost(&dnf, &cat, &s, 1000, &mut rng);
        assert_eq!(est.mean, 3.0);
        assert_eq!(est.std_error, 0.0);
        assert_eq!(est.truth_rate, 1.0);
    }
}
