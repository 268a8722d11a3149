//! Exact expected cost by truth-assignment enumeration.
//!
//! The expected cost of a schedule is, by definition,
//! `sum over assignments A of P(A) * cost(schedule, A)`. Enumerating all
//! `2^L` assignments is exponential but exact and *independent* of the
//! closed-form analysis of the paper, which makes it the reference
//! implementation the analytic evaluators ([`crate::cost::and_eval`],
//! [`crate::cost::dnf_eval`]) are validated against.

use crate::cost::execution::{execute_and_tree_impl, execute_dnf_impl, execute_query_tree};
use crate::schedule::{AndSchedule, DnfSchedule};
use crate::stream::StreamCatalog;
use crate::tree::general::QueryTree;
use crate::tree::{AndTree, DnfTree};

/// Practical cap on exhaustive enumeration (2^25 assignments).
pub(crate) const MAX_ENUM_LEAVES: usize = 25;

/// Exact expected cost of an AND-tree schedule via full enumeration.
///
/// # Panics
/// Panics if the tree has more than `MAX_ENUM_LEAVES` leaves.
pub fn and_tree_expected_cost(
    tree: &AndTree,
    catalog: &StreamCatalog,
    schedule: &AndSchedule,
) -> f64 {
    let m = tree.len();
    assert!(
        m <= MAX_ENUM_LEAVES,
        "enumeration over {m} leaves is intractable"
    );
    let probs: Vec<f64> = tree.leaves().iter().map(|l| l.prob.value()).collect();
    expected_over_assignments(&probs, |assignment| {
        execute_and_tree_impl(tree, catalog, schedule, assignment).cost
    })
}

/// Exact expected cost of a DNF schedule via full enumeration.
/// Assignments are in flat term-major leaf order.
///
/// # Panics
/// Panics if the tree has more than `MAX_ENUM_LEAVES` leaves.
pub fn dnf_expected_cost(tree: &DnfTree, catalog: &StreamCatalog, schedule: &DnfSchedule) -> f64 {
    let m = tree.num_leaves();
    assert!(
        m <= MAX_ENUM_LEAVES,
        "enumeration over {m} leaves is intractable"
    );
    let probs: Vec<f64> = tree.leaves().map(|(_, l)| l.prob.value()).collect();
    expected_over_assignments(&probs, |assignment| {
        execute_dnf_impl(tree, catalog, schedule, assignment).cost
    })
}

/// Exact expected cost of a general-tree schedule (flat leaf order) via
/// full enumeration.
///
/// # Panics
/// Panics if the tree has more than `MAX_ENUM_LEAVES` leaves.
pub fn query_tree_expected_cost(
    tree: &QueryTree,
    catalog: &StreamCatalog,
    schedule: &[usize],
) -> f64 {
    let m = tree.num_leaves();
    assert!(
        m <= MAX_ENUM_LEAVES,
        "enumeration over {m} leaves is intractable"
    );
    let probs: Vec<f64> = tree.leaves().iter().map(|l| l.prob.value()).collect();
    expected_over_assignments(&probs, |assignment| {
        execute_query_tree(tree, catalog, schedule, assignment).cost
    })
}

/// Sums `weight(A) * f(A)` over all `2^L` truth assignments, where
/// `weight` is the product of independent leaf probabilities.
fn expected_over_assignments(probs: &[f64], mut f: impl FnMut(&[bool]) -> f64) -> f64 {
    let m = probs.len();
    let mut assignment = vec![false; m];
    let mut total = 0.0;
    for mask in 0u64..(1u64 << m) {
        let mut weight = 1.0;
        for (b, a) in assignment.iter_mut().enumerate() {
            let v = mask >> b & 1 == 1;
            *a = v;
            weight *= if v { probs[b] } else { 1.0 - probs[b] };
        }
        if weight > 0.0 {
            total += weight * f(&assignment);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    /// Section II-A works out the costs of three schedules of the Figure 2
    /// AND-tree by hand; the enumeration must reproduce them exactly.
    #[test]
    fn reproduces_paper_section_ii_a_costs() {
        let t = AndTree::new(vec![leaf(0, 1, 0.75), leaf(0, 2, 0.1), leaf(1, 1, 0.5)]).unwrap();
        let cat = StreamCatalog::unit(2);

        // schedule l3, l1, l2: cost = 1 + 0.5*(1 + 0.75*1) = 1.875
        let s = AndSchedule::new(vec![2, 0, 1], &t).unwrap();
        assert!((and_tree_expected_cost(&t, &cat, &s) - 1.875).abs() < 1e-12);

        // schedule l3, l2, l1: cost = 1 + 0.5*(2 + 0.1*0) = 2
        let s = AndSchedule::new(vec![2, 1, 0], &t).unwrap();
        assert!((and_tree_expected_cost(&t, &cat, &s) - 2.0).abs() < 1e-12);

        // schedule l1, l2, l3: cost = 1 + 0.75*(1 + 0.1*1) = 1.825
        let s = AndSchedule::new(vec![0, 1, 2], &t).unwrap();
        assert!((and_tree_expected_cost(&t, &cat, &s) - 1.825).abs() < 1e-12);
    }

    /// Section II-B works out the Figure 3 DNF schedule cost symbolically:
    /// C = c(A) + c(B) + (p1 + (1-p1) p2) c(C)
    ///   + (p1 p3 + (1 - p1 p3)(1 - p2 p5) p6) c(D).
    #[test]
    fn reproduces_paper_section_ii_b_cost() {
        // Use distinct probabilities to exercise the formula fully.
        let (p1, p2, p3, p4, p5, p6, p7) = (0.3, 0.6, 0.8, 0.25, 0.9, 0.4, 0.7);
        let t = DnfTree::from_leaves(vec![
            vec![leaf(0, 1, p1), leaf(2, 1, p3), leaf(3, 1, p4)],
            vec![leaf(1, 1, p2), leaf(2, 1, p5)],
            vec![leaf(1, 1, p6), leaf(3, 1, p7)],
        ])
        .unwrap();
        let cat = StreamCatalog::unit(4);
        let s = DnfSchedule::new(
            vec![
                crate::leaf::LeafRef::new(0, 0), // l1
                crate::leaf::LeafRef::new(1, 0), // l2
                crate::leaf::LeafRef::new(0, 1), // l3
                crate::leaf::LeafRef::new(0, 2), // l4
                crate::leaf::LeafRef::new(1, 1), // l5
                crate::leaf::LeafRef::new(2, 0), // l6
                crate::leaf::LeafRef::new(2, 1), // l7
            ],
            &t,
        )
        .unwrap();
        let expect =
            1.0 + 1.0 + (p1 + (1.0 - p1) * p2) + (p1 * p3 + (1.0 - p1 * p3) * (1.0 - p2 * p5) * p6);
        let got = dnf_expected_cost(&t, &cat, &s);
        assert!((got - expect).abs() < 1e-12, "got {got}, expected {expect}");
    }

    #[test]
    fn truth_probability_matches_closed_form() {
        let t = DnfTree::from_leaves(vec![
            vec![leaf(0, 1, 0.3), leaf(1, 1, 0.6)],
            vec![leaf(2, 1, 0.8)],
        ])
        .unwrap();
        let cat = StreamCatalog::unit(3);
        // The executor's verdict, weighted over every assignment, against
        // the closed form `1 - prod_i (1 - prod_j p_{i,j})`.
        let probs: Vec<f64> = t.leaves().map(|(_, l)| l.prob.value()).collect();
        let schedule = DnfSchedule::declaration_order(&t);
        let got = expected_over_assignments(&probs, |assignment| {
            f64::from(u8::from(
                execute_dnf_impl(&t, &cat, &schedule, assignment).value,
            ))
        });
        let closed = 1.0
            - t.terms()
                .iter()
                .map(|term| term.success_prob().fail())
                .product::<f64>();
        assert!((got - closed).abs() < 1e-12);
    }

    #[test]
    fn general_tree_enumeration_agrees_with_dnf_view() {
        let t = DnfTree::from_leaves(vec![
            vec![leaf(0, 2, 0.3), leaf(1, 1, 0.6)],
            vec![leaf(0, 3, 0.8), leaf(2, 1, 0.5)],
        ])
        .unwrap();
        let cat = StreamCatalog::from_costs([2.0, 1.0, 5.0]).unwrap();
        let s = DnfSchedule::declaration_order(&t);
        let qt = QueryTree::from(t.clone());
        let flat: Vec<usize> = (0..4).collect();
        let a = dnf_expected_cost(&t, &cat, &s);
        let b = query_tree_expected_cost(&qt, &cat, &flat);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn zero_probability_leaves_are_skipped_in_weighting() {
        // A single leaf with p = 0: expected cost is just its acquisition.
        let t = AndTree::new(vec![leaf(0, 3, 0.0)]).unwrap();
        let cat = StreamCatalog::from_costs([2.0]).unwrap();
        let s = AndSchedule::identity(1);
        assert!((and_tree_expected_cost(&t, &cat, &s) - 6.0).abs() < 1e-12);
    }
}
