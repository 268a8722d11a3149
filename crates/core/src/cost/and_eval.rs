//! Closed-form expected cost of AND-tree schedules (shared streams).
//!
//! In an AND-tree, leaf `sigma(j)` is evaluated iff every earlier leaf in
//! the schedule evaluated to TRUE (otherwise the AND is already FALSE and
//! everything after is short-circuited). When it *is* evaluated, every
//! earlier leaf was evaluated too, so the device memory deterministically
//! holds, for each stream, the maximum item count requested so far.
//! The expected cost is therefore
//!
//! ```text
//! sum_j  [ prod_{i scheduled before j} p_i ]
//!        * max(0, d_j - max items already pulled from S(j)) * c(S(j))
//! ```
//!
//! which is computable in `O(m)` per schedule — unlike DNF trees, where the
//! memory content seen by a leaf is itself random (see
//! [`crate::cost::dnf_eval`]).

use crate::schedule::AndSchedule;
use crate::stream::StreamCatalog;
use crate::tree::AndTree;

/// Expected cost of evaluating `tree` under `schedule`.
pub fn expected_cost(tree: &AndTree, catalog: &StreamCatalog, schedule: &AndSchedule) -> f64 {
    let mut acquired = vec![0u32; catalog.len()];
    let mut reach = 1.0; // probability all previously scheduled leaves were TRUE
    let mut cost = 0.0;
    for &j in schedule.order() {
        let leaf = tree.leaf(j);
        let have = acquired[leaf.stream.0];
        if leaf.items > have {
            cost += reach * f64::from(leaf.items - have) * catalog.cost(leaf.stream);
            acquired[leaf.stream.0] = leaf.items;
        }
        reach *= leaf.prob.value();
    }
    cost
}

/// Expected cost and success probability of an AND-tree schedule, as a
/// pair. The AND-ordered DNF heuristics need both (they sort AND nodes by
/// `C`, `p`, or `C/p`).
pub fn expected_cost_and_prob(
    tree: &AndTree,
    catalog: &StreamCatalog,
    schedule: &AndSchedule,
) -> (f64, f64) {
    let cost = expected_cost(tree, catalog, schedule);
    let prob = tree.success_prob().value();
    (cost, prob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::assignment;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;

    /// The read-once model (every leaf pays its full stand-alone cost),
    /// the objective Smith's greedy optimizes.
    fn read_once_expected_cost(tree: &AndTree, catalog: &StreamCatalog, s: &AndSchedule) -> f64 {
        let mut reach = 1.0;
        let mut cost = 0.0;
        for &j in s.order() {
            cost += reach * tree.leaf(j).standalone_cost(catalog);
            reach *= tree.leaf(j).prob.value();
        }
        cost
    }

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn fig2() -> (AndTree, StreamCatalog) {
        (
            AndTree::new(vec![leaf(0, 1, 0.75), leaf(0, 2, 0.1), leaf(1, 1, 0.5)]).unwrap(),
            StreamCatalog::unit(2),
        )
    }

    #[test]
    fn matches_paper_section_ii_a() {
        let (t, cat) = fig2();
        let costs = [
            (vec![2, 0, 1], 1.875),
            (vec![2, 1, 0], 2.0),
            (vec![0, 1, 2], 1.825),
        ];
        for (order, expect) in costs {
            let s = AndSchedule::new(order, &t).unwrap();
            assert!((expected_cost(&t, &cat, &s) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn agrees_with_enumeration_on_all_schedules() {
        let (t, cat) = fig2();
        // all 6 permutations
        let perms = [
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        for p in perms {
            let s = AndSchedule::new(p, &t).unwrap();
            let analytic = expected_cost(&t, &cat, &s);
            let exact = assignment::and_tree_expected_cost(&t, &cat, &s);
            assert!((analytic - exact).abs() < 1e-12);
        }
    }

    #[test]
    fn read_once_matches_shared_when_streams_distinct() {
        let t = AndTree::new(vec![leaf(0, 2, 0.4), leaf(1, 3, 0.7), leaf(2, 1, 0.9)]).unwrap();
        let cat = StreamCatalog::from_costs([1.0, 2.0, 3.0]).unwrap();
        let s = AndSchedule::identity(3);
        assert!(
            (expected_cost(&t, &cat, &s) - read_once_expected_cost(&t, &cat, &s)).abs() < 1e-12
        );
    }

    #[test]
    fn read_once_formula_overcounts_shared_items() {
        let (t, cat) = fig2();
        let s = AndSchedule::identity(3);
        assert!(read_once_expected_cost(&t, &cat, &s) > expected_cost(&t, &cat, &s));
    }

    #[test]
    fn cost_and_prob_pair() {
        let (t, cat) = fig2();
        let s = AndSchedule::identity(3);
        let (c, p) = expected_cost_and_prob(&t, &cat, &s);
        assert!((c - 1.825).abs() < 1e-12);
        assert!((p - 0.75 * 0.1 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn certain_leaves_do_not_discount_later_costs() {
        let t = AndTree::new(vec![leaf(0, 1, 1.0), leaf(1, 1, 0.5)]).unwrap();
        let cat = StreamCatalog::unit(2);
        let s = AndSchedule::identity(2);
        assert!((expected_cost(&t, &cat, &s) - 2.0).abs() < 1e-12);
    }
}
