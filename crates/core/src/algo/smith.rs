//! Smith's greedy for read-once AND-trees (reference [7] of the paper).
//!
//! For AND-trees in which every stream occurs at a single leaf, sorting the
//! leaves by non-decreasing `d_j * c(S(j)) / q_j` is optimal
//! (`O(m log m)`). Section II-A of the paper shows this is **no longer
//! optimal for shared streams** — the Figure 2 instance is the
//! counter-example, reproduced in this module's tests — which motivates
//! Algorithm 1 ([`crate::algo::greedy`]).

use crate::schedule::AndSchedule;
use crate::stream::StreamCatalog;
use crate::tree::AndTree;

/// The `d * c / q` ratio Smith's greedy sorts by. A leaf that can never
/// fail (`q = 0`) cannot short-circuit the AND and is sent to the end of
/// the schedule (ratio `+inf`).
pub fn smith_ratio(items: u32, unit_cost: f64, fail_prob: f64) -> f64 {
    let cost = f64::from(items) * unit_cost;
    if fail_prob <= 0.0 {
        if cost == 0.0 {
            0.0 // free leaf: harmless anywhere; schedule early
        } else {
            f64::INFINITY
        }
    } else {
        cost / fail_prob
    }
}

/// Schedules an AND-tree by non-decreasing `d*c/q` (ties broken by leaf
/// index, making the result deterministic). Crate-internal workhorse
/// behind [`SmithPlanner`](crate::plan::planners::SmithPlanner).
pub(crate) fn schedule_impl(tree: &AndTree, catalog: &StreamCatalog) -> AndSchedule {
    let mut order: Vec<usize> = (0..tree.len()).collect();
    order.sort_by(|&a, &b| {
        let la = tree.leaf(a);
        let lb = tree.leaf(b);
        let ra = smith_ratio(la.items, catalog.cost(la.stream), la.fail());
        let rb = smith_ratio(lb.items, catalog.cost(lb.stream), lb.fail());
        // `total_cmp`: degenerate instances (zero-cost streams, p = 1
        // leaves) can only produce ±inf ratios today, but NaN keys must
        // order deterministically rather than panic the planner.
        ra.total_cmp(&rb).then(a.cmp(&b))
    });
    AndSchedule::from_order_unchecked(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::and_eval;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    #[test]
    fn sorts_by_ratio() {
        // ratios: l1: 1/0.25=4, l2: 2/0.9~2.22, l3: 1/0.5=2  (Section III-A)
        let t = AndTree::new(vec![leaf(0, 1, 0.75), leaf(0, 2, 0.1), leaf(1, 1, 0.5)]).unwrap();
        let cat = StreamCatalog::unit(2);
        let s = schedule_impl(&t, &cat);
        assert_eq!(s.order(), &[2, 1, 0]);
    }

    /// The paper's Section II-A counter-example: Smith schedules l3 first,
    /// but the optimal shared schedule is l1, l2, l3 with cost 1.825.
    #[test]
    fn suboptimal_on_shared_figure_2_instance() {
        let t = AndTree::new(vec![leaf(0, 1, 0.75), leaf(0, 2, 0.1), leaf(1, 1, 0.5)]).unwrap();
        let cat = StreamCatalog::unit(2);
        let s = schedule_impl(&t, &cat);
        let smith_cost = and_eval::expected_cost(&t, &cat, &s);
        let best = AndSchedule::new(vec![0, 1, 2], &t).unwrap();
        let best_cost = and_eval::expected_cost(&t, &cat, &best);
        assert!(
            smith_cost > best_cost,
            "smith {smith_cost} vs best {best_cost}"
        );
        assert!((smith_cost - 2.0).abs() < 1e-12);
        assert!((best_cost - 1.825).abs() < 1e-12);
    }

    /// On read-once trees Smith is optimal: verify against all
    /// permutations of a 5-leaf instance.
    #[test]
    fn optimal_on_read_once_instance() {
        let t = AndTree::new(vec![
            leaf(0, 2, 0.3),
            leaf(1, 1, 0.8),
            leaf(2, 4, 0.5),
            leaf(3, 1, 0.05),
            leaf(4, 3, 0.95),
        ])
        .unwrap();
        let cat = StreamCatalog::from_costs([1.0, 5.0, 2.0, 8.0, 0.5]).unwrap();
        let s = schedule_impl(&t, &cat);
        let smith_cost = and_eval::expected_cost(&t, &cat, &s);
        let best = crate::algo::exhaustive::and_all_permutations_impl(&t, &cat).1;
        assert!(
            (smith_cost - best).abs() < 1e-10,
            "smith {smith_cost} vs exhaustive best {best}"
        );
    }

    #[test]
    fn certain_leaves_go_last() {
        let t = AndTree::new(vec![leaf(0, 1, 1.0), leaf(1, 1, 0.5)]).unwrap();
        let cat = StreamCatalog::unit(2);
        let s = schedule_impl(&t, &cat);
        assert_eq!(s.order(), &[1, 0]);
    }

    #[test]
    fn ratio_edge_cases() {
        assert_eq!(smith_ratio(1, 1.0, 0.0), f64::INFINITY);
        assert_eq!(smith_ratio(1, 0.0, 0.0), 0.0);
        assert!((smith_ratio(2, 3.0, 0.5) - 12.0).abs() < 1e-12);
    }
}
