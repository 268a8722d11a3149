//! Scheduling general AND-OR trees (extension).
//!
//! The complexity of shared-stream PAOTR for trees of arbitrary depth is
//! open (it is open even in the read-once model, as the paper notes in
//! Section I). This module provides:
//!
//! * `schedule_impl` (surfaced as
//!   [`GeneralPlanner`](crate::plan::planners::GeneralPlanner)) — a
//!   recursive depth-first heuristic generalizing the paper's winning
//!   ideas: every operator node summarizes its subtree as
//!   a macro-leaf `(expected cost, success probability)` and orders its
//!   children by Smith's ratio `C/q` under AND (shortcut on failure) and
//!   by the dual ratio `C/p` under OR (shortcut on success). Costs are
//!   computed read-once-style (sharing inside a subtree is not
//!   discounted), which keeps the recursion `O(L log L)`;
//! * [`expected_cost`] — exact expected cost of a general-tree schedule
//!   by assignment enumeration (exponential; small trees);
//! * [`optimal`] — exhaustive optimal schedule for tiny general trees,
//!   the test oracle for the heuristic.

use crate::cost::assignment;
use crate::stream::StreamCatalog;
use crate::tree::general::{Node, QueryTree};

/// Summary of a subtree: its leaves in heuristic order (as flat indices),
/// an estimated expected cost, and its success probability.
struct Plan {
    order: Vec<usize>,
    cost: f64,
    prob: f64,
}

/// Computes a depth-first heuristic schedule for a general AND-OR tree,
/// returned as an order over flat leaf indices (left-to-right numbering).
/// Crate-internal workhorse behind
/// [`GeneralPlanner`](crate::plan::planners::GeneralPlanner).
pub(crate) fn schedule_impl(tree: &QueryTree, catalog: &StreamCatalog) -> Vec<usize> {
    let mut next_leaf = 0usize;
    let plan = plan_node(tree.root(), catalog, &mut next_leaf);
    plan.order
}

fn plan_node(node: &Node, catalog: &StreamCatalog, next_leaf: &mut usize) -> Plan {
    match node {
        Node::Leaf(l) => {
            let idx = *next_leaf;
            *next_leaf += 1;
            Plan {
                order: vec![idx],
                cost: l.standalone_cost(catalog),
                prob: l.prob.value(),
            }
        }
        Node::And(children) => {
            let mut plans: Vec<(usize, Plan)> = children
                .iter()
                .map(|c| plan_node(c, catalog, next_leaf))
                .enumerate()
                .collect();
            // Smith's rule: increasing C/q; q = 0 (certain subtrees) go
            // last unless free. `total_cmp` + the declaration-index
            // tie-break keep degenerate ratios (NaN, equal values) from
            // panicking or reordering nondeterministically.
            plans.sort_by(|(ai, a), (bi, b)| {
                ratio(a.cost, 1.0 - a.prob)
                    .total_cmp(&ratio(b.cost, 1.0 - b.prob))
                    .then(ai.cmp(bi))
            });
            combine(plans.into_iter().map(|(_, p)| p), /*and=*/ true)
        }
        Node::Or(children) => {
            let mut plans: Vec<(usize, Plan)> = children
                .iter()
                .map(|c| plan_node(c, catalog, next_leaf))
                .enumerate()
                .collect();
            // The OR dual: increasing C/p.
            plans.sort_by(|(ai, a), (bi, b)| {
                ratio(a.cost, a.prob)
                    .total_cmp(&ratio(b.cost, b.prob))
                    .then(ai.cmp(bi))
            });
            combine(plans.into_iter().map(|(_, p)| p), /*and=*/ false)
        }
    }
}

fn ratio(cost: f64, shortcut_prob: f64) -> f64 {
    if shortcut_prob <= 0.0 {
        if cost == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        cost / shortcut_prob
    }
}

fn combine(plans: impl IntoIterator<Item = Plan>, and: bool) -> Plan {
    let mut order = Vec::new();
    let mut cost = 0.0;
    let mut reach = 1.0; // P(the next child is evaluated at all)
    let mut prob = if and { 1.0 } else { 0.0 };
    for p in plans {
        order.extend(p.order);
        cost += reach * p.cost;
        if and {
            reach *= p.prob;
            prob *= p.prob;
        } else {
            reach *= 1.0 - p.prob;
            prob = 1.0 - (1.0 - prob) * (1.0 - p.prob);
        }
    }
    Plan { order, cost, prob }
}

/// Exact expected cost of a general-tree schedule (flat leaf order) by
/// full truth-assignment enumeration. See
/// [`crate::cost::assignment::query_tree_expected_cost`].
pub fn expected_cost(tree: &QueryTree, catalog: &StreamCatalog, order: &[usize]) -> f64 {
    assignment::query_tree_expected_cost(tree, catalog, order)
}

/// Leaf-count cap for [`optimal`].
pub const MAX_GENERAL_EXHAUSTIVE: usize = 8;

/// Optimal schedule of a tiny general tree by enumerating all `L!` leaf
/// orders, each evaluated exactly. Test oracle only: `O(L! * 2^L * L)`.
///
/// # Panics
/// Panics when the tree has more than [`MAX_GENERAL_EXHAUSTIVE`] leaves.
pub fn optimal(tree: &QueryTree, catalog: &StreamCatalog) -> (Vec<usize>, f64) {
    let l = tree.num_leaves();
    assert!(
        l <= MAX_GENERAL_EXHAUSTIVE,
        "exhaustive search over {l}! orders is intractable"
    );
    let mut order: Vec<usize> = (0..l).collect();
    let mut best_order = order.clone();
    let mut best = f64::INFINITY;
    permute(&mut order, 0, &mut |perm| {
        let c = assignment::query_tree_expected_cost(tree, catalog, perm);
        if c < best {
            best = c;
            best_order = perm.to_vec();
        }
    });
    (best_order, best)
}

fn permute(arr: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == arr.len() {
        visit(arr);
        return;
    }
    for i in k..arr.len() {
        arr.swap(k, i);
        permute(arr, k + 1, visit);
        arr.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;
    use rand::prelude::*;

    fn leaf(s: usize, d: u32, p: f64) -> Node {
        Node::Leaf(Leaf::raw(StreamId(s), d, Prob::new(p).unwrap()))
    }

    fn random_tree(rng: &mut StdRng, depth: usize, max_streams: usize) -> Node {
        if depth == 0 || rng.gen_bool(0.4) {
            return leaf(
                rng.gen_range(0..max_streams),
                rng.gen_range(1..=3),
                rng.gen_range(0.05..0.95),
            );
        }
        let children: Vec<Node> = (0..rng.gen_range(2..=3))
            .map(|_| random_tree(rng, depth - 1, max_streams))
            .collect();
        if rng.gen_bool(0.5) {
            Node::And(children)
        } else {
            Node::Or(children)
        }
    }

    #[test]
    fn heuristic_schedule_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..40 {
            let t = QueryTree::new(random_tree(&mut rng, 3, 3)).unwrap();
            let cat = StreamCatalog::unit(3);
            let order = schedule_impl(&t, &cat);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..t.num_leaves()).collect::<Vec<_>>());
        }
    }

    /// On read-once AND-trees the recursion degenerates to Smith's greedy,
    /// which is optimal.
    #[test]
    fn matches_optimal_on_read_once_and_trees() {
        let mut rng = StdRng::seed_from_u64(62);
        for _ in 0..30 {
            let m = rng.gen_range(2..=5);
            let cat = StreamCatalog::from_costs((0..m).map(|_| rng.gen_range(0.5..8.0))).unwrap();
            let children: Vec<Node> = (0..m)
                .map(|s| leaf(s, rng.gen_range(1..=4), rng.gen_range(0.05..0.95)))
                .collect();
            let t = QueryTree::new(Node::And(children)).unwrap();
            let h = expected_cost(&t, &cat, &schedule_impl(&t, &cat));
            let (_, opt) = optimal(&t, &cat);
            assert!(h <= opt + 1e-9, "heuristic {h} vs optimal {opt}");
        }
    }

    /// On random general trees the heuristic is valid and reasonably
    /// close to optimal (within 2x on these tiny instances).
    #[test]
    fn near_optimal_on_tiny_general_trees() {
        let mut rng = StdRng::seed_from_u64(63);
        let mut total_h = 0.0;
        let mut total_opt = 0.0;
        let mut checked = 0;
        for _ in 0..40 {
            let t = QueryTree::new(random_tree(&mut rng, 2, 2)).unwrap();
            if t.num_leaves() > 7 {
                continue;
            }
            let cat = StreamCatalog::from_costs([1.5, 4.0]).unwrap();
            let h = expected_cost(&t, &cat, &schedule_impl(&t, &cat));
            let (_, opt) = optimal(&t, &cat);
            assert!(h >= opt - 1e-9, "heuristic beat the optimum?");
            assert!(
                h <= 2.0 * opt + 1e-9,
                "heuristic {h} too far from optimal {opt}"
            );
            total_h += h;
            total_opt += opt;
            checked += 1;
        }
        assert!(checked >= 20, "not enough instances exercised");
        assert!(
            total_h <= 1.25 * total_opt,
            "aggregate gap too large: {total_h} vs {total_opt}"
        );
    }

    /// On DNF-shaped general trees, the recursion must agree with the
    /// static AND-ordered C/p heuristic when every leaf has its own
    /// stream (both reduce to Greiner).
    #[test]
    fn agrees_with_dnf_static_heuristic_on_read_once_dnf() {
        let mut rng = StdRng::seed_from_u64(64);
        for _ in 0..20 {
            let mut costs = Vec::new();
            let terms: Vec<Vec<crate::leaf::Leaf>> = (0..rng.gen_range(2..=3))
                .map(|_| {
                    (0..rng.gen_range(1..=2))
                        .map(|_| {
                            let s = costs.len();
                            costs.push(rng.gen_range(0.5..8.0));
                            crate::leaf::Leaf::raw(
                                StreamId(s),
                                rng.gen_range(1..=4),
                                Prob::new(rng.gen_range(0.05..0.95)).unwrap(),
                            )
                        })
                        .collect()
                })
                .collect();
            let dnf = crate::tree::DnfTree::from_leaves(terms).unwrap();
            let cat = StreamCatalog::from_costs(costs).unwrap();
            let qt = QueryTree::from(dnf.clone());
            let general_cost = expected_cost(&qt, &cat, &schedule_impl(&qt, &cat));
            let (_, dnf_cost_) = crate::algo::heuristics::Heuristic::AndIncCOverPStatic
                .schedule_with_cost(&dnf, &cat);
            assert!(
                (general_cost - dnf_cost_).abs() < 1e-9,
                "general {general_cost} vs dnf heuristic {dnf_cost_}"
            );
        }
    }
}
