//! Algorithm 1 — the optimal greedy for shared AND-trees (Theorem 1).
//!
//! The read-once greedy compares leaves pairwise; with shared streams that
//! is insufficient because a cheap follow-up leaf can make an expensive
//! same-stream leaf worthwhile. Algorithm 1 instead compares *chains*:
//! for every stream it scans the unscheduled leaves in increasing item
//! count and evaluates, for each prefix chain, the ratio
//!
//! ```text
//!   expected incremental cost of the chain
//!   --------------------------------------
//!   1 - P(whole chain evaluates TRUE)
//! ```
//!
//! then appends the chain with the minimum ratio and repeats. The paper
//! proves the resulting schedule is optimal; our tests verify optimality
//! exhaustively on every instance with up to 8 leaves (see also the
//! property tests).

use crate::schedule::AndSchedule;
use crate::stream::StreamCatalog;
use crate::tree::AndTree;

/// State of one greedy selection round: the best chain found so far.
#[derive(Debug, Clone, Copy)]
struct Best {
    ratio: f64,
    /// Index *within the stream's remaining-leaf list* of the chain end.
    stream: usize,
    chain_end: usize,
    /// Tie-break: smaller expected chain cost first, then stream id.
    cost: f64,
}

/// Computes an optimal schedule for a shared AND-tree — Algorithm 1,
/// `O(m^2)`. Crate-internal workhorse behind
/// [`GreedyPlanner`](crate::plan::planners::GreedyPlanner).
pub(crate) fn schedule_impl(tree: &AndTree, catalog: &StreamCatalog) -> AndSchedule {
    // L_k sets: remaining leaves per stream, sorted by increasing d
    // (Proposition 1: same-stream leaves are scheduled in increasing d).
    let groups = tree.leaves_by_stream();
    let mut streams: Vec<(usize, Vec<usize>)> = groups
        .into_iter()
        .map(|(k, leaves)| (k.0, leaves))
        .collect();
    // Items already acquired per stream (the paper's NItems array).
    let mut n_items: Vec<u32> = vec![0; catalog.len()];
    let mut out = Vec::with_capacity(tree.len());

    while streams.iter().any(|(_, ls)| !ls.is_empty()) {
        let mut best: Option<Best> = None;
        for (si, (k, leaves)) in streams.iter().enumerate() {
            if leaves.is_empty() {
                continue;
            }
            let unit = catalog.cost(crate::stream::StreamId(*k));
            let mut cost = 0.0;
            let mut proba = 1.0;
            let mut num = n_items[*k];
            for (ci, &j) in leaves.iter().enumerate() {
                let leaf = tree.leaf(j);
                if leaf.items > num {
                    cost += proba * f64::from(leaf.items - num) * unit;
                    num = leaf.items;
                }
                proba *= leaf.prob.value();
                let ratio = if proba >= 1.0 {
                    // The chain cannot fail: it never short-circuits, so it
                    // is only worth scheduling when it is free.
                    if cost == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    cost / (1.0 - proba)
                };
                let candidate = Best {
                    ratio,
                    stream: si,
                    chain_end: ci,
                    cost,
                };
                let better = match &best {
                    None => true,
                    Some(b) => {
                        ratio < b.ratio
                            || (ratio == b.ratio
                                && (cost < b.cost || (cost == b.cost && si < b.stream)))
                    }
                };
                if better {
                    best = Some(candidate);
                }
            }
        }
        let b = best.expect("at least one unscheduled leaf remains");
        let (k, leaves) = &mut streams[b.stream];
        // Append the selected chain (leaves up to and including chain_end,
        // already in increasing-d order) and update NItems.
        let chain: Vec<usize> = leaves.drain(..=b.chain_end).collect();
        let last = *chain.last().expect("chains are non-empty");
        n_items[*k] = n_items[*k].max(tree.leaf(last).items);
        out.extend(chain);
    }
    AndSchedule::from_order_unchecked(out)
}

/// Convenience: schedule and return the schedule's expected cost.
pub(crate) fn schedule_with_cost_impl(
    tree: &AndTree,
    catalog: &StreamCatalog,
) -> (AndSchedule, f64) {
    let s = schedule_impl(tree, catalog);
    let c = crate::cost::and_eval::expected_cost(tree, catalog, &s);
    (s, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{exhaustive, smith};
    use crate::cost::and_eval;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;
    use rand::prelude::*;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn fig2() -> (AndTree, StreamCatalog) {
        (
            AndTree::new(vec![leaf(0, 1, 0.75), leaf(0, 2, 0.1), leaf(1, 1, 0.5)]).unwrap(),
            StreamCatalog::unit(2),
        )
    }

    /// Algorithm 1 finds the optimal schedule l1, l2, l3 (cost 1.825) on
    /// the paper's Figure 2 instance where Smith's greedy pays 2.0.
    #[test]
    fn optimal_on_figure_2() {
        let (t, cat) = fig2();
        let (s, c) = schedule_with_cost_impl(&t, &cat);
        assert!((c - 1.825).abs() < 1e-12, "cost {c}");
        assert_eq!(s.order(), &[0, 1, 2]);
    }

    #[test]
    fn matches_exhaustive_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..300 {
            let n_streams = rng.gen_range(1..=4);
            let m = rng.gen_range(1..=7);
            let cat = StreamCatalog::from_costs((0..n_streams).map(|_| rng.gen_range(1.0..10.0)))
                .unwrap();
            let leaves: Vec<Leaf> = (0..m)
                .map(|_| {
                    leaf(
                        rng.gen_range(0..n_streams),
                        rng.gen_range(1..=5),
                        rng.gen_range(0.0..1.0),
                    )
                })
                .collect();
            let t = AndTree::new(leaves).unwrap();
            let (_, greedy_cost) = schedule_with_cost_impl(&t, &cat);
            let (_, best_cost) = exhaustive::and_all_permutations_impl(&t, &cat);
            assert!(
                greedy_cost <= best_cost + 1e-9,
                "trial {trial}: greedy {greedy_cost} > exhaustive {best_cost}"
            );
        }
    }

    #[test]
    fn equals_smith_on_read_once_trees() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..100 {
            let m = rng.gen_range(1..=8);
            let cat = StreamCatalog::from_costs((0..m).map(|_| rng.gen_range(1.0..10.0))).unwrap();
            let leaves: Vec<Leaf> = (0..m)
                .map(|s| leaf(s, rng.gen_range(1..=5), rng.gen_range(0.0..0.999)))
                .collect();
            let t = AndTree::new(leaves).unwrap();
            let a = and_eval::expected_cost(&t, &cat, &schedule_impl(&t, &cat));
            let b = and_eval::expected_cost(&t, &cat, &smith::schedule_impl(&t, &cat));
            assert!((a - b).abs() < 1e-9, "greedy {a} vs smith {b}");
        }
    }

    #[test]
    fn same_stream_leaves_in_increasing_item_order() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let m = rng.gen_range(2..=10);
            let cat = StreamCatalog::from_costs([3.0, 1.0]).unwrap();
            let leaves: Vec<Leaf> = (0..m)
                .map(|_| {
                    leaf(
                        rng.gen_range(0..2),
                        rng.gen_range(1..=5),
                        rng.gen_range(0.0..1.0),
                    )
                })
                .collect();
            let t = AndTree::new(leaves).unwrap();
            let s = schedule_impl(&t, &cat);
            let mut max_d = [0u32; 2];
            for &j in s.order() {
                let l = t.leaf(j);
                assert!(
                    l.items >= max_d[l.stream.0],
                    "Proposition 1 violated by schedule {s}"
                );
                max_d[l.stream.0] = l.items;
            }
        }
    }

    #[test]
    fn all_certain_leaves_still_produce_valid_schedule() {
        let t = AndTree::new(vec![leaf(0, 2, 1.0), leaf(1, 1, 1.0), leaf(0, 3, 1.0)]).unwrap();
        let cat = StreamCatalog::unit(2);
        let s = schedule_impl(&t, &cat);
        assert_eq!(s.len(), 3);
        // any order costs the same; cost = 3*c(A) + 1*c(B) = 4
        assert!((and_eval::expected_cost(&t, &cat, &s) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn free_chains_are_scheduled_immediately() {
        // Leaf 1 needs 2 items of A; leaf 0 needs 1 item. After the chain
        // containing leaf 1 is scheduled, leaf 0 is free and must follow
        // right away (ratio 0).
        let t = AndTree::new(vec![leaf(0, 1, 0.9), leaf(0, 2, 0.1), leaf(1, 5, 0.5)]).unwrap();
        let cat = StreamCatalog::unit(2);
        let s = schedule_impl(&t, &cat);
        // stream A chain {l0} ratio: 1/(1-.9)=10; chain {l0,l1} ratio:
        // (1+0.9)/(1-0.09) ~ 2.088; stream B ratio: 5/(1-.5)=10.
        // So A-chain l0,l1 goes first, then B.
        assert_eq!(s.order(), &[0, 1, 2]);
    }
}
