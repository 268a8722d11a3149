//! Optimal scheduling of *read-once* DNF trees (Greiner et al., reference
//! [6] of the paper).
//!
//! When every stream occurs at a single leaf, the optimal DNF schedule is
//! depth-first: order the leaves inside each AND node with Smith's greedy,
//! collapse each AND node into a macro-leaf with expected cost `C_i` and
//! success probability `p_i`, and order the AND nodes by non-decreasing
//! `C_i / p_i` (the OR-dual of Smith's rule). The shared case breaks this
//! — Section IV-C shows it is NP-complete — but this algorithm remains the
//! natural baseline and is exactly the "AND-ordered, increasing C/p,
//! static" heuristic when sharing happens to be absent.

use crate::cost::model::CostModel;
use crate::leaf::LeafRef;
use crate::schedule::DnfSchedule;
use crate::stream::StreamCatalog;
use crate::tree::DnfTree;

/// Ratio used to order AND nodes: `C / p`, with the convention that an AND
/// node that can never succeed (`p = 0`) goes last unless it is free.
pub fn or_ratio(cost: f64, success: f64) -> f64 {
    if success <= 0.0 {
        if cost == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        cost / success
    }
}

/// Optimal schedule for a read-once DNF tree, with its expected cost
/// priced on the same compiled model. The function does not check the
/// read-once property; on shared trees it degrades into a (reasonable)
/// heuristic — the paper's static AND-ordered family refines it.
/// Crate-internal workhorse behind
/// [`ReadOnceDnfPlanner`](crate::plan::planners::ReadOnceDnfPlanner).
pub(crate) fn schedule_impl(tree: &DnfTree, catalog: &StreamCatalog) -> (DnfSchedule, f64) {
    // Order each AND node with Smith's greedy and summarize it — all on
    // the compiled kernel's per-term views (no per-term `AndTree`
    // construction, no catalog-wide evaluation buffers).
    let model = CostModel::new(tree, catalog);
    let mut scratch = model.make_scratch();
    let mut within = Vec::new();
    let mut summaries: Vec<(usize, Vec<LeafRef>, f64, f64)> = (0..tree.num_terms())
        .map(|i| {
            model.term_smith_order(i, &mut within);
            let cost = model.term_isolated_cost(i, &within, &mut scratch);
            let prob = model.term_success_prob(i);
            let refs: Vec<LeafRef> = within.iter().map(|&j| LeafRef::new(i, j)).collect();
            (i, refs, cost, prob)
        })
        .collect();
    // Sort AND nodes by increasing C/p (ties by term index; `total_cmp`
    // keeps degenerate 0/0 ratios from panicking the planner).
    summaries.sort_by(|a, b| {
        or_ratio(a.2, a.3)
            .total_cmp(&or_ratio(b.2, b.3))
            .then(a.0.cmp(&b.0))
    });
    let order: Vec<LeafRef> = summaries
        .into_iter()
        .flat_map(|(_, refs, _, _)| refs)
        .collect();
    let cost = model.freeze_prefix(&order, &mut scratch);
    (DnfSchedule::from_order_unchecked(order), cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::exhaustive;
    use crate::cost::dnf_eval;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;
    use rand::prelude::*;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    /// Random read-once DNF: every leaf gets a fresh stream.
    fn random_read_once(rng: &mut StdRng) -> (DnfTree, StreamCatalog) {
        let n_terms = rng.gen_range(1..=3);
        let mut terms = Vec::new();
        let mut costs = Vec::new();
        for _ in 0..n_terms {
            let m = rng.gen_range(1..=3);
            let mut t = Vec::new();
            for _ in 0..m {
                let s = costs.len();
                costs.push(rng.gen_range(1.0..10.0));
                t.push(leaf(s, rng.gen_range(1..=4), rng.gen_range(0.0..1.0)));
            }
            terms.push(t);
        }
        (
            DnfTree::from_leaves(terms).unwrap(),
            StreamCatalog::from_costs(costs).unwrap(),
        )
    }

    #[test]
    fn optimal_on_read_once_instances() {
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..80 {
            let (t, cat) = random_read_once(&mut rng);
            if t.num_leaves() > 8 {
                continue;
            }
            let (s, _) = schedule_impl(&t, &cat);
            let cost = dnf_eval::expected_cost(&t, &cat, &s);
            let (_, best) = exhaustive::dnf_all_schedules(&t, &cat);
            assert!(
                cost <= best + 1e-9,
                "trial {trial}: greiner {cost} vs exhaustive {best}"
            );
        }
    }

    #[test]
    fn produces_depth_first_schedules() {
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..20 {
            let (t, cat) = random_read_once(&mut rng);
            let (s, _) = schedule_impl(&t, &cat);
            assert!(s.is_depth_first(&t));
        }
    }

    #[test]
    fn or_ratio_edge_cases() {
        assert_eq!(or_ratio(3.0, 0.0), f64::INFINITY);
        assert_eq!(or_ratio(0.0, 0.0), 0.0);
        assert!((or_ratio(3.0, 0.5) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn prefers_cheap_likely_and_nodes() {
        // AND1: cost 10, p 0.5 (ratio 20); AND2: cost 1, p 0.9 (ratio ~1.1)
        let t = DnfTree::from_leaves(vec![vec![leaf(0, 10, 0.5)], vec![leaf(1, 1, 0.9)]]).unwrap();
        let cat = StreamCatalog::unit(2);
        let (s, _) = schedule_impl(&t, &cat);
        assert_eq!(s.order()[0].term, 1);
    }
}
