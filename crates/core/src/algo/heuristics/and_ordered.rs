//! AND-ordered heuristics (Section IV-D) — the winning family.
//!
//! These heuristics build **depth-first** schedules (there is always an
//! optimal one, by Theorem 2): every AND node's leaves are ordered by
//! Algorithm 1 (optimal for the AND node in isolation), and the AND nodes
//! themselves are ordered by a metric over `(C_i, p_i)`:
//!
//! * `C_i` — the AND node's expected evaluation cost;
//! * `p_i` — its success probability.
//!
//! The **static** variants compute `C_i` once, for each AND node in
//! isolation. The **dynamic** variants recompute the *incremental* cost of
//! each candidate AND node given everything scheduled before it — data
//! items already (probabilistically) in memory make a candidate cheaper.
//! The paper finds "AND-ordered, increasing C/p, dynamic" to be the best
//! heuristic overall.
//!
//! Every cost evaluation here runs on the compiled, allocation-free
//! [`CostModel`] kernel: term summaries come from the per-term helpers
//! (no per-term `AndTree` cost passes over catalog-wide buffers), and the
//! dynamic selection loop prices each candidate term against the pushed
//! prefix with one `CostModel::frozen_append_cost` call, then pushes
//! the winner.

use crate::cost::model::{CostModel, EvalScratch};
use crate::leaf::LeafRef;
use crate::schedule::DnfSchedule;
use crate::stream::StreamCatalog;
use crate::tree::DnfTree;

/// AND-node ordering metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AndKey {
    /// Decreasing success probability `p` (maximize the chance of
    /// resolving the OR early). Static only in the paper.
    DecreasingP,
    /// Increasing expected cost `C`.
    IncreasingC,
    /// Increasing `C / p` — the OR-dual of Smith's ratio; exact for
    /// read-once DNF trees.
    IncreasingCOverP,
}

/// Static/dynamic cost computation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostMode {
    /// Each AND node costed in isolation.
    Static,
    /// Each AND node costed incrementally after the already-chosen prefix.
    Dynamic,
}

/// Ratio with the OR-side conventions: impossible AND nodes (`p = 0`) go
/// last unless free; free AND nodes go first.
fn ratio(cost: f64, p: f64) -> f64 {
    if p <= 0.0 {
        if cost <= 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        cost / p
    }
}

/// Per-term summary used by both modes.
struct TermPlan {
    /// Leaves of the term in Algorithm-1 order.
    refs: Vec<LeafRef>,
    /// Expected cost of the term in isolation.
    static_cost: f64,
    /// Success probability of the term.
    prob: f64,
}

fn plan_terms(
    tree: &DnfTree,
    catalog: &StreamCatalog,
    model: &CostModel,
    scratch: &mut EvalScratch,
) -> Vec<TermPlan> {
    tree.terms()
        .iter()
        .enumerate()
        .map(|(i, term)| {
            // Algorithm 1 fixes the within-term order; the summary cost
            // and success probability come from the compiled kernel.
            let at = term.as_and_tree();
            let s = crate::algo::greedy::schedule_impl(&at, catalog);
            let static_cost = model.term_isolated_cost(i, s.order(), scratch);
            let prob = model.term_success_prob(i);
            let refs = s.order().iter().map(|&j| LeafRef::new(i, j)).collect();
            TermPlan {
                refs,
                static_cost,
                prob,
            }
        })
        .collect()
}

/// Builds the depth-first schedule for the given metric and mode.
pub fn schedule(
    tree: &DnfTree,
    catalog: &StreamCatalog,
    key: AndKey,
    mode: CostMode,
) -> DnfSchedule {
    let model = CostModel::new(tree, catalog);
    let mut scratch = model.make_scratch();
    let plans = plan_terms(tree, catalog, &model, &mut scratch);
    match mode {
        CostMode::Static => {
            let mut idx: Vec<usize> = (0..plans.len()).collect();
            idx.sort_by(|&a, &b| {
                let ka = static_key(&plans[a], key);
                let kb = static_key(&plans[b], key);
                ka.total_cmp(&kb).then(a.cmp(&b))
            });
            let order: Vec<LeafRef> = idx
                .into_iter()
                .flat_map(|i| plans[i].refs.iter().copied())
                .collect();
            DnfSchedule::from_order_unchecked(order)
        }
        CostMode::Dynamic => dynamic_schedule(tree, key, &plans, &model, &mut scratch),
    }
}

fn static_key(plan: &TermPlan, key: AndKey) -> f64 {
    match key {
        AndKey::DecreasingP => -plan.prob,
        AndKey::IncreasingC => plan.static_cost,
        AndKey::IncreasingCOverP => ratio(plan.static_cost, plan.prob),
    }
}

fn dynamic_schedule(
    tree: &DnfTree,
    key: AndKey,
    plans: &[TermPlan],
    model: &CostModel,
    scratch: &mut EvalScratch,
) -> DnfSchedule {
    let n = plans.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(tree.num_leaves());

    // Price every candidate term against the pushed prefix in O(term)
    // and push the winner each round — no prefix re-evaluation anywhere
    // in the loop.
    model.freeze_prefix(&[], scratch);
    while !remaining.is_empty() {
        let mut best: Option<(f64, usize, usize)> = None; // (key, pos in remaining, term)
        for (pos, &i) in remaining.iter().enumerate() {
            let delta = model.frozen_append_cost(&plans[i].refs, scratch);
            let k = match key {
                AndKey::DecreasingP => -plans[i].prob,
                AndKey::IncreasingC => delta,
                AndKey::IncreasingCOverP => ratio(delta, plans[i].prob),
            };
            let better = match best {
                None => true,
                Some((bk, _, bi)) => match k.total_cmp(&bk) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => i < bi,
                    std::cmp::Ordering::Greater => false,
                },
            };
            if better {
                best = Some((k, pos, i));
            }
        }
        let (_, pos, i) = best.expect("remaining is non-empty");
        remaining.swap_remove(pos);
        for &r in &plans[i].refs {
            model.push(r, scratch);
        }
        order.extend(plans[i].refs.iter().copied());
    }
    DnfSchedule::from_order_unchecked(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::dnf_eval;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;
    use rand::prelude::*;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn shared_tree() -> (DnfTree, StreamCatalog) {
        (
            DnfTree::from_leaves(vec![
                vec![leaf(0, 3, 0.4), leaf(1, 1, 0.7)],
                vec![leaf(0, 5, 0.6), leaf(1, 2, 0.2)],
                vec![leaf(2, 1, 0.9)],
            ])
            .unwrap(),
            StreamCatalog::from_costs([2.0, 3.0, 0.5]).unwrap(),
        )
    }

    #[test]
    fn all_variants_produce_valid_depth_first_schedules() {
        let (t, cat) = shared_tree();
        for key in [
            AndKey::DecreasingP,
            AndKey::IncreasingC,
            AndKey::IncreasingCOverP,
        ] {
            for mode in [CostMode::Static, CostMode::Dynamic] {
                let s = schedule(&t, &cat, key, mode);
                assert!(DnfSchedule::new(s.order().to_vec(), &t).is_ok());
                assert!(s.is_depth_first(&t), "{key:?} {mode:?}");
            }
        }
    }

    #[test]
    fn leaves_within_terms_follow_algorithm_1() {
        let (t, cat) = shared_tree();
        let s = schedule(&t, &cat, AndKey::IncreasingCOverP, CostMode::Static);
        // Within each term, leaves must appear in Algorithm-1 order.
        for (i, term) in t.terms().iter().enumerate() {
            let at = term.as_and_tree();
            let alg1 = crate::algo::greedy::schedule_impl(&at, &cat);
            let seen: Vec<usize> = s
                .order()
                .iter()
                .filter(|r| r.term == i)
                .map(|r| r.leaf)
                .collect();
            assert_eq!(seen, alg1.order());
        }
    }

    #[test]
    fn dynamic_exploits_already_acquired_items() {
        // Term 0 pulls 5 items of stream A. Term 1 needs 4 items of A
        // (subset: free after term 0); term 2 needs fresh stream B with the
        // same isolated cost as term 1. Dynamic must schedule term 1 before
        // term 2 once term 0 is placed; static cannot tell them apart.
        let t = DnfTree::from_leaves(vec![
            vec![leaf(0, 5, 0.05)],
            vec![leaf(0, 4, 0.5)],
            vec![leaf(1, 4, 0.5)],
        ])
        .unwrap();
        let cat = StreamCatalog::unit(2);
        let s = schedule(&t, &cat, AndKey::IncreasingC, CostMode::Dynamic);
        let pos_of = |term: usize| s.order().iter().position(|r| r.term == term).unwrap();
        // Term 1 (cheap after sharing) must come before term 2.
        assert!(pos_of(1) < pos_of(2), "schedule {s}");
    }

    #[test]
    fn dynamic_never_worse_than_static_on_average() {
        // Not a theorem, but over a batch of random shared instances the
        // dynamic variant should win or tie in total cost (the paper
        // observes "marginally better").
        let mut rng = StdRng::seed_from_u64(31);
        let mut stat_total = 0.0;
        let mut dyn_total = 0.0;
        for _ in 0..50 {
            let n_streams = rng.gen_range(1..=3);
            let cat = StreamCatalog::from_costs((0..n_streams).map(|_| rng.gen_range(1.0..10.0)))
                .unwrap();
            let n_terms = rng.gen_range(2..=4);
            let terms: Vec<Vec<Leaf>> = (0..n_terms)
                .map(|_| {
                    (0..rng.gen_range(1..=3))
                        .map(|_| {
                            leaf(
                                rng.gen_range(0..n_streams),
                                rng.gen_range(1..=5),
                                rng.gen_range(0.0..1.0),
                            )
                        })
                        .collect()
                })
                .collect();
            let t = DnfTree::from_leaves(terms).unwrap();
            let ss = schedule(&t, &cat, AndKey::IncreasingCOverP, CostMode::Static);
            let sd = schedule(&t, &cat, AndKey::IncreasingCOverP, CostMode::Dynamic);
            stat_total += dnf_eval::expected_cost(&t, &cat, &ss);
            dyn_total += dnf_eval::expected_cost(&t, &cat, &sd);
        }
        assert!(
            dyn_total <= stat_total * 1.02,
            "dynamic {dyn_total} much worse than static {stat_total}"
        );
    }

    #[test]
    fn decreasing_p_orders_by_success_probability() {
        let t = DnfTree::from_leaves(vec![
            vec![leaf(0, 1, 0.2)],
            vec![leaf(1, 1, 0.9)],
            vec![leaf(2, 1, 0.5)],
        ])
        .unwrap();
        let cat = StreamCatalog::unit(3);
        let s = schedule(&t, &cat, AndKey::DecreasingP, CostMode::Static);
        let terms: Vec<usize> = s.order().iter().map(|r| r.term).collect();
        assert_eq!(terms, vec![1, 2, 0]);
    }
}
