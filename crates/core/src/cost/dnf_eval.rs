//! Expected cost of DNF schedules — Proposition 2 of the paper.
//!
//! In the shared model the memory content a leaf observes is *random*: it
//! depends on which earlier leaves were actually evaluated. Section IV-A
//! derives the expected cost of acquiring the `t`-th item of stream `S_k`
//! at leaf `l_{i,j}` as a product of three probabilities:
//!
//! 1. no earlier leaf that is "first of its AND node to require item
//!    `(k,t)`" (the set `L_{k,t}`) has been evaluated — otherwise the item
//!    is already in memory;
//! 2. no AND node that completed earlier evaluated to TRUE — otherwise the
//!    query is already resolved (AND nodes with a leaf in `L_{k,t}` are
//!    excluded: factor 1 already conditions on that leaf not having been
//!    evaluated, which implies those AND nodes are FALSE);
//! 3. every leaf before `l_{i,j}` inside its own AND node evaluated to
//!    TRUE — otherwise `l_{i,j}` is short-circuited.
//!
//! This module is a *literal transcription* of that formula, using
//! explicitly materialized `L_{k,t}` sets; it favours fidelity to the paper
//! over speed, and is kept as the oracle: tests, examples and the plan
//! verifier's independent re-pricing use it. Production code prices
//! schedules with [`crate::cost::CostModel`] (the compiled kernel and its
//! incremental [`push`](crate::cost::CostModel::push) state); tests assert
//! the two agree to machine precision, and both agree with assignment
//! enumeration.

use crate::leaf::LeafRef;
use crate::schedule::DnfSchedule;
use crate::stream::StreamCatalog;
use crate::tree::DnfTree;

/// One member of a set `L_{k,t}`: the first leaf of AND node `term` (in
/// schedule order) that requires the `t`-th item of stream `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Member {
    term: usize,
    pos: usize,
    /// Probability the leaf is reached within its AND node:
    /// `prod` of `p` over same-term leaves scheduled before it.
    eval_prob: f64,
}

/// Expected cost of `schedule` on `tree` — Proposition 2, literal form.
pub fn expected_cost(tree: &DnfTree, catalog: &StreamCatalog, schedule: &DnfSchedule) -> f64 {
    expected_items_per_stream(tree, catalog, schedule)
        .iter()
        .enumerate()
        .map(|(k, items)| items * catalog.cost(crate::stream::StreamId(k)))
        .sum()
}

/// Expected number of items pulled from each stream by `schedule` —
/// the cost-free decomposition of Proposition 2 (`expected_cost` is the
/// dot product of this vector with the per-item costs). The multi-query
/// subsystem uses it to quantify how much of a stream's traffic each
/// query accounts for.
pub(crate) fn expected_items_per_stream(
    tree: &DnfTree,
    catalog: &StreamCatalog,
    schedule: &DnfSchedule,
) -> Vec<f64> {
    expected_items_with_coverage(tree, catalog, schedule, &vec![0.0; catalog.len()])
}

/// `expected_items_per_stream` under *prior coverage*: `coverage[k]`
/// is the expected number of leading (most recent) items of stream `k`
/// already resident in device memory before this query starts — e.g.
/// pulled by queries evaluated earlier in the same tick. Item `t` of a
/// stream then only costs its marginal uncovered fraction
/// `clamp(t - coverage[k], 0, 1)`; zero coverage reduces exactly to
/// Proposition 2. Fractional coverage is the expected-state
/// approximation the joint workload planners optimize against.
///
/// # Panics
/// Panics when `coverage.len() != catalog.len()`.
pub fn expected_items_with_coverage(
    tree: &DnfTree,
    catalog: &StreamCatalog,
    schedule: &DnfSchedule,
    coverage: &[f64],
) -> Vec<f64> {
    assert_eq!(
        coverage.len(),
        catalog.len(),
        "one coverage entry per stream"
    );
    let order = schedule.order();
    let n_terms = tree.num_terms();
    let n_streams = catalog.len();
    let max_d = tree.max_items() as usize;

    // Position of each leaf in the schedule.
    let mut pos = vec![vec![0usize; 0]; n_terms];
    for (i, t) in tree.terms().iter().enumerate() {
        pos[i] = vec![usize::MAX; t.len()];
    }
    for (p, &r) in order.iter().enumerate() {
        pos[r.term][r.leaf] = p;
    }

    // eval_prob[r] = prod of p over same-term leaves scheduled before r.
    let mut eval_prob = vec![vec![1.0f64; 0]; n_terms];
    for (i, t) in tree.terms().iter().enumerate() {
        eval_prob[i] = vec![1.0; t.len()];
    }
    {
        let mut running = vec![1.0f64; n_terms];
        for &r in order {
            eval_prob[r.term][r.leaf] = running[r.term];
            running[r.term] *= tree.leaf(r).prob.value();
        }
    }

    // Position after which each AND node is fully scheduled, and its
    // success probability (product of all its leaf probabilities).
    let completed_pos: Vec<usize> = (0..n_terms)
        .map(|i| pos[i].iter().copied().max().expect("terms are non-empty"))
        .collect();
    let term_success: Vec<f64> = tree
        .terms()
        .iter()
        .map(|t| t.success_prob().value())
        .collect();

    // Materialize L_{k,t}: members[k][t-1] = the first leaf of each AND
    // node (in schedule order) requiring the t-th item of stream k.
    let mut members: Vec<Vec<Vec<Member>>> = vec![vec![Vec::new(); max_d]; n_streams];
    for (i, term) in tree.terms().iter().enumerate() {
        // leaves of term i grouped by stream, in schedule order
        let mut by_stream: Vec<Vec<LeafRef>> = vec![Vec::new(); n_streams];
        let mut refs: Vec<LeafRef> = (0..term.len()).map(|j| LeafRef::new(i, j)).collect();
        refs.sort_by_key(|r| pos[r.term][r.leaf]);
        for r in refs {
            by_stream[tree.leaf(r).stream.0].push(r);
        }
        for (k, leaves) in by_stream.iter().enumerate() {
            let mut covered = 0u32;
            for &r in leaves {
                let d = tree.leaf(r).items;
                for t in (covered + 1)..=d.max(covered) {
                    members[k][(t - 1) as usize].push(Member {
                        term: i,
                        pos: pos[r.term][r.leaf],
                        eval_prob: eval_prob[r.term][r.leaf],
                    });
                }
                covered = covered.max(d);
            }
        }
    }

    // Sum C_{i,j,t} over all leaves and items, per stream.
    let mut items_out = vec![0.0f64; n_streams];
    for &r in order {
        let leaf = tree.leaf(r);
        let k = leaf.stream.0;
        let my_pos = pos[r.term][r.leaf];
        let f3 = eval_prob[r.term][r.leaf];
        for t in 1..=leaf.items {
            // Fraction of item t not already covered by prior memory.
            let need = (f64::from(t) - coverage[k]).clamp(0.0, 1.0);
            if need == 0.0 {
                continue;
            }
            let set = &members[k][(t - 1) as usize];
            // First case of Proposition 2: a same-term leaf in L_{k,t}
            // precedes l_{i,j} -> the item is free (either already in
            // memory, or l_{i,j} is short-circuited).
            let same_term_earlier = set.iter().any(|m| m.term == r.term && m.pos < my_pos);
            if same_term_earlier {
                continue;
            }
            // Factor 1: none of the earlier L_{k,t} members was evaluated.
            let f1: f64 = set
                .iter()
                .filter(|m| m.pos < my_pos)
                .map(|m| 1.0 - m.eval_prob)
                .product();
            // Factor 2: no fully-evaluated AND node (without a leaf in
            // L_{k,t}) evaluated to TRUE.
            let f2: f64 = (0..tree.num_terms())
                .filter(|&a| completed_pos[a] < my_pos)
                .filter(|&a| !set.iter().any(|m| m.term == a))
                .map(|a| 1.0 - term_success[a])
                .product();
            items_out[k] += f1 * f2 * f3 * need;
        }
    }
    items_out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::assignment;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn fig3(p: [f64; 7]) -> (DnfTree, StreamCatalog) {
        (
            DnfTree::from_leaves(vec![
                vec![leaf(0, 1, p[0]), leaf(2, 1, p[2]), leaf(3, 1, p[3])],
                vec![leaf(1, 1, p[1]), leaf(2, 1, p[4])],
                vec![leaf(1, 1, p[5]), leaf(3, 1, p[6])],
            ])
            .unwrap(),
            StreamCatalog::unit(4),
        )
    }

    fn fig3_schedule(tree: &DnfTree) -> DnfSchedule {
        DnfSchedule::new(
            vec![
                LeafRef::new(0, 0),
                LeafRef::new(1, 0),
                LeafRef::new(0, 1),
                LeafRef::new(0, 2),
                LeafRef::new(1, 1),
                LeafRef::new(2, 0),
                LeafRef::new(2, 1),
            ],
            tree,
        )
        .unwrap()
    }

    #[test]
    fn reproduces_section_ii_b_closed_form() {
        let p = [0.3, 0.6, 0.8, 0.25, 0.9, 0.4, 0.7];
        let (t, cat) = fig3(p);
        let s = fig3_schedule(&t);
        let (p1, p2, p3, _p4, p5, p6, _p7) = (p[0], p[1], p[2], p[3], p[4], p[5], p[6]);
        let expect =
            1.0 + 1.0 + (p1 + (1.0 - p1) * p2) + (p1 * p3 + (1.0 - p1 * p3) * (1.0 - p2 * p5) * p6);
        let got = expected_cost(&t, &cat, &s);
        assert!((got - expect).abs() < 1e-12, "got {got} expected {expect}");
    }

    #[test]
    fn agrees_with_enumeration_on_uniform_probabilities() {
        let (t, cat) = fig3([0.5; 7]);
        let s = fig3_schedule(&t);
        let analytic = expected_cost(&t, &cat, &s);
        let exact = assignment::dnf_expected_cost(&t, &cat, &s);
        assert!((analytic - exact).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_enumeration_on_multi_item_leaves() {
        // Shared stream with different item counts across AND nodes.
        let t = DnfTree::from_leaves(vec![
            vec![leaf(0, 3, 0.4), leaf(1, 1, 0.7)],
            vec![leaf(0, 5, 0.6), leaf(1, 2, 0.2)],
            vec![leaf(0, 2, 0.9)],
        ])
        .unwrap();
        let cat = StreamCatalog::from_costs([2.0, 3.0]).unwrap();
        let s = DnfSchedule::declaration_order(&t);
        let analytic = expected_cost(&t, &cat, &s);
        let exact = assignment::dnf_expected_cost(&t, &cat, &s);
        assert!((analytic - exact).abs() < 1e-10, "{analytic} vs {exact}");
    }

    #[test]
    fn interleaved_non_depth_first_schedule_is_supported() {
        let (t, cat) = fig3([0.2, 0.9, 0.5, 0.5, 0.1, 0.8, 0.3]);
        // interleave terms deliberately
        let s = DnfSchedule::new(
            vec![
                LeafRef::new(2, 1),
                LeafRef::new(0, 2),
                LeafRef::new(1, 0),
                LeafRef::new(0, 0),
                LeafRef::new(2, 0),
                LeafRef::new(1, 1),
                LeafRef::new(0, 1),
            ],
            &t,
        )
        .unwrap();
        let analytic = expected_cost(&t, &cat, &s);
        let exact = assignment::dnf_expected_cost(&t, &cat, &s);
        assert!((analytic - exact).abs() < 1e-10, "{analytic} vs {exact}");
    }

    #[test]
    fn fast_path_matches_literal_path() {
        let (t, cat) = fig3([0.15, 0.35, 0.55, 0.75, 0.95, 0.25, 0.45]);
        let s = fig3_schedule(&t);
        let a = expected_cost(&t, &cat, &s);
        let model = crate::cost::CostModel::new(&t, &cat);
        let b = model.freeze_prefix(s.order(), &mut model.make_scratch());
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn per_stream_items_decompose_the_expected_cost() {
        let t = DnfTree::from_leaves(vec![
            vec![leaf(0, 3, 0.4), leaf(1, 1, 0.7)],
            vec![leaf(0, 5, 0.6), leaf(1, 2, 0.2)],
            vec![leaf(0, 2, 0.9)],
        ])
        .unwrap();
        let cat = StreamCatalog::from_costs([2.0, 3.0]).unwrap();
        let s = DnfSchedule::declaration_order(&t);
        let items = expected_items_per_stream(&t, &cat, &s);
        assert_eq!(items.len(), 2);
        let dot = items[0] * 2.0 + items[1] * 3.0;
        let direct = expected_cost(&t, &cat, &s);
        assert!((dot - direct).abs() < 1e-12, "{dot} vs {direct}");
        // every stream sees at least one guaranteed first pull
        assert!(items.iter().all(|&i| i > 0.0));
    }

    #[test]
    fn coverage_discounts_monotonically_down_to_zero() {
        let (t, cat) = fig3([0.3, 0.6, 0.8, 0.25, 0.9, 0.4, 0.7]);
        let s = fig3_schedule(&t);
        let base = expected_items_with_coverage(&t, &cat, &s, &[0.0; 4]);
        let partial = expected_items_with_coverage(&t, &cat, &s, &[0.5, 0.0, 1.0, 0.25]);
        let full = expected_items_with_coverage(&t, &cat, &s, &[9.0; 4]);
        for k in 0..4 {
            assert!(partial[k] <= base[k] + 1e-12, "stream {k}");
            assert!(
                full[k].abs() < 1e-12,
                "full coverage leaves nothing to pull"
            );
        }
        // stream 2 fully covered (window 1, coverage 1): nothing missing
        assert!(partial[2].abs() < 1e-12);
        // half-covered single-item stream pays half an item in expectation
        assert!((partial[0] - base[0] * 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_term_dnf_matches_and_tree_evaluator() {
        let at =
            crate::tree::AndTree::new(vec![leaf(0, 1, 0.75), leaf(0, 2, 0.1), leaf(1, 1, 0.5)])
                .unwrap();
        let cat = StreamCatalog::unit(2);
        let dnf = DnfTree::from_and_tree(&at);
        let ds = DnfSchedule::declaration_order(&dnf);
        let as_ = crate::schedule::AndSchedule::identity(3);
        let a = expected_cost(&dnf, &cat, &ds);
        let b = crate::cost::and_eval::expected_cost(&at, &cat, &as_);
        assert!((a - b).abs() < 1e-12);
    }
}
