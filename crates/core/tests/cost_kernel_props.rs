//! Property tests pinning the compiled cost kernel and the incremental
//! push/pop state to the literal Proposition 2 transcription.
//!
//! The literal evaluator in `cost::dnf_eval` is the fidelity reference
//! (it is itself validated against assignment enumeration); everything
//! fast must agree with it to ≤ 1e-9 *relative* error on randomized
//! trees, catalogs, schedules and coverage vectors:
//!
//! * `CostModel::expected_cost` / `expected_cost_with_coverage` and the
//!   per-stream item decomposition (a reset plus a push loop);
//! * `CostModel::push` / `pop` totals after arbitrary push/pop
//!   interleavings (the branch-and-bound search state), whose pushed
//!   state must equal a fresh push-only walk bitwise.

use paotr_core::cost::dnf_eval;
use paotr_core::cost::model::{CostModel, EvalScratch};
use paotr_core::leaf::{Leaf, LeafRef};
use paotr_core::prob::Prob;
use paotr_core::schedule::DnfSchedule;
use paotr_core::stream::{StreamCatalog, StreamId};
use paotr_core::tree::DnfTree;
use proptest::prelude::*;
use rand::prelude::*;

const STREAMS: usize = 5;

/// Relative agreement: |a - b| <= tol * max(1, |a|, |b|).
fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// Strategy: a random DNF tree of 1..=4 terms with 1..=4 leaves each.
fn dnf_tree() -> impl Strategy<Value = DnfTree> {
    prop::collection::vec(
        prop::collection::vec((0..STREAMS, 1u32..=5, 0.02f64..0.98), 1..=4),
        1..=4,
    )
    .prop_map(|terms| {
        DnfTree::from_leaves(
            terms
                .into_iter()
                .map(|t| {
                    t.into_iter()
                        .map(|(s, d, p)| Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap())
                        .collect()
                })
                .collect(),
        )
        .expect("non-empty terms")
    })
}

fn catalog() -> impl Strategy<Value = StreamCatalog> {
    prop::collection::vec(0.0f64..9.0, STREAMS..=STREAMS)
        .prop_map(|costs| StreamCatalog::from_costs(costs).expect("valid costs"))
}

fn coverage() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..4.0, STREAMS..=STREAMS)
}

/// A seed-derived random permutation of the tree's leaves.
fn shuffled_schedule(tree: &DnfTree, seed: u64) -> DnfSchedule {
    let mut refs: Vec<LeafRef> = tree.leaf_refs().collect();
    refs.shuffle(&mut StdRng::seed_from_u64(seed));
    DnfSchedule::new(refs, tree).expect("permutation of the leaves")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The evaluator reproduces the literal `expected_cost` on random
    /// trees, catalogs and schedules.
    #[test]
    fn kernel_matches_literal_expected_cost(
        tree in dnf_tree(),
        cat in catalog(),
        seed in any::<u64>(),
    ) {
        let schedule = shuffled_schedule(&tree, seed);
        let literal = dnf_eval::expected_cost(&tree, &cat, &schedule);
        let model = CostModel::new(&tree, &cat);
        let mut scratch = model.make_scratch();
        // twice through the same scratch: reuse must not corrupt state
        let first = model.expected_cost(&schedule, &mut scratch);
        let second = model.expected_cost(&schedule, &mut scratch);
        prop_assert!(close(literal, first, 1e-9), "literal {literal} vs kernel {first}");
        prop_assert_eq!(first, second, "scratch reuse changed the result");
    }

    /// The evaluator's coverage pricing and per-stream item
    /// decomposition match `expected_items_with_coverage` entry by
    /// entry.
    #[test]
    fn kernel_matches_literal_under_coverage(
        tree in dnf_tree(),
        cat in catalog(),
        cov in coverage(),
        seed in any::<u64>(),
    ) {
        let schedule = shuffled_schedule(&tree, seed);
        let literal = dnf_eval::expected_items_with_coverage(&tree, &cat, &schedule, &cov);
        let model = CostModel::new(&tree, &cat);
        let mut scratch = model.make_scratch();
        let cost = model.expected_cost_with_coverage(schedule.order(), &cov, &mut scratch);
        let items = model.items_vec(&scratch);
        for (k, (a, b)) in literal.iter().zip(&items).enumerate() {
            prop_assert!(close(*a, *b, 1e-9), "stream {k}: literal {a} vs kernel {b}");
        }
        let dot: f64 = literal
            .iter()
            .enumerate()
            .map(|(k, i)| i * cat.cost(StreamId(k)))
            .sum();
        prop_assert!(close(dot, cost, 1e-9), "literal dot {dot} vs kernel cost {cost}");
    }

    /// Push/pop interleavings leave the incremental state in exactly
    /// the state a fresh push-only walk produces — after every pop, its
    /// total and per-stream items equal a fresh walk of the remaining
    /// prefix bitwise — and its total matches the literal evaluator.
    #[test]
    fn incremental_push_pop_matches_literal(
        tree in dnf_tree(),
        cat in catalog(),
        seed in any::<u64>(),
    ) {
        let schedule = shuffled_schedule(&tree, seed);
        let literal = dnf_eval::expected_cost(&tree, &cat, &schedule);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let model = CostModel::new(&tree, &cat);
        let mut eval = EvalScratch::new();
        let mut fresh = EvalScratch::new();
        model.freeze_prefix(&[], &mut eval);
        for (at, &r) in schedule.order().iter().enumerate() {
            model.push(r, &mut eval);
            // Random detours: back out up to the whole prefix, then
            // replay it; the state must be restored bitwise.
            if rng.gen_bool(0.4) {
                let depth = rng.gen_range(1..=eval.pushed_len());
                let mut undone = Vec::with_capacity(depth);
                for back in 1..=depth {
                    undone.push(model.pop(&mut eval));
                    let kept = &schedule.order()[..at + 1 - back];
                    let walked = model.freeze_prefix(kept, &mut fresh);
                    prop_assert_eq!(eval.pushed_cost().to_bits(), walked.to_bits());
                    prop_assert_eq!(
                        model.items_vec(&eval).iter().map(|i| i.to_bits()).collect::<Vec<_>>(),
                        model.items_vec(&fresh).iter().map(|i| i.to_bits()).collect::<Vec<_>>(),
                        "items after popping back to {} leaves",
                        kept.len()
                    );
                }
                for &u in undone.iter().rev() {
                    model.push(u, &mut eval);
                }
            }
        }
        prop_assert!(
            close(literal, eval.pushed_cost(), 1e-9),
            "literal {literal} vs incremental {}",
            eval.pushed_cost()
        );
        // and pricing the schedule afresh reproduces the walked state
        let mut scratch = EvalScratch::new();
        let priced = model.expected_cost(&schedule, &mut scratch);
        prop_assert_eq!(priced.to_bits(), eval.pushed_cost().to_bits());
    }
}

/// A 100-term DNF — past the 64-term limit the incremental evaluator
/// once had — plans with `read-once-dnf` and every heuristic, and each
/// plan's stamped cost reproduces under the literal evaluator.
#[test]
fn hundred_term_plans_are_priced_like_the_literal_evaluator() {
    use paotr_core::algo::heuristics::all_variants;
    use paotr_core::plan::{PlanBody, PlannerRegistry, QueryRef};

    let mut rng = StdRng::seed_from_u64(100);
    let terms: Vec<Vec<Leaf>> = (0..100)
        .map(|_| {
            (0..rng.gen_range(1..=3))
                .map(|_| {
                    Leaf::new(
                        StreamId(rng.gen_range(0..STREAMS)),
                        rng.gen_range(1..=5),
                        Prob::new(rng.gen_range(0.02..0.98)).unwrap(),
                    )
                    .unwrap()
                })
                .collect()
        })
        .collect();
    let tree = DnfTree::from_leaves(terms).unwrap();
    let cat = StreamCatalog::from_costs((0..STREAMS).map(|k| 1.0 + k as f64)).unwrap();
    let registry = PlannerRegistry::with_defaults();
    let query = QueryRef::from(&tree);
    let names = std::iter::once("read-once-dnf")
        .chain(all_variants().iter().map(|h| h.id()))
        .collect::<Vec<_>>();
    assert_eq!(names.len(), 14);
    for name in names {
        let plan = registry.get(name).unwrap().plan(&query, &cat).unwrap();
        let PlanBody::Dnf(schedule) = &plan.body else {
            panic!("{name}: DNF planners return DNF schedules");
        };
        let stamped = plan.expected_cost.unwrap();
        let literal = dnf_eval::expected_cost(&tree, &cat, schedule);
        assert!(
            close(stamped, literal, 1e-9),
            "{name}: stamped {stamped} vs literal {literal}"
        );
    }
}
