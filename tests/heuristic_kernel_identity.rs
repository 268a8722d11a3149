//! Pre/post kernel-rewrite identity of the heuristic planners.
//!
//! PR 4 rewrote the inner loops of the AND-ordered heuristics and the
//! read-once DNF planner onto the compiled `CostModel` kernel. These
//! tests pin the rewrite to the *original* implementations — rebuilt
//! here on the public pre-kernel APIs (a push/pop probe of every
//! candidate on the incremental `CostModel` state, per-term `AndTree` +
//! `and_eval`) — and
//! require **byte-identical** schedules on the exact instances the
//! committed benchmarks run (`heuristics` / `evaluators` bench configs)
//! plus a sweep of random shared instances.

use paotr::core::prelude::*;
use paotr_core::algo::heuristics::{and_ordered, AndKey, CostMode, Heuristic};
use paotr_core::algo::read_once_dnf::or_ratio;
use paotr_core::cost::{and_eval, dnf_eval, CostModel};
use paotr_core::leaf::LeafRef;
use paotr_core::plan::Engine;
use paotr_gen::{random_dnf_instance, DnfConfig, ParamDistributions, Shape};
use rand::prelude::*;

/// The same instance generator the bench suite uses (`heuristics.rs` /
/// `evaluators.rs`): seed derived from the shape, paper parameter
/// distributions, sharing ratio 2.
fn bench_instance(terms: usize, per_term: usize) -> DnfInstance {
    let mut rng = StdRng::seed_from_u64((terms * 1000 + per_term) as u64);
    random_dnf_instance(
        DnfConfig {
            terms,
            shape: Shape::PerTerm(per_term),
            rho: 2.0,
        },
        &ParamDistributions::paper(),
        &mut rng,
    )
}

/// The paper's OR-side ratio convention (copied from the pre-rewrite
/// `and_ordered`).
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

/// Per-term summaries exactly as the pre-rewrite `plan_terms` built
/// them: Algorithm-1 within-term order (via the public `greedy`
/// planner), isolated cost and success probability via `and_eval`.
fn reference_term_plans(
    tree: &DnfTree,
    catalog: &StreamCatalog,
    engine: &Engine,
    within: &str,
) -> Vec<(Vec<LeafRef>, f64, f64)> {
    tree.terms()
        .iter()
        .enumerate()
        .map(|(i, term)| {
            let at = term.as_and_tree();
            let plan = engine.plan_with(within, &at, catalog).unwrap();
            let s = plan.body.as_and().unwrap().clone();
            let (cost, prob) = and_eval::expected_cost_and_prob(&at, catalog, &s);
            let refs = s.order().iter().map(|&j| LeafRef::new(i, j)).collect();
            (refs, cost, prob)
        })
        .collect()
}

/// The pre-rewrite AND-ordered implementation: static sorts on the
/// summaries, dynamic re-evaluation by pushing every candidate term on
/// the incremental state and popping it back out.
fn reference_and_ordered(
    tree: &DnfTree,
    catalog: &StreamCatalog,
    key: AndKey,
    mode: CostMode,
) -> DnfSchedule {
    let engine = Engine::new();
    let plans = reference_term_plans(tree, catalog, &engine, "greedy");
    match mode {
        CostMode::Static => {
            let mut idx: Vec<usize> = (0..plans.len()).collect();
            idx.sort_by(|&a, &b| {
                let k = |p: &(Vec<LeafRef>, f64, f64)| match key {
                    AndKey::DecreasingP => -p.2,
                    AndKey::IncreasingC => p.1,
                    AndKey::IncreasingCOverP => ratio(p.1, p.2),
                };
                k(&plans[a])
                    .partial_cmp(&k(&plans[b]))
                    .unwrap()
                    .then(a.cmp(&b))
            });
            let order = idx
                .into_iter()
                .flat_map(|i| plans[i].0.iter().copied())
                .collect();
            DnfSchedule::from_order_unchecked(order)
        }
        CostMode::Dynamic => {
            let mut remaining: Vec<usize> = (0..plans.len()).collect();
            let model = CostModel::new(tree, catalog);
            let mut eval = model.make_scratch();
            model.freeze_prefix(&[], &mut eval);
            let mut order = Vec::with_capacity(tree.num_leaves());
            while !remaining.is_empty() {
                let mut best: Option<(f64, usize, usize)> = None;
                for (pos, &i) in remaining.iter().enumerate() {
                    let mut delta = 0.0;
                    for &r in &plans[i].0 {
                        delta += model.push(r, &mut eval);
                    }
                    for _ in &plans[i].0 {
                        model.pop(&mut eval);
                    }
                    let k = match key {
                        AndKey::DecreasingP => -plans[i].2,
                        AndKey::IncreasingC => delta,
                        AndKey::IncreasingCOverP => ratio(delta, plans[i].2),
                    };
                    let better = match best {
                        None => true,
                        Some((bk, _, bi)) => k < bk || (k == bk && i < bi),
                    };
                    if better {
                        best = Some((k, pos, i));
                    }
                }
                let (_, pos, i) = best.expect("remaining is non-empty");
                remaining.swap_remove(pos);
                for &r in &plans[i].0 {
                    model.push(r, &mut eval);
                    order.push(r);
                }
            }
            DnfSchedule::from_order_unchecked(order)
        }
    }
}

/// The pre-rewrite read-once DNF planner (Greiner): Smith within each
/// term, terms by increasing `C/p`.
type TermSummary = (Vec<LeafRef>, f64, f64);

fn reference_read_once(tree: &DnfTree, catalog: &StreamCatalog) -> DnfSchedule {
    let engine = Engine::new();
    let mut summaries: Vec<(usize, TermSummary)> =
        reference_term_plans(tree, catalog, &engine, "smith")
            .into_iter()
            .enumerate()
            .collect();
    summaries.sort_by(|a, b| {
        or_ratio(a.1 .1, a.1 .2)
            .partial_cmp(&or_ratio(b.1 .1, b.1 .2))
            .unwrap()
            .then(a.0.cmp(&b.0))
    });
    let order = summaries
        .into_iter()
        .flat_map(|(_, (refs, _, _))| refs)
        .collect();
    DnfSchedule::from_order_unchecked(order)
}

const BENCH_SHAPES: [(usize, usize); 5] = [(4, 4), (2, 5), (5, 10), (10, 20), (16, 25)];

#[test]
fn and_ordered_plans_are_byte_identical_on_the_bench_workloads() {
    for (terms, per_term) in BENCH_SHAPES {
        let inst = bench_instance(terms, per_term);
        for key in [
            AndKey::DecreasingP,
            AndKey::IncreasingC,
            AndKey::IncreasingCOverP,
        ] {
            for mode in [CostMode::Static, CostMode::Dynamic] {
                let new = and_ordered::schedule(&inst.tree, &inst.catalog, key, mode);
                let old = reference_and_ordered(&inst.tree, &inst.catalog, key, mode);
                assert_eq!(
                    new, old,
                    "{terms}x{per_term} {key:?} {mode:?}: kernel rewrite changed the plan"
                );
            }
        }
    }
}

#[test]
fn read_once_dnf_plans_are_byte_identical_on_the_bench_workloads() {
    let engine = Engine::new();
    for (terms, per_term) in BENCH_SHAPES {
        let inst = bench_instance(terms, per_term);
        let plan = engine
            .plan_with("read-once-dnf", &inst.tree, &inst.catalog)
            .unwrap();
        let new = plan.body.as_dnf().unwrap();
        let old = reference_read_once(&inst.tree, &inst.catalog);
        assert_eq!(
            new, &old,
            "{terms}x{per_term}: kernel rewrite changed the plan"
        );
    }
}

#[test]
fn dynamic_heuristics_are_byte_identical_on_random_shared_instances() {
    let mut rng = StdRng::seed_from_u64(2024);
    for trial in 0..120 {
        let n_streams = rng.gen_range(1..=4);
        let catalog =
            StreamCatalog::from_costs((0..n_streams).map(|_| rng.gen_range(0.0..8.0))).unwrap();
        let terms: Vec<Vec<Leaf>> = (0..rng.gen_range(2..=5))
            .map(|_| {
                (0..rng.gen_range(1..=4))
                    .map(|_| {
                        // include exact p = 0 / p = 1 degenerate leaves
                        let p = match rng.gen_range(0..10) {
                            0 => 0.0,
                            1 => 1.0,
                            _ => rng.gen_range(0.0..1.0),
                        };
                        Leaf::new(
                            StreamId(rng.gen_range(0..n_streams)),
                            rng.gen_range(1..=5),
                            Prob::new(p).unwrap(),
                        )
                        .unwrap()
                    })
                    .collect()
            })
            .collect();
        let tree = DnfTree::from_leaves(terms).unwrap();
        for h in [Heuristic::AndIncCDynamic, Heuristic::AndIncCOverPDynamic] {
            let (key, mode) = match h {
                Heuristic::AndIncCDynamic => (AndKey::IncreasingC, CostMode::Dynamic),
                _ => (AndKey::IncreasingCOverP, CostMode::Dynamic),
            };
            let new = h.schedule(&tree, &catalog);
            let old = reference_and_ordered(&tree, &catalog, key, mode);
            // The plans must agree byte-for-byte; when an instance has
            // genuinely tied non-identical candidates the costs still
            // must match exactly.
            if new != old {
                let cn = dnf_eval::expected_cost(&tree, &catalog, &new);
                let co = dnf_eval::expected_cost(&tree, &catalog, &old);
                panic!(
                    "trial {trial} {}: plans diverged (costs {cn} vs {co})",
                    h.id()
                );
            }
        }
    }
}
