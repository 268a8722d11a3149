//! [`Planner`] implementations for every algorithm in [`crate::algo`].
//!
//! | registry name | algorithm | optimal for |
//! |---|---|---|
//! | `smith` | Smith's read-once greedy | read-once AND-trees |
//! | `greedy` | Algorithm 1 (Theorem 1) | all shared AND-trees |
//! | `read-once-dnf` | Greiner's algorithm | read-once DNF trees |
//! | `stream-ordered`, `leaf-*`, `and-*` | the Section IV-D heuristics | — |
//! | `exhaustive` | full enumeration (size-capped) | everything it accepts |
//! | `branch-and-bound` | depth-first B&B (Theorem 2 + Prop. 1 pruning) | DNF (size-capped) |
//! | `nonlinear` | optimal decision-tree strategy (Section V) | DNF (size-capped) |
//! | `general` | recursive ratio heuristic | — |

use super::{finish_plan, unsupported, Plan, PlanBody, Planner, QueryRef};
use crate::algo::heuristics::Heuristic;
use crate::algo::{exhaustive, general, greedy, heuristics, nonlinear, read_once_dnf, smith};
use crate::cost::and_eval;
use crate::error::Result;
use crate::stream::StreamCatalog;
use std::time::Instant;

/// Largest AND-tree `exhaustive` will enumerate (`m!` permutations).
pub const MAX_EXHAUSTIVE_AND_LEAVES: usize = 9;
/// Largest DNF tree `exhaustive` and `branch-and-bound` will search.
pub const MAX_EXHAUSTIVE_DNF_LEAVES: usize = 24;
/// Largest DNF tree `nonlinear` will build an optimal strategy for.
pub const MAX_NONLINEAR_LEAVES: usize = 12;
/// Largest general tree whose schedule cost `general` evaluates exactly
/// (`O(2^L)` truth assignments); larger plans report `expected_cost:
/// None`.
pub const MAX_GENERAL_EXACT_COST_LEAVES: usize = 16;

/// Smith's classical read-once AND-tree greedy (the paper's baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct SmithPlanner;

impl Planner for SmithPlanner {
    fn name(&self) -> &str {
        "smith"
    }

    fn description(&self) -> &str {
        "Smith's ratio greedy; optimal for read-once AND-trees only"
    }

    fn supports(&self, query: &QueryRef<'_>) -> bool {
        query.to_and_tree().is_some()
    }

    fn is_optimal_for(&self, query: &QueryRef<'_>) -> bool {
        self.supports(query) && query.is_read_once()
    }

    fn plan(&self, query: &QueryRef<'_>, catalog: &StreamCatalog) -> Result<Plan> {
        let started = Instant::now();
        let tree = query
            .to_and_tree()
            .ok_or_else(|| unsupported(self, query))?;
        let schedule = smith::schedule_impl(&tree, catalog);
        let cost = and_eval::expected_cost(&tree, catalog, &schedule);
        Ok(finish_plan(
            self,
            query,
            catalog,
            PlanBody::And(schedule),
            Some(cost),
            started,
        ))
    }
}

/// Algorithm 1 — the paper's optimal shared AND-tree greedy (Theorem 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyPlanner;

impl Planner for GreedyPlanner {
    fn name(&self) -> &str {
        "greedy"
    }

    fn description(&self) -> &str {
        "Algorithm 1: chain-ratio greedy, optimal for shared AND-trees (Theorem 1)"
    }

    fn supports(&self, query: &QueryRef<'_>) -> bool {
        query.to_and_tree().is_some()
    }

    fn is_optimal_for(&self, query: &QueryRef<'_>) -> bool {
        self.supports(query)
    }

    fn plan(&self, query: &QueryRef<'_>, catalog: &StreamCatalog) -> Result<Plan> {
        let started = Instant::now();
        let tree = query
            .to_and_tree()
            .ok_or_else(|| unsupported(self, query))?;
        let (schedule, cost) = greedy::schedule_with_cost_impl(&tree, catalog);
        Ok(finish_plan(
            self,
            query,
            catalog,
            PlanBody::And(schedule),
            Some(cost),
            started,
        ))
    }
}

/// Greiner's optimal algorithm for read-once DNF trees.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadOnceDnfPlanner;

impl Planner for ReadOnceDnfPlanner {
    fn name(&self) -> &str {
        "read-once-dnf"
    }

    fn description(&self) -> &str {
        "Greiner's term-ratio algorithm; optimal for read-once DNF trees"
    }

    fn supports(&self, query: &QueryRef<'_>) -> bool {
        query.to_dnf_tree().is_some()
    }

    fn is_optimal_for(&self, query: &QueryRef<'_>) -> bool {
        self.supports(query) && query.is_read_once()
    }

    fn plan(&self, query: &QueryRef<'_>, catalog: &StreamCatalog) -> Result<Plan> {
        let started = Instant::now();
        let tree = query
            .to_dnf_tree()
            .ok_or_else(|| unsupported(self, query))?;
        let (schedule, cost) = read_once_dnf::schedule_impl(&tree, catalog);
        Ok(finish_plan(
            self,
            query,
            catalog,
            PlanBody::Dnf(schedule),
            Some(cost),
            started,
        ))
    }
}

/// Adapter exposing one Section IV-D [`Heuristic`] as a [`Planner`]
/// (its registry name is the heuristic's stable [`Heuristic::id`]).
///
/// Planner-salient configuration beyond the id is folded into the
/// registered name: `Heuristic::id` maps every `LeafRandom { seed }` to
/// `"leaf-random"`, but the `Engine` plan cache keys on `(query,
/// catalog, planner name)` — two seeds sharing one name would serve
/// each other's cached plans. A non-default seed therefore registers
/// (and caches) as `leaf-random@seed=N`; the default seed keeps the
/// bare id.
#[derive(Debug, Clone)]
pub struct HeuristicPlanner {
    heuristic: Heuristic,
    name: String,
}

impl HeuristicPlanner {
    pub fn new(heuristic: Heuristic) -> HeuristicPlanner {
        let name = match heuristic {
            Heuristic::LeafRandom { seed } if seed != Heuristic::DEFAULT_RANDOM_SEED => {
                format!("{}@seed={seed}", heuristic.id())
            }
            _ => heuristic.id().to_string(),
        };
        HeuristicPlanner { heuristic, name }
    }

    /// The wrapped heuristic.
    pub fn heuristic(&self) -> Heuristic {
        self.heuristic
    }
}

impl Planner for HeuristicPlanner {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        "polynomial DNF scheduling heuristic (paper Section IV-D)"
    }

    fn supports(&self, query: &QueryRef<'_>) -> bool {
        query.to_dnf_tree().is_some()
    }

    fn plan(&self, query: &QueryRef<'_>, catalog: &StreamCatalog) -> Result<Plan> {
        let started = Instant::now();
        let tree = query
            .to_dnf_tree()
            .ok_or_else(|| unsupported(self, query))?;
        let (schedule, cost) = self.heuristic.schedule_with_cost(&tree, catalog);
        Ok(finish_plan(
            self,
            query,
            catalog,
            PlanBody::Dnf(schedule),
            Some(cost),
            started,
        ))
    }
}

/// Exhaustive enumeration over the class-appropriate schedule space.
/// A test oracle and small-instance baseline, hard-capped by the
/// `MAX_EXHAUSTIVE_*` limits.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustivePlanner;

impl Planner for ExhaustivePlanner {
    fn name(&self) -> &str {
        "exhaustive"
    }

    fn description(&self) -> &str {
        "exact enumeration (AND permutations / depth-first DNF / tiny general trees)"
    }

    fn supports(&self, query: &QueryRef<'_>) -> bool {
        // The pruned depth-first DNF search scales much further than raw
        // `m!` permutation enumeration, so prefer the DNF route whenever
        // the query has a DNF view (a bare AND-tree is the exception: it
        // predates the DNF machinery and keeps the permutation oracle).
        let leaves = query.num_leaves();
        match query {
            QueryRef::And(_) => leaves <= MAX_EXHAUSTIVE_AND_LEAVES,
            QueryRef::Dnf(_) => leaves <= MAX_EXHAUSTIVE_DNF_LEAVES,
            QueryRef::General(_) => {
                if query.to_dnf_tree().is_some() {
                    leaves <= MAX_EXHAUSTIVE_DNF_LEAVES
                } else {
                    leaves <= general::MAX_GENERAL_EXHAUSTIVE
                }
            }
        }
    }

    fn is_optimal_for(&self, query: &QueryRef<'_>) -> bool {
        self.supports(query)
    }

    fn plan(&self, query: &QueryRef<'_>, catalog: &StreamCatalog) -> Result<Plan> {
        let started = Instant::now();
        if !self.supports(query) {
            return Err(unsupported(self, query));
        }
        if let QueryRef::And(tree) = query {
            let (schedule, cost) = exhaustive::and_all_permutations_impl(tree, catalog);
            return Ok(finish_plan(
                self,
                query,
                catalog,
                PlanBody::And(schedule),
                Some(cost),
                started,
            ));
        }
        if let Some(tree) = query.to_dnf_tree() {
            let (schedule, cost) = exhaustive::dnf_optimal_impl(&tree, catalog);
            return Ok(finish_plan(
                self,
                query,
                catalog,
                PlanBody::Dnf(schedule),
                Some(cost),
                started,
            ));
        }
        let tree = query.to_query_tree();
        let (order, cost) = general::optimal(&tree, catalog);
        Ok(finish_plan(
            self,
            query,
            catalog,
            PlanBody::LeafOrder(order),
            Some(cost),
            started,
        ))
    }
}

/// Depth-first branch-and-bound DNF search, seeded with the best
/// heuristic incumbent. Sound reductions only (Theorem 2 depth-first
/// restriction, Proposition 1 ordering, incumbent pruning), so the
/// result is optimal whenever the search completes.
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchAndBoundPlanner {
    options: exhaustive::SearchOptions,
}

impl BranchAndBoundPlanner {
    pub fn with_options(options: exhaustive::SearchOptions) -> BranchAndBoundPlanner {
        BranchAndBoundPlanner { options }
    }
}

impl Planner for BranchAndBoundPlanner {
    fn name(&self) -> &str {
        "branch-and-bound"
    }

    fn description(&self) -> &str {
        "depth-first DNF branch-and-bound with heuristic incumbent seeding"
    }

    fn supports(&self, query: &QueryRef<'_>) -> bool {
        query.to_dnf_tree().is_some() && query.num_leaves() <= MAX_EXHAUSTIVE_DNF_LEAVES
    }

    fn is_optimal_for(&self, query: &QueryRef<'_>) -> bool {
        // Optimal when the search completes; the node_limit safety valve
        // only triggers on adversarial shapes beyond the size cap.
        self.supports(query) && self.options.node_limit == u64::MAX
    }

    fn plan(&self, query: &QueryRef<'_>, catalog: &StreamCatalog) -> Result<Plan> {
        let started = Instant::now();
        if !self.supports(query) {
            return Err(unsupported(self, query));
        }
        let tree = query
            .to_dnf_tree()
            .ok_or_else(|| unsupported(self, query))?;
        let mut options = self.options;
        if options.incumbent.is_infinite() {
            let (_, incumbent) =
                heuristics::best_of_paper_set(&tree, catalog, Heuristic::DEFAULT_RANDOM_SEED);
            options.incumbent = incumbent * (1.0 + 1e-12);
        }
        let result = exhaustive::dnf_search(&tree, catalog, options);
        Ok(finish_plan(
            self,
            query,
            catalog,
            PlanBody::Dnf(result.schedule),
            Some(result.cost),
            started,
        ))
    }
}

/// The optimal non-linear (decision-tree) strategy of Section V.
/// Produces a [`PlanBody::Decision`]; its cost lower-bounds every linear
/// schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct NonlinearPlanner;

impl Planner for NonlinearPlanner {
    fn name(&self) -> &str {
        "nonlinear"
    }

    fn description(&self) -> &str {
        "optimal decision-tree strategy (Section V); exponential, size-capped"
    }

    fn supports(&self, query: &QueryRef<'_>) -> bool {
        query.to_dnf_tree().is_some() && query.num_leaves() <= MAX_NONLINEAR_LEAVES
    }

    fn plan(&self, query: &QueryRef<'_>, catalog: &StreamCatalog) -> Result<Plan> {
        let started = Instant::now();
        if !self.supports(query) {
            return Err(unsupported(self, query));
        }
        let tree = query
            .to_dnf_tree()
            .ok_or_else(|| unsupported(self, query))?;
        let (strategy, cost) = nonlinear::optimal_strategy(&tree, catalog);
        Ok(finish_plan(
            self,
            query,
            catalog,
            PlanBody::Decision(strategy),
            Some(cost),
            started,
        ))
    }
}

/// The recursive ratio heuristic for arbitrary AND-OR trees (the open
/// general case). Accepts every query; reports an exact expected cost
/// only up to [`MAX_GENERAL_EXACT_COST_LEAVES`] leaves.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeneralPlanner;

impl Planner for GeneralPlanner {
    fn name(&self) -> &str {
        "general"
    }

    fn description(&self) -> &str {
        "recursive ratio heuristic for arbitrary AND-OR trees"
    }

    fn supports(&self, _query: &QueryRef<'_>) -> bool {
        true
    }

    fn plan(&self, query: &QueryRef<'_>, catalog: &StreamCatalog) -> Result<Plan> {
        let started = Instant::now();
        let tree = query.to_query_tree();
        let order = general::schedule_impl(&tree, catalog);
        let cost = (query.num_leaves() <= MAX_GENERAL_EXACT_COST_LEAVES)
            .then(|| general::expected_cost(&tree, catalog, &order));
        Ok(finish_plan(
            self,
            query,
            catalog,
            PlanBody::LeafOrder(order),
            cost,
            started,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;
    use crate::tree::{AndTree, DnfTree, Node, QueryTree};

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn fig2() -> (AndTree, StreamCatalog) {
        (
            AndTree::new(vec![leaf(0, 1, 0.75), leaf(0, 2, 0.1), leaf(1, 1, 0.5)]).unwrap(),
            StreamCatalog::unit(2),
        )
    }

    fn shared_dnf() -> (DnfTree, StreamCatalog) {
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
    fn greedy_planner_reproduces_figure_2() {
        let (tree, cat) = fig2();
        let q = QueryRef::from(&tree);
        let plan = GreedyPlanner.plan(&q, &cat).unwrap();
        assert_eq!(plan.planner, "greedy");
        assert!((plan.expected_cost.unwrap() - 1.825).abs() < 1e-12);
        assert_eq!(plan.body.as_and().unwrap().order(), &[0, 1, 2]);
        assert!(GreedyPlanner.is_optimal_for(&q));
    }

    #[test]
    fn and_planners_accept_single_term_dnf() {
        let (tree, cat) = fig2();
        let dnf = DnfTree::from_and_tree(&tree);
        let q = QueryRef::from(&dnf);
        for p in [&GreedyPlanner as &dyn Planner, &SmithPlanner] {
            assert!(p.supports(&q), "{}", p.name());
            let plan = p.plan(&q, &cat).unwrap();
            assert!(plan.body.as_and().is_some(), "{}", p.name());
        }
        let plan = GreedyPlanner.plan(&q, &cat).unwrap();
        assert!((plan.expected_cost.unwrap() - 1.825).abs() < 1e-12);
    }

    #[test]
    fn dnf_planners_agree_with_their_free_function_ancestors() {
        let (tree, cat) = shared_dnf();
        let q = QueryRef::from(&tree);

        let plan = ReadOnceDnfPlanner.plan(&q, &cat).unwrap();
        let (direct, _) = read_once_dnf::schedule_impl(&tree, &cat);
        assert_eq!(plan.body.as_dnf().unwrap(), &direct);

        for h in heuristics::paper_set(7) {
            let planner = HeuristicPlanner::new(h);
            let plan = planner.plan(&q, &cat).unwrap();
            let (schedule, cost) = h.schedule_with_cost(&tree, &cat);
            assert_eq!(plan.body.as_dnf().unwrap(), &schedule, "{}", h.id());
            assert_eq!(plan.expected_cost, Some(cost), "{}", h.id());
            // Non-default seeds fold the seed into the planner name (the
            // cache key); everything else keeps the bare id.
            match h {
                Heuristic::LeafRandom { seed } if seed != Heuristic::DEFAULT_RANDOM_SEED => {
                    assert_eq!(plan.planner, format!("leaf-random@seed={seed}"));
                }
                _ => assert_eq!(plan.planner, h.id()),
            }
        }
    }

    #[test]
    fn exhaustive_and_branch_and_bound_match_and_lower_bound_heuristics() {
        let (tree, cat) = shared_dnf();
        let q = QueryRef::from(&tree);
        let ex = ExhaustivePlanner.plan(&q, &cat).unwrap();
        let bb = BranchAndBoundPlanner::default().plan(&q, &cat).unwrap();
        let (ex_cost, bb_cost) = (ex.expected_cost.unwrap(), bb.expected_cost.unwrap());
        assert!(
            (ex_cost - bb_cost).abs() < 1e-9,
            "exhaustive {ex_cost} vs B&B {bb_cost}"
        );
        for h in heuristics::paper_set(7) {
            let c = HeuristicPlanner::new(h)
                .plan(&q, &cat)
                .unwrap()
                .expected_cost
                .unwrap();
            assert!(
                c >= ex_cost - 1e-9,
                "{}: {c} beat the optimum {ex_cost}",
                h.id()
            );
        }
        // Section V: strategies dominate schedules.
        let nl = NonlinearPlanner.plan(&q, &cat).unwrap();
        assert!(nl.expected_cost.unwrap() <= ex_cost + 1e-9);
        assert!(matches!(nl.body, PlanBody::Decision(_)));
    }

    #[test]
    fn general_planner_accepts_everything_and_caps_cost_evaluation() {
        let deep = QueryTree::new(Node::and(vec![
            Node::leaf(StreamId(0), 1, Prob::HALF).unwrap(),
            Node::or(vec![
                Node::leaf(StreamId(1), 2, Prob::HALF).unwrap(),
                Node::leaf(StreamId(0), 3, Prob::HALF).unwrap(),
            ]),
        ]))
        .unwrap();
        let cat = StreamCatalog::unit(2);
        let q = QueryRef::from(&deep);
        let plan = GeneralPlanner.plan(&q, &cat).unwrap();
        assert_eq!(plan.body.len(), 3);
        assert!(
            plan.expected_cost.is_some(),
            "3 leaves is well under the cap"
        );

        // 17 single-leaf OR terms: over the exact-cost cap.
        let wide = QueryTree::new(Node::or(
            (0..17)
                .map(|s| Node::leaf(StreamId(s), 1, Prob::HALF).unwrap())
                .collect(),
        ))
        .unwrap();
        let cat = StreamCatalog::unit(17);
        let plan = GeneralPlanner.plan(&QueryRef::from(&wide), &cat).unwrap();
        assert_eq!(plan.expected_cost, None);
        assert!(plan.cost_or_nan().is_nan());
    }

    #[test]
    fn size_caps_reject_with_unsupported_query() {
        let big = AndTree::new((0..12).map(|s| leaf(s, 1, 0.5)).collect()).unwrap();
        let cat = StreamCatalog::unit(12);
        let q = QueryRef::from(&big);
        assert!(!ExhaustivePlanner.supports(&q));
        let err = ExhaustivePlanner.plan(&q, &cat).unwrap_err();
        assert!(
            matches!(err, crate::error::Error::UnsupportedQuery { .. }),
            "{err}"
        );
    }
}
