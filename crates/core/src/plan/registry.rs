//! Name-indexed registry of [`Planner`]s.

use super::planners::{
    BranchAndBoundPlanner, ExhaustivePlanner, GeneralPlanner, GreedyPlanner, HeuristicPlanner,
    NonlinearPlanner, ReadOnceDnfPlanner, SmithPlanner,
};
use super::{Planner, QueryRef};
use crate::algo::heuristics::{self, Heuristic};
use crate::error::{Error, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// Lookup of planners by stable kebab-case name, preserving registration
/// order; one registry instance is the single source of algorithm names
/// for the CLI, the [`Engine`](super::Engine), and the experiment
/// harness.
#[derive(Clone)]
pub struct PlannerRegistry {
    planners: Vec<Arc<dyn Planner>>,
    by_name: HashMap<String, usize>,
}

impl PlannerRegistry {
    /// An empty registry.
    pub(crate) fn new() -> PlannerRegistry {
        PlannerRegistry {
            planners: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Every built-in planner: `smith`, `greedy`, `read-once-dnf`, all
    /// Section IV-D heuristic variants (see
    /// [`heuristics::all_variants`]), `exhaustive`, `branch-and-bound`,
    /// `nonlinear`, and `general`.
    pub fn with_defaults() -> PlannerRegistry {
        let mut r = PlannerRegistry::new();
        r.register(Arc::new(SmithPlanner))
            .expect("unique built-in name");
        r.register(Arc::new(GreedyPlanner))
            .expect("unique built-in name");
        r.register(Arc::new(ReadOnceDnfPlanner))
            .expect("unique built-in name");
        for h in heuristics::all_variants() {
            r.register(Arc::new(HeuristicPlanner::new(h)))
                .expect("unique heuristic id");
        }
        r.register(Arc::new(ExhaustivePlanner))
            .expect("unique built-in name");
        r.register(Arc::new(BranchAndBoundPlanner))
            .expect("unique built-in name");
        r.register(Arc::new(NonlinearPlanner))
            .expect("unique built-in name");
        r.register(Arc::new(GeneralPlanner))
            .expect("unique built-in name");
        r
    }

    /// Adds a planner; rejects duplicate names so every name maps to one
    /// algorithm for the registry's whole lifetime.
    pub(crate) fn register(&mut self, planner: Arc<dyn Planner>) -> Result<()> {
        let name = planner.name().to_string();
        if self.by_name.contains_key(&name) {
            return Err(Error::InvalidStrategy(format!(
                "planner `{name}` is already registered"
            )));
        }
        self.by_name.insert(name, self.planners.len());
        self.planners.push(planner);
        Ok(())
    }

    /// Looks a planner up by its stable name.
    pub fn get(&self, name: &str) -> Option<&dyn Planner> {
        self.by_name.get(name).map(|&i| self.planners[i].as_ref())
    }

    /// Like [`PlannerRegistry::get`], but returns
    /// [`Error::UnknownPlanner`] on a miss.
    pub(crate) fn get_required(&self, name: &str) -> Result<&dyn Planner> {
        self.get(name)
            .ok_or_else(|| Error::UnknownPlanner(name.to_string()))
    }

    /// All names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.planners.iter().map(|p| p.name()).collect()
    }

    /// All planners, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Planner> {
        self.planners.iter().map(|p| p.as_ref())
    }

    /// The paper's ten figure-legend heuristics as a registry view, in
    /// legend order. Panics only if the heuristics were de-registered
    /// from a hand-built registry.
    pub fn paper_set(&self) -> Vec<&dyn Planner> {
        heuristics::paper_set(Heuristic::DEFAULT_RANDOM_SEED)
            .iter()
            .map(|h| {
                self.get(h.id())
                    .unwrap_or_else(|| panic!("paper-set heuristic `{}` is not registered", h.id()))
            })
            .collect()
    }

    /// The planner a query should get by default: the *optimal*
    /// polynomial planner when the query class admits one, otherwise the
    /// paper's best heuristic, falling back to the general-tree
    /// heuristic:
    ///
    /// * AND-tree-shaped → `greedy` (Algorithm 1, Theorem 1);
    /// * read-once DNF → `read-once-dnf` (Greiner);
    /// * shared DNF (NP-complete) → `and-inc-cp-dyn`, the best heuristic
    ///   in the paper's evaluation;
    /// * general AND-OR → `general`.
    pub(crate) fn default_for(&self, query: &QueryRef<'_>) -> Result<&dyn Planner> {
        // This runs on the Engine's per-plan hot path: classify And/Dnf
        // queries (the serving shapes) with structural checks only —
        // the owned-tree conversions are reserved for general queries.
        let shared_dnf_default = Heuristic::AndIncCOverPDynamic.id();
        let name = match query {
            QueryRef::And(_) => "greedy",
            QueryRef::Dnf(t) if t.num_terms() == 1 => "greedy",
            QueryRef::Dnf(t) => {
                if t.is_read_once() {
                    "read-once-dnf"
                } else {
                    shared_dnf_default
                }
            }
            QueryRef::General(_) => {
                if query.to_and_tree().is_some() {
                    "greedy"
                } else if query.to_dnf_tree().is_some() {
                    if query.is_read_once() {
                        "read-once-dnf"
                    } else {
                        shared_dnf_default
                    }
                } else {
                    "general"
                }
            }
        };
        self.get_required(name)
    }
}

impl Default for PlannerRegistry {
    fn default() -> PlannerRegistry {
        PlannerRegistry::with_defaults()
    }
}

impl std::fmt::Debug for PlannerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlannerRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::{StreamCatalog, StreamId};
    use crate::tree::{AndTree, DnfTree, Node, QueryTree};

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    #[test]
    fn every_name_round_trips_to_the_same_planner() {
        let r = PlannerRegistry::with_defaults();
        for name in r.names() {
            let p = r.get(name).unwrap();
            assert_eq!(p.name(), name);
        }
        assert_eq!(r.names().len(), r.planners.len());
    }

    #[test]
    fn every_registered_planner_plans_some_query_class() {
        let r = PlannerRegistry::with_defaults();
        let and = AndTree::new(vec![leaf(0, 1, 0.6), leaf(0, 2, 0.5), leaf(1, 1, 0.4)]).unwrap();
        let dnf = DnfTree::from_leaves(vec![
            vec![leaf(0, 1, 0.5), leaf(1, 2, 0.3)],
            vec![leaf(0, 2, 0.8)],
        ])
        .unwrap();
        let gen = QueryTree::new(Node::and(vec![
            Node::leaf(StreamId(0), 1, Prob::HALF).unwrap(),
            Node::or(vec![
                Node::leaf(StreamId(1), 1, Prob::HALF).unwrap(),
                Node::and(vec![
                    Node::leaf(StreamId(0), 2, Prob::HALF).unwrap(),
                    Node::leaf(StreamId(1), 3, Prob::HALF).unwrap(),
                ]),
            ]),
        ]))
        .unwrap();
        let cat = StreamCatalog::from_costs([1.0, 2.0]).unwrap();
        for p in r.iter() {
            let mut planned = 0;
            for q in [
                QueryRef::from(&and),
                QueryRef::from(&dnf),
                QueryRef::from(&gen),
            ] {
                if p.supports(&q) {
                    let plan = p.plan(&q, &cat).unwrap();
                    assert_eq!(plan.planner, p.name());
                    planned += 1;
                }
            }
            assert!(planned > 0, "planner `{}` accepted no test query", p.name());
        }
    }

    #[test]
    fn default_for_picks_the_optimal_planner_where_one_exists() {
        let r = PlannerRegistry::with_defaults();

        let and = AndTree::new(vec![leaf(0, 1, 0.6), leaf(0, 2, 0.5)]).unwrap();
        let q = QueryRef::from(&and);
        let p = r.default_for(&q).unwrap();
        assert_eq!(p.name(), "greedy");
        assert!(p.is_optimal_for(&q));

        let read_once = DnfTree::from_leaves(vec![
            vec![leaf(0, 1, 0.5), leaf(1, 2, 0.3)],
            vec![leaf(2, 2, 0.8)],
        ])
        .unwrap();
        let q = QueryRef::from(&read_once);
        let p = r.default_for(&q).unwrap();
        assert_eq!(p.name(), "read-once-dnf");
        assert!(p.is_optimal_for(&q));

        let shared = DnfTree::from_leaves(vec![
            vec![leaf(0, 1, 0.5), leaf(1, 2, 0.3)],
            vec![leaf(0, 2, 0.8)],
        ])
        .unwrap();
        assert_eq!(
            r.default_for(&QueryRef::from(&shared)).unwrap().name(),
            "and-inc-cp-dyn"
        );

        let gen = QueryTree::new(Node::and(vec![
            Node::leaf(StreamId(0), 1, Prob::HALF).unwrap(),
            Node::or(vec![
                Node::leaf(StreamId(1), 1, Prob::HALF).unwrap(),
                Node::and(vec![
                    Node::leaf(StreamId(0), 2, Prob::HALF).unwrap(),
                    Node::leaf(StreamId(1), 3, Prob::HALF).unwrap(),
                ]),
            ]),
        ]))
        .unwrap();
        assert_eq!(
            r.default_for(&QueryRef::from(&gen)).unwrap().name(),
            "general"
        );
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut r = PlannerRegistry::with_defaults();
        assert!(r.register(Arc::new(GreedyPlanner)).is_err());
    }

    #[test]
    fn paper_set_view_is_the_ten_legend_heuristics_in_order() {
        let r = PlannerRegistry::with_defaults();
        let names: Vec<&str> = r.paper_set().iter().map(|p| p.name()).collect();
        let expected: Vec<&str> = crate::algo::heuristics::paper_set(0)
            .iter()
            .map(|h| h.id())
            .collect();
        assert_eq!(names, expected);
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn unknown_names_error() {
        let r = PlannerRegistry::with_defaults();
        assert!(r.get("nope").is_none());
        assert!(matches!(
            r.get_required("nope"),
            Err(Error::UnknownPlanner(n)) if n == "nope"
        ));
    }
}
