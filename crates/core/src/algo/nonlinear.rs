//! Non-linear strategies (the paper's Section V future-work direction).
//!
//! A *linear* strategy is a fixed leaf order — a schedule. A *non-linear*
//! strategy is a decision tree: the next leaf to probe may depend on the
//! truth values observed so far. In the read-once model, linear strategies
//! are dominant for DNF trees (Greiner et al.); the paper notes that a
//! simple counter-example shows this fails in the shared model, motivating
//! non-linear strategies. This module provides:
//!
//! * a [`Strategy`] decision-tree representation with an exact
//!   expected-cost evaluator;
//! * `optimal_strategy` — a memoized exponential dynamic program over
//!   *information states* that computes the optimal non-linear strategy of
//!   small DNF instances;
//! * [`linearity_gap`] — compares the optimal non-linear cost against the
//!   optimal schedule, quantifying how much adaptivity buys (strictly
//!   positive on some shared instances; zero on read-once ones).
//!
//! The DP state is `(status of each AND node, items in device memory)`.
//! Memory must be tracked explicitly: a probe that fails still pulled its
//! items, so memory is *not* derivable from the surviving AND nodes alone
//! — that sharing-induced entanglement is exactly what makes the shared
//! model hard.

use crate::algo::exhaustive;
use crate::leaf::LeafRef;
use crate::stream::StreamCatalog;
use crate::tree::DnfTree;
use std::collections::HashMap;

/// A non-linear evaluation strategy: a binary decision tree over leaf
/// probes.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// The query's truth value is determined; stop probing.
    Done,
    /// Probe a leaf, then continue with the branch matching its value.
    Probe {
        /// The leaf to evaluate next.
        leaf: LeafRef,
        /// Continuation when the leaf evaluates TRUE.
        on_true: Box<Strategy>,
        /// Continuation when the leaf evaluates FALSE.
        on_false: Box<Strategy>,
    },
}

impl Strategy {
    /// Number of probe nodes in the strategy (exponential in the leaf
    /// count in general — the practical drawback Section V points out).
    pub(crate) fn size(&self) -> usize {
        match self {
            Strategy::Done => 0,
            Strategy::Probe {
                on_true, on_false, ..
            } => 1 + on_true.size() + on_false.size(),
        }
    }
}

/// Status of one AND node in an information state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TermStatus {
    /// Not yet failed; bitmask of leaves already probed (all TRUE).
    Alive(u32),
    /// Some leaf was FALSE; the AND node is dead.
    Dead,
}

/// An information state: AND-node statuses plus device memory content.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    terms: Vec<TermStatus>,
    /// Items per stream already pulled (by any probe, including failed
    /// ones and probes of now-dead AND nodes).
    acquired: Vec<u32>,
}

impl State {
    fn initial(tree: &DnfTree, n_streams: usize) -> State {
        State {
            terms: vec![TermStatus::Alive(0); tree.num_terms()],
            acquired: vec![0; n_streams],
        }
    }

    /// TRUE once some AND node has all leaves probed TRUE.
    fn resolved_true(&self, tree: &DnfTree) -> bool {
        self.terms.iter().enumerate().any(|(i, s)| match s {
            TermStatus::Alive(mask) => mask.count_ones() as usize == tree.term(i).len(),
            TermStatus::Dead => false,
        })
    }

    /// FALSE once every AND node is dead.
    fn resolved_false(&self) -> bool {
        self.terms.iter().all(|s| matches!(s, TermStatus::Dead))
    }

    fn resolved(&self, tree: &DnfTree) -> bool {
        self.resolved_false() || self.resolved_true(tree)
    }
}

/// Exact expected cost of running `strategy` on `tree`.
///
/// Probes reached after the query is resolved cost nothing (a verbatim
/// executor stops at resolution).
///
/// # Panics
/// Panics if the strategy probes a leaf of an already-failed AND node or
/// re-probes a leaf — both indicate a malformed strategy, since such leaves
/// are never evaluated by a real engine.
pub(crate) fn expected_cost(tree: &DnfTree, catalog: &StreamCatalog, strategy: &Strategy) -> f64 {
    fn rec(tree: &DnfTree, catalog: &StreamCatalog, strategy: &Strategy, state: &State) -> f64 {
        match strategy {
            Strategy::Done => 0.0,
            Strategy::Probe {
                leaf,
                on_true,
                on_false,
            } => {
                if state.resolved(tree) {
                    return 0.0;
                }
                let mask = match state.terms[leaf.term] {
                    TermStatus::Alive(m) => m,
                    TermStatus::Dead => {
                        panic!("strategy probes {leaf} of a failed AND node")
                    }
                };
                assert_eq!(mask >> leaf.leaf & 1, 0, "strategy re-probes {leaf}");
                let l = tree.leaf(*leaf);
                let have = state.acquired[l.stream.0];
                let pay = if l.items > have {
                    f64::from(l.items - have) * catalog.cost(l.stream)
                } else {
                    0.0
                };
                let p = l.prob.value();

                let mut st = state.clone();
                st.acquired[l.stream.0] = have.max(l.items);
                let mut sf = st.clone();
                st.terms[leaf.term] = TermStatus::Alive(mask | 1 << leaf.leaf);
                sf.terms[leaf.term] = TermStatus::Dead;

                pay + p * rec(tree, catalog, on_true, &st)
                    + (1.0 - p) * rec(tree, catalog, on_false, &sf)
            }
        }
    }
    let state = State::initial(tree, catalog.len());
    rec(tree, catalog, strategy, &state)
}

/// Upper bound on leaves for the optimal-strategy DP.
pub(crate) const MAX_STRATEGY_LEAVES: usize = 16;

/// Computes an optimal **non-linear** strategy by memoized dynamic
/// programming over information states, returning the strategy and its
/// expected cost.
///
/// # Panics
/// Panics if the tree has more than [`MAX_STRATEGY_LEAVES`] leaves or an
/// AND node with more than 32 leaves.
pub(crate) fn optimal_strategy(tree: &DnfTree, catalog: &StreamCatalog) -> (Strategy, f64) {
    assert!(
        tree.num_leaves() <= MAX_STRATEGY_LEAVES,
        "optimal non-linear strategy search over {} leaves is intractable",
        tree.num_leaves()
    );
    assert!(
        tree.terms().iter().all(|t| t.len() <= 32),
        "per-term bitmask limited to 32 leaves"
    );
    let mut memo: HashMap<State, f64> = HashMap::new();

    /// Expands one probe: returns `(pay, true-state, false-state)`.
    fn step(
        tree: &DnfTree,
        catalog: &StreamCatalog,
        state: &State,
        r: LeafRef,
        mask: u32,
    ) -> (f64, State, State) {
        let l = tree.leaf(r);
        let have = state.acquired[l.stream.0];
        let pay = if l.items > have {
            f64::from(l.items - have) * catalog.cost(l.stream)
        } else {
            0.0
        };
        let mut st = state.clone();
        st.acquired[l.stream.0] = have.max(l.items);
        let mut sf = st.clone();
        st.terms[r.term] = TermStatus::Alive(mask | 1 << r.leaf);
        sf.terms[r.term] = TermStatus::Dead;
        (pay, st, sf)
    }

    fn solve(
        tree: &DnfTree,
        catalog: &StreamCatalog,
        state: &State,
        memo: &mut HashMap<State, f64>,
    ) -> f64 {
        if state.resolved(tree) {
            return 0.0;
        }
        if let Some(&v) = memo.get(state) {
            return v;
        }
        let mut best = f64::INFINITY;
        for (i, s) in state.terms.iter().enumerate() {
            let mask = match s {
                TermStatus::Alive(m) => *m,
                TermStatus::Dead => continue,
            };
            for j in 0..tree.term(i).len() {
                if mask >> j & 1 == 1 {
                    continue;
                }
                let r = LeafRef::new(i, j);
                let (pay, st, sf) = step(tree, catalog, state, r, mask);
                let p = tree.leaf(r).prob.value();
                let total = pay
                    + p * solve(tree, catalog, &st, memo)
                    + (1.0 - p) * solve(tree, catalog, &sf, memo);
                if total < best {
                    best = total;
                }
            }
        }
        memo.insert(state.clone(), best);
        best
    }

    fn extract(
        tree: &DnfTree,
        catalog: &StreamCatalog,
        state: &State,
        memo: &mut HashMap<State, f64>,
    ) -> Strategy {
        if state.resolved(tree) {
            return Strategy::Done;
        }
        let mut best: Option<(f64, LeafRef, State, State)> = None;
        for (i, s) in state.terms.iter().enumerate() {
            let mask = match s {
                TermStatus::Alive(m) => *m,
                TermStatus::Dead => continue,
            };
            for j in 0..tree.term(i).len() {
                if mask >> j & 1 == 1 {
                    continue;
                }
                let r = LeafRef::new(i, j);
                let (pay, st, sf) = step(tree, catalog, state, r, mask);
                let p = tree.leaf(r).prob.value();
                let total = pay
                    + p * solve(tree, catalog, &st, memo)
                    + (1.0 - p) * solve(tree, catalog, &sf, memo);
                if best.as_ref().is_none_or(|(b, _, _, _)| total < *b) {
                    best = Some((total, r, st, sf));
                }
            }
        }
        let (_, r, st, sf) = best.expect("unresolved state has probe candidates");
        Strategy::Probe {
            leaf: r,
            on_true: Box::new(extract(tree, catalog, &st, memo)),
            on_false: Box::new(extract(tree, catalog, &sf, memo)),
        }
    }

    let init = State::initial(tree, catalog.len());
    let cost = solve(tree, catalog, &init, &mut memo);
    let strategy = extract(tree, catalog, &init, &mut memo);
    (strategy, cost)
}

/// The gap between the best linear schedule and the best non-linear
/// strategy: `(optimal schedule cost, optimal strategy cost)`.
/// A strictly larger first component witnesses that linear strategies are
/// not dominant (possible only with shared streams).
pub fn linearity_gap(tree: &DnfTree, catalog: &StreamCatalog) -> (f64, f64) {
    let (_, linear) = exhaustive::dnf_all_schedules(tree, catalog);
    let (_, nonlinear) = optimal_strategy(tree, catalog);
    (linear, nonlinear)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;
    use rand::prelude::*;

    /// Embeds a linear schedule as a (degenerate) strategy: both branches
    /// continue with the rest of the order, except that after a FALSE the
    /// failed AND node's remaining leaves are dropped (they would be
    /// short-circuited) — the sense in which strategies generalize
    /// schedules.
    fn linear_strategy(order: &[LeafRef]) -> Strategy {
        match order.split_first() {
            None => Strategy::Done,
            Some((&r, rest)) => {
                let after_false: Vec<LeafRef> =
                    rest.iter().copied().filter(|x| x.term != r.term).collect();
                Strategy::Probe {
                    leaf: r,
                    on_true: Box::new(linear_strategy(rest)),
                    on_false: Box::new(linear_strategy(&after_false)),
                }
            }
        }
    }

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    #[test]
    fn strategy_size_and_depth() {
        let s = Strategy::Probe {
            leaf: LeafRef::new(0, 0),
            on_true: Box::new(Strategy::Done),
            on_false: Box::new(Strategy::Probe {
                leaf: LeafRef::new(1, 0),
                on_true: Box::new(Strategy::Done),
                on_false: Box::new(Strategy::Done),
            }),
        };
        assert_eq!(s.size(), 2);
    }

    #[test]
    fn single_leaf_strategy_cost() {
        let t = DnfTree::from_leaves(vec![vec![leaf(0, 3, 0.5)]]).unwrap();
        let cat = StreamCatalog::from_costs([2.0]).unwrap();
        let s = Strategy::Probe {
            leaf: LeafRef::new(0, 0),
            on_true: Box::new(Strategy::Done),
            on_false: Box::new(Strategy::Done),
        };
        assert!((expected_cost(&t, &cat, &s) - 6.0).abs() < 1e-12);
    }

    /// A linear schedule embedded as a strategy must cost exactly what
    /// the schedule evaluators say — on any schedule of random instances.
    #[test]
    fn linear_strategy_matches_schedule_cost() {
        let mut rng = StdRng::seed_from_u64(4711);
        for _ in 0..30 {
            let n_streams = rng.gen_range(1..=3);
            let cat =
                StreamCatalog::from_costs((0..n_streams).map(|_| rng.gen_range(0.5..8.0))).unwrap();
            let terms: Vec<Vec<Leaf>> = (0..rng.gen_range(1..=3))
                .map(|_| {
                    (0..rng.gen_range(1..=3))
                        .map(|_| {
                            leaf(
                                rng.gen_range(0..n_streams),
                                rng.gen_range(1..=3),
                                rng.gen_range(0.0..1.0),
                            )
                        })
                        .collect()
                })
                .collect();
            let t = DnfTree::from_leaves(terms).unwrap();
            let mut order: Vec<LeafRef> = t.leaf_refs().collect();
            order.shuffle(&mut rng);
            let sched = crate::schedule::DnfSchedule::new(order, &t).unwrap();
            let strat = linear_strategy(sched.order());
            let a = expected_cost(&t, &cat, &strat);
            let b = crate::cost::dnf_eval::expected_cost(&t, &cat, &sched);
            assert!((a - b).abs() < 1e-9, "strategy {a} vs schedule {b}");
        }
    }

    #[test]
    fn optimal_strategy_cost_matches_its_evaluation() {
        let t = DnfTree::from_leaves(vec![
            vec![leaf(0, 1, 0.5), leaf(1, 2, 0.4)],
            vec![leaf(1, 3, 0.7)],
        ])
        .unwrap();
        let cat = StreamCatalog::from_costs([1.0, 2.0]).unwrap();
        let (s, c) = optimal_strategy(&t, &cat);
        let c2 = expected_cost(&t, &cat, &s);
        assert!((c - c2).abs() < 1e-12, "DP value {c} vs evaluated {c2}");
    }

    /// On read-once instances, linear strategies are dominant (Greiner):
    /// the optimal strategy cost equals the optimal schedule cost.
    #[test]
    fn linear_strategies_dominant_on_read_once() {
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..30 {
            let n_terms = rng.gen_range(1..=3);
            let mut terms = Vec::new();
            let mut costs = Vec::new();
            for _ in 0..n_terms {
                let m = rng.gen_range(1..=2);
                let mut term = Vec::new();
                for _ in 0..m {
                    let s = costs.len();
                    costs.push(rng.gen_range(1.0..10.0));
                    term.push(leaf(s, rng.gen_range(1..=4), rng.gen_range(0.0..1.0)));
                }
                terms.push(term);
            }
            let t = DnfTree::from_leaves(terms).unwrap();
            let cat = StreamCatalog::from_costs(costs).unwrap();
            let (linear, nonlinear) = linearity_gap(&t, &cat);
            assert!(
                (linear - nonlinear).abs() < 1e-9,
                "read-once gap: linear {linear} vs nonlinear {nonlinear}"
            );
        }
    }

    /// Non-linear strategies can strictly beat every schedule in the
    /// shared model (the paper's Section V claim); witness found by
    /// random search.
    #[test]
    fn shared_instance_where_adaptivity_strictly_helps() {
        let mut rng = StdRng::seed_from_u64(4242);
        let mut found = false;
        for _ in 0..500 {
            let n_streams = rng.gen_range(2..=3);
            let cat = StreamCatalog::from_costs((0..n_streams).map(|_| rng.gen_range(1.0..10.0)))
                .unwrap();
            let terms: Vec<Vec<Leaf>> = (0..rng.gen_range(2..=3))
                .map(|_| {
                    (0..rng.gen_range(1..=2))
                        .map(|_| {
                            leaf(
                                rng.gen_range(0..n_streams),
                                rng.gen_range(1..=4),
                                rng.gen_range(0.05..0.95),
                            )
                        })
                        .collect()
                })
                .collect();
            let t = DnfTree::from_leaves(terms).unwrap();
            if t.is_read_once() {
                continue;
            }
            let (linear, nonlinear) = linearity_gap(&t, &cat);
            assert!(nonlinear <= linear + 1e-9, "strategies include schedules");
            if nonlinear < linear - 1e-6 {
                found = true;
                break;
            }
        }
        assert!(
            found,
            "no shared instance with a strict linearity gap found"
        );
    }

    #[test]
    fn nonlinear_never_exceeds_linear() {
        let mut rng = StdRng::seed_from_u64(52);
        for _ in 0..20 {
            let n_streams = rng.gen_range(1..=3);
            let cat = StreamCatalog::from_costs((0..n_streams).map(|_| rng.gen_range(1.0..10.0)))
                .unwrap();
            let terms: Vec<Vec<Leaf>> = (0..rng.gen_range(1..=3))
                .map(|_| {
                    (0..rng.gen_range(1..=2))
                        .map(|_| {
                            leaf(
                                rng.gen_range(0..n_streams),
                                rng.gen_range(1..=3),
                                rng.gen_range(0.0..1.0),
                            )
                        })
                        .collect()
                })
                .collect();
            let t = DnfTree::from_leaves(terms).unwrap();
            let (linear, nonlinear) = linearity_gap(&t, &cat);
            assert!(nonlinear <= linear + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "re-probes")]
    fn evaluator_rejects_double_probe() {
        let t = DnfTree::from_leaves(vec![vec![leaf(0, 1, 0.5), leaf(1, 1, 0.5)]]).unwrap();
        let cat = StreamCatalog::unit(2);
        let s = Strategy::Probe {
            leaf: LeafRef::new(0, 0),
            on_true: Box::new(Strategy::Probe {
                leaf: LeafRef::new(0, 0),
                on_true: Box::new(Strategy::Done),
                on_false: Box::new(Strategy::Done),
            }),
            on_false: Box::new(Strategy::Done),
        };
        expected_cost(&t, &cat, &s);
    }
}
