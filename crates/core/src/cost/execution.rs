//! Ground-truth schedule interpreter.
//!
//! Given a *complete truth assignment* for the leaves, this module steps
//! through a schedule exactly as the mobile device of the paper would:
//!
//! * evaluate leaves in schedule order;
//! * skip a leaf whose truth value can no longer influence the root
//!   (its AND node already FALSE, or the whole query already resolved);
//! * pay `c(S)` per data item pulled, but keep pulled items in device
//!   memory so later leaves on the same stream only pay for *additional*
//!   items (the shared-streams model);
//! * stop as soon as the root's truth value is determined.
//!
//! The returned cost is the exact cost incurred for that assignment; the
//! analytic evaluators of this crate are all validated against expectations
//! of this interpreter (see [`crate::cost::assignment`]).
//!
//! ## Scope
//!
//! The AND-tree and DNF *simulation* halves of this module duplicate
//! the pull-coalescing loop that now lives once in the unified
//! `stream_sim::runtime::Scheduler`, so they are crate-private: the
//! enumeration oracles in [`crate::cost::assignment`] and
//! [`crate::cost::montecarlo`] are their only callers (expectations
//! over truth assignments need an in-process interpreter, not a
//! data-path simulator). The
//! general-tree interpreter `execute_query_tree` stays public: the
//! runtime executes DNF schedules only, so general AND-OR trees have no
//! replacement there.

use crate::schedule::{AndSchedule, DnfSchedule};
use crate::stream::StreamCatalog;
use crate::tree::general::{Node, QueryTree};
use crate::tree::{AndTree, DnfTree};

/// Outcome of executing a schedule under one truth assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// Total acquisition cost paid.
    pub cost: f64,
    /// Truth value of the root once resolved.
    pub value: bool,
    /// Number of leaves actually evaluated (not short-circuited).
    pub evaluated: usize,
    /// Total data items pulled, per stream (index = stream id).
    pub items_pulled: Vec<u32>,
}

/// Executes an AND-tree schedule under a truth assignment
/// (`assignment[j]` is the value of leaf `j` in declaration order).
///
/// # Panics
/// Panics if `assignment` is shorter than the tree's leaf count.
pub(crate) fn execute_and_tree_impl(
    tree: &AndTree,
    catalog: &StreamCatalog,
    schedule: &AndSchedule,
    assignment: &[bool],
) -> Execution {
    assert!(assignment.len() >= tree.len(), "assignment too short");
    let mut acquired = vec![0u32; catalog.len()];
    let mut cost = 0.0;
    let mut evaluated = 0;
    let mut value = true;
    for &j in schedule.order() {
        let leaf = tree.leaf(j);
        let have = acquired[leaf.stream.0];
        if leaf.items > have {
            cost += f64::from(leaf.items - have) * catalog.cost(leaf.stream);
            acquired[leaf.stream.0] = leaf.items;
        }
        evaluated += 1;
        if !assignment[j] {
            value = false;
            break; // AND is FALSE: remaining leaves short-circuited
        }
    }
    Execution {
        cost,
        value,
        evaluated,
        items_pulled: acquired,
    }
}

/// Executes a DNF schedule under a truth assignment
/// (`assignment` in flat term-major order, see [`LeafIndexer`]).
pub(crate) fn execute_dnf_impl(
    tree: &DnfTree,
    catalog: &StreamCatalog,
    schedule: &DnfSchedule,
    assignment: &[bool],
) -> Execution {
    assert!(
        assignment.len() >= tree.num_leaves(),
        "assignment too short"
    );
    let n = tree.num_terms();
    // Per-term state: None = still alive, Some(v) = resolved to v.
    let mut term_value: Vec<Option<bool>> = vec![None; n];
    let mut remaining: Vec<usize> = tree.terms().iter().map(|t| t.len()).collect();
    let mut alive_terms = n;
    let mut acquired = vec![0u32; catalog.len()];
    let mut cost = 0.0;
    let mut evaluated = 0;
    let mut value = false;
    let indexer = LeafIndexer::new(tree);

    for &r in schedule.order() {
        if term_value[r.term].is_some() {
            continue; // this AND node is already FALSE (or TRUE): skip leaf
        }
        let leaf = tree.leaf(r);
        let have = acquired[leaf.stream.0];
        if leaf.items > have {
            cost += f64::from(leaf.items - have) * catalog.cost(leaf.stream);
            acquired[leaf.stream.0] = leaf.items;
        }
        evaluated += 1;
        if assignment[indexer.flat(r)] {
            remaining[r.term] -= 1;
            if remaining[r.term] == 0 {
                // whole AND node TRUE: the OR (the query) is TRUE
                term_value[r.term] = Some(true);
                value = true;
                break;
            }
        } else {
            term_value[r.term] = Some(false);
            alive_terms -= 1;
            if alive_terms == 0 {
                // every AND node FALSE: the query is FALSE
                break;
            }
        }
    }
    Execution {
        cost,
        value,
        evaluated,
        items_pulled: acquired,
    }
}

/// Maps `(term, leaf)` addresses of a DNF tree to flat indices
/// (term-major order), the layout used for truth assignments.
#[derive(Debug, Clone)]
pub struct LeafIndexer {
    offsets: Vec<usize>,
}

impl LeafIndexer {
    /// Builds the index for a tree.
    pub fn new(tree: &DnfTree) -> LeafIndexer {
        let mut offsets = Vec::with_capacity(tree.num_terms());
        let mut acc = 0;
        for t in tree.terms() {
            offsets.push(acc);
            acc += t.len();
        }
        LeafIndexer { offsets }
    }

    /// Flat index of address `r`.
    #[inline]
    pub fn flat(&self, r: crate::leaf::LeafRef) -> usize {
        self.offsets[r.term] + r.leaf
    }
}

/// Executes a schedule over a *general* AND-OR tree.
///
/// `schedule` is an order on flat leaf indices (left-to-right leaf
/// numbering of the tree); `assignment` gives each leaf's truth value in
/// the same numbering. Short-circuit semantics: a leaf is skipped when any
/// ancestor operator node is already resolved; execution stops when the
/// root resolves.
pub(crate) fn execute_query_tree(
    tree: &QueryTree,
    catalog: &StreamCatalog,
    schedule: &[usize],
    assignment: &[bool],
) -> Execution {
    let arena = Arena::build(tree);
    assert_eq!(
        schedule.len(),
        arena.leaves.len(),
        "schedule/leaf count mismatch"
    );
    assert!(
        assignment.len() >= arena.leaves.len(),
        "assignment too short"
    );

    let mut status: Vec<Option<bool>> = vec![None; arena.nodes.len()];
    let mut pending: Vec<usize> = arena.nodes.iter().map(|n| n.num_children).collect();
    let mut acquired = vec![0u32; catalog.len()];
    let mut cost = 0.0;
    let mut evaluated = 0;

    'leaves: for &li in schedule {
        if status[arena.root].is_some() {
            break;
        }
        let node_id = arena.leaves[li];
        // A leaf is relevant only if no ancestor (nor itself) is resolved.
        let mut cursor = node_id;
        loop {
            if status[cursor].is_some() {
                continue 'leaves;
            }
            match arena.nodes[cursor].parent {
                Some(p) => cursor = p,
                None => break,
            }
        }
        let leaf = match &arena.nodes[node_id].kind {
            Kind::Leaf(l) => l,
            _ => unreachable!("leaf ids point at leaf nodes"),
        };
        let have = acquired[leaf.stream.0];
        if leaf.items > have {
            cost += f64::from(leaf.items - have) * catalog.cost(leaf.stream);
            acquired[leaf.stream.0] = leaf.items;
        }
        evaluated += 1;
        resolve(&arena, &mut status, &mut pending, node_id, assignment[li]);
    }

    Execution {
        cost,
        value: status[arena.root].unwrap_or(false),
        evaluated,
        items_pulled: acquired,
    }
}

#[derive(Debug)]
enum Kind {
    Leaf(crate::leaf::Leaf),
    And,
    Or,
}

#[derive(Debug)]
struct ArenaNode {
    kind: Kind,
    parent: Option<usize>,
    num_children: usize,
}

#[derive(Debug)]
struct Arena {
    nodes: Vec<ArenaNode>,
    leaves: Vec<usize>,
    root: usize,
}

impl Arena {
    fn build(tree: &QueryTree) -> Arena {
        let mut arena = Arena {
            nodes: Vec::new(),
            leaves: Vec::new(),
            root: 0,
        };
        let root = arena.add(tree.root(), None);
        arena.root = root;
        arena
    }

    fn add(&mut self, node: &Node, parent: Option<usize>) -> usize {
        let id = self.nodes.len();
        match node {
            Node::Leaf(l) => {
                self.nodes.push(ArenaNode {
                    kind: Kind::Leaf(*l),
                    parent,
                    num_children: 0,
                });
                self.leaves.push(id);
            }
            Node::And(cs) => {
                self.nodes.push(ArenaNode {
                    kind: Kind::And,
                    parent,
                    num_children: cs.len(),
                });
                for c in cs {
                    self.add(c, Some(id));
                }
            }
            Node::Or(cs) => {
                self.nodes.push(ArenaNode {
                    kind: Kind::Or,
                    parent,
                    num_children: cs.len(),
                });
                for c in cs {
                    self.add(c, Some(id));
                }
            }
        }
        id
    }
}

/// Sets `node`'s value and propagates resolution towards the root:
/// an AND resolves FALSE on any FALSE child and TRUE when all children are
/// TRUE; dually for OR.
fn resolve(
    arena: &Arena,
    status: &mut [Option<bool>],
    pending: &mut [usize],
    node: usize,
    value: bool,
) {
    status[node] = Some(value);
    let mut child_value = value;
    let mut cursor = arena.nodes[node].parent;
    while let Some(p) = cursor {
        if status[p].is_some() {
            break;
        }
        let resolved = match arena.nodes[p].kind {
            Kind::And => {
                if !child_value {
                    Some(false)
                } else {
                    pending[p] -= 1;
                    if pending[p] == 0 {
                        Some(true)
                    } else {
                        None
                    }
                }
            }
            Kind::Or => {
                if child_value {
                    Some(true)
                } else {
                    pending[p] -= 1;
                    if pending[p] == 0 {
                        Some(false)
                    } else {
                        None
                    }
                }
            }
            Kind::Leaf(_) => unreachable!("leaves have no children"),
        };
        match resolved {
            Some(v) => {
                status[p] = Some(v);
                child_value = v;
                cursor = arena.nodes[p].parent;
            }
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::{Leaf, LeafRef};
    use crate::prob::Prob;
    use crate::stream::StreamId;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn fig2() -> (AndTree, StreamCatalog) {
        let t = AndTree::new(vec![leaf(0, 1, 0.75), leaf(0, 2, 0.1), leaf(1, 1, 0.5)]).unwrap();
        (t, StreamCatalog::unit(2))
    }

    #[test]
    fn and_tree_all_true_pays_shared_items_once() {
        let (t, cat) = fig2();
        let s = AndSchedule::identity(3);
        let e = execute_and_tree_impl(&t, &cat, &s, &[true, true, true]);
        // l1 pulls A:1, l2 pulls A:+1, l3 pulls B:1 -> cost 3
        assert_eq!(e.cost, 3.0);
        assert!(e.value);
        assert_eq!(e.evaluated, 3);
        assert_eq!(e.items_pulled, vec![2, 1]);
    }

    #[test]
    fn and_tree_shortcircuits_on_false() {
        let (t, cat) = fig2();
        let s = AndSchedule::identity(3);
        let e = execute_and_tree_impl(&t, &cat, &s, &[false, true, true]);
        assert_eq!(e.cost, 1.0);
        assert!(!e.value);
        assert_eq!(e.evaluated, 1);
    }

    #[test]
    fn and_tree_reversed_schedule_pays_larger_item_count_first() {
        let (t, cat) = fig2();
        let s = AndSchedule::new(vec![1, 0, 2], &t).unwrap();
        let e = execute_and_tree_impl(&t, &cat, &s, &[true, true, true]);
        // l2 pulls A:2 (cost 2), l1 free, l3 pulls B:1
        assert_eq!(e.cost, 3.0);
        let e = execute_and_tree_impl(&t, &cat, &s, &[true, false, true]);
        // l2 pulls 2 items then fails
        assert_eq!(e.cost, 2.0);
        assert_eq!(e.evaluated, 1);
    }

    fn fig3() -> (DnfTree, StreamCatalog) {
        let t = DnfTree::from_leaves(vec![
            vec![leaf(0, 1, 0.5), leaf(2, 1, 0.5), leaf(3, 1, 0.5)],
            vec![leaf(1, 1, 0.5), leaf(2, 1, 0.5)],
            vec![leaf(1, 1, 0.5), leaf(3, 1, 0.5)],
        ])
        .unwrap();
        (t, StreamCatalog::unit(4))
    }

    /// The paper's Figure 3 schedule: l1..l7 numbered across ANDs:
    /// l1=(0,0) l2=(1,0) l3=(0,1) l4=(0,2) l5=(1,1) l6=(2,0) l7=(2,1).
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
    fn dnf_first_and_true_resolves_query() {
        let (t, cat) = fig3();
        let s = fig3_schedule(&t);
        // assignment flat order: (0,0),(0,1),(0,2),(1,0),(1,1),(2,0),(2,1)
        let e = execute_dnf_impl(&t, &cat, &s, &[true, true, true, true, true, true, true]);
        // evaluates l1 (A), l2 (B), l3 (C), l4 (D) -> AND1 true, stop.
        assert_eq!(e.evaluated, 4);
        assert_eq!(e.cost, 4.0);
        assert!(e.value);
    }

    #[test]
    fn dnf_shared_item_is_free_for_second_and() {
        let (t, cat) = fig3();
        let s = fig3_schedule(&t);
        // AND1 fails at l3=(0,1) (C false kills AND2's C-leaf too... but they
        // are different leaves, independent values). Set: l1 true, l3 false.
        // Flat: (0,0)=t,(0,1)=f,(0,2)=x,(1,0)=t,(1,1)=t,(2,0)...
        let e = execute_dnf_impl(&t, &cat, &s, &[true, false, true, true, true, false, true]);
        // l1: A pulled (1). l2: B pulled (1). l3: C pulled (1) -> AND1 false.
        // l4 skipped. l5=(1,1): C already in memory -> free, true ->
        // AND2 complete -> TRUE.
        assert!(e.value);
        assert_eq!(e.cost, 3.0);
        assert_eq!(e.evaluated, 4);
    }

    #[test]
    fn dnf_all_false_costs_only_first_leaves() {
        let (t, cat) = fig3();
        let s = fig3_schedule(&t);
        let e = execute_dnf_impl(&t, &cat, &s, &[false; 7]);
        // l1 false (A, cost1) kills AND1; l2 false (B cost 1) kills AND2;
        // l6=(2,0) is B: free, false kills AND3 -> query FALSE.
        assert!(!e.value);
        assert_eq!(e.cost, 2.0);
        assert_eq!(e.evaluated, 3);
    }

    #[test]
    fn general_tree_matches_dnf_interpreter() {
        let (t, cat) = fig3();
        let qt = QueryTree::from(t.clone());
        let s = fig3_schedule(&t);
        let indexer = LeafIndexer::new(&t);
        let flat: Vec<usize> = s.order().iter().map(|&r| indexer.flat(r)).collect();
        for mask in 0..(1u32 << 7) {
            let assignment: Vec<bool> = (0..7).map(|b| mask >> b & 1 == 1).collect();
            let e1 = execute_dnf_impl(&t, &cat, &s, &assignment);
            let e2 = execute_query_tree(&qt, &cat, &flat, &assignment);
            assert_eq!(e1.cost, e2.cost, "mask {mask}");
            assert_eq!(e1.value, e2.value, "mask {mask}");
            assert_eq!(e1.evaluated, e2.evaluated, "mask {mask}");
        }
    }

    mod equivalence_props {
        use super::*;
        use proptest::prelude::*;
        use rand::prelude::*;

        fn dnf_instance() -> impl Strategy<Value = (DnfTree, StreamCatalog)> {
            let leaf_s = (0usize..3, 1u32..=4, 0.0f64..=1.0);
            let term = prop::collection::vec(leaf_s, 1..=2);
            let terms = prop::collection::vec(term, 1..=3);
            let costs = prop::collection::vec(0.1f64..10.0, 3);
            (terms, costs).prop_map(|(terms, costs)| {
                let catalog = StreamCatalog::from_costs(costs).expect("valid costs");
                let tree = DnfTree::from_leaves(
                    terms
                        .into_iter()
                        .map(|t| t.into_iter().map(|(s, d, p)| leaf(s, d, p)).collect())
                        .collect(),
                )
                .expect("non-empty");
                (tree, catalog)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The general-tree interpreter agrees with the DNF
            /// interpreter on every truth assignment of random shared
            /// instances and random schedules — cost, value and
            /// evaluated count (the per-assignment equivalence the
            /// expectation oracles alone cannot witness: opposite-sign
            /// cost errors would cancel, and truth values never enter
            /// an expected cost).
            #[test]
            fn general_tree_matches_dnf_on_random_instances(
                (tree, catalog) in dnf_instance(),
                seed in proptest::prelude::any::<u64>(),
            ) {
                let mut refs: Vec<LeafRef> = tree.leaf_refs().collect();
                refs.shuffle(&mut StdRng::seed_from_u64(seed));
                let s = DnfSchedule::new(refs, &tree).expect("leaf permutation");
                let qt = QueryTree::from(tree.clone());
                let indexer = LeafIndexer::new(&tree);
                let flat: Vec<usize> =
                    s.order().iter().map(|&r| indexer.flat(r)).collect();
                let n = tree.num_leaves();
                for mask in 0u32..(1 << n) {
                    let assignment: Vec<bool> =
                        (0..n).map(|b| mask >> b & 1 == 1).collect();
                    let a = execute_dnf_impl(&tree, &catalog, &s, &assignment);
                    let b = execute_query_tree(&qt, &catalog, &flat, &assignment);
                    prop_assert_eq!(a.cost, b.cost, "mask {}", mask);
                    prop_assert_eq!(a.value, b.value, "mask {}", mask);
                    prop_assert_eq!(a.evaluated, b.evaluated, "mask {}", mask);
                }
            }
        }
    }

    #[test]
    fn nested_tree_shortcircuits_inner_or() {
        // AND(OR(a, b), c): if a true, b is irrelevant.
        let qt = QueryTree::new(Node::and(vec![
            Node::or(vec![
                Node::Leaf(leaf(0, 1, 0.5)),
                Node::Leaf(leaf(1, 5, 0.5)),
            ]),
            Node::Leaf(leaf(2, 1, 0.5)),
        ]))
        .unwrap();
        let cat = StreamCatalog::unit(3);
        let e = execute_query_tree(&qt, &cat, &[0, 1, 2], &[true, true, true]);
        assert_eq!(e.evaluated, 2); // b skipped
        assert_eq!(e.cost, 2.0);
        assert!(e.value);
        let e = execute_query_tree(&qt, &cat, &[0, 1, 2], &[false, false, true]);
        assert!(!e.value);
        assert_eq!(e.evaluated, 2); // a, b; c short-circuited by AND false
        assert_eq!(e.cost, 6.0);
    }
}
