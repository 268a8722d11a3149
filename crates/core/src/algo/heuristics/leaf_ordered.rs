//! Leaf-ordered heuristics (Section IV-D).
//!
//! These ignore the tree structure entirely and sort the flat list of
//! leaves by a per-leaf key: the stand-alone cost `C = d * c(S)`, the
//! failure probability `q`, or the ratio `C/q`, plus a uniformly random
//! baseline. They are cheap (`O(L log L)`) but, as the paper's Figure 5/6
//! show, clearly dominated by the structure-aware AND-ordered family.

use crate::leaf::LeafRef;
use crate::schedule::DnfSchedule;
use crate::stream::StreamCatalog;
use crate::tree::DnfTree;
use rand::prelude::*;

/// Sort key selection for the leaf-ordered family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LeafKey {
    /// Decreasing failure probability `q` (maximize short-circuit chance).
    DecreasingQ,
    /// Increasing stand-alone cost `C = d * c(S)`.
    IncreasingC,
    /// Increasing `C / q` (Smith-style ratio applied blindly).
    IncreasingCOverQ,
}

/// Schedules all leaves by the chosen key (ties broken by leaf address,
/// so results are deterministic).
pub(crate) fn schedule(tree: &DnfTree, catalog: &StreamCatalog, key: LeafKey) -> DnfSchedule {
    let mut refs: Vec<LeafRef> = tree.leaf_refs().collect();
    refs.sort_by(|&a, &b| {
        let ka = key_value(tree, catalog, a, key);
        let kb = key_value(tree, catalog, b, key);
        ka.total_cmp(&kb).then(a.cmp(&b))
    });
    DnfSchedule::from_order_unchecked(refs)
}

/// Random leaf order — the paper's baseline heuristic.
pub(crate) fn schedule_random<R: Rng + ?Sized>(tree: &DnfTree, rng: &mut R) -> DnfSchedule {
    let mut refs: Vec<LeafRef> = tree.leaf_refs().collect();
    refs.shuffle(rng);
    DnfSchedule::from_order_unchecked(refs)
}

fn key_value(tree: &DnfTree, catalog: &StreamCatalog, r: LeafRef, key: LeafKey) -> f64 {
    let leaf = tree.leaf(r);
    let c = leaf.standalone_cost(catalog);
    let q = leaf.fail();
    match key {
        // negate q so that ascending sort = decreasing q
        LeafKey::DecreasingQ => -q,
        LeafKey::IncreasingC => c,
        LeafKey::IncreasingCOverQ => {
            if q <= 0.0 {
                if c == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                c / q
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn tree() -> (DnfTree, StreamCatalog) {
        (
            DnfTree::from_leaves(vec![
                vec![leaf(0, 4, 0.9), leaf(1, 1, 0.2)],
                vec![leaf(0, 2, 0.5), leaf(1, 3, 0.7)],
            ])
            .unwrap(),
            StreamCatalog::from_costs([1.0, 2.0]).unwrap(),
        )
    }

    #[test]
    fn decreasing_q_puts_likely_failures_first() {
        let (t, cat) = tree();
        let s = schedule(&t, &cat, LeafKey::DecreasingQ);
        // q values: (0,0)=0.1 (0,1)=0.8 (1,0)=0.5 (1,1)=0.3
        assert_eq!(s.order()[0], LeafRef::new(0, 1));
        assert_eq!(s.order()[3], LeafRef::new(0, 0));
    }

    #[test]
    fn increasing_c_puts_cheap_leaves_first() {
        let (t, cat) = tree();
        let s = schedule(&t, &cat, LeafKey::IncreasingC);
        // C values: (0,0)=4 (0,1)=2 (1,0)=2 (1,1)=6
        assert_eq!(s.order()[0], LeafRef::new(0, 1)); // tie with (1,0), address order
        assert_eq!(s.order()[1], LeafRef::new(1, 0));
        assert_eq!(s.order()[3], LeafRef::new(1, 1));
    }

    #[test]
    fn ratio_order() {
        let (t, cat) = tree();
        let s = schedule(&t, &cat, LeafKey::IncreasingCOverQ);
        // C/q: (0,0)=40 (0,1)=2.5 (1,0)=4 (1,1)=20
        let expect = [
            LeafRef::new(0, 1),
            LeafRef::new(1, 0),
            LeafRef::new(1, 1),
            LeafRef::new(0, 0),
        ];
        assert_eq!(s.order(), expect);
    }

    #[test]
    fn random_is_a_valid_permutation_and_seed_deterministic() {
        let (t, _) = tree();
        let mut rng1 = StdRng::seed_from_u64(5);
        let mut rng2 = StdRng::seed_from_u64(5);
        let s1 = schedule_random(&t, &mut rng1);
        let s2 = schedule_random(&t, &mut rng2);
        assert_eq!(s1, s2);
        assert!(DnfSchedule::new(s1.order().to_vec(), &t).is_ok());
    }

    #[test]
    fn certain_leaves_sort_last_under_ratio() {
        let t = DnfTree::from_leaves(vec![vec![leaf(0, 1, 1.0), leaf(1, 1, 0.5)]]).unwrap();
        let cat = StreamCatalog::unit(2);
        let s = schedule(&t, &cat, LeafKey::IncreasingCOverQ);
        assert_eq!(s.order()[0], LeafRef::new(0, 1));
    }
}
