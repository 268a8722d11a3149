//! Schedules: total orders on the leaves of a query tree.
//!
//! The paper defines a *schedule* (a "linear strategy") as a sorted
//! sequence of the leaves; the query engine evaluates leaves in that order,
//! skipping any leaf whose truth value can no longer influence the root
//! (short-circuiting). This module provides validated schedule types for
//! AND-trees and DNF trees plus the depth-first test of Theorem 2.

use crate::error::{Error, Result};
use crate::leaf::LeafRef;
use crate::tree::{AndTree, DnfTree};
use std::fmt;

/// A schedule for an [`AndTree`]: a permutation of `0..m` leaf indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AndSchedule(Vec<usize>);

impl AndSchedule {
    /// Wraps an order after checking it is a permutation of the tree's
    /// leaf indices.
    pub fn new(order: Vec<usize>, tree: &AndTree) -> Result<AndSchedule> {
        let m = tree.len();
        if order.len() != m {
            return Err(Error::InvalidSchedule(format!(
                "schedule has {} entries but the tree has {} leaves",
                order.len(),
                m
            )));
        }
        let mut seen = vec![false; m];
        for &j in &order {
            if j >= m {
                return Err(Error::InvalidSchedule(format!(
                    "leaf index {j} out of range"
                )));
            }
            if seen[j] {
                return Err(Error::InvalidSchedule(format!(
                    "leaf index {j} appears twice"
                )));
            }
            seen[j] = true;
        }
        Ok(AndSchedule(order))
    }

    /// Unchecked constructor for algorithm outputs that are permutations by
    /// construction.
    pub(crate) fn from_order_unchecked(order: Vec<usize>) -> AndSchedule {
        AndSchedule(order)
    }

    /// The identity schedule `0, 1, ..., m-1`.
    pub fn identity(m: usize) -> AndSchedule {
        AndSchedule((0..m).collect())
    }

    /// Leaf indices in evaluation order.
    #[inline]
    pub fn order(&self) -> &[usize] {
        &self.0
    }

    /// Number of scheduled leaves.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

impl fmt::Display for AndSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|j| format!("l{}", j + 1)).collect();
        write!(f, "{}", parts.join(", "))
    }
}

/// A schedule for a [`DnfTree`]: a permutation of all leaf addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnfSchedule(Vec<LeafRef>);

impl DnfSchedule {
    /// Wraps an order after checking it is a permutation of the tree's
    /// leaf addresses.
    pub fn new(order: Vec<LeafRef>, tree: &DnfTree) -> Result<DnfSchedule> {
        let total = tree.num_leaves();
        if order.len() != total {
            return Err(Error::InvalidSchedule(format!(
                "schedule has {} entries but the tree has {total} leaves",
                order.len()
            )));
        }
        let mut seen = vec![false; total];
        for &r in &order {
            if r.term >= tree.num_terms() || r.leaf >= tree.term(r.term).len() {
                return Err(Error::InvalidSchedule(format!("{r} out of range")));
            }
            let flat = flat_index(tree, r);
            if seen[flat] {
                return Err(Error::InvalidSchedule(format!("{r} appears twice")));
            }
            seen[flat] = true;
        }
        Ok(DnfSchedule(order))
    }

    /// Unchecked constructor for algorithm outputs that are permutations by
    /// construction.
    pub fn from_order_unchecked(order: Vec<LeafRef>) -> DnfSchedule {
        DnfSchedule(order)
    }

    /// The declaration-order schedule (term by term, leaf by leaf).
    pub fn declaration_order(tree: &DnfTree) -> DnfSchedule {
        DnfSchedule(tree.leaf_refs().collect())
    }

    /// Leaf addresses in evaluation order.
    #[inline]
    pub fn order(&self) -> &[LeafRef] {
        &self.0
    }

    /// Number of scheduled leaves.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty schedule.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True when the schedule is *depth-first*: it processes AND nodes one
    /// by one, never starting a new AND node before the current one has all
    /// its leaves scheduled. Theorem 2 shows some optimal schedule always
    /// has this shape.
    pub(crate) fn is_depth_first(&self, tree: &DnfTree) -> bool {
        let mut remaining: Vec<usize> = tree.terms().iter().map(|t| t.len()).collect();
        let mut open: Option<usize> = None;
        for r in &self.0 {
            match open {
                Some(t) if t != r.term => return false,
                _ => {}
            }
            remaining[r.term] -= 1;
            open = if remaining[r.term] == 0 {
                None
            } else {
                Some(r.term)
            };
        }
        true
    }
}

impl fmt::Display for DnfSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|r| r.to_string()).collect();
        write!(f, "{}", parts.join(", "))
    }
}

fn flat_index(tree: &DnfTree, r: LeafRef) -> usize {
    let mut base = 0;
    for t in 0..r.term {
        base += tree.term(t).len();
    }
    base + r.leaf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;

    fn leaf(s: usize) -> Leaf {
        Leaf::new(StreamId(s), 1, Prob::HALF).unwrap()
    }

    fn tree_2x2() -> DnfTree {
        DnfTree::from_leaves(vec![vec![leaf(0), leaf(1)], vec![leaf(2), leaf(3)]]).unwrap()
    }

    #[test]
    fn and_schedule_validation() {
        let t = AndTree::new(vec![leaf(0), leaf(1), leaf(2)]).unwrap();
        assert!(AndSchedule::new(vec![2, 0, 1], &t).is_ok());
        assert!(AndSchedule::new(vec![0, 1], &t).is_err());
        assert!(AndSchedule::new(vec![0, 0, 1], &t).is_err());
        assert!(AndSchedule::new(vec![0, 1, 3], &t).is_err());
    }

    #[test]
    fn dnf_schedule_validation() {
        let t = tree_2x2();
        let ok = vec![
            LeafRef::new(0, 0),
            LeafRef::new(1, 0),
            LeafRef::new(0, 1),
            LeafRef::new(1, 1),
        ];
        assert!(DnfSchedule::new(ok, &t).is_ok());
        let dup = vec![
            LeafRef::new(0, 0),
            LeafRef::new(0, 0),
            LeafRef::new(0, 1),
            LeafRef::new(1, 1),
        ];
        assert!(DnfSchedule::new(dup, &t).is_err());
        let out = vec![
            LeafRef::new(0, 0),
            LeafRef::new(2, 0),
            LeafRef::new(0, 1),
            LeafRef::new(1, 1),
        ];
        assert!(DnfSchedule::new(out, &t).is_err());
    }

    #[test]
    fn depth_first_detection() {
        let t = tree_2x2();
        let df = DnfSchedule::declaration_order(&t);
        assert!(df.is_depth_first(&t));
        let interleaved = DnfSchedule::new(
            vec![
                LeafRef::new(0, 0),
                LeafRef::new(1, 0),
                LeafRef::new(0, 1),
                LeafRef::new(1, 1),
            ],
            &t,
        )
        .unwrap();
        assert!(!interleaved.is_depth_first(&t));
    }

    #[test]
    fn display_format() {
        let t = AndTree::new(vec![leaf(0), leaf(1)]).unwrap();
        let s = AndSchedule::new(vec![1, 0], &t).unwrap();
        assert_eq!(s.to_string(), "l2, l1");
    }
}
