//! AND-trees: single-level trees with an AND operator at the root.
//!
//! The tree is TRUE iff every leaf is TRUE; as soon as a leaf evaluates to
//! FALSE the remaining leaves are short-circuited. Section III of the paper
//! gives an optimal `O(m^2)` scheduling algorithm for AND-trees in the
//! shared-streams model (implemented in [`crate::algo::greedy`]).

use crate::error::{Error, Result};
use crate::leaf::Leaf;
use crate::prob::{self, Prob};
use crate::stream::{StreamCatalog, StreamId};
use std::collections::BTreeMap;

/// A single-level AND query: the conjunction of `m` leaf predicates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AndTree {
    leaves: Vec<Leaf>,
}

impl AndTree {
    /// Creates an AND-tree from its leaves; rejects empty trees.
    pub fn new(leaves: Vec<Leaf>) -> Result<AndTree> {
        if leaves.is_empty() {
            return Err(Error::EmptyTree);
        }
        Ok(AndTree { leaves })
    }

    /// The leaves, in their original (declaration) order.
    #[inline]
    pub fn leaves(&self) -> &[Leaf] {
        &self.leaves
    }

    /// Leaf at index `j`.
    #[inline]
    pub fn leaf(&self, j: usize) -> &Leaf {
        &self.leaves[j]
    }

    /// Number of leaves, `m`.
    #[inline]
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True when the tree has no leaves (only possible via `Default`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Probability that the whole AND evaluates to TRUE:
    /// the product of all leaf success probabilities.
    pub(crate) fn success_prob(&self) -> Prob {
        prob::product(self.leaves.iter().map(|l| l.prob))
    }

    /// Leaf indices grouped by stream, each group sorted by increasing
    /// `d_j` (number of required items) with ties broken by leaf index.
    ///
    /// These are the paper's sets `L_k = { l_j | S(l_j) = S_k }`, in the
    /// order Algorithm 1 scans them.
    pub(crate) fn leaves_by_stream(&self) -> BTreeMap<StreamId, Vec<usize>> {
        let mut map: BTreeMap<StreamId, Vec<usize>> = BTreeMap::new();
        for (j, l) in self.leaves.iter().enumerate() {
            map.entry(l.stream).or_default().push(j);
        }
        for group in map.values_mut() {
            group.sort_by_key(|&j| (self.leaves[j].items, j));
        }
        map
    }

    /// True when no stream occurs in more than one leaf — the classical
    /// *read-once* assumption under which Smith's greedy is optimal.
    pub(crate) fn is_read_once(&self) -> bool {
        self.leaves_by_stream().values().all(|g| g.len() == 1)
    }

    /// The sharing ratio `rho` = number of leaves / number of distinct
    /// streams (the paper's Section III-B instance parameter).
    pub fn sharing_ratio(&self) -> f64 {
        let streams = self.leaves_by_stream().len();
        if streams == 0 {
            return 0.0;
        }
        self.leaves.len() as f64 / streams as f64
    }

    /// Validates every leaf against the catalog.
    pub fn validate(&self, catalog: &StreamCatalog) -> Result<()> {
        if self.leaves.is_empty() {
            return Err(Error::EmptyTree);
        }
        for l in &self.leaves {
            l.validate(catalog)?;
        }
        Ok(())
    }
}

impl From<Vec<Leaf>> for AndTree {
    fn from(leaves: Vec<Leaf>) -> AndTree {
        AndTree { leaves }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    /// The example AND-tree of the paper's Figure 2.
    pub(crate) fn fig2_tree() -> AndTree {
        AndTree::new(vec![leaf(0, 1, 0.75), leaf(0, 2, 0.1), leaf(1, 1, 0.5)]).unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(AndTree::new(vec![]), Err(Error::EmptyTree));
    }

    #[test]
    fn groups_by_stream_in_increasing_item_order() {
        let t = AndTree::new(vec![leaf(0, 5, 0.5), leaf(1, 1, 0.5), leaf(0, 2, 0.5)]).unwrap();
        let groups = t.leaves_by_stream();
        assert_eq!(groups[&StreamId(0)], vec![2, 0]); // d=2 before d=5
        assert_eq!(groups[&StreamId(1)], vec![1]);
    }

    #[test]
    fn read_once_detection() {
        let shared = fig2_tree();
        assert!(!shared.is_read_once());
        let ro = AndTree::new(vec![leaf(0, 1, 0.5), leaf(1, 2, 0.5)]).unwrap();
        assert!(ro.is_read_once());
    }

    #[test]
    fn sharing_ratio_counts_leaves_per_stream() {
        let t = fig2_tree(); // 3 leaves, 2 streams
        assert!((t.sharing_ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn success_prob_is_product() {
        let t = fig2_tree();
        assert!((t.success_prob().value() - 0.75 * 0.1 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn validate_requires_known_streams() {
        let t = fig2_tree();
        assert!(t.validate(&StreamCatalog::unit(2)).is_ok());
        assert!(t.validate(&StreamCatalog::unit(1)).is_err());
    }
}
