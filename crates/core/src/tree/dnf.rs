//! DNF trees: an OR of AND nodes (disjunctive normal form).
//!
//! The paper's Section IV studies these two-level trees: the root OR has
//! `N` AND children, AND node `i` has `m_i` leaves `l_{i,j}`. The tree is
//! TRUE as soon as one AND node has all its leaves TRUE, and FALSE once
//! every AND node contains a FALSE leaf.

use crate::error::{Error, Result};
use crate::leaf::{Leaf, LeafRef};
use crate::prob::{self, Prob};
use crate::stream::{StreamCatalog, StreamId};
use crate::tree::and_tree::AndTree;
use std::collections::BTreeMap;

/// One AND node of a DNF tree: a conjunction of leaves.
#[derive(Debug, Clone, PartialEq)]
pub struct AndTerm {
    leaves: Vec<Leaf>,
}

impl AndTerm {
    /// Creates an AND term; rejects empty terms.
    pub(crate) fn new(leaves: Vec<Leaf>) -> Result<AndTerm> {
        if leaves.is_empty() {
            return Err(Error::EmptyTree);
        }
        Ok(AndTerm { leaves })
    }

    /// The term's leaves in declaration order.
    #[inline]
    pub fn leaves(&self) -> &[Leaf] {
        &self.leaves
    }

    /// Number of leaves `m_i`.
    #[inline]
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Always false: `new` rejects empty terms.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Probability that the whole AND node evaluates to TRUE.
    pub(crate) fn success_prob(&self) -> Prob {
        prob::product(self.leaves.iter().map(|l| l.prob))
    }

    /// View of this term as a stand-alone [`AndTree`] (used by the
    /// AND-ordered heuristics, which schedule each AND node with
    /// Algorithm 1 in isolation).
    pub fn as_and_tree(&self) -> AndTree {
        AndTree::from(self.leaves.clone())
    }
}

impl From<Vec<Leaf>> for AndTerm {
    fn from(leaves: Vec<Leaf>) -> AndTerm {
        AndTerm { leaves }
    }
}

/// A DNF query tree: `OR(AND_1, ..., AND_N)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DnfTree {
    terms: Vec<AndTerm>,
}

impl DnfTree {
    /// Creates a DNF tree; rejects trees with no terms.
    pub(crate) fn new(terms: Vec<AndTerm>) -> Result<DnfTree> {
        if terms.is_empty() {
            return Err(Error::EmptyTree);
        }
        Ok(DnfTree { terms })
    }

    /// Builds a DNF tree from nested leaf vectors.
    pub fn from_leaves(terms: Vec<Vec<Leaf>>) -> Result<DnfTree> {
        let terms = terms
            .into_iter()
            .map(AndTerm::new)
            .collect::<Result<Vec<_>>>()?;
        DnfTree::new(terms)
    }

    /// Wraps a single AND-tree as a one-term DNF.
    pub(crate) fn from_and_tree(tree: &AndTree) -> DnfTree {
        DnfTree {
            terms: vec![AndTerm::from(tree.leaves().to_vec())],
        }
    }

    /// The AND nodes.
    #[inline]
    pub fn terms(&self) -> &[AndTerm] {
        &self.terms
    }

    /// AND node `i`.
    #[inline]
    pub fn term(&self, i: usize) -> &AndTerm {
        &self.terms[i]
    }

    /// Number of AND nodes, `N`.
    #[inline]
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Total number of leaves, `|L| = sum m_i`.
    pub fn num_leaves(&self) -> usize {
        self.terms.iter().map(|t| t.len()).sum()
    }

    /// Leaf at address `r`.
    #[inline]
    pub fn leaf(&self, r: LeafRef) -> &Leaf {
        &self.terms[r.term].leaves[r.leaf]
    }

    /// Iterator over all leaf addresses in `(term, leaf)` order.
    pub fn leaf_refs(&self) -> impl Iterator<Item = LeafRef> + '_ {
        self.terms
            .iter()
            .enumerate()
            .flat_map(|(i, t)| (0..t.len()).map(move |j| LeafRef::new(i, j)))
    }

    /// Iterator over `(LeafRef, &Leaf)` pairs.
    pub fn leaves(&self) -> impl Iterator<Item = (LeafRef, &Leaf)> {
        self.terms.iter().enumerate().flat_map(|(i, t)| {
            t.leaves()
                .iter()
                .enumerate()
                .map(move |(j, l)| (LeafRef::new(i, j), l))
        })
    }

    /// Maximum number of items any leaf requires, the paper's
    /// `D = max d_{i,j}` (drives the Proposition 2 evaluator complexity
    /// `O(|L| * D * N^2)`).
    pub(crate) fn max_items(&self) -> u32 {
        self.leaves().map(|(_, l)| l.items).max().unwrap_or(0)
    }

    /// Leaf addresses grouped by stream, each group sorted by increasing
    /// item requirement (ties by address).
    pub(crate) fn leaves_by_stream(&self) -> BTreeMap<StreamId, Vec<LeafRef>> {
        let mut map: BTreeMap<StreamId, Vec<LeafRef>> = BTreeMap::new();
        for (r, l) in self.leaves() {
            map.entry(l.stream).or_default().push(r);
        }
        for group in map.values_mut() {
            group.sort_by_key(|&r| (self.leaf(r).items, r));
        }
        map
    }

    /// The distinct streams used by the tree.
    pub fn streams(&self) -> Vec<StreamId> {
        self.leaves_by_stream().into_keys().collect()
    }

    /// True when no stream occurs in more than one leaf (read-once case).
    pub fn is_read_once(&self) -> bool {
        self.leaves_by_stream().values().all(|g| g.len() == 1)
    }

    /// Validates shape and stream references.
    pub fn validate(&self, catalog: &StreamCatalog) -> Result<()> {
        if self.terms.is_empty() {
            return Err(Error::EmptyTree);
        }
        for t in &self.terms {
            if t.is_empty() {
                return Err(Error::EmptyTree);
            }
            for l in t.leaves() {
                l.validate(catalog)?;
            }
        }
        Ok(())
    }
}

/// Pairwise Jaccard overlap of several trees' stream sets: entry
/// `[i][j]` is `|S_i ∩ S_j| / |S_i ∪ S_j|` (1 on the diagonal). This is
/// the canonical cross-query overlap metric — the workload generator
/// and the multi-query interference analysis both build on it.
pub fn pairwise_stream_overlap(trees: &[DnfTree]) -> Vec<Vec<f64>> {
    let sets: Vec<std::collections::BTreeSet<StreamId>> = trees
        .iter()
        .map(|t| t.streams().into_iter().collect())
        .collect();
    let n = sets.len();
    let mut out = vec![vec![0.0; n]; n];
    for i in 0..n {
        out[i][i] = 1.0;
        for j in (i + 1)..n {
            let inter = sets[i].intersection(&sets[j]).count();
            let union = sets[i].union(&sets[j]).count();
            let jac = if union == 0 {
                0.0
            } else {
                inter as f64 / union as f64
            };
            out[i][j] = jac;
            out[j][i] = jac;
        }
    }
    out
}

/// Mean off-diagonal entry of a symmetric pairwise-overlap matrix (as
/// produced by [`pairwise_stream_overlap`]); 0 for fewer than two rows.
pub fn mean_pairwise_overlap_from_matrix(matrix: &[Vec<f64>]) -> f64 {
    let n = matrix.len();
    if n < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for (i, row) in matrix.iter().enumerate() {
        for &v in &row[(i + 1)..] {
            total += v;
        }
    }
    total / (n * (n - 1) / 2) as f64
}

/// Mean off-diagonal entry of [`pairwise_stream_overlap`]; 0 for fewer
/// than two trees.
pub fn mean_pairwise_stream_overlap(trees: &[DnfTree]) -> f64 {
    mean_pairwise_overlap_from_matrix(&pairwise_stream_overlap(trees))
}

/// A DNF tree bundled with the stream catalog it refers to.
///
/// This is the unit the generators produce and the heuristics consume:
/// the paper's notion of a *problem instance*.
#[derive(Debug, Clone, PartialEq)]
pub struct DnfInstance {
    /// The query tree.
    pub tree: DnfTree,
    /// Per-stream acquisition costs.
    pub catalog: StreamCatalog,
}

impl DnfInstance {
    /// Bundles a tree with its catalog after validating the pair.
    pub fn new(tree: DnfTree, catalog: StreamCatalog) -> Result<DnfInstance> {
        tree.validate(&catalog)?;
        Ok(DnfInstance { tree, catalog })
    }

    /// Total number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.tree.num_leaves()
    }

    /// Number of AND nodes.
    pub fn num_terms(&self) -> usize {
        self.tree.num_terms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    /// The DNF tree of the paper's Figure 3 (streams A,B,C,D = 0,1,2,3),
    /// with all leaves requiring one item. Probabilities are symbolic in
    /// the paper; tests plug in concrete values.
    fn fig3_tree(p: [f64; 7]) -> DnfTree {
        DnfTree::from_leaves(vec![
            vec![leaf(0, 1, p[0]), leaf(2, 1, p[2]), leaf(3, 1, p[3])],
            vec![leaf(1, 1, p[1]), leaf(2, 1, p[4])],
            vec![leaf(1, 1, p[5]), leaf(3, 1, p[6])],
        ])
        .unwrap()
    }

    #[test]
    fn counts_and_addressing() {
        let t = fig3_tree([0.5; 7]);
        assert_eq!(t.num_terms(), 3);
        assert_eq!(t.num_leaves(), 7);
        assert_eq!(t.leaf(LeafRef::new(1, 1)).stream, StreamId(2));
        assert_eq!(t.leaf_refs().count(), 7);
        assert_eq!(t.max_items(), 1);
    }

    #[test]
    fn success_probability_of_or_of_ands() {
        let t = fig3_tree([0.5; 7]);
        // AND probs: 0.125, 0.25, 0.25 -> 1 - 0.875*0.75*0.75
        let expect = 1.0 - 0.875 * 0.75 * 0.75;
        let fail: f64 = t
            .terms()
            .iter()
            .map(|term| term.success_prob().fail())
            .product();
        assert!((1.0 - fail - expect).abs() < 1e-12);
    }

    #[test]
    fn stream_grouping_and_sharing() {
        let t = fig3_tree([0.5; 7]);
        let groups = t.leaves_by_stream();
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[&StreamId(1)].len(), 2); // B used by l2 and l6
        assert!(!t.is_read_once());
    }

    #[test]
    fn rejects_empty_shapes() {
        assert!(DnfTree::new(vec![]).is_err());
        assert!(AndTerm::new(vec![]).is_err());
        assert!(DnfTree::from_leaves(vec![vec![]]).is_err());
    }

    #[test]
    fn instance_validation() {
        let t = fig3_tree([0.5; 7]);
        assert!(DnfInstance::new(t.clone(), StreamCatalog::unit(4)).is_ok());
        assert!(DnfInstance::new(t, StreamCatalog::unit(3)).is_err());
    }

    #[test]
    fn single_term_dnf_from_and_tree() {
        let at = AndTree::new(vec![leaf(0, 2, 0.5)]).unwrap();
        let d = DnfTree::from_and_tree(&at);
        assert_eq!(d.num_terms(), 1);
        assert_eq!(d.num_leaves(), 1);
    }
}
