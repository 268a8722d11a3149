//! General AND-OR trees of arbitrary depth.
//!
//! The paper's complexity results concern AND-trees and DNF trees, but the
//! PAOTR problem is defined over arbitrary AND-OR trees (its complexity in
//! the shared model is open, as it is in the read-once model). This module
//! provides the general representation plus classification, normalization
//! and conversions; exact evaluation of general trees is done by the
//! ground-truth interpreter in [`crate::cost::execution`].

use crate::error::{Error, Result};
use crate::leaf::Leaf;
use crate::prob::Prob;
use crate::stream::{StreamCatalog, StreamId};
use crate::tree::and_tree::AndTree;
use crate::tree::dnf::{AndTerm, DnfTree};
use std::collections::BTreeMap;

/// A node of a general AND-OR tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A probabilistic leaf predicate.
    Leaf(Leaf),
    /// Conjunction: TRUE iff all children are TRUE.
    And(Vec<Node>),
    /// Disjunction: TRUE iff at least one child is TRUE.
    Or(Vec<Node>),
}

impl Node {
    /// Builds an AND node.
    pub fn and(children: Vec<Node>) -> Node {
        Node::And(children)
    }

    /// Builds an OR node.
    pub fn or(children: Vec<Node>) -> Node {
        Node::Or(children)
    }

    /// Builds a leaf node.
    pub fn leaf(stream: StreamId, items: u32, prob: Prob) -> Result<Node> {
        Ok(Node::Leaf(Leaf::new(stream, items, prob)?))
    }

    /// Number of leaves in the subtree.
    pub(crate) fn num_leaves(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::And(cs) | Node::Or(cs) => cs.iter().map(Node::num_leaves).sum(),
        }
    }

    /// Collects the subtree's leaves in left-to-right order.
    pub(crate) fn collect_leaves<'a>(&'a self, out: &mut Vec<&'a Leaf>) {
        match self {
            Node::Leaf(l) => out.push(l),
            Node::And(cs) | Node::Or(cs) => {
                for c in cs {
                    c.collect_leaves(out);
                }
            }
        }
    }

    /// Validates shape (no empty operator nodes) and stream references.
    pub(crate) fn validate(&self, catalog: &StreamCatalog) -> Result<()> {
        match self {
            Node::Leaf(l) => l.validate(catalog),
            Node::And(cs) | Node::Or(cs) => {
                if cs.is_empty() {
                    return Err(Error::EmptyTree);
                }
                for c in cs {
                    c.validate(catalog)?;
                }
                Ok(())
            }
        }
    }
}

/// A general AND-OR query tree.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTree {
    root: Node,
}

impl QueryTree {
    /// Wraps a root node after a shape check (no empty operator nodes).
    pub fn new(root: Node) -> Result<QueryTree> {
        check_shape(&root)?;
        Ok(QueryTree { root })
    }

    /// The root node.
    #[inline]
    pub(crate) fn root(&self) -> &Node {
        &self.root
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.root.num_leaves()
    }

    /// All leaves, left-to-right.
    pub(crate) fn leaves(&self) -> Vec<&Leaf> {
        let mut out = Vec::with_capacity(self.num_leaves());
        self.root.collect_leaves(&mut out);
        out
    }

    /// Leaves grouped by stream.
    pub(crate) fn leaves_by_stream(&self) -> BTreeMap<StreamId, usize> {
        let mut map = BTreeMap::new();
        for l in self.leaves() {
            *map.entry(l.stream).or_insert(0) += 1;
        }
        map
    }

    /// True when no stream occurs at more than one leaf.
    pub fn is_read_once(&self) -> bool {
        self.leaves_by_stream().values().all(|&n| n == 1)
    }

    /// Validates against a stream catalog.
    pub(crate) fn validate(&self, catalog: &StreamCatalog) -> Result<()> {
        self.root.validate(catalog)
    }

    /// Attempts to view the tree as a single-level AND-tree
    /// (after normalization).
    pub(crate) fn as_and_tree(&self) -> Option<AndTree> {
        let n = normalize(&self.root);
        match n {
            Node::Leaf(l) => Some(AndTree::from(vec![l])),
            Node::And(cs) => {
                let leaves: Option<Vec<Leaf>> = cs
                    .into_iter()
                    .map(|c| if let Node::Leaf(l) = c { Some(l) } else { None })
                    .collect();
                leaves.map(AndTree::from)
            }
            _ => None,
        }
    }

    /// Attempts to view the tree as a DNF (OR of ANDs of leaves), after
    /// normalization. Single leaves directly under the OR are treated as
    /// one-leaf AND terms, and an AND-tree is a one-term DNF.
    pub fn as_dnf(&self) -> Option<DnfTree> {
        let n = normalize(&self.root);
        let to_term = |node: Node| -> Option<AndTerm> {
            match node {
                Node::Leaf(l) => Some(AndTerm::from(vec![l])),
                Node::And(cs) => {
                    let leaves: Option<Vec<Leaf>> = cs
                        .into_iter()
                        .map(|c| if let Node::Leaf(l) = c { Some(l) } else { None })
                        .collect();
                    leaves.map(AndTerm::from)
                }
                Node::Or(_) => None,
            }
        };
        match n {
            Node::Or(cs) => {
                let terms: Option<Vec<AndTerm>> = cs.into_iter().map(to_term).collect();
                terms.and_then(|t| DnfTree::new(t).ok())
            }
            other => to_term(other).map(|t| DnfTree::new(vec![t]).expect("non-empty")),
        }
    }
}

impl From<DnfTree> for QueryTree {
    fn from(dnf: DnfTree) -> QueryTree {
        let terms = dnf
            .terms()
            .iter()
            .map(|t| Node::And(t.leaves().iter().copied().map(Node::Leaf).collect()))
            .collect();
        QueryTree {
            root: Node::Or(terms),
        }
    }
}

impl From<AndTree> for QueryTree {
    fn from(t: AndTree) -> QueryTree {
        QueryTree {
            root: Node::And(t.leaves().iter().copied().map(Node::Leaf).collect()),
        }
    }
}

fn check_shape(node: &Node) -> Result<()> {
    match node {
        Node::Leaf(_) => Ok(()),
        Node::And(cs) | Node::Or(cs) => {
            if cs.is_empty() {
                return Err(Error::EmptyTree);
            }
            for c in cs {
                check_shape(c)?;
            }
            Ok(())
        }
    }
}

fn normalize(node: &Node) -> Node {
    match node {
        Node::Leaf(l) => Node::Leaf(*l),
        Node::And(cs) => {
            let mut flat = Vec::new();
            for c in cs {
                match normalize(c) {
                    Node::And(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            if flat.len() == 1 {
                flat.pop().expect("len checked")
            } else {
                Node::And(flat)
            }
        }
        Node::Or(cs) => {
            let mut flat = Vec::new();
            for c in cs {
                match normalize(c) {
                    Node::Or(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            if flat.len() == 1 {
                flat.pop().expect("len checked")
            } else {
                Node::Or(flat)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(s: usize, d: u32, p: f64) -> Node {
        Node::leaf(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    #[test]
    fn depth_and_leaf_count() {
        let t = QueryTree::new(Node::or(vec![
            Node::and(vec![leaf(0, 1, 0.5), leaf(1, 1, 0.5)]),
            leaf(2, 1, 0.5),
        ]))
        .unwrap();
        assert_eq!(t.num_leaves(), 3);
    }

    #[test]
    fn rejects_empty_operator_nodes() {
        assert!(QueryTree::new(Node::and(vec![])).is_err());
        assert!(QueryTree::new(Node::or(vec![Node::and(vec![])])).is_err());
    }

    #[test]
    fn normalization_flattens_nested_operators() {
        let t = QueryTree::new(Node::and(vec![
            Node::and(vec![leaf(0, 1, 0.5), leaf(1, 1, 0.5)]),
            leaf(2, 1, 0.5),
        ]))
        .unwrap();
        match normalize(t.root()) {
            Node::And(cs) => assert_eq!(cs.len(), 3),
            _ => panic!("expected flattened AND"),
        }
    }

    #[test]
    fn normalization_collapses_single_child() {
        let t = QueryTree::new(Node::or(vec![Node::and(vec![leaf(0, 1, 0.5)])])).unwrap();
        assert!(matches!(normalize(t.root()), Node::Leaf(_)));
    }

    #[test]
    fn as_and_tree_and_as_dnf() {
        let t = QueryTree::new(Node::and(vec![leaf(0, 1, 0.5), leaf(1, 2, 0.25)])).unwrap();
        let at = t.as_and_tree().unwrap();
        assert_eq!(at.len(), 2);
        let dnf_view = t.as_dnf().unwrap();
        assert_eq!(dnf_view.num_terms(), 1);

        let t = QueryTree::new(Node::or(vec![
            Node::and(vec![leaf(0, 1, 0.5), leaf(1, 1, 0.5)]),
            leaf(2, 1, 0.5),
        ]))
        .unwrap();
        assert!(t.as_and_tree().is_none());
        let d = t.as_dnf().unwrap();
        assert_eq!(d.num_terms(), 2);
        assert_eq!(d.term(1).len(), 1);
    }

    #[test]
    fn deep_tree_is_not_dnf() {
        let t = QueryTree::new(Node::or(vec![Node::and(vec![
            Node::or(vec![leaf(0, 1, 0.5), leaf(1, 1, 0.5)]),
            leaf(2, 1, 0.5),
        ])]))
        .unwrap();
        assert!(t.as_dnf().is_none());
    }

    #[test]
    fn success_prob_recursion() {
        // OR(AND(0.5, 0.5), 0.5) = 1 - (1-0.25)(1-0.5) = 0.625
        let t = QueryTree::new(Node::or(vec![
            Node::and(vec![leaf(0, 1, 0.5), leaf(1, 1, 0.5)]),
            leaf(2, 1, 0.5),
        ]))
        .unwrap();
        let dnf = t.as_dnf().unwrap();
        let fail: f64 = dnf
            .terms()
            .iter()
            .map(|term| term.success_prob().fail())
            .product();
        assert!((1.0 - fail - 0.625).abs() < 1e-12);
    }

    #[test]
    fn roundtrip_dnf_query_tree() {
        let dnf = DnfTree::from_leaves(vec![
            vec![
                Leaf::new(StreamId(0), 1, Prob::HALF).unwrap(),
                Leaf::new(StreamId(1), 2, Prob::HALF).unwrap(),
            ],
            vec![Leaf::new(StreamId(0), 3, Prob::HALF).unwrap()],
        ])
        .unwrap();
        let qt = QueryTree::from(dnf.clone());
        assert_eq!(qt.as_dnf().unwrap(), dnf);
    }

    #[test]
    fn read_once_and_sharing() {
        let t = QueryTree::new(Node::or(vec![leaf(0, 1, 0.5), leaf(0, 2, 0.5)])).unwrap();
        assert!(!t.is_read_once());
    }
}
