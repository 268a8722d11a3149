//! Concrete (predicate-level) queries.
//!
//! A [`SimQuery`] is a DNF of real windowed predicates over simulated
//! streams — the thing a deployment would actually run. Its *skeleton* is
//! the abstract [`DnfTree`] the scheduling algorithms operate on: same
//! shape, same streams, same window sizes, with success probabilities
//! supplied externally (estimated from traces; see [`crate::trace`]).

use crate::predicate::Predicate;
use paotr_core::error::{Error, Result};
use paotr_core::leaf::{Leaf, LeafRef};
use paotr_core::prob::Prob;
use paotr_core::stream::StreamId;
use paotr_core::tree::DnfTree;

/// One concrete leaf: a predicate over a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimLeaf {
    /// The stream the predicate reads.
    pub stream: StreamId,
    /// The windowed predicate.
    pub predicate: Predicate,
}

/// A DNF query over concrete predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct SimQuery {
    terms: Vec<Vec<SimLeaf>>,
}

impl SimQuery {
    /// Builds a query; every term must be non-empty.
    pub fn new(terms: Vec<Vec<SimLeaf>>) -> Result<SimQuery> {
        if terms.is_empty() || terms.iter().any(Vec::is_empty) {
            return Err(Error::EmptyTree);
        }
        Ok(SimQuery { terms })
    }

    /// The AND terms.
    pub fn terms(&self) -> &[Vec<SimLeaf>] {
        &self.terms
    }

    /// Leaf at address `r`.
    pub(crate) fn leaf(&self, r: LeafRef) -> &SimLeaf {
        &self.terms[r.term][r.leaf]
    }

    /// Total number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.terms.iter().map(Vec::len).sum()
    }

    /// All leaf addresses in declaration order.
    pub fn leaf_refs(&self) -> Vec<LeafRef> {
        self.terms
            .iter()
            .enumerate()
            .flat_map(|(i, t)| (0..t.len()).map(move |j| LeafRef::new(i, j)))
            .collect()
    }

    /// Largest window used on each stream (the relevance horizon for
    /// device-memory pruning); `streams` is the catalog size.
    pub fn max_windows(&self, streams: usize) -> Vec<u32> {
        let mut out = vec![0u32; streams];
        for t in &self.terms {
            for l in t {
                out[l.stream.0] = out[l.stream.0].max(l.predicate.window);
            }
        }
        out
    }

    /// The abstract scheduling tree: same shape/streams/windows, with the
    /// given per-leaf success probabilities (flat, term-major order).
    ///
    /// # Panics
    /// Panics when `probs` has the wrong length.
    pub fn skeleton(&self, probs: &[f64]) -> DnfTree {
        assert_eq!(probs.len(), self.num_leaves(), "one probability per leaf");
        let mut it = probs.iter();
        let terms: Vec<Vec<Leaf>> = self
            .terms
            .iter()
            .map(|t| {
                t.iter()
                    .map(|l| {
                        let p = Prob::clamped(*it.next().expect("length checked"))
                            .expect("probabilities are not NaN");
                        Leaf::raw(l.stream, l.predicate.window, p)
                    })
                    .collect()
            })
            .collect();
        DnfTree::from_leaves(terms).expect("query shape already validated")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Comparator, WindowOp};

    fn pred(window: u32) -> Predicate {
        Predicate::new(WindowOp::Avg, window, Comparator::Lt, 70.0)
    }

    fn query() -> SimQuery {
        SimQuery::new(vec![
            vec![
                SimLeaf {
                    stream: StreamId(0),
                    predicate: pred(5),
                },
                SimLeaf {
                    stream: StreamId(1),
                    predicate: pred(4),
                },
            ],
            vec![SimLeaf {
                stream: StreamId(0),
                predicate: pred(10),
            }],
        ])
        .unwrap()
    }

    #[test]
    fn counts_and_addressing() {
        let q = query();
        assert_eq!(q.num_leaves(), 3);
        assert_eq!(q.leaf_refs().len(), 3);
        assert_eq!(q.leaf(LeafRef::new(1, 0)).predicate.window, 10);
    }

    #[test]
    fn max_windows_per_stream() {
        let q = query();
        assert_eq!(q.max_windows(3), vec![10, 4, 0]);
    }

    #[test]
    fn skeleton_carries_windows_and_probs() {
        let q = query();
        let t = q.skeleton(&[0.3, 0.6, 0.9]);
        assert_eq!(t.num_terms(), 2);
        assert_eq!(t.leaf(LeafRef::new(0, 0)).items, 5);
        assert_eq!(t.leaf(LeafRef::new(0, 0)).prob.value(), 0.3);
        assert_eq!(t.leaf(LeafRef::new(1, 0)).items, 10);
        assert_eq!(t.leaf(LeafRef::new(1, 0)).prob.value(), 0.9);
    }

    #[test]
    fn rejects_empty_shapes() {
        assert!(SimQuery::new(vec![]).is_err());
        assert!(SimQuery::new(vec![vec![]]).is_err());
    }
}
