//! Leaf predicates.
//!
//! A leaf `l_j` of a query tree is a probabilistic boolean predicate over a
//! single data stream: it needs the last `d_j` items of stream `S(j)` and
//! evaluates to TRUE with (known, independent) probability `p_j`.

use crate::error::{Error, Result};
use crate::prob::Prob;
use crate::stream::{StreamCatalog, StreamId};
use std::fmt;

/// A probabilistic boolean predicate over a data stream window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Leaf {
    /// The stream this predicate reads, `S(j)`.
    pub stream: StreamId,
    /// How many of the stream's most recent items the predicate needs, `d_j >= 1`.
    pub items: u32,
    /// Probability that the predicate evaluates to TRUE, `p_j`.
    pub prob: Prob,
}

impl Leaf {
    /// Creates a leaf, validating that `items >= 1`.
    pub fn new(stream: StreamId, items: u32, prob: Prob) -> Result<Leaf> {
        if items == 0 {
            return Err(Error::ZeroItems);
        }
        Ok(Leaf {
            stream,
            items,
            prob,
        })
    }

    /// Unvalidated constructor for trusted call sites (e.g. generators that
    /// sample `items` from `U{1..5}`).
    ///
    /// # Panics
    /// Debug-asserts `items >= 1`.
    pub fn raw(stream: StreamId, items: u32, prob: Prob) -> Leaf {
        debug_assert!(items >= 1, "leaves need at least one data item");
        Leaf {
            stream,
            items,
            prob,
        }
    }

    /// Failure probability `q_j = 1 - p_j`.
    #[inline]
    pub fn fail(&self) -> f64 {
        self.prob.fail()
    }

    /// Stand-alone acquisition cost of this leaf: `d_j * c(S(j))`.
    ///
    /// This is the cost the leaf pays when nothing from its stream is in
    /// memory yet — the quantity the paper's *leaf-ordered* heuristics call
    /// `C`.
    #[inline]
    pub fn standalone_cost(&self, catalog: &StreamCatalog) -> f64 {
        f64::from(self.items) * catalog.cost(self.stream)
    }

    /// Validates the leaf against a catalog (stream id in range).
    pub(crate) fn validate(&self, catalog: &StreamCatalog) -> Result<()> {
        if self.items == 0 {
            return Err(Error::ZeroItems);
        }
        if self.stream.0 >= catalog.len() {
            return Err(Error::UnknownStream {
                stream: self.stream.0,
                catalog_len: catalog.len(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for Leaf {
    /// Formats like the paper's Figure 2: `A[2] p=0.1` means "2 items from
    /// stream A, success probability 0.1".
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] p={}", self.stream, self.items, self.prob)
    }
}

/// Address of a leaf inside a DNF tree: `(AND-node index, leaf index)`.
///
/// Matches the paper's `l_{i,j}` notation: `term` is `i` (which AND node),
/// `leaf` is `j` (which leaf of that AND node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LeafRef {
    /// Index of the AND node (the paper's `i`).
    pub term: usize,
    /// Index of the leaf within its AND node (the paper's `j`).
    pub leaf: usize,
}

impl LeafRef {
    /// Shorthand constructor.
    #[inline]
    pub fn new(term: usize, leaf: usize) -> LeafRef {
        LeafRef { term, leaf }
    }
}

impl fmt::Display for LeafRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l[{},{}]", self.term, self.leaf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Prob {
        Prob::new(v).unwrap()
    }

    #[test]
    fn new_rejects_zero_items() {
        assert_eq!(Leaf::new(StreamId(0), 0, p(0.5)), Err(Error::ZeroItems));
        assert!(Leaf::new(StreamId(0), 1, p(0.5)).is_ok());
    }

    #[test]
    fn standalone_cost_multiplies_items_by_stream_cost() {
        let cat = StreamCatalog::from_costs([3.0, 10.0]).unwrap();
        let l = Leaf::new(StreamId(1), 4, p(0.5)).unwrap();
        assert_eq!(l.standalone_cost(&cat), 40.0);
    }

    #[test]
    fn validate_checks_stream_range() {
        let cat = StreamCatalog::unit(1);
        let ok = Leaf::new(StreamId(0), 2, p(0.5)).unwrap();
        let bad = Leaf::new(StreamId(5), 2, p(0.5)).unwrap();
        assert!(ok.validate(&cat).is_ok());
        assert!(matches!(
            bad.validate(&cat),
            Err(Error::UnknownStream { .. })
        ));
    }

    #[test]
    fn fail_probability() {
        let l = Leaf::new(StreamId(0), 1, p(0.75)).unwrap();
        assert!((l.fail() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_matches_paper_notation() {
        let l = Leaf::new(StreamId(0), 2, p(0.1)).unwrap();
        assert_eq!(l.to_string(), "A[2] p=0.1");
    }

    #[test]
    fn leaf_ref_ordering_is_lexicographic() {
        assert!(LeafRef::new(0, 5) < LeafRef::new(1, 0));
        assert!(LeafRef::new(1, 0) < LeafRef::new(1, 1));
        assert_eq!(LeafRef::new(2, 3).to_string(), "l[2,3]");
    }
}
