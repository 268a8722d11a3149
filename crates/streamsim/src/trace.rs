//! Execution traces and probability calibration.
//!
//! The paper assumes leaf success probabilities are "estimated based on
//! historical traces obtained from previous query evaluations". This
//! module closes that loop: the engine appends a [`LeafRecord`] per leaf
//! evaluation, and `estimate_probabilities` turns a trace into per-leaf
//! success-rate estimates (with add-one smoothing so unobserved leaves get
//! a neutral prior rather than a degenerate 0 or 1).

use crate::query::SimQuery;
use paotr_core::leaf::LeafRef;
use paotr_core::tree::DnfTree;

/// One leaf evaluation, as observed by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafRecord {
    /// Stream clock at evaluation time.
    pub tick: u64,
    /// Which leaf was evaluated.
    pub leaf: LeafRef,
    /// The predicate's truth value.
    pub value: bool,
    /// Items actually paid for (after memory reuse).
    pub items_paid: u32,
    /// Energy paid.
    pub cost: f64,
}

/// An append-only log of leaf evaluations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    records: Vec<LeafRecord>,
}

impl TraceLog {
    /// Appends one record.
    pub(crate) fn push(&mut self, r: LeafRecord) {
        self.records.push(r);
    }

    /// All records, in evaluation order.
    pub fn records(&self) -> &[LeafRecord] {
        &self.records
    }

    /// Drops every record, keeping the allocation. Long-running loops
    /// that only inspect the records of the evaluation just executed
    /// (e.g. drift estimation in the serving loop) call this to keep
    /// the log bounded.
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

/// Per-leaf success-probability estimates from a trace, flat term-major
/// order, with add-one (Laplace) smoothing:
/// `(successes + 1) / (observations + 2)`.
pub(crate) fn estimate_probabilities(log: &TraceLog, query: &SimQuery) -> Vec<f64> {
    let refs = query.leaf_refs();
    let index_of = |r: LeafRef| -> usize {
        refs.iter()
            .position(|&x| x == r)
            .expect("trace references a query leaf")
    };
    let mut successes = vec![0u64; refs.len()];
    let mut totals = vec![0u64; refs.len()];
    for rec in log.records() {
        let i = index_of(rec.leaf);
        totals[i] += 1;
        successes[i] += u64::from(rec.value);
    }
    successes
        .iter()
        .zip(&totals)
        .map(|(&s, &n)| (s as f64 + 1.0) / (n as f64 + 2.0))
        .collect()
}

/// Convenience: calibrated scheduling skeleton straight from a trace.
pub(crate) fn calibrated_skeleton(log: &TraceLog, query: &SimQuery) -> DnfTree {
    query.skeleton(&estimate_probabilities(log, query))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Comparator, Predicate, WindowOp};
    use crate::query::SimLeaf;
    use paotr_core::stream::StreamId;

    fn query() -> SimQuery {
        let mk = |s: usize, w: u32| SimLeaf {
            stream: StreamId(s),
            predicate: Predicate::new(WindowOp::Avg, w, Comparator::Lt, 70.0),
        };
        SimQuery::new(vec![vec![mk(0, 5), mk(1, 4)], vec![mk(0, 2)]]).unwrap()
    }

    fn rec(leaf: LeafRef, value: bool) -> LeafRecord {
        LeafRecord {
            tick: 0,
            leaf,
            value,
            items_paid: 1,
            cost: 1.0,
        }
    }

    #[test]
    fn estimates_match_observed_rates_with_smoothing() {
        let q = query();
        let mut log = TraceLog::default();
        // leaf (0,0): 3 of 4 true -> (3+1)/(4+2) = 2/3
        for v in [true, true, true, false] {
            log.push(rec(LeafRef::new(0, 0), v));
        }
        // leaf (1,0): never observed -> 1/2
        let probs = estimate_probabilities(&log, &q);
        assert!((probs[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((probs[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn calibrated_skeleton_has_query_shape() {
        let q = query();
        let log = TraceLog::default();
        let t = calibrated_skeleton(&log, &q);
        assert_eq!(t.num_terms(), 2);
        assert_eq!(t.num_leaves(), 3);
        assert_eq!(t.leaf(LeafRef::new(0, 1)).items, 4);
        // uninformed prior everywhere
        assert!(t
            .leaves()
            .all(|(_, l)| (l.prob.value() - 0.5).abs() < 1e-12));
    }

    #[test]
    fn trace_accumulates_cost() {
        let mut log = TraceLog::default();
        log.push(rec(LeafRef::new(0, 0), true));
        log.push(rec(LeafRef::new(0, 1), false));
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.records().iter().map(|r| r.cost).sum::<f64>(), 2.0);
    }
}
