//! Windowed predicates over stream items.
//!
//! The paper's Figure 1 uses predicates like `AVG(A, 5) < 70`,
//! `MAX(B, 4) > 100` and `C < 3`: an aggregation operator over a window of
//! the last `d` items, compared against a threshold. This module
//! implements that predicate language.

use std::fmt;

/// Aggregation applied to the window of most-recent items.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowOp {
    /// The most recent item (window of 1 unless specified otherwise).
    Last,
    /// Arithmetic mean of the window.
    Avg,
    /// Maximum of the window.
    Max,
    /// Minimum of the window.
    Min,
    /// Sum of the window.
    Sum,
}

impl WindowOp {
    /// Applies the operator to a window (newest first; order does not
    /// matter for any current operator except `Last`, which takes the
    /// first element).
    ///
    /// # Panics
    /// Panics on an empty window.
    pub fn apply(self, window: &[f64]) -> f64 {
        assert!(!window.is_empty(), "windowed operator on empty window");
        match self {
            WindowOp::Last => window[0],
            WindowOp::Avg => window.iter().sum::<f64>() / window.len() as f64,
            WindowOp::Max => window.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            WindowOp::Min => window.iter().copied().fold(f64::INFINITY, f64::min),
            WindowOp::Sum => window.iter().sum(),
        }
    }

    /// Canonical (query-language) name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            WindowOp::Last => "LAST",
            WindowOp::Avg => "AVG",
            WindowOp::Max => "MAX",
            WindowOp::Min => "MIN",
            WindowOp::Sum => "SUM",
        }
    }
}

/// Comparison against the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Comparator {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Comparator {
    /// Evaluates `lhs (cmp) rhs`.
    pub(crate) fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Comparator::Lt => lhs < rhs,
            Comparator::Le => lhs <= rhs,
            Comparator::Gt => lhs > rhs,
            Comparator::Ge => lhs >= rhs,
        }
    }

    /// Source form.
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            Comparator::Lt => "<",
            Comparator::Le => "<=",
            Comparator::Gt => ">",
            Comparator::Ge => ">=",
        }
    }
}

/// A complete leaf predicate: `OP(stream, window) CMP threshold`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predicate {
    /// Window aggregation.
    pub op: WindowOp,
    /// Window length in items (the leaf's `d`).
    pub window: u32,
    /// Comparison operator.
    pub cmp: Comparator,
    /// Comparison threshold.
    pub threshold: f64,
}

impl Predicate {
    /// Builds a predicate; window must be at least 1.
    pub fn new(op: WindowOp, window: u32, cmp: Comparator, threshold: f64) -> Predicate {
        assert!(window >= 1, "predicates need a window of at least one item");
        Predicate {
            op,
            window,
            cmp,
            threshold,
        }
    }

    /// Evaluates the predicate on a pulled window (newest first). The
    /// window slice must have exactly `self.window` items.
    ///
    /// # Panics
    /// Panics when the slice length does not match the declared window.
    pub fn eval(&self, window: &[f64]) -> bool {
        assert_eq!(window.len(), self.window as usize, "window length mismatch");
        self.cmp.eval(self.op.apply(window), self.threshold)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.op == WindowOp::Last && self.window == 1 {
            write!(f, "x {} {}", self.cmp.symbol(), self.threshold)
        } else {
            write!(
                f,
                "{}(x, {}) {} {}",
                self.op.name(),
                self.window,
                self.cmp.symbol(),
                self.threshold
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_compute_expected_aggregates() {
        let w = [3.0, 1.0, 2.0];
        assert_eq!(WindowOp::Last.apply(&w), 3.0);
        assert_eq!(WindowOp::Avg.apply(&w), 2.0);
        assert_eq!(WindowOp::Max.apply(&w), 3.0);
        assert_eq!(WindowOp::Min.apply(&w), 1.0);
        assert_eq!(WindowOp::Sum.apply(&w), 6.0);
    }

    #[test]
    fn comparators() {
        assert!(Comparator::Lt.eval(1.0, 2.0));
        assert!(!Comparator::Lt.eval(2.0, 2.0));
        assert!(Comparator::Le.eval(2.0, 2.0));
        assert!(Comparator::Gt.eval(3.0, 2.0));
        assert!(Comparator::Ge.eval(2.0, 2.0));
    }

    #[test]
    fn paper_figure_1_predicates() {
        // AVG(A,5) < 70
        let p = Predicate::new(WindowOp::Avg, 5, Comparator::Lt, 70.0);
        assert!(p.eval(&[60.0, 65.0, 70.0, 75.0, 60.0]));
        assert!(!p.eval(&[80.0, 85.0, 70.0, 75.0, 60.0]));
        // MAX(B,4) > 100
        let p = Predicate::new(WindowOp::Max, 4, Comparator::Gt, 100.0);
        assert!(p.eval(&[99.0, 101.0, 50.0, 70.0]));
        // C < 3
        let p = Predicate::new(WindowOp::Last, 1, Comparator::Lt, 3.0);
        assert!(p.eval(&[2.0]));
        assert_eq!(p.to_string(), "x < 3");
    }

    #[test]
    fn display_formats() {
        let p = Predicate::new(WindowOp::Avg, 5, Comparator::Lt, 70.0);
        assert_eq!(p.to_string(), "AVG(x, 5) < 70");
    }

    #[test]
    #[should_panic(expected = "window length mismatch")]
    fn eval_rejects_wrong_window() {
        Predicate::new(WindowOp::Avg, 3, Comparator::Lt, 1.0).eval(&[1.0]);
    }
}
