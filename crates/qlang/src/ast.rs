//! Abstract syntax tree of the query language.

use std::fmt;

/// Comparison operator in the surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Source form.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Window aggregate in the surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// `AVG(stream, n)`
    Avg,
    /// `MAX(stream, n)`
    Max,
    /// `MIN(stream, n)`
    Min,
    /// `SUM(stream, n)`
    Sum,
    /// `LAST(stream, n)` (or the bare `stream CMP x` form with n = 1)
    Last,
}

impl Agg {
    /// Parses an aggregate name (case-insensitive).
    pub(crate) fn from_name(name: &str) -> Option<Agg> {
        match name.to_ascii_uppercase().as_str() {
            "AVG" => Some(Agg::Avg),
            "MAX" => Some(Agg::Max),
            "MIN" => Some(Agg::Min),
            "SUM" => Some(Agg::Sum),
            "LAST" => Some(Agg::Last),
            _ => None,
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Agg::Avg => "AVG",
            Agg::Max => "MAX",
            Agg::Min => "MIN",
            Agg::Sum => "SUM",
            Agg::Last => "LAST",
        }
    }
}

/// A leaf predicate of the surface syntax, e.g. `AVG(A, 5) < 70 @ 0.6`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateAst {
    /// Aggregate operator.
    pub agg: Agg,
    /// Stream name.
    pub stream: String,
    /// Window length in items.
    pub window: u32,
    /// Comparison operator.
    pub cmp: CmpOp,
    /// Threshold literal.
    pub threshold: f64,
    /// Optional `@ p` success-probability annotation.
    pub prob: Option<f64>,
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A leaf predicate.
    Pred(PredicateAst),
    /// Conjunction of two or more expressions.
    And(Vec<Expr>),
    /// Disjunction of two or more expressions.
    Or(Vec<Expr>),
}

impl Expr {
    /// Number of predicates in the expression.
    pub fn num_predicates(&self) -> usize {
        match self {
            Expr::Pred(_) => 1,
            Expr::And(cs) | Expr::Or(cs) => cs.iter().map(Expr::num_predicates).sum(),
        }
    }
}

impl fmt::Display for PredicateAst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.agg == Agg::Last && self.window == 1 {
            write!(
                f,
                "{} {} {}",
                self.stream,
                self.cmp.symbol(),
                self.threshold
            )?;
        } else {
            write!(
                f,
                "{}({}, {}) {} {}",
                self.agg.name(),
                self.stream,
                self.window,
                self.cmp.symbol(),
                self.threshold
            )?;
        }
        if let Some(p) = self.prob {
            write!(f, " @ {p}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Expr {
    /// Re-emits parseable source (fully parenthesized operator nodes).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Pred(p) => write!(f, "{p}"),
            Expr::And(cs) => {
                let parts: Vec<String> = cs.iter().map(|c| format!("{c}")).collect();
                write!(f, "({})", parts.join(" AND "))
            }
            Expr::Or(cs) => {
                let parts: Vec<String> = cs.iter().map(|c| format!("{c}")).collect();
                write!(f, "({})", parts.join(" OR "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_names_roundtrip() {
        for a in [Agg::Avg, Agg::Max, Agg::Min, Agg::Sum, Agg::Last] {
            assert_eq!(Agg::from_name(a.name()), Some(a));
        }
        assert_eq!(Agg::from_name("avg"), Some(Agg::Avg));
        assert_eq!(Agg::from_name("median"), None);
    }

    #[test]
    fn display_forms() {
        let p = PredicateAst {
            agg: Agg::Avg,
            stream: "A".into(),
            window: 5,
            cmp: CmpOp::Lt,
            threshold: 70.0,
            prob: Some(0.25),
        };
        assert_eq!(p.to_string(), "AVG(A, 5) < 70 @ 0.25");
        let bare = PredicateAst {
            agg: Agg::Last,
            stream: "C".into(),
            window: 1,
            cmp: CmpOp::Lt,
            threshold: 3.0,
            prob: None,
        };
        assert_eq!(bare.to_string(), "C < 3");
    }

    #[test]
    fn predicate_counting() {
        let p = PredicateAst {
            agg: Agg::Last,
            stream: "A".into(),
            window: 1,
            cmp: CmpOp::Lt,
            threshold: 1.0,
            prob: None,
        };
        let e = Expr::Or(vec![
            Expr::And(vec![Expr::Pred(p.clone()), Expr::Pred(p.clone())]),
            Expr::Pred(p),
        ]);
        assert_eq!(e.num_predicates(), 3);
    }
}
