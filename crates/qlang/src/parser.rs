//! Recursive-descent parser.
//!
//! Grammar (OR binds loosest, AND tighter, both left-associative and
//! n-ary-flattened):
//!
//! ```text
//! expr      := and_expr (OR and_expr)*
//! and_expr  := atom (AND atom)*
//! atom      := predicate | '(' expr ')'
//! predicate := AGG '(' IDENT ',' NUMBER ')' cmp NUMBER annot?
//!            | IDENT cmp NUMBER annot?
//! annot     := '@' NUMBER          -- success-probability hint
//! cmp       := '<' | '<=' | '>' | '>='
//! ```

use crate::ast::{Agg, CmpOp, Expr, PredicateAst};
use crate::error::{ParseError, Result};
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// Parses a complete query expression.
pub fn parse(source: &str) -> Result<Expr> {
    parse_spanned(source).map(|(expr, _)| expr)
}

/// Like [`parse`], but also returns the byte offset of every predicate
/// in depth-first (source) order — index `i` of the returned vector is
/// the offset of the `i`-th [`PredicateAst`]
/// an in-order walk of the expression visits. Lint tooling uses these
/// to point caret diagnostics at the exact predicate, the same way
/// [`ParseError::render`] does for syntax errors.
pub fn parse_spanned(source: &str) -> Result<(Expr, Vec<usize>)> {
    let tokens = lex(source)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        offsets: Vec::new(),
    };
    let expr = p.expr()?;
    p.expect_eof()?;
    Ok((expr, p.offsets))
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Byte offset of each predicate's first token, in parse order.
    offsets: Vec<usize>,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<Token> {
        if &self.peek().kind == kind {
            Ok(self.bump())
        } else {
            Err(ParseError::new(
                format!("expected {what}, found {}", self.peek().kind),
                self.peek().offset,
            ))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.peek().kind == TokenKind::Eof {
            Ok(())
        } else {
            Err(ParseError::new(
                format!("unexpected trailing {}", self.peek().kind),
                self.peek().offset,
            ))
        }
    }

    fn expr(&mut self) -> Result<Expr> {
        let first = self.and_expr()?;
        let mut parts = vec![first];
        while self.peek().kind == TokenKind::Or {
            self.bump();
            parts.push(self.and_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("non-empty")
        } else {
            Expr::Or(parts)
        })
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let first = self.atom()?;
        let mut parts = vec![first];
        while self.peek().kind == TokenKind::And {
            self.bump();
            parts.push(self.atom()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("non-empty")
        } else {
            Expr::And(parts)
        })
    }

    fn atom(&mut self) -> Result<Expr> {
        match self.peek().kind.clone() {
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                let ident = self.bump();
                self.offsets.push(ident.offset);
                if self.peek().kind == TokenKind::LParen {
                    self.aggregate_predicate(&name, ident.offset)
                } else {
                    self.bare_predicate(name)
                }
            }
            other => Err(ParseError::new(
                format!("expected a predicate or `(`, found {other}"),
                self.peek().offset,
            )),
        }
    }

    /// `AGG(stream, n) cmp threshold [@ p]` — the identifier (already
    /// consumed) must name an aggregate.
    fn aggregate_predicate(&mut self, name: &str, name_offset: usize) -> Result<Expr> {
        let agg = Agg::from_name(name).ok_or_else(|| {
            ParseError::new(
                format!("unknown aggregate `{name}` (expected AVG, MAX, MIN, SUM or LAST)"),
                name_offset,
            )
        })?;
        self.expect(&TokenKind::LParen, "`(`")?;
        let stream = match self.peek().kind.clone() {
            TokenKind::Ident(s) => {
                self.bump();
                s
            }
            other => {
                return Err(ParseError::new(
                    format!("expected a stream name, found {other}"),
                    self.peek().offset,
                ))
            }
        };
        self.expect(&TokenKind::Comma, "`,`")?;
        let window = self.window()?;
        self.expect(&TokenKind::RParen, "`)`")?;
        let cmp = self.cmp()?;
        let threshold = self.number("a threshold")?;
        let prob = self.annotation()?;
        Ok(Expr::Pred(PredicateAst {
            agg,
            stream,
            window,
            cmp,
            threshold,
            prob,
        }))
    }

    /// `stream cmp threshold [@ p]` — sugar for `LAST(stream, 1)`.
    fn bare_predicate(&mut self, stream: String) -> Result<Expr> {
        let cmp = self.cmp()?;
        let threshold = self.number("a threshold")?;
        let prob = self.annotation()?;
        Ok(Expr::Pred(PredicateAst {
            agg: Agg::Last,
            stream,
            window: 1,
            cmp,
            threshold,
            prob,
        }))
    }

    fn window(&mut self) -> Result<u32> {
        let offset = self.peek().offset;
        let n = self.number("a window length")?;
        if n.fract() != 0.0 || n < 1.0 || n > u32::MAX as f64 {
            return Err(ParseError::new(
                format!("window length must be a positive integer, got {n}"),
                offset,
            ));
        }
        Ok(n as u32)
    }

    fn cmp(&mut self) -> Result<CmpOp> {
        let t = self.bump();
        match t.kind {
            TokenKind::Lt => Ok(CmpOp::Lt),
            TokenKind::Le => Ok(CmpOp::Le),
            TokenKind::Gt => Ok(CmpOp::Gt),
            TokenKind::Ge => Ok(CmpOp::Ge),
            other => Err(ParseError::new(
                format!("expected a comparison operator, found {other}"),
                t.offset,
            )),
        }
    }

    fn number(&mut self, what: &str) -> Result<f64> {
        let negative = if self.peek().kind == TokenKind::Minus {
            self.bump();
            true
        } else {
            false
        };
        let t = self.bump();
        match t.kind {
            TokenKind::Number(n) => Ok(if negative { -n } else { n }),
            other => Err(ParseError::new(
                format!("expected {what}, found {other}"),
                t.offset,
            )),
        }
    }

    /// Optional `@ p` with `p` in [0, 1].
    fn annotation(&mut self) -> Result<Option<f64>> {
        if self.peek().kind != TokenKind::At {
            return Ok(None);
        }
        self.bump();
        let offset = self.peek().offset;
        let p = self.number("a probability")?;
        if !(0.0..=1.0).contains(&p) {
            return Err(ParseError::new(
                format!("probability annotation must be in [0, 1], got {p}"),
                offset,
            ));
        }
        Ok(Some(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure_1a() {
        // (AVG(A,5) < 70 AND MAX(B,4) > 100) OR C < 3
        let e = parse("(AVG(A,5) < 70 AND MAX(B, 4) > 100) OR C < 3").unwrap();
        match &e {
            Expr::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[0], Expr::And(_)));
                match &parts[1] {
                    Expr::Pred(p) => {
                        assert_eq!(p.stream, "C");
                        assert_eq!(p.agg, Agg::Last);
                        assert_eq!(p.window, 1);
                    }
                    other => panic!("expected bare predicate, got {other:?}"),
                }
            }
            other => panic!("expected OR, got {other:?}"),
        }
        assert_eq!(e.num_predicates(), 3);
    }

    #[test]
    fn parses_figure_1b() {
        let e = parse("(MAX(B,4) > 100 AND C < 3) OR (AVG(A,5) < 70 AND MAX(A, 10) > 80)").unwrap();
        assert_eq!(e.num_predicates(), 4);
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let e = parse("a < 1 OR b < 2 AND c < 3").unwrap();
        match e {
            Expr::Or(parts) => {
                assert!(matches!(parts[0], Expr::Pred(_)));
                assert!(matches!(parts[1], Expr::And(_)));
            }
            other => panic!("expected OR at root, got {other:?}"),
        }
    }

    #[test]
    fn nary_chains_flatten() {
        let e = parse("a < 1 AND b < 2 AND c < 3").unwrap();
        match e {
            Expr::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn probability_annotations() {
        let e = parse("AVG(hr, 5) > 100 @ 0.15").unwrap();
        match e {
            Expr::Pred(p) => assert_eq!(p.prob, Some(0.15)),
            other => panic!("{other:?}"),
        }
        assert!(parse("a < 1 @ 1.5").is_err());
    }

    #[test]
    fn error_positions_are_meaningful() {
        let err = parse("AVG(A,5) <").unwrap_err();
        assert!(err.message.contains("threshold"));
        let err = parse("MEDIAN(A,5) < 3").unwrap_err();
        assert!(err.message.contains("unknown aggregate"));
        let err = parse("(a < 1").unwrap_err();
        assert!(err.message.contains("`)`"));
        let err = parse("a < 1 b < 2").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn negative_thresholds() {
        let e = parse("A < -3.5").unwrap();
        match e {
            Expr::Pred(p) => assert_eq!(p.threshold, -3.5),
            other => panic!("{other:?}"),
        }
        assert!(parse("AVG(A, -2) < 1").is_err()); // negative window rejected
    }

    #[test]
    fn window_validation() {
        assert!(parse("AVG(A, 0) < 1").is_err());
        assert!(parse("AVG(A, 2.5) < 1").is_err());
        assert!(parse("AVG(A, 3) < 1").is_ok());
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let src = "(AVG(A, 5) < 70 AND MAX(B, 4) > 100) OR C < 3";
        let e = parse(src).unwrap();
        let e2 = parse(&e.to_string()).unwrap();
        assert_eq!(e, e2);
    }
}
