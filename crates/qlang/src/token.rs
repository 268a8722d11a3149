//! Tokens of the query language.

use std::fmt;

/// A lexical token with its byte offset in the source (for diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Byte offset of the token's first character.
    pub offset: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    /// Identifier: a stream or aggregate name (`A`, `heart_rate`, `AVG`).
    Ident(String),
    /// Numeric literal (integers and decimals lex identically).
    Number(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `AND` / `and` / `&&`
    And,
    /// `OR` / `or` / `||`
    Or,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `@` — probability annotation marker.
    At,
    /// `-` — unary minus in thresholds.
    Minus,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Number(n) => write!(f, "number `{n}`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::And => write!(f, "`AND`"),
            TokenKind::Or => write!(f, "`OR`"),
            TokenKind::Lt => write!(f, "`<`"),
            TokenKind::Le => write!(f, "`<=`"),
            TokenKind::Gt => write!(f, "`>`"),
            TokenKind::Ge => write!(f, "`>=`"),
            TokenKind::At => write!(f, "`@`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}
