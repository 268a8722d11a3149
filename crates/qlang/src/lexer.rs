//! Lexer for the query language.

use crate::error::{ParseError, Result};
use crate::token::{Token, TokenKind};

/// Tokenizes a query string.
pub(crate) fn lex(source: &str) -> Result<Vec<Token>> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    offset: start,
                });
                i += 1;
            }
            ',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    offset: start,
                });
                i += 1;
            }
            '@' => {
                tokens.push(Token {
                    kind: TokenKind::At,
                    offset: start,
                });
                i += 1;
            }
            '-' => {
                tokens.push(Token {
                    kind: TokenKind::Minus,
                    offset: start,
                });
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Le,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Ge,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    tokens.push(Token {
                        kind: TokenKind::And,
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(ParseError::new("expected `&&`", start));
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    tokens.push(Token {
                        kind: TokenKind::Or,
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(ParseError::new("expected `||`", start));
                }
            }
            '0'..='9' | '.' => {
                let mut j = i;
                while j < bytes.len()
                    && (bytes[j].is_ascii_digit()
                        || bytes[j] == b'.'
                        || bytes[j] == b'e'
                        || bytes[j] == b'E'
                        || ((bytes[j] == b'+' || bytes[j] == b'-')
                            && j > i
                            && (bytes[j - 1] == b'e' || bytes[j - 1] == b'E')))
                {
                    j += 1;
                }
                let text = &source[i..j];
                let value: f64 = text
                    .parse()
                    .map_err(|_| ParseError::new(format!("invalid number `{text}`"), start))?;
                tokens.push(Token {
                    kind: TokenKind::Number(value),
                    offset: start,
                });
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                let word = &source[i..j];
                let kind = match word.to_ascii_uppercase().as_str() {
                    "AND" => TokenKind::And,
                    "OR" => TokenKind::Or,
                    _ => TokenKind::Ident(word.to_string()),
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
                i = j;
            }
            other => {
                return Err(ParseError::new(
                    format!("unexpected character `{other}`"),
                    start,
                ));
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        offset: source.len(),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_figure_1_query() {
        let ks = kinds("AVG(A, 5) < 70 AND MAX(B,4) > 100");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("AVG".into()),
                TokenKind::LParen,
                TokenKind::Ident("A".into()),
                TokenKind::Comma,
                TokenKind::Number(5.0),
                TokenKind::RParen,
                TokenKind::Lt,
                TokenKind::Number(70.0),
                TokenKind::And,
                TokenKind::Ident("MAX".into()),
                TokenKind::LParen,
                TokenKind::Ident("B".into()),
                TokenKind::Comma,
                TokenKind::Number(4.0),
                TokenKind::RParen,
                TokenKind::Gt,
                TokenKind::Number(100.0),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn operators_and_symbols() {
        assert_eq!(
            kinds("a <= 1 || b >= 2 && c @ 0.5"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Le,
                TokenKind::Number(1.0),
                TokenKind::Or,
                TokenKind::Ident("b".into()),
                TokenKind::Ge,
                TokenKind::Number(2.0),
                TokenKind::And,
                TokenKind::Ident("c".into()),
                TokenKind::At,
                TokenKind::Number(0.5),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn scientific_notation_and_decimals() {
        assert_eq!(kinds("1.5e2")[0], TokenKind::Number(150.0));
        assert_eq!(kinds(".5")[0], TokenKind::Number(0.5));
        assert_eq!(kinds("2e-1")[0], TokenKind::Number(0.2));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            kinds("and or AND OR And"),
            vec![
                TokenKind::And,
                TokenKind::Or,
                TokenKind::And,
                TokenKind::Or,
                TokenKind::And,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn reports_bad_characters_with_offset() {
        let err = lex("A < 3 ; B").unwrap_err();
        assert_eq!(err.offset, 6);
        let err = lex("A & B").unwrap_err();
        assert!(err.message.contains("&&"));
    }

    #[test]
    fn rejects_malformed_numbers() {
        assert!(lex("1.2.3").is_err());
    }
}
