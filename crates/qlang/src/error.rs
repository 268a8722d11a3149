//! Parse and compile errors with source positions.

use std::fmt;

/// An error at a byte offset of the query source.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the source where the error was detected.
    pub offset: usize,
}

impl ParseError {
    /// Creates an error.
    pub(crate) fn new(message: impl Into<String>, offset: usize) -> ParseError {
        ParseError {
            message: message.into(),
            offset,
        }
    }

    /// Renders a one-line caret diagnostic against the source text.
    pub fn render(&self, source: &str) -> String {
        let offset = self.offset.min(source.len());
        format!(
            "error: {}\n  | {}\n  | {}^",
            self.message,
            source,
            " ".repeat(source[..offset].chars().count())
        )
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Result alias for the parser.
pub type Result<T> = std::result::Result<T, ParseError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_points_at_offset() {
        let e = ParseError::new("unexpected `)`", 4);
        let r = e.render("A < )");
        assert!(r.contains("unexpected"));
        let caret_line = r.lines().last().unwrap();
        assert!(caret_line.ends_with('^'));
        // caret column: "  | " prefix (4 chars) + 4 offset chars
        assert_eq!(caret_line.chars().count(), 4 + 4 + 1);
    }

    #[test]
    fn display_includes_offset() {
        let e = ParseError::new("boom", 7);
        assert!(e.to_string().contains("byte 7"));
    }
}
