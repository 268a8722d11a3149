//! CSV and Markdown table output.
//!
//! The experiment harness writes every figure's underlying data as CSV
//! (for external plotting) and as Markdown (for EXPERIMENTS.md). The
//! writers are deliberately dependency-free; CSV fields containing commas,
//! quotes or newlines are quoted per RFC 4180.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A rectangular table of strings with a header row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the row width does not match the header width.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Serializes as RFC-4180 CSV.
    pub(crate) fn to_csv(&self) -> String {
        let mut out = String::new();
        write_csv_row(&mut out, &self.headers);
        for row in &self.rows {
            write_csv_row(&mut out, row);
        }
        out
    }

    /// Serializes as a GitHub-flavoured Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Writes the CSV form to a file, creating parent directories.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, self.to_csv())
    }
}

fn write_csv_row(out: &mut String, fields: &[String]) {
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if f.contains([',', '"', '\n']) {
            out.push('"');
            out.push_str(&f.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(f);
        }
    }
    out.push('\n');
}

/// Formats a float with enough precision for CSV round-trips.
pub fn fmt_f64(v: f64) -> String {
    format!("{v:.12}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_quotes_special_fields() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["x,y", "he said \"hi\""]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
    }

    #[test]
    fn markdown_shape() {
        let mut t = Table::new(["col1", "col2"]);
        t.push_row(["1", "2"]);
        let md = t.to_markdown();
        assert!(md.starts_with("| col1 | col2 |\n|---|---|\n"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_rejected() {
        let mut t = Table::new(["a"]);
        t.push_row(["1", "2"]);
    }

    #[test]
    fn write_csv_creates_directories() {
        let dir = std::env::temp_dir().join(format!("paotr_stats_{}", std::process::id()));
        let path = dir.join("nested/table.csv");
        let mut t = Table::new(["x"]);
        t.push_row(["1"]);
        t.write_csv(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x\n1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn float_formatting() {
        assert!(fmt_f64(1.0).starts_with("1.0000"));
    }
}
