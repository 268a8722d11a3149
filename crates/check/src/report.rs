//! The typed violation report every checker produces.

use paotr_core::plan::verify::PlanViolation;
use paotr_stats::Table;
use std::fmt;

/// One violation found by any checker layer, tagged with where it came
/// from. Every variant carries enough context to point at the exact
/// plan path, snapshot field, or source offset.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// A single-plan violation (see
    /// [`paotr_core::plan::verify::verify_plan`]); `query` indexes the
    /// workload when the plan was checked as part of a joint plan.
    Plan {
        /// Workload index of the owning query, when applicable.
        query: Option<usize>,
        /// The underlying violation with its path into the plan.
        violation: PlanViolation,
    },
    /// A joint-plan violation (see [`crate::verify_joint`]).
    Joint(crate::plan::JointViolation),
    /// A snapshot-document violation (see [`crate::check_snapshot`]).
    Snapshot(paotr_serverd::SnapshotViolation),
    /// A qlang source lint (see [`crate::lint_query`]).
    Lint(crate::qlint::QueryLint),
}

impl CheckError {
    /// Stable kebab-case rule name.
    pub fn rule(&self) -> &'static str {
        match self {
            CheckError::Plan { violation, .. } => violation.rule(),
            CheckError::Joint(v) => v.rule(),
            CheckError::Snapshot(v) => v.rule.name(),
            CheckError::Lint(l) => l.rule.name(),
        }
    }

    /// The checker layer that produced this error.
    pub fn layer(&self) -> &'static str {
        match self {
            CheckError::Plan { .. } => "plan",
            CheckError::Joint(_) => "joint",
            CheckError::Snapshot(_) => "snapshot",
            CheckError::Lint(_) => "qlang",
        }
    }

    /// Where the violation sits: a path into the plan/snapshot, or a
    /// byte offset for source lints.
    pub fn location(&self) -> String {
        match self {
            CheckError::Plan { query, violation } => match query {
                Some(q) => format!("queries[{q}].{}", violation.path()),
                None => violation.path().to_string(),
            },
            CheckError::Joint(v) => v.path(),
            CheckError::Snapshot(v) => v.path.clone(),
            CheckError::Lint(l) => format!("byte {}", l.offset),
        }
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Plan { query, violation } => match query {
                Some(q) => write!(f, "queries[{q}].{violation}"),
                None => write!(f, "{violation}"),
            },
            CheckError::Joint(v) => write!(f, "{v}"),
            CheckError::Snapshot(v) => write!(f, "{}", v.detail),
            CheckError::Lint(l) => write!(f, "{l}"),
        }
    }
}

/// The outcome of running one or more checkers over one subject:
/// every violation found (never just the first), plus how many
/// distinct checks ran — so "clean" is distinguishable from "nothing
/// was checked".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckReport {
    /// What was checked (a plan label, a file path, a planner name).
    pub subject: String,
    /// Violations found, in discovery order.
    pub errors: Vec<CheckError>,
    /// Number of individual invariants evaluated.
    pub checks_run: usize,
}

impl CheckReport {
    /// An empty report for `subject`.
    pub fn new(subject: impl Into<String>) -> CheckReport {
        CheckReport {
            subject: subject.into(),
            errors: Vec::new(),
            checks_run: 0,
        }
    }

    /// True when every check passed.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Records a violation.
    pub fn push(&mut self, e: CheckError) {
        self.errors.push(e);
    }

    /// Folds another report's findings and counters into this one.
    pub fn merge(&mut self, other: CheckReport) {
        self.errors.extend(other.errors);
        self.checks_run += other.checks_run;
    }

    /// The findings as a [`paotr_stats`] table (layer / rule /
    /// location / detail), ready for CSV or Markdown serialization.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(["layer", "rule", "location", "detail"]);
        for e in &self.errors {
            t.push_row([
                e.layer().to_string(),
                e.rule().to_string(),
                e.location(),
                e.to_string(),
            ]);
        }
        t
    }

    /// Human-readable rendering: a verdict line plus (when dirty) the
    /// findings as a Markdown table.
    pub fn render(&self) -> String {
        if self.is_clean() {
            format!(
                "{}: OK ({} checks, 0 violations)\n",
                self.subject, self.checks_run
            )
        } else {
            format!(
                "{}: FAILED ({} checks, {} violations)\n{}",
                self.subject,
                self.checks_run,
                self.errors.len(),
                self.to_table().to_markdown()
            )
        }
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}
