//! `paotr check snapshot`: parse a v1/v2 snapshot document, run
//! [`Snapshot::validate`] on it, and report every violation.
//!
//! The rules are the ones `Daemon::from_snapshot` enforces (it refuses
//! any violation `validate` reports), so a snapshot this check accepts
//! restores, and one it rejects is refused by a restore under the same
//! rule names.

use crate::report::{CheckError, CheckReport};
pub use paotr_serverd::snapshot::{Rule, SnapshotViolation};
use paotr_serverd::Snapshot;

/// Validates a parsed snapshot document.
pub fn check_snapshot(snap: &Snapshot) -> CheckReport {
    let mut report = CheckReport::new(format!("snapshot[v{}]", snap.version));
    report.checks_run = Rule::ALL.len();
    for v in snap.validate() {
        report.push(CheckError::Snapshot(v));
    }
    report
}

/// Parses and validates a snapshot from its serialized form.
pub fn check_snapshot_str(input: &str) -> CheckReport {
    match Snapshot::parse(input) {
        Ok(snap) => check_snapshot(&snap),
        Err(e) => {
            let mut report = CheckReport::new("snapshot");
            report.checks_run += 1;
            let v = SnapshotViolation::new(Rule::ParseFailed, "document", e.to_string());
            report.push(CheckError::Snapshot(v));
            report
        }
    }
}

/// Reads, parses, and validates a snapshot file.
pub fn check_snapshot_file(path: &str) -> std::io::Result<CheckReport> {
    Ok(check_snapshot_str(&std::fs::read_to_string(path)?))
}
