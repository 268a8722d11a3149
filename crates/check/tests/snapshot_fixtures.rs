//! The snapshot checker against committed fixtures: both daemon
//! formats must pass, and the two seeded corruptions must fail with
//! the expected violation classes.

use paotr_check::{check_snapshot_str, CheckError, Rule};

const V1: &str = include_str!("../../serverd/tests/fixtures/snapshot_v1.snap");
const V2: &str = include_str!("../../serverd/tests/fixtures/snapshot_v2.snap");
const TRUNCATED: &str = include_str!("fixtures/snapshot_truncated.snap");
const IMBALANCED: &str = include_str!("fixtures/snapshot_refcount_imbalance.snap");

#[test]
fn committed_v1_fixture_is_accepted() {
    let report = check_snapshot_str(V1);
    assert!(report.is_clean(), "{report}");
    assert!(report.checks_run > 0);
}

#[test]
fn committed_v2_fixture_is_accepted() {
    let report = check_snapshot_str(V2);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn truncated_snapshot_is_rejected_as_parse_failure() {
    let report = check_snapshot_str(TRUNCATED);
    assert!(
        report.errors.iter().any(|e| matches!(
            e,
            CheckError::Snapshot(v) if v.rule == Rule::ParseFailed
        )),
        "{report}"
    );
}

#[test]
fn refcount_imbalanced_snapshot_is_rejected() {
    let report = check_snapshot_str(IMBALANCED);
    assert!(
        report.errors.iter().any(|e| matches!(
            e,
            CheckError::Snapshot(v) if v.rule == Rule::RefcountImbalance
        )),
        "{report}"
    );
}
