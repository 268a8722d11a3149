//! Differential corruption table: every single-field corruption of the
//! committed v2 fixture gets the same rule name from
//! `Snapshot::validate`, from a refused `Daemon::from_snapshot`, and
//! from `paotr check snapshot` — and none of them reaches a restored
//! daemon that would panic or wedge on its first tick.

use paotr_check::{check_snapshot_str, Rule};
use paotr_serverd::{Daemon, Snapshot};

const V2: &str = include_str!("../../serverd/tests/fixtures/snapshot_v2.snap");
const WINDOW_OVER_LIMIT: &str = include_str!("fixtures/snapshot_window_over_limit.snap");
const IDLE_OUT_OF_CATALOG: &str =
    include_str!("fixtures/snapshot_idle_arrangement_out_of_catalog.snap");

const IDLE_ENTRY: &str =
    r#"{"stream":9,"window":5,"readers":0,"maintained_to":53,"zero_reader_since":30}"#;

/// `(pattern, replacement)` pairs; each replaces the first occurrence
/// of its pattern in the v2 fixture.
type Edits = Vec<(&'static str, String)>;

/// `(name, edits, expected rule)`.
fn corruptions() -> Vec<(&'static str, Edits, Rule)> {
    let one = |from: &'static str, to: &str| vec![(from, to.to_string())];
    vec![
        (
            "max_window over the ceiling",
            one(r#""max_window":24"#, r#""max_window":65537"#),
            Rule::ConfigInvalid,
        ),
        (
            "window over max_window",
            one(r#""max_window":24"#, r#""max_window":6"#),
            Rule::WindowLimitExceeded,
        ),
        (
            "negative weight with a re-plan due",
            vec![
                (r#""weight":1,"#, r#""weight":-1,"#.into()),
                (
                    r#""churn_since_replan":1"#,
                    r#""churn_since_replan":3"#.into(),
                ),
            ],
            Rule::SessionStateInvalid,
        ),
        (
            "zero weight",
            one(r#""weight":1,"#, r#""weight":0,"#),
            Rule::SessionStateInvalid,
        ),
        (
            "two sessions over max_sessions 1",
            one(r#""max_sessions":16"#, r#""max_sessions":1"#),
            Rule::SessionLimitExceeded,
        ),
        (
            "source that does not parse",
            one(
                r#""source":"MIN(accel, 5) < -0.5 @ 0.3""#,
                r#""source":"MIN(accel, 5) <""#,
            ),
            Rule::SessionSourceInvalid,
        ),
        (
            "source over a stream missing from the catalog",
            one(r#""source":"MIN(accel, 5)"#, r#""source":"MIN(gyro, 5)"#),
            Rule::UnresolvedStream,
        ),
        (
            "calibrated above 1",
            one(r#""calibrated":[0.5,0.8]"#, r#""calibrated":[1.5,0.8]"#),
            Rule::SessionStateInvalid,
        ),
        (
            "calibrated below 0",
            one(r#""calibrated":[0.5,0.8]"#, r#""calibrated":[-0.1,0.8]"#),
            Rule::SessionStateInvalid,
        ),
        (
            "zero catalog cost",
            one(r#"{"name":"spo2","cost":1}"#, r#"{"name":"spo2","cost":0}"#),
            Rule::CatalogInvalid,
        ),
        (
            "telemetry ticks behind tick",
            one(r#""ticks":30"#, r#""ticks":29"#),
            Rule::NonMonotoneTick,
        ),
        (
            "registered after the snapshot tick",
            one(r#""registered_tick":0"#, r#""registered_tick":31"#),
            Rule::NonMonotoneTick,
        ),
        (
            "pending after the snapshot tick",
            one(r#""pending_since":null"#, r#""pending_since":31"#),
            Rule::NonMonotoneTick,
        ),
        (
            "schedule repeats a leaf",
            one(r#""schedule":[[0,1],[0,0]]"#, r#""schedule":[[0,0],[0,0]]"#),
            Rule::SessionStateInvalid,
        ),
        (
            "schedule names a missing leaf",
            one(r#""schedule":[[0,1],[0,0]]"#, r#""schedule":[[0,1],[0,7]]"#),
            Rule::SessionStateInvalid,
        ),
        (
            "idle arrangement outside the catalog",
            one(
                r#""zero_reader_since":null}]}}"#,
                &format!(r#""zero_reader_since":null}},{IDLE_ENTRY}]}}}}"#),
            ),
            Rule::ArrangementInvalid,
        ),
        (
            "maintained far past the stream's time",
            one(r#""maintained_to":53"#, r#""maintained_to":60"#),
            Rule::ArrangementInvalid,
        ),
        (
            "maintained one item past the stream's time",
            one(r#""maintained_to":53"#, r#""maintained_to":54"#),
            Rule::ArrangementInvalid,
        ),
    ]
}

fn corrupt(edits: &[(&str, String)]) -> String {
    edits.iter().fold(V2.to_string(), |text, (from, to)| {
        assert!(text.contains(from), "pattern `{from}` not in the fixture");
        text.replacen(from, to, 1)
    })
}

#[test]
fn every_corruption_gets_one_rule_name_from_validate_restore_and_check() {
    let v2 = Snapshot::parse(V2).unwrap();
    assert_eq!(v2.validate(), vec![], "the uncorrupted fixture is valid");
    for (name, edits, rule) in corruptions() {
        let text = corrupt(&edits);
        let snap = Snapshot::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));

        let found = snap.validate();
        assert!(
            found.iter().any(|v| v.rule == rule),
            "{name}: validate reports {found:?}, not {}",
            rule.name()
        );

        let refused = Daemon::from_snapshot(&snap)
            .err()
            .unwrap_or_else(|| panic!("{name}: restore accepted the corruption"))
            .to_string();
        assert!(
            refused.contains(rule.name()),
            "{name}: restore refused with `{refused}`"
        );

        let report = check_snapshot_str(&text);
        assert!(
            report.errors.iter().any(|e| e.rule() == rule.name()),
            "{name}: {report}"
        );
    }
}

#[test]
fn committed_regression_fixtures_are_the_v2_fixture_with_one_edit() {
    let table = corruptions();
    let edits = |name: &str| &table.iter().find(|(n, ..)| *n == name).unwrap().1;
    assert_eq!(WINDOW_OVER_LIMIT, corrupt(edits("window over max_window")));
    assert_eq!(
        IDLE_OUT_OF_CATALOG,
        corrupt(edits("idle arrangement outside the catalog"))
    );
}
