//! Registering a DNF query with more than 64 OR terms used to abort the
//! daemon: the incremental cost evaluator that priced the new plan
//! asserted a 64-term limit. Both shapes that reached the assert — a
//! read-once query and one whose two-leaf terms share streams — now
//! register, and the daemon keeps answering.

use paotr_serverd::daemon::{Config, Daemon};

/// `MAX(s0, 1) > 0.5 OR … OR MAX(s64, 1) > 0.5`: 65 read-once terms.
fn read_once_query() -> String {
    (0..65)
        .map(|i| format!("MAX(s{i}, 1) > 0.5"))
        .collect::<Vec<_>>()
        .join(" OR ")
}

/// 65 two-leaf terms over 5 shared streams.
fn shared_query() -> String {
    (0..65)
        .map(|i| {
            format!(
                "(MAX(s{}, {}) > 0.{} AND MIN(s{}, 2) < 0.{})",
                i % 5,
                1 + i % 3,
                1 + i % 9,
                (i + 2) % 5,
                1 + (i / 9) % 9
            )
        })
        .collect::<Vec<_>>()
        .join(" OR ")
}

#[test]
fn queries_with_65_terms_register_and_the_daemon_keeps_serving() {
    let mut d = Daemon::new(Config::default()).unwrap();
    for query in [read_once_query(), shared_query()] {
        let line = format!(r#"{{"cmd":"register","query":"{query}"}}"#);
        let (r, stop) = d.handle_line(&line);
        assert!(!stop);
        assert!(r.starts_with(r#"{"ok":true,"#), "{r}");
    }
    let (r, stop) = d.handle_line(r#"{"cmd":"tick"}"#);
    assert!(!stop);
    assert!(r.starts_with(r#"{"ok":true,"#), "{r}");
    let (r, _) = d.handle_line(r#"{"cmd":"stats"}"#);
    assert!(r.starts_with(r#"{"ok":true,"tick":1,"#), "{r}");
}
