//! One protocol line asking for an absurd tick batch used to reach an
//! allocation sized by the batch and abort the whole process. It now
//! gets a typed refusal, and the daemon keeps serving.

use paotr_serverd::daemon::{Config, Daemon};
use paotr_serverd::proto::MAX_TICK_BATCH;

#[test]
fn oversized_tick_batches_are_refused_and_the_daemon_keeps_serving() {
    let mut d = Daemon::new(Config::default()).unwrap();
    d.register("LAST(A,2) < 0.5", 1.0).unwrap();

    let (r, stop) = d.handle_line(r#"{"cmd":"tick","n":1000000000000000}"#);
    assert!(!stop);
    assert!(r.starts_with(r#"{"ok":false,"#), "{r}");
    assert!(r.contains("batch limit"), "{r}");
    let (r, _) = d.handle_line(r#"{"cmd":"stats"}"#);
    assert!(r.starts_with(r#"{"ok":true,"tick":0,"#), "{r}");

    let (r, _) = d.handle_line(&format!(r#"{{"cmd":"tick","n":{MAX_TICK_BATCH}}}"#));
    assert!(
        r.starts_with(r#"{"ok":true,"ticks":4096,"tick":4096,"#),
        "{r}"
    );
    let (r, _) = d.handle_line(&format!(r#"{{"cmd":"tick","n":{}}}"#, MAX_TICK_BATCH + 1));
    assert!(r.starts_with(r#"{"ok":false,"#), "{r}");
    assert_eq!(d.tick(), 4096);
}
