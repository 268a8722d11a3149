//! Integration tests for `paotr serve` daemon mode and the hard
//! budget-violation exit, run against the real binary.

use std::io::Write;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_paotr");

fn run_daemon(extra: &[&str], script: impl AsRef<[u8]>) -> std::process::Output {
    let mut child = Command::new(BIN)
        .args(["serve", "--daemon", "--seed", "3"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_ref())
        .unwrap();
    child.wait_with_output().expect("daemon exit")
}

#[test]
fn daemon_serves_a_scripted_session_over_stdin() {
    let script = "\
{\"cmd\":\"register\",\"query\":\"AVG(hr, 4) > 0.2 AND spo2 < 0.5\"}\n\
{\"cmd\":\"register\",\"query\":\"MAX(accel, 6) > 0.0 @ 0.4\",\"weight\":2.0}\n\
{\"cmd\":\"tick\",\"n\":10}\n\
{\"cmd\":\"unregister\",\"id\":0}\n\
{\"cmd\":\"tick\",\"n\":5}\n\
{\"cmd\":\"stats\"}\n\
{\"cmd\":\"shutdown\"}\n";
    let out = run_daemon(&["--budget", "15"], script);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 7, "one response per command: {stdout}");
    for line in &lines {
        assert!(line.starts_with("{\"ok\":true"), "bad response: {line}");
    }
    assert!(lines[5].contains("\"tick\":15"), "stats: {}", lines[5]);
    assert!(lines[5].contains("\"registers\":2"), "stats: {}", lines[5]);
}

#[test]
fn daemon_snapshot_flag_survives_a_restart() {
    let path = std::env::temp_dir().join("paotr_daemon_cli.snap");
    let path = path.to_str().unwrap();
    std::fs::remove_file(path).ok();

    let out = run_daemon(
        &["--snapshot", path],
        "{\"cmd\":\"register\",\"query\":\"AVG(hr, 4) > 0.2\"}\n\
         {\"cmd\":\"tick\",\"n\":8}\n\
         {\"cmd\":\"shutdown\"}\n",
    );
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("saved snapshot"),
        "first run must save the snapshot"
    );

    let out = run_daemon(
        &["--snapshot", path],
        "{\"cmd\":\"stats\"}\n{\"cmd\":\"shutdown\"}\n",
    );
    std::fs::remove_file(path).ok();
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("restored snapshot"),
        "second run must restore the snapshot"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.lines().next().unwrap().contains("\"tick\":8"),
        "restored daemon must continue from tick 8: {stdout}"
    );
}

#[test]
fn malformed_requests_get_error_responses_but_do_not_kill_the_daemon() {
    let out = run_daemon(
        &[],
        "not json\n{\"cmd\":\"nope\"}\n{\"cmd\":\"stats\"}\n{\"cmd\":\"shutdown\"}\n",
    );
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4);
    assert!(lines[0].starts_with("{\"ok\":false"));
    assert!(lines[1].starts_with("{\"ok\":false"));
    assert!(lines[2].starts_with("{\"ok\":true"));
}

/// A line that is not UTF-8 gets an error reply on stdio, as on TCP;
/// the daemon keeps serving and still saves its snapshot at shutdown.
#[test]
fn non_utf8_line_gets_an_error_reply_and_the_session_survives() {
    let path = std::env::temp_dir().join("paotr_daemon_cli_non_utf8.snap");
    let path = path.to_str().unwrap();
    std::fs::remove_file(path).ok();
    let out = run_daemon(
        &["--snapshot", path],
        b"{\"cmd\":\"register\",\"query\":\"AVG(A,4) < 0.5\"}\n\xff\xfe\n\
          {\"cmd\":\"stats\"}\n{\"cmd\":\"shutdown\"}\n",
    );
    let saved = std::fs::metadata(path).is_ok();
    std::fs::remove_file(path).ok();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "one response per line: {stdout}");
    assert!(lines[1].starts_with("{\"ok\":false"), "{}", lines[1]);
    assert!(lines[2].starts_with("{\"ok\":true"), "{}", lines[2]);
    assert!(lines[2].contains("\"sessions\":1"), "{}", lines[2]);
    assert!(saved, "shutdown must save the snapshot");
}

/// The hard budget-violation check exits non-zero and prints the
/// offending tick. `--check-budget` audits without an admission
/// ceiling, so an impossibly small budget is guaranteed to fire.
#[test]
fn budget_violation_exits_nonzero_and_names_the_offending_tick() {
    let out = Command::new(BIN)
        .args([
            "serve",
            "--queries",
            "4",
            "--ticks",
            "10",
            "--arrivals",
            "periodic",
            "--every",
            "1",
            "--no-drift",
            "--check-budget",
            "0.0001",
        ])
        .output()
        .expect("run serve");
    assert_eq!(
        out.status.code(),
        Some(1),
        "a budget violation must exit with code 1"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("budget violated at tick"),
        "stderr must name the offending tick: {stderr}"
    );
}

/// A generous `--check-budget` on the same run passes: the violation
/// path only fires when a tick actually exceeds the limit.
#[test]
fn generous_check_budget_passes() {
    let out = Command::new(BIN)
        .args([
            "serve",
            "--queries",
            "4",
            "--ticks",
            "10",
            "--arrivals",
            "periodic",
            "--every",
            "1",
            "--no-drift",
            "--check-budget",
            "1000000",
        ])
        .output()
        .expect("run serve");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A snapshot that breaks a restore rule is refused with a typed error
/// before the daemon serves anything: a non-zero exit that is not a
/// panic (101), `invalid snapshot` on stderr, and the file untouched.
#[test]
fn invalid_snapshots_are_refused_without_a_panic_or_a_rewrite() {
    let fixtures: [(&str, &[u8]); 2] = [
        (
            "window_over_limit",
            include_bytes!("../../check/tests/fixtures/snapshot_window_over_limit.snap"),
        ),
        (
            "idle_arrangement_out_of_catalog",
            include_bytes!(
                "../../check/tests/fixtures/snapshot_idle_arrangement_out_of_catalog.snap"
            ),
        ),
    ];
    for (name, bytes) in fixtures {
        let path = std::env::temp_dir().join(format!("paotr_daemon_cli_{name}.snap"));
        let path = path.to_str().unwrap();
        std::fs::write(path, bytes).unwrap();
        // No stdin script: the daemon exits before it would read one.
        let out = Command::new(BIN)
            .args(["serve", "--daemon", "--snapshot", path])
            .stdin(Stdio::null())
            .output()
            .expect("run daemon");
        let after = std::fs::read(path).unwrap();
        std::fs::remove_file(path).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name}: restore accepted it");
        assert_ne!(out.status.code(), Some(101), "{name} panicked: {stderr}");
        assert!(stderr.contains("invalid snapshot"), "{name}: {stderr}");
        assert_eq!(after, bytes, "{name}: the snapshot file was rewritten");
    }
}

/// `serve --arrange-grace N` without `--arrange` used to serve with
/// arrangements off, while the daemon turned them on.
#[test]
fn arrange_grace_alone_turns_arrangements_on() {
    let out = Command::new(BIN)
        .args([
            "serve",
            "--queries",
            "4",
            "--ticks",
            "10",
            "--arrivals",
            "periodic",
            "--planner",
            "independent",
            "--arrange-grace",
            "3",
        ])
        .output()
        .expect("run serve");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("arrangements ["), "{stdout}");
}

/// The benchmark's launch path: the daemon takes every flag the load
/// generator emits, applies each one to its config, and prints the
/// listening address as its first stderr line (the load generator
/// reads the port from it).
#[test]
fn daemon_applies_every_launch_flag_and_announces_its_address_first() {
    use paotr_serverd::json::{parse, Json};
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    let mut child = Command::new(BIN)
        .args([
            "serve",
            "--daemon",
            "--seed",
            "7",
            "--planner",
            "batch-aware",
        ])
        .args(["--replan-after", "5", "--max-sessions", "32"])
        .args(["--max-window", "48", "--budget", "250.5", "--shed"])
        .args(["--arrange-grace", "3", "--fault-seed", "9"])
        .args(["--fault-rate", "0.02", "--outage-streams", "0.25"])
        .args(["--outage-len", "6", "--outage-gap", "40", "--retries", "2"])
        .args(["--no-stale", "--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut first = String::new();
    stderr.read_line(&mut first).unwrap();
    let Some(addr) = first.trim_end().strip_prefix("daemon listening on ") else {
        child.kill().ok();
        panic!("first stderr line must announce the address: {first:?}");
    };

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &str| {
        (&stream).write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        parse(reply.trim_end()).expect("a JSON reply")
    };
    let reply = ask(r#"{"cmd":"snapshot"}"#);
    ask(r#"{"cmd":"shutdown"}"#);
    assert!(child.wait().expect("daemon exit").success());

    let config = reply
        .get("snapshot")
        .and_then(|s| s.get("config"))
        .unwrap_or_else(|| panic!("no inline config: {}", reply.to_string_compact()));
    let num = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64);
    assert_eq!(config.get("seed").and_then(Json::as_u64), Some(7));
    assert_eq!(
        config.get("planner").and_then(Json::as_str),
        Some("batch-aware")
    );
    assert_eq!(num(config, "budget"), Some(250.5));
    assert_eq!(config.get("defer").and_then(Json::as_bool), Some(false));
    assert_eq!(config.get("replan_after").and_then(Json::as_u64), Some(5));
    assert_eq!(config.get("max_sessions").and_then(Json::as_u64), Some(32));
    assert_eq!(config.get("max_window").and_then(Json::as_u64), Some(48));
    let arrange = config
        .get("arrange")
        .expect("--arrange-grace turns arrangements on");
    assert_eq!(arrange.get("grace").and_then(Json::as_u64), Some(3));
    let faults = config.get("faults").expect("fault flags turn faults on");
    assert_eq!(faults.get("seed").and_then(Json::as_u64), Some(9));
    assert_eq!(num(faults, "transient_rate"), Some(0.02));
    assert_eq!(num(faults, "outage_streams"), Some(0.25));
    assert_eq!(faults.get("outage_len").and_then(Json::as_u64), Some(6));
    assert_eq!(faults.get("outage_gap").and_then(Json::as_u64), Some(40));
    assert_eq!(faults.get("max_attempts").and_then(Json::as_u64), Some(2));
    assert_eq!(
        faults.get("stale_serve").and_then(Json::as_bool),
        Some(false)
    );
}
