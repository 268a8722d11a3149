//! Fuzzes the wire parsers: `proto::parse_command`, `json::parse` and,
//! on the snapshot fixtures, `Snapshot::parse` + `validate`. Inputs are
//! arbitrary bytes (lossy UTF-8), JSON-alphabet soups, and single-byte
//! insertions, deletions and flips of valid command lines and of both
//! committed snapshot fixtures. Properties: no parser panics (each
//! returns a value or its typed error, and a JSON error's offset lies
//! inside the input), and every document `json::parse` accepts
//! re-renders and re-parses to an equal value.

use paotr_serverd::daemon::{Config, Daemon};
use paotr_serverd::json::{self, MAX_DEPTH};
use paotr_serverd::proto::parse_command;
use paotr_serverd::Snapshot;
use proptest::prelude::*;

const COMMANDS: [&str; 9] = [
    r#"{"cmd":"register","query":"AVG(hr,8) > 0.5 AND spo2 < 0.0","weight":2}"#,
    r#"{"cmd":"unregister","id":0}"#,
    r#"{"cmd":"tick","n":10}"#,
    r#"{"cmd":"stats"}"#,
    r#"{"cmd":"plan"}"#,
    r#"{"cmd":"replan"}"#,
    r#"{"cmd":"snapshot","path":"d.snap"}"#,
    r#"{"cmd":"snapshot"}"#,
    r#"{"cmd":"shutdown"}"#,
];

const FIXTURES: [&str; 2] = [
    include_str!("fixtures/snapshot_v1.snap"),
    include_str!("fixtures/snapshot_v2.snap"),
];

/// Bytes that JSON documents are made of, so random soups reach the
/// parser's nesting, string and number paths rather than failing at
/// the first byte.
const ALPHABET: &[u8] = b"[]{}\":,.-+eE0123456789 \\ntrufalsc\xc3\xa9";

fn check_wire(text: &str) -> Result<(), TestCaseError> {
    let _ = parse_command(text);
    match json::parse(text) {
        Ok(v) => {
            let rendered = v.to_string_compact();
            match json::parse(&rendered) {
                Ok(again) => prop_assert_eq!(again, v, "{}", rendered),
                Err(e) => prop_assert!(false, "{} re-parse failed: {}", rendered, e),
            }
        }
        Err(e) => prop_assert!(e.offset <= text.len(), "{}: offset {}", text, e.offset),
    }
    Ok(())
}

/// Applies one insertion (`op == 0`), deletion (`1`) or bit flip (`2`)
/// at `at % len` and decodes the result as lossy UTF-8.
fn mutate(src: &str, op: u8, at: usize, byte: u8) -> String {
    let mut bytes = src.as_bytes().to_vec();
    let at = at % (bytes.len() + 1);
    match op {
        0 => bytes.insert(at, byte),
        _ if at == bytes.len() => {}
        1 => {
            bytes.remove(at);
        }
        _ => bytes[at] ^= byte.max(1),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        check_wire(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn json_alphabet_soup_never_panics(picks in prop::collection::vec(0..ALPHABET.len(), 0..120)) {
        let bytes: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
        check_wire(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn mutated_command_lines_never_panic(
        which in 0..COMMANDS.len(),
        op in 0u8..3,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        check_wire(&mutate(COMMANDS[which], op, at, byte))?;
    }

    #[test]
    fn mutated_snapshot_fixtures_never_panic(
        which in 0..FIXTURES.len(),
        op in 0u8..3,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let text = mutate(FIXTURES[which], op, at, byte);
        check_wire(&text)?;
        if let Ok(snap) = Snapshot::parse(&text) {
            let _ = snap.validate();
        }
    }
}

#[test]
fn valid_inputs_parse() {
    for line in COMMANDS {
        assert!(parse_command(line).is_ok(), "{line}");
    }
    for doc in FIXTURES {
        assert!(Snapshot::parse(doc).is_ok());
        check_wire(doc).unwrap();
    }
}

#[test]
fn nesting_is_bounded_at_max_depth() {
    let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(json::parse(&nest(MAX_DEPTH)).is_ok());
    let err = json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
    assert!(err.message.contains("nesting"), "{err}");
    assert_eq!(err.offset, MAX_DEPTH, "refused at the first byte too deep");
}

/// One line of 100,000 `[` used to recurse once per byte and overflow
/// the serving thread's stack, aborting the daemon. On a 2 MiB thread
/// (the default for spawned threads) it now gets one typed refusal, and
/// the next command on the same daemon succeeds.
#[test]
fn deeply_nested_line_gets_a_typed_refusal_and_the_daemon_keeps_serving() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let mut d = Daemon::new(Config::default()).unwrap();
            let (r, stop) = d.handle_line(&"[".repeat(100_000));
            assert!(!stop);
            assert!(r.starts_with(r#"{"ok":false,"#), "{r}");
            assert!(r.contains("nesting deeper than 64 levels"), "{r}");
            let (r, _) = d.handle_line(r#"{"cmd":"register","query":"LAST(A,2) < 0.5"}"#);
            assert!(r.starts_with(r#"{"ok":true,"id":0"#), "{r}");
        })
        .unwrap()
        .join()
        .unwrap();
}
