//! The daemon's wire protocol: one JSON object per line, in and out.
//!
//! Requests carry a `"cmd"` discriminator:
//!
//! ```text
//! {"cmd":"register","query":"AVG(hr,8) > 0.5 AND spo2 < 0.0","weight":2}
//! {"cmd":"unregister","id":0}
//! {"cmd":"tick","n":10}
//! {"cmd":"stats"}
//! {"cmd":"plan"}
//! {"cmd":"replan"}
//! {"cmd":"snapshot","path":"/tmp/paotr.snap"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Every response is `{"ok":true,...}` or `{"ok":false,"error":"..."}`.
//! Malformed lines produce an error response, never a dead daemon.

use crate::json::{parse, Json};

/// The most ticks one `tick` command may request. A batch runs under
/// the daemon lock, so the cap bounds how long one line can hold it
/// (and how much a batch report can allocate).
pub const MAX_TICK_BATCH: u64 = 4096;

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Register a qlang query with an admission weight.
    Register {
        /// qlang source text.
        query: String,
        /// Admission weight (default 1.0).
        weight: f64,
    },
    /// Remove a live session.
    Unregister {
        /// The session id `register` returned.
        id: u64,
    },
    /// Advance the daemon by `n` serving ticks.
    Tick {
        /// Tick count (default 1).
        n: u64,
    },
    /// Telemetry counters (plus a rendered table).
    Stats,
    /// The current joint plan (execution order + per-session leaf
    /// schedules).
    Plan,
    /// Force a full joint re-plan of the live set.
    Replan,
    /// Persist a snapshot; with `path` absent the snapshot document is
    /// returned inline.
    Snapshot {
        /// Destination file; `None` returns the document in the
        /// response.
        path: Option<String>,
    },
    /// Acknowledge and stop serving.
    Shutdown,
}

/// Parses one request line.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let v = parse(line).map_err(|e| format!("bad request: {e}"))?;
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| "bad request: missing string field `cmd`".to_string())?;
    match cmd {
        "register" => {
            let query = v
                .get("query")
                .and_then(Json::as_str)
                .ok_or_else(|| "register: missing string field `query`".to_string())?
                .to_string();
            let weight = match v.get("weight") {
                None => 1.0,
                Some(w) => w
                    .as_f64()
                    .ok_or_else(|| "register: `weight` must be a number".to_string())?,
            };
            Ok(Command::Register { query, weight })
        }
        "unregister" => {
            let id = v
                .get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| "unregister: missing integer field `id`".to_string())?;
            Ok(Command::Unregister { id })
        }
        "tick" => {
            let n = match v.get("n") {
                None => 1,
                Some(n) => n
                    .as_u64()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "tick: `n` must be a positive integer".to_string())?,
            };
            if n > MAX_TICK_BATCH {
                return Err(format!(
                    "tick: `n` = {n} exceeds the batch limit {MAX_TICK_BATCH}"
                ));
            }
            Ok(Command::Tick { n })
        }
        "stats" => Ok(Command::Stats),
        "plan" => Ok(Command::Plan),
        "replan" => Ok(Command::Replan),
        "snapshot" => {
            let path = match v.get("path") {
                None | Some(Json::Null) => None,
                Some(p) => Some(
                    p.as_str()
                        .ok_or_else(|| "snapshot: `path` must be a string".to_string())?
                        .to_string(),
                ),
            };
            Ok(Command::Snapshot { path })
        }
        "shutdown" => Ok(Command::Shutdown),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// An `{"ok":true,...}` response with extra fields.
pub fn ok_response<I: IntoIterator<Item = (&'static str, Json)>>(fields: I) -> String {
    let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(pairs).to_string_compact()
}

/// An `{"ok":false,"error":...}` response.
pub fn error_response(message: &str) -> String {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        assert_eq!(
            parse_command(r#"{"cmd":"register","query":"a < 1","weight":2}"#).unwrap(),
            Command::Register {
                query: "a < 1".into(),
                weight: 2.0
            }
        );
        assert_eq!(
            parse_command(r#"{"cmd":"register","query":"a < 1"}"#).unwrap(),
            Command::Register {
                query: "a < 1".into(),
                weight: 1.0
            }
        );
        assert_eq!(
            parse_command(r#"{"cmd":"unregister","id":3}"#).unwrap(),
            Command::Unregister { id: 3 }
        );
        assert_eq!(
            parse_command(r#"{"cmd":"tick","n":10}"#).unwrap(),
            Command::Tick { n: 10 }
        );
        assert_eq!(
            parse_command(r#"{"cmd":"tick"}"#).unwrap(),
            Command::Tick { n: 1 }
        );
        assert_eq!(parse_command(r#"{"cmd":"stats"}"#).unwrap(), Command::Stats);
        assert_eq!(parse_command(r#"{"cmd":"plan"}"#).unwrap(), Command::Plan);
        assert_eq!(
            parse_command(r#"{"cmd":"replan"}"#).unwrap(),
            Command::Replan
        );
        assert_eq!(
            parse_command(r#"{"cmd":"snapshot","path":"/tmp/x"}"#).unwrap(),
            Command::Snapshot {
                path: Some("/tmp/x".into())
            }
        );
        assert_eq!(
            parse_command(r#"{"cmd":"snapshot"}"#).unwrap(),
            Command::Snapshot { path: None }
        );
        assert_eq!(
            parse_command(r#"{"cmd":"shutdown"}"#).unwrap(),
            Command::Shutdown
        );
    }

    #[test]
    fn rejects_malformed_requests_with_messages() {
        for (line, needle) in [
            ("", "bad request"),
            ("not json", "bad request"),
            ("{}", "cmd"),
            (r#"{"cmd":"warp"}"#, "unknown command"),
            (r#"{"cmd":"register"}"#, "query"),
            (r#"{"cmd":"register","query":"a<1","weight":"x"}"#, "weight"),
            (r#"{"cmd":"unregister"}"#, "id"),
            (r#"{"cmd":"tick","n":0}"#, "positive"),
            (r#"{"cmd":"tick","n":4097}"#, "batch limit"),
            (r#"{"cmd":"snapshot","path":7}"#, "path"),
        ] {
            let err = parse_command(line).expect_err(line);
            assert!(err.contains(needle), "`{line}` -> `{err}`");
        }
    }

    #[test]
    fn responses_are_single_json_lines() {
        let ok = ok_response([("id", Json::from_u64(4))]);
        assert_eq!(ok, r#"{"ok":true,"id":4}"#);
        let err = error_response("nope");
        assert_eq!(err, r#"{"ok":false,"error":"nope"}"#);
    }
}
