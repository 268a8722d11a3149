//! A deliberately tiny JSON value type, parser and writer.
//!
//! The workspace builds hermetically (no crates.io), so the daemon's
//! wire protocol and snapshot format are served by this hand-rolled
//! subset instead of serde. Two properties matter more than generality:
//!
//! * **Determinism** — objects preserve insertion order and the writer
//!   has exactly one rendering per value, so writing a parsed document
//!   reproduces it byte-for-byte as long as it was produced by this
//!   writer (the snapshot round-trip test pins this).
//! * **Exact numbers** — `f64`s are written with Rust's shortest
//!   round-trip `Display` and re-parsed with `str::parse::<f64>`, so
//!   energy totals and calibration probabilities survive a
//!   snapshot/restore cycle bit-for-bit.

use std::fmt;

/// A JSON value. Objects keep insertion order (serialization must be
/// deterministic); numbers are `f64` (counters stay well under 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field `key` read through `get` (such as [`Json::as_u64`]);
    /// the error names `ctx` and the key when it is missing or mistyped.
    pub(crate) fn field<'a, T>(
        &'a self,
        ctx: &str,
        key: &str,
        get: impl Fn(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(get)
            .ok_or_else(|| format!("{ctx}: missing or invalid `{key}`"))
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes without whitespace (one canonical rendering).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }

    /// Wraps a `u64` counter (exact for values `< 2^53`).
    pub fn from_u64(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Wraps an array of `u64`s.
    pub fn u64_arr<I: IntoIterator<Item = u64>>(vs: I) -> Json {
        Json::Arr(vs.into_iter().map(Json::from_u64).collect())
    }

    /// Wraps an array of `f64`s.
    pub fn f64_arr<I: IntoIterator<Item = f64>>(vs: I) -> Json {
        Json::Arr(vs.into_iter().map(Json::Num).collect())
    }
}

fn write_value(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => write_number(*n, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    if !n.is_finite() {
        // JSON has no NaN/inf; the daemon never produces them, but a
        // defined rendering beats a panic if one ever leaks in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's f64 Display is the shortest representation that parses
        // back to the same bits — exactly what the round-trip needs.
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { src: input, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// A cursor over the input. `pos` is a byte offset that only ever
/// advances past ASCII bytes or whole characters, so it always sits on a
/// char boundary.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // One whole character (`pos` is on a char boundary).
                    let c = self.src[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            message: format!("bad number `{text}`"),
            offset: start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_documents() {
        for src in [
            "null",
            "true",
            "[1,2.5,-3]",
            r#"{"a":1,"b":[{"c":"x y"},null,false]}"#,
            r#""with \"quotes\" and \\ and \n""#,
            "0.1",
            "1e300",
        ] {
            let v = parse(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            let out = v.to_string_compact();
            let v2 = parse(&out).unwrap();
            assert_eq!(v, v2, "{src} -> {out}");
        }
    }

    #[test]
    fn writer_output_is_a_fixed_point() {
        let v = Json::obj([
            ("n", Json::Num(0.30000000000000004)),
            ("i", Json::from_u64(12345678901234)),
            ("s", Json::Str("a\"b\\c\nd".into())),
            ("a", Json::u64_arr([1, 2, 3])),
        ]);
        let once = v.to_string_compact();
        let twice = parse(&once).unwrap().to_string_compact();
        assert_eq!(once, twice, "parse(write(v)) must re-write identically");
    }

    #[test]
    fn f64_shortest_display_round_trips_exactly() {
        for x in [0.1, 1.0 / 3.0, 2.0_f64.powi(-60), 83.409_778_935_387_44] {
            let s = Json::Num(x).to_string_compact();
            assert_eq!(parse(&s).unwrap().as_f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn errors_carry_offsets_not_panics() {
        for src in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\" 1}",
            "tru",
            "[1 2]",
            "1.2.3",
        ] {
            let err = parse(src).expect_err(src);
            assert!(err.offset <= src.len(), "{src}: offset {}", err.offset);
        }
    }

    #[test]
    fn multi_byte_utf8_round_trips_in_keys_and_values() {
        // 2-, 3- and 4-byte characters, next to escapes and ASCII.
        let src = r#"{"caf\u00e9":"é","日本":["日本語","a😀b"],"😀":"\"é\"\n"}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("café").and_then(Json::as_str), Some("é"));
        let arr = v.get("日本").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_str(), Some("日本語"));
        assert_eq!(arr[1].as_str(), Some("a😀b"));
        assert_eq!(v.get("😀").and_then(Json::as_str), Some("\"é\"\n"));
        let out = v.to_string_compact();
        assert!(out.contains("日本語") && out.contains("a😀b"), "{out}");
        assert_eq!(parse(&out).unwrap(), v);
        assert_eq!(parse(&out).unwrap().to_string_compact(), out);
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"id":7,"ok":true,"xs":[1],"name":"q"}"#).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("name").and_then(Json::as_str), Some("q"));
        assert_eq!(v.get("missing"), None);
    }
}
