//! The workspace's one JSON implementation: a value tree, a reader and a
//! writer.
//!
//! The workspace bans external dependencies, and JSON the repo itself
//! wrote has to be *read* back. The parser has two readers:
//! [`crate::analyze`] re-parses `trace.jsonl` records (and the tests of
//! every writer in this crate check their output parses), and
//! `arrow_topology::io` decodes experiment snapshots from it — the one
//! place a file from outside the program is decoded. [`Json::to_pretty`]
//! is the writer, used by that snapshot module and by the incident
//! manifest; the trace and metrics writers format their fixed shapes
//! directly and share its string escaper.
//!
//! This is a small recursive-descent parser covering objects, arrays,
//! strings, numbers, booleans and null — not a general-purpose library:
//! no streaming, no number precision beyond `f64`, no typed decoding (a
//! reader walks the [`Json`] tree and checks what it finds).
//!
//! Parsing never panics; malformed input returns a [`JsonError`] carrying
//! the byte offset of the problem, and nesting deeper than a fixed cap is
//! malformed.

use crate::metrics::{json_escape, json_f64};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved as written; lookups are linear
    /// (telemetry objects are small).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes to indented text that [`parse`] reads back, one member
    /// or item per line. Numbers print in Rust's shortest round-trip form;
    /// a non-finite number prints as `null`.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        // Ends the line (after a `,` unless first) and indents the next.
        let open_line = |out: &mut String, first: bool, indent: usize| {
            out.push_str(if first { "\n" } else { ",\n" });
            out.extend(std::iter::repeat_n("  ", indent));
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&json_f64(*n)),
            Json::Str(s) => out.push_str(&format!("\"{}\"", json_escape(s))),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    open_line(out, i == 0, indent + 1);
                    item.write(out, indent + 1);
                }
                open_line(out, true, indent);
                out.push(']');
            }
            Json::Obj(members) if members.is_empty() => out.push_str("{}"),
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    open_line(out, i == 0, indent + 1);
                    out.push_str(&format!("\"{}\": ", json_escape(key)));
                    value.write(out, indent + 1);
                }
                open_line(out, true, indent);
                out.push('}');
            }
        }
    }
}

/// Why parsing failed, with the byte offset of the offending input.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document, requiring the whole input to be consumed
/// (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Nesting depth cap: telemetry documents are a handful of levels deep;
/// the cap keeps adversarial input from exhausting the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.expect_literal("true", Json::Bool(true)),
            Some(b'f') => self.expect_literal("false", Json::Bool(false)),
            Some(b'n') => self.expect_literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key string"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(Json::Obj(members));
            }
            return Err(self.err("expected ',' or '}' in object"));
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            return Err(self.err("expected ',' or ']' in array"));
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our
                            // writers; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // bytes are valid UTF-8; step by char boundary).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                        end += 1;
                    }
                    if let Ok(s) = std::str::from_utf8(&self.bytes[start..end]) {
                        out.push_str(s);
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let doc = parse(r#"{"a": 1, "b": -2.5e2, "c": "x\ny", "d": [true, false, null], "e": {}}"#)
            .expect("valid json");
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("b").and_then(Json::as_f64), Some(-250.0));
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x\ny"));
        let d = [Json::Bool(true), Json::Bool(false), Json::Null];
        assert_eq!(doc.get("d"), Some(&Json::Arr(d.to_vec())));
        assert_eq!(doc.get("e").and_then(Json::as_obj).map(<[_]>::len), Some(0));
    }

    #[test]
    fn roundtrips_own_writers() {
        // The metrics snapshot writer is one of the producers this parser
        // exists for; its output must parse cleanly.
        static ROUNDTRIP: crate::Counter =
            crate::Counter::new("test.json.roundtrip", "test counter");
        ROUNDTRIP.inc();
        let json = crate::metrics::snapshot().to_json();
        let doc = parse(&json).expect("snapshot JSON parses");
        assert!(doc.get("counters").is_some());
    }

    #[test]
    fn writer_output_is_stable_and_parses_back() {
        let text = r#"{
  "name": "a\"b\n",
  "ids": [
    0,
    0.00000025
  ],
  "rows": [
    {
      "ok": true
    },
    {},
    []
  ],
  "none": null
}"#;
        let doc = parse(text).expect("valid json");
        assert_eq!(doc.to_pretty(), text);
        assert_eq!(parse(&doc.to_pretty()), Ok(doc));
        // Numbers round-trip exactly; a non-finite one has no JSON form.
        for v in [0.1 + 0.2, 1e300, f64::MIN_POSITIVE, 4503599627370497.0] {
            assert_eq!(parse(&Json::Num(v).to_pretty()), Ok(Json::Num(v)));
        }
        assert_eq!(Json::Num(f64::NAN).to_pretty(), "null");
    }

    #[test]
    fn rejects_malformed_input_without_panicking() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1.2.3", "\"unterminated", "{]}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // Deep nesting hits the depth cap instead of the stack.
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn unicode_and_escapes_resolve() {
        let doc = parse(r#"{"s": "π A\t"}"#).expect("valid");
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("π A\t"));
    }
}
