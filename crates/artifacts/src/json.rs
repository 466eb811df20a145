//! A minimal JSON value, renderer and parser.
//!
//! Run manifests (`manifest.jsonl`), the `BENCH_*.json` records and the
//! diagnostics report are JSON so they stay greppable and tool-friendly;
//! this module is the dependency-free subset they need: objects preserve
//! insertion order (renders are deterministic), integers are `i64`, floats
//! render via Rust's shortest round-trip formatting, and strings escape per
//! RFC 8259.
//!
//! # Examples
//!
//! ```
//! use sdbp_artifacts::Json;
//!
//! let line = Json::obj([
//!     ("cell", Json::Int(3)),
//!     ("status", Json::str("ok")),
//! ]);
//! let text = line.render();
//! assert_eq!(text, r#"{"cell":3,"status":"ok"}"#);
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("cell").and_then(Json::as_i64), Some(3));
//! ```

use crate::error::JsonError;
use std::fmt;

/// A JSON value. Object members keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (JSON numbers without fraction or exponent).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from key/value pairs, in order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object members, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The array elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact JSON (no whitespace), deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Renders a record file: each top-level member, and each element of a
    /// top-level member's array or object, on a line of its own. Anything
    /// deeper renders compactly, as [`Json::render`] does, so a file diffs
    /// one row at a time.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, 0);
        out
    }

    /// Lays out the containers at `depth` 0 and 1 one element per line.
    fn pretty_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth + 1);
        let line = |out: &mut String, i: usize| {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&indent);
        };
        match self {
            Json::Arr(items) if depth < 2 && !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    line(out, i);
                    item.pretty_into(out, depth + 1);
                }
            }
            Json::Obj(members) if depth < 2 && !members.is_empty() => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    line(out, i);
                    escape_into(key, out);
                    out.push_str(": ");
                    value.pretty_into(out, depth + 1);
                }
            }
            _ => return self.render_into(out),
        }
        let close = if matches!(self, Json::Arr(_)) {
            ']'
        } else {
            '}'
        };
        out.push('\n');
        out.push_str(&indent[2..]);
        out.push(close);
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    // `{:?}` is Rust's shortest round-trip float form.
                    out.push_str(&format!("{v:?}"));
                } else {
                    // JSON has no NaN/Infinity literal.
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", char::from(byte))))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
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
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected character '{}'", char::from(other)))),
            None => Err(self.error("unexpected end of input")),
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
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            // Surrogates would need pairing; the renderer
                            // never emits them, so reject rather than lie.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.error("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 3; // +1 below completes the 4 digits
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = &self.bytes[start..];
                    let text =
                        std::str::from_utf8(rest).map_err(|_| self.error("string is not UTF-8"))?;
                    let c = text.chars().next().expect("non-empty by peek");
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
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.error(format!("bad number '{text}'")))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.error(format!("bad number '{text}'")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_deterministic_objects() {
        let v = Json::obj([
            ("b", Json::Int(-2)),
            ("a", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("s", Json::str("hi")),
        ]);
        assert_eq!(v.render(), r#"{"b":-2,"a":[null,true],"s":"hi"}"#);
        assert_eq!(v.to_string(), v.render());
    }

    #[test]
    fn pretty_rendering_breaks_two_levels_and_parses_back() {
        let v = Json::obj([
            ("schema", Json::str("x/v1")),
            ("grid", Json::obj([("cells", Json::Int(2))])),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("a", Json::Arr(vec![Json::Int(1), Json::Null]))]),
                    Json::Float(0.5),
                ]),
            ),
            ("empty", Json::Arr(vec![])),
        ]);
        let expected = "{\n  \"schema\": \"x/v1\",\n  \"grid\": {\n    \"cells\": 2\n  },\n  \
                        \"rows\": [\n    {\"a\":[1,null]},\n    0.5\n  ],\n  \"empty\": []\n}";
        assert_eq!(v.render_pretty(), expected);
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
        // Scalars and empty containers have no lines to break.
        assert_eq!(Json::Int(7).render_pretty(), "7");
        assert_eq!(Json::obj::<&str>([]).render_pretty(), "{}");
    }

    #[test]
    fn escapes_and_unescapes() {
        let v = Json::str("a\"b\\c\nd\te\u{1}");
        let text = v.render();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#" { "a" : [ 1 , 2.5 , { "b" : false } ] , "c" : null } "#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_i64(), Some(1));
        assert_eq!(arr[1], Json::Float(2.5));
        assert_eq!(arr[2].get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn integers_and_floats_are_distinguished() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::Int(9).as_u64(), Some(9));
        assert_eq!(Json::Int(-9).as_u64(), None);
    }

    #[test]
    fn float_rendering_roundtrips() {
        for v in [0.1, 1.0 / 3.0, 1e-9, 12345.6789] {
            let text = Json::Float(v).render();
            match Json::parse(&text).unwrap() {
                Json::Float(back) => assert_eq!(back.to_bits(), v.to_bits(), "{text}"),
                other => panic!("{text} parsed as {other:?}"),
            }
        }
        assert_eq!(Json::Float(f64::NAN).render(), "null");
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = Json::parse(r#"{"a" 1}"#).unwrap_err();
        assert_eq!(err.offset, 5);
        assert!(err.message.contains(':'));
        assert!(Json::parse("").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
        assert!(Json::parse(r#""bad \q escape""#).is_err());
    }

    #[test]
    fn unicode_survives() {
        let v = Json::str("héllo → 世界");
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::str("é"));
    }
}
