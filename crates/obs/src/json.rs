//! The workspace's one JSON implementation: a minimal, dependency-free
//! tree with a deterministic serializer.
//!
//! The build environment has no crates.io access, so nothing can use
//! `serde`; this module implements the small subset the workspace needs:
//! a [`Json`] value tree, a recursive-descent parser with byte-offset
//! error reporting, and compact/pretty emitters whose output is
//! byte-deterministic (object keys keep insertion order, numbers use a
//! fixed formatting rule). It lives in this leaf crate so that every
//! document in the workspace, this crate's own included, goes through
//! it; `ccsim_campaign::json` re-exports it.
//!
//! # Examples
//!
//! ```
//! use ccsim_obs::json::Json;
//!
//! let v = Json::parse(r#"{"name": "fig3", "llc_scales": [1, 2]}"#).unwrap();
//! assert_eq!(v.get("name").and_then(Json::as_str), Some("fig3"));
//! assert_eq!(v.to_string(), r#"{"name":"fig3","llc_scales":[1,2]}"#);
//! ```

use std::fmt;

/// Maximum nesting depth the parser accepts (guards the recursion stack).
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
///
/// Objects are ordered key/value lists — insertion order is preserved, and
/// serialization is therefore deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; integers up to 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an ordered key/value list.
    Obj(Vec<(String, Json)>),
}

/// A parse failure, with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// The largest integer a [`Json::Num`] holds exactly: [`Json::int`]
    /// asserts it, [`Json::int_saturating`] clamps to it.
    pub const MAX_INT: u64 = 1 << 53;

    /// Builds an object from key/value pairs (insertion order preserved).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an exact integer value.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds 2^53 and would lose precision in an `f64`.
    pub fn int(n: u64) -> Json {
        assert!(n <= Json::MAX_INT, "{n} cannot be represented exactly in JSON");
        Json::Num(n as f64)
    }

    /// Builds an integer value from a measured quantity (a counter, a
    /// bucket bound up to `u64::MAX`), clamped at [`Json::MAX_INT`] so
    /// the document stays integral and [`Json::as_u64`] reads it back.
    pub fn int_saturating(n: u64) -> Json {
        Json::int(n.min(Json::MAX_INT))
    }

    /// Builds a number value; non-finite inputs become `null`.
    pub fn num(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.trunc() == *v && *v <= Json::MAX_INT as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a complete JSON document (rejects trailing garbage).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset on malformed input.
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

    /// Serializes with 2-space indentation and a trailing newline —
    /// the canonical on-disk report format.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Json::Obj(pairs) => write_seq(out, indent, '{', '}', pairs.len(), |out, i, ind| {
                write_escaped(&pairs[i].0, out);
                out.push(':');
                if ind.is_some() {
                    out.push(' ');
                }
                pairs[i].1.write(out, ind);
            }),
        }
    }
}

impl fmt::Display for Json {
    /// Compact serialization (no whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        item(out, i, inner);
    }
    if let Some(d) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

/// Numbers print as integers when they are exactly integral (the common
/// case: counters), otherwise via Rust's shortest-roundtrip `f64` display.
/// Both are deterministic functions of the bit pattern.
fn write_num(v: f64, out: &mut String) {
    use fmt::Write as _;
    if !v.is_finite() {
        out.push_str("null");
    } else if v.trunc() == v && v.abs() <= Json::MAX_INT as f64 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    use fmt::Write as _;
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
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
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.reject_duplicate_keys(&pairs)?;
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Sort-and-scan at the closing brace, O(n log n): a scan per key
    /// made a many-key object from a foreign tool quadratic.
    fn reject_duplicate_keys(&self, pairs: &[(String, Json)]) -> Result<(), JsonError> {
        let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        match keys.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => Err(self.err(format!("duplicate key {:?}", w[0]))),
            None => Ok(()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    s.push(self.escape()?);
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| self.err("bad hex in \\u escape"))?;
                self.pos += 4;
                // Surrogates are rejected rather than paired: specs and
                // reports only contain ASCII identifiers.
                char::from_u32(code).ok_or_else(|| self.err("\\u escape is not a scalar"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let v: f64 = text.parse().map_err(|_| self.err(format!("bad number {text:?}")))?;
        if !v.is_finite() {
            return Err(self.err(format!("number out of range: {text:?}")));
        }
        Ok(Json::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#" {"a": [1, {"b": null}], "c": "x\ny"} "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x\ny"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "\"unterminated", "1 2", "{'a':1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let err = Json::parse("[1, oops]").unwrap_err();
        assert_eq!(err.offset, 4);
    }

    #[test]
    fn many_key_objects_parse_and_a_far_duplicate_is_still_rejected() {
        assert!(Json::parse(r#"{"a":1,"a":2}"#).is_err());
        let mut src = String::from("{");
        for i in 0..200_000 {
            src.push_str(&format!("\"k{i}\":{i},"));
        }
        let started = std::time::Instant::now();
        let unique = format!("{src}\"last\":0}}");
        let Json::Obj(pairs) = Json::parse(&unique).unwrap() else { panic!("not an object") };
        assert_eq!(pairs.len(), 200_001);
        assert_eq!(pairs[199_999], ("k199999".to_owned(), Json::Num(199_999.0)));
        let err = Json::parse(&format!("{src}\"k0\":0}}")).unwrap_err();
        assert!(err.message.contains("duplicate key \"k0\""), "{err}");
        // Well under a second even unoptimized; a scan per key needs
        // about a minute per parse in release mode and far longer here.
        assert!(started.elapsed().as_secs() < 30, "quadratic again: {:?}", started.elapsed());
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn escapes_are_short_forms_or_lowercase_u_sequences() {
        // (That they parse back is a property in `tests/proptests.rs`.)
        assert_eq!(Json::str("\" \\ \t \u{1} ü").to_string(), r#""\" \\ \t \u0001 ü""#);
        assert_eq!(Json::parse(r#""A\u00fc\/""#).unwrap().as_str(), Some("Aü/"));
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::int(7).to_string(), "7");
        assert_eq!(Json::num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(-3.0).to_string(), "-3");
        assert_eq!(Json::num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn u64_accessor_requires_exact_integers() {
        assert_eq!(Json::parse("12").unwrap().as_u64(), Some(12));
        assert_eq!(Json::parse("12.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
        assert_eq!(Json::parse("\"12\"").unwrap().as_u64(), None);
    }

    #[test]
    #[should_panic(expected = "cannot be represented")]
    fn oversized_int_panics() {
        let _ = Json::int(u64::MAX);
    }
}
