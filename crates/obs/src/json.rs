//! A minimal hand-rolled JSON model and parser.
//!
//! The workspace builds offline — no serde — so the snapshot exporter
//! ([`Snapshot`](crate::Snapshot)) and `scg-analyze`'s report and cache
//! share this one parser. It accepts exactly
//! the subset our encoders emit: objects, arrays, strings with
//! `\"`/`\\`/`\/`/`\n`/`\t`/`\r`/`\uXXXX` escapes, and integers (floats
//! are rejected by design — every number we export is an exact count or
//! a pair of integers).
//!
//! # Examples
//!
//! ```
//! use scg_obs::json::{parse, Json};
//!
//! let v = parse(r#"{"pairs": 64, "hosts": ["MS(3,2)"]}"#).expect("valid");
//! let obj = v.as_object(0).expect("object");
//! assert_eq!(obj["pairs"].as_u64(0).unwrap(), 64);
//! assert_eq!(obj["hosts"].as_array(0).unwrap()[0].as_string(0).unwrap(), "MS(3,2)");
//! ```

use std::collections::BTreeMap;

use crate::error::ObsError;

/// The minimal JSON value model our exporters need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `{...}` with string keys, sorted.
    Object(BTreeMap<String, Json>),
    /// `[...]`.
    Array(Vec<Json>),
    /// `"..."`.
    String(String),
    /// All numbers the encoders emit are integers; `i128` covers the
    /// full `u64` and `i64` ranges.
    Int(i128),
}

impl Json {
    /// The object map, or an [`ObsError::Json`] at offset `at`.
    ///
    /// # Errors
    ///
    /// Returns [`ObsError::Json`] if this value is not an object.
    pub fn as_object(&self, at: usize) -> Result<&BTreeMap<String, Json>, ObsError> {
        match self {
            Json::Object(m) => Ok(m),
            _ => Err(ObsError::Json {
                at,
                reason: "expected object",
            }),
        }
    }

    /// The array items, or an [`ObsError::Json`] at offset `at`.
    ///
    /// # Errors
    ///
    /// Returns [`ObsError::Json`] if this value is not an array.
    pub fn as_array(&self, at: usize) -> Result<&[Json], ObsError> {
        match self {
            Json::Array(v) => Ok(v),
            _ => Err(ObsError::Json {
                at,
                reason: "expected array",
            }),
        }
    }

    /// The string contents, or an [`ObsError::Json`] at offset `at`.
    ///
    /// # Errors
    ///
    /// Returns [`ObsError::Json`] if this value is not a string.
    pub fn as_string(&self, at: usize) -> Result<&str, ObsError> {
        match self {
            Json::String(s) => Ok(s),
            _ => Err(ObsError::Json {
                at,
                reason: "expected string",
            }),
        }
    }

    /// The integer as a `u64`, or an [`ObsError::Json`] at offset `at`.
    ///
    /// # Errors
    ///
    /// Returns [`ObsError::Json`] if this value is not an integer in
    /// `u64` range.
    pub fn as_u64(&self, at: usize) -> Result<u64, ObsError> {
        match self {
            Json::Int(i) => u64::try_from(*i).map_err(|_| ObsError::Json {
                at,
                reason: "integer out of u64 range",
            }),
            _ => Err(ObsError::Json {
                at,
                reason: "expected integer",
            }),
        }
    }

    /// The integer as an `i64`, or an [`ObsError::Json`] at offset `at`.
    ///
    /// # Errors
    ///
    /// Returns [`ObsError::Json`] if this value is not an integer in
    /// `i64` range.
    pub fn as_i64(&self, at: usize) -> Result<i64, ObsError> {
        match self {
            Json::Int(i) => i64::try_from(*i).map_err(|_| ObsError::Json {
                at,
                reason: "integer out of i64 range",
            }),
            _ => Err(ObsError::Json {
                at,
                reason: "expected integer",
            }),
        }
    }

    /// Encodes this value back to JSON text that [`parse`] round-trips
    /// losslessly: object keys stay sorted (they live in a `BTreeMap`), and
    /// strings use exactly the escapes the parser accepts.
    ///
    /// ```
    /// use scg_obs::json::{parse, Json};
    ///
    /// let v = parse(r#"{"b": [1, -2], "a": "x\ny"}"#).expect("valid");
    /// assert_eq!(parse(&v.encode()).expect("round-trips"), v);
    /// ```
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Object(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    encode_str(out, k);
                    out.push_str(": ");
                    v.encode_into(out);
                }
                out.push('}');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Json::String(s) => encode_str(out, s),
            Json::Int(i) => {
                use std::fmt::Write as _;
                // Writing an integer into a `String` cannot fail.
                let _ = write!(out, "{i}"); // scg-allow(SCG005): fmt::Write to String is infallible
            }
        }
    }
}

/// Escapes `s` into `out` using only the escapes [`parse`] accepts.
fn encode_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                // Writing into a `String` cannot fail.
                let _ = write!(out, "\\u{:04x}", c as u32); // scg-allow(SCG005): fmt::Write to String is infallible
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns [`ObsError::Json`] with the byte offset and reason on any
/// malformed input, including floats (not part of our formats).
pub fn parse(input: &str) -> Result<Json, ObsError> {
    JsonParser::parse(input)
}

/// A recursive-descent parser over the encoders' JSON subset.
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn parse(input: &'a str) -> Result<Json, ObsError> {
        let mut p = JsonParser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }

    fn err(&self, reason: &'static str) -> ObsError {
        ObsError::Json {
            at: self.pos,
            reason,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ObsError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected byte"))
        }
    }

    fn value(&mut self) -> Result<Json, ObsError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, ObsError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ObsError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ObsError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or_else(|| self.err("unterminated escape"))? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let hex_str = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let cp = u32::from_str_radix(hex_str, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar (multi-byte safe: operate on
                    // the str slice).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ObsError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floats are not part of the snapshot format"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| self.err("integer overflow"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, -2, {"b": "c\nd"}], "e": {}}"#).expect("valid");
        let obj = v.as_object(0).unwrap();
        let a = obj["a"].as_array(0).unwrap();
        assert_eq!(a[0].as_u64(0).unwrap(), 1);
        assert_eq!(a[1].as_i64(0).unwrap(), -2);
        assert_eq!(
            a[2].as_object(0).unwrap()["b"].as_string(0).unwrap(),
            "c\nd"
        );
        assert!(obj["e"].as_object(0).unwrap().is_empty());
    }

    #[test]
    fn accessors_report_type_mismatches() {
        let v = parse("[1]").expect("valid");
        assert!(v.as_object(3).is_err());
        assert!(v.as_string(3).is_err());
        assert!(v.as_u64(3).is_err());
        let neg = parse("-5").expect("valid");
        assert!(neg.as_u64(0).is_err());
        assert_eq!(neg.as_i64(0).unwrap(), -5);
    }

    #[test]
    fn rejects_floats_and_trailing_data() {
        assert!(parse("1.5").is_err());
        assert!(parse("1e3").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn encode_round_trips_escapes_and_nesting() {
        let v = Json::Object(BTreeMap::from([
            (
                "s".to_string(),
                Json::String("a\"b\\c\nd\te\rf\u{1}g".to_string()),
            ),
            (
                "arr".to_string(),
                Json::Array(vec![Json::Int(-7), Json::Int(i128::from(u64::MAX))]),
            ),
            ("empty".to_string(), Json::Object(BTreeMap::new())),
        ]));
        assert_eq!(parse(&v.encode()).unwrap(), v);
    }
}
