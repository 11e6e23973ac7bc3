//! A minimal JSON value type with a parser and writer, pure std.
//!
//! The workspace builds offline, so it cannot pull `serde`/`serde_json`;
//! this crate covers the two places JSON actually crosses a process
//! boundary: layer checkpoints (`fsmoe`'s `LayerCheckpoint`) and the
//! benchmark baselines (`BENCH_*.json`). Numbers round-trip exactly for
//! every finite `f32`/`f64` because the writer emits Rust's shortest
//! round-trip representation.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys sorted for deterministic output.
    Obj(BTreeMap<String, Json>),
}

/// Errors from [`Json::parse`] or the typed accessors.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// The input ended or contained an unexpected byte.
    Syntax {
        /// Byte offset of the problem.
        offset: usize,
        /// What went wrong.
        message: &'static str,
    },
    /// A lookup or conversion found the wrong shape.
    WrongType {
        /// What the caller wanted.
        expected: &'static str,
    },
    /// An object lookup missed.
    MissingKey {
        /// The absent key.
        key: String,
    },
    /// A non-finite number cannot be written as JSON.
    NonFinite,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, message } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            JsonError::WrongType { expected } => write!(f, "expected JSON {expected}"),
            JsonError::MissingKey { key } => write!(f, "missing JSON key {key:?}"),
            JsonError::NonFinite => write!(f, "non-finite number has no JSON form"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, JsonError>;

impl Json {
    /// Parses one JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Syntax`] on malformed input.
    pub fn parse(text: &str) -> Result<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::Syntax {
                offset: pos,
                message: "trailing characters after document",
            });
        }
        Ok(value)
    }

    /// Serialises to compact JSON.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::NonFinite`] when a number is NaN/±∞.
    pub fn to_string(&self) -> Result<String> {
        let mut out = String::new();
        write_value(self, &mut out)?;
        Ok(out)
    }

    /// Serialises to indented JSON (two spaces, sorted keys, trailing
    /// newline) — the format for checked-in goldens, where a reviewable
    /// `diff -u` matters.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::NonFinite`] when a number is NaN/±∞.
    pub fn to_pretty_string(&self) -> Result<String> {
        let mut out = String::new();
        write_pretty(self, &mut out, 0)?;
        out.push('\n');
        Ok(out)
    }

    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value as `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::WrongType`] for non-numbers.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Json::Num(v) => Ok(*v),
            _ => Err(JsonError::WrongType { expected: "number" }),
        }
    }

    /// The value as `usize` (rejects negatives and fractions).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::WrongType`] for anything else.
    pub fn as_usize(&self) -> Result<usize> {
        let v = self.as_f64()?;
        if v < 0.0 || v.fract() != 0.0 || v > u64::MAX as f64 {
            return Err(JsonError::WrongType {
                expected: "non-negative integer",
            });
        }
        Ok(v as usize)
    }

    /// The value as `&str`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::WrongType`] for non-strings.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(JsonError::WrongType { expected: "string" }),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::WrongType`] for non-arrays.
    pub fn as_arr(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(JsonError::WrongType { expected: "array" }),
        }
    }

    /// A required object member.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::WrongType`] for non-objects and
    /// [`JsonError::MissingKey`] when absent.
    pub fn get(&self, key: &str) -> Result<&Json> {
        match self {
            Json::Obj(map) => map.get(key).ok_or_else(|| JsonError::MissingKey {
                key: key.to_string(),
            }),
            _ => Err(JsonError::WrongType { expected: "object" }),
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<f32> for Json {
    fn from(v: f32) -> Json {
        Json::Num(f64::from(v))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

// --- writer -----------------------------------------------------------

fn write_value(value: &Json, out: &mut String) -> Result<()> {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(v) => {
            if !v.is_finite() {
                return Err(JsonError::NonFinite);
            }
            if v.fract() == 0.0 && v.abs() < 1e15 && (*v != 0.0 || v.is_sign_positive()) {
                // integral values print without an exponent or ".0";
                // -0.0 must keep its sign, so it takes the float path
                out.push_str(&format!("{}", *v as i64));
            } else {
                // Rust's shortest round-trip float formatting
                out.push_str(&format!("{v:?}"));
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out)?;
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_pretty(value: &Json, out: &mut String, indent: usize) -> Result<()> {
    match value {
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&"  ".repeat(indent + 1));
                write_pretty(item, out, indent + 1)?;
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Json::Obj(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&"  ".repeat(indent + 1));
                write_string(k, out);
                out.push_str(": ");
                write_pretty(v, out, indent + 1)?;
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
        // scalars and empty containers: compact form
        other => write_value(other, out)?,
    }
    Ok(())
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// --- parser -----------------------------------------------------------

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8, message: &'static str) -> Result<()> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::Syntax {
            offset: *pos,
            message,
        })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(JsonError::Syntax {
            offset: *pos,
            message: "unexpected end of input",
        });
    };
    match b {
        b'n' => parse_literal(bytes, pos, "null", Json::Null),
        b't' => parse_literal(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_literal(bytes, pos, "false", Json::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(JsonError::Syntax {
                            offset: *pos,
                            message: "expected ',' or ']' in array",
                        })
                    }
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':', "expected ':' after object key")?;
                let value = parse_value(bytes, pos)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => {
                        return Err(JsonError::Syntax {
                            offset: *pos,
                            message: "expected ',' or '}' in object",
                        })
                    }
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        _ => Err(JsonError::Syntax {
            offset: *pos,
            message: "unexpected character",
        }),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &'static str, value: Json) -> Result<Json> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError::Syntax {
            offset: *pos,
            message: "invalid literal",
        })
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    expect(bytes, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(JsonError::Syntax {
                offset: *pos,
                message: "unterminated string",
            });
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(JsonError::Syntax {
                        offset: *pos,
                        message: "unterminated escape",
                    });
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes.get(*pos..*pos + 4).ok_or(JsonError::Syntax {
                            offset: *pos,
                            message: "truncated \\u escape",
                        })?;
                        let hex = std::str::from_utf8(hex).map_err(|_| JsonError::Syntax {
                            offset: *pos,
                            message: "non-ascii \\u escape",
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError::Syntax {
                            offset: *pos,
                            message: "invalid \\u escape",
                        })?;
                        *pos += 4;
                        // surrogate pairs are not needed by our writers
                        out.push(char::from_u32(code).ok_or(JsonError::Syntax {
                            offset: *pos,
                            message: "invalid code point",
                        })?);
                    }
                    _ => {
                        return Err(JsonError::Syntax {
                            offset: *pos,
                            message: "unknown escape",
                        })
                    }
                }
            }
            _ => {
                // consume one UTF-8 character
                let s = std::str::from_utf8(&bytes[*pos..]).map_err(|_| JsonError::Syntax {
                    offset: *pos,
                    message: "invalid UTF-8",
                })?;
                let c = s.chars().next().expect("non-empty checked above");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| JsonError::Syntax {
            offset: start,
            message: "invalid number",
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let doc = Json::obj([
            ("name", Json::from("fsmoe")),
            ("n", Json::from(42usize)),
            ("xs", Json::from(vec![1.5f64, -2.25, 0.0])),
            ("flag", Json::from(true)),
            ("none", Json::Null),
        ]);
        let text = doc.to_string().unwrap();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn every_f32_round_trips_exactly() {
        // shortest round-trip formatting guarantees bit-exact recovery
        let values = [
            1.0f32,
            -0.0,
            f32::MIN_POSITIVE,
            f32::EPSILON,
            std::f32::consts::PI,
            1.0e-38,
            -123_456.78,
            f32::MAX,
        ];
        for &v in &values {
            let text = Json::from(v).to_string().unwrap();
            let back = Json::parse(&text).unwrap().as_f64().unwrap() as f32;
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {text}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn non_finite_numbers_refuse_to_serialise() {
        assert_eq!(Json::Num(f64::NAN).to_string(), Err(JsonError::NonFinite));
        assert!(Json::Num(f64::INFINITY).to_string().is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nbreak \"quoted\" back\\slash\ttab";
        let text = Json::from(s).to_string().unwrap();
        assert_eq!(Json::parse(&text).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn typed_accessors() {
        let doc = Json::parse(r#"{"a": [1, 2], "b": "x", "c": 3}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("b").unwrap().as_str().unwrap(), "x");
        assert_eq!(doc.get("c").unwrap().as_usize().unwrap(), 3);
        assert!(doc.get("missing").is_err());
        assert!(doc.get("b").unwrap().as_usize().is_err());
    }
}
