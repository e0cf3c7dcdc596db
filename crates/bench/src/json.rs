//! A small JSON value type for experiment output.
//!
//! The harness emits machine-readable rows alongside its markdown tables.  In
//! an online build this would be `serde_json`; the offline build environment
//! cannot fetch crates, and the harness only needs construction, field
//! access and pretty-printing, so this module provides exactly that.

#![deny(clippy::disallowed_types)]

use std::fmt::Write as _;
use std::ops::Index;

/// A JSON value.  Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null` (also returned when indexing misses).
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`, like JSON itself).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

/// Sentinel returned when indexing misses.
const NULL: Value = Value::Null;

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn object(pairs: Vec<(&str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a JSON document (the counterpart of
    /// [`Value::to_string_pretty`], used by the baseline regression check to
    /// load the committed `BENCH_baseline.json`).
    ///
    /// # Errors
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// Pretty-prints with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let inner_pad = "  ".repeat(indent + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Number(n) => {
                if !n.is_finite() {
                    // JSON has no NaN/Infinity; follow serde_json and emit null.
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&inner_pad);
                    item.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Value::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in pairs.iter().enumerate() {
                    out.push_str(&inner_pad);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

// ---------------------------------------------------------------------------
// A minimal recursive-descent parser (strings support the escapes the writer
// emits plus \uXXXX; numbers are parsed via `f64::from_str`).
// ---------------------------------------------------------------------------

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences included).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        match self {
            Value::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map_or(&NULL, |(_, v)| v),
            _ => &NULL,
        }
    }
}

impl Index<usize> for Value {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Number(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Number(v as f64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Number(v as f64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Array(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::Array(vec![
            Value::object(vec![
                ("algorithm", "PGBJ".into()),
                ("k", Value::from(10usize)),
                ("shuffle_mib", Value::from(1.5f64)),
            ]),
            Value::object(vec![
                ("algorithm", "H-BRJ".into()),
                ("k", Value::from(20usize)),
            ]),
        ])
    }

    #[test]
    fn indexing_and_accessors() {
        let v = sample();
        let rows = v.as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[0]["algorithm"] == "PGBJ");
        assert_eq!(rows[0]["k"].as_u64(), Some(10));
        assert_eq!(rows[0]["shuffle_mib"].as_f64(), Some(1.5));
        // Misses are Null, not panics.
        assert_eq!(rows[0]["nope"], Value::Null);
        assert_eq!(v[7], Value::Null);
        assert_eq!(rows[1]["algorithm"], "H-BRJ".to_string());
    }

    #[test]
    fn pretty_printing_roundtrips_structure() {
        let rendered = sample().to_string_pretty();
        assert!(rendered.contains("\"algorithm\": \"PGBJ\""));
        assert!(rendered.contains("\"k\": 10"));
        assert!(rendered.contains("\"shuffle_mib\": 1.5"));
        assert_eq!(Value::Array(vec![]).to_string_pretty(), "[]");
        assert_eq!(Value::Null.to_string_pretty(), "null");
        assert_eq!(Value::Bool(true).to_string_pretty(), "true");
    }

    #[test]
    fn strings_are_escaped() {
        let v = Value::from("a\"b\\c\nd");
        assert_eq!(v.to_string_pretty(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Value::from(f64::NAN).to_string_pretty(), "null");
        assert_eq!(Value::from(f64::INFINITY).to_string_pretty(), "null");
        assert_eq!(Value::from(f64::NEG_INFINITY).to_string_pretty(), "null");
    }

    #[test]
    fn non_integral_numbers_are_not_u64() {
        assert_eq!(Value::from(1.5f64).as_u64(), None);
        assert_eq!(Value::from(-3.0f64).as_u64(), None);
        assert_eq!(Value::from(3.0f64).as_u64(), Some(3));
    }

    #[test]
    fn parsing_roundtrips_what_the_writer_emits() {
        let original = Value::object(vec![
            ("rows", sample()),
            ("empty_obj", Value::Object(vec![])),
            ("empty_arr", Value::Array(vec![])),
            ("flag", Value::Bool(false)),
            ("nothing", Value::Null),
            ("neg", Value::from(-2.25f64)),
            ("escaped", Value::from("a\"b\\c\nd\te")),
        ]);
        let text = original.to_string_pretty();
        let parsed = Value::parse(&text).expect("parse back");
        assert_eq!(parsed, original);
    }

    #[test]
    fn parser_accepts_foreign_formatting() {
        let v = Value::parse("  {\"a\":[1,2.5,-3e2,true,null],\"b\":\"\\u0041\"} ").unwrap();
        assert_eq!(v["a"][0].as_u64(), Some(1));
        assert_eq!(v["a"][1].as_f64(), Some(2.5));
        assert_eq!(v["a"][2].as_f64(), Some(-300.0));
        assert_eq!(v["a"][3], Value::Bool(true));
        assert_eq!(v["a"][4], Value::Null);
        assert_eq!(v["b"], "A");
    }

    #[test]
    fn parser_reports_syntax_errors() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
        assert!(Value::parse("12 34").is_err());
        assert!(Value::parse("nope").is_err());
    }
}
