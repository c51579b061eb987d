//! A JSON codec over [`serde::Value`], used for the campaign's JSONL
//! trial streams.
//!
//! Floats render via Rust's shortest round-trip form (`{:?}`), so a
//! value read back from a trial log is bit-identical to the value
//! written — the property the resume machinery's "bit-identical
//! statistics" guarantee rests on. Non-finite floats render as the
//! strings `"NaN"` / `"inf"` / `"-inf"` (JSON has no literals for
//! them) and parse back to the same bit patterns.

use serde::{Map, Value};

/// A JSON parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Humane message.
    pub(crate) message: String,
    /// Byte offset of the failure.
    pub(crate) offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Renders a [`Value`] as a single-line JSON document.
pub fn render(value: &Value) -> String {
    let mut out = String::new();
    render_into(value, &mut out);
    out
}

fn render_into(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                out.push_str(&format!("{f:?}"));
            } else if f.is_nan() {
                out.push_str("\"NaN\"");
            } else if *f > 0.0 {
                out.push_str("\"inf\"");
            } else {
                out.push_str("\"-inf\"");
            }
        }
        Value::Str(s) => render_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        Value::Table(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_string(k, out);
                out.push(':');
                render_into(v, out);
            }
            out.push('}');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input or trailing bytes.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing bytes after document"));
    }
    Ok(value)
}

fn err(offset: usize, message: impl Into<String>) -> JsonError {
    JsonError { message: message.into(), offset }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected `{}`", c as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut map = Map::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Table(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Value::Str(s) => s,
                    _ => return Err(err(*pos, "object keys must be strings")),
                };
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Table(map));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}`")),
                }
            }
        }
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
                    _ => return Err(err(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected `{lit}`")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(match out.as_str() {
                    "NaN" => Value::Float(f64::NAN),
                    "inf" => Value::Float(f64::INFINITY),
                    "-inf" => Value::Float(f64::NEG_INFINITY),
                    _ => Value::Str(out),
                });
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        out.push(char::from_u32(code).ok_or_else(|| err(*pos, "bad \\u scalar"))?);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "unsupported escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance over one UTF-8 scalar.
                let s =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| err(*pos, "invalid UTF-8"))?;
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let s = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad number"))?;
    if s.is_empty() {
        return Err(err(start, "expected a value"));
    }
    if !s.contains(['.', 'e', 'E']) {
        if let Ok(i) = s.parse::<i64>() {
            return Ok(Value::Int(i));
        }
    }
    s.parse::<f64>().map(Value::Float).map_err(|e| err(start, format!("bad number {s:?}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let mut m = Map::new();
        m.insert("cell".into(), Value::Int(3));
        m.insert("value".into(), Value::Float(98.51234567890123));
        m.insert("tag".into(), Value::Str("a \"b\"\n".into()));
        m.insert("xs".into(), Value::Array(vec![Value::Bool(true), Value::Null]));
        let v = Value::Table(m);
        let s = render(&v);
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_bitwise() {
        for f in [0.1, 1.0 / 3.0, 6.02e23, -0.0, 5e-324] {
            let s = render(&Value::Float(f));
            match parse(&s).unwrap() {
                Value::Float(g) => assert_eq!(g.to_bits(), f.to_bits(), "{s}"),
                Value::Int(i) => assert_eq!((i as f64).to_bits(), f.to_bits(), "{s}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_floats_survive() {
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let s = render(&Value::Float(f));
            match parse(&s).unwrap() {
                Value::Float(g) => assert_eq!(g.to_bits(), f.to_bits()),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("").is_err());
    }
}
