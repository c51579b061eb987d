//! A TOML subset codec over [`serde::Value`].
//!
//! Supported: `[table.path]` headers, bare keys, strings with basic
//! escapes, booleans, integers (decimal / `0x` hex, `_` separators),
//! floats, and (possibly multi-line) arrays. Not supported: dotted
//! keys, inline tables, array-of-tables, dates. That subset covers the
//! campaign spec format; unknown syntax errors out rather than parsing
//! wrongly.

use serde::{Map, Value};

/// A TOML parse/render failure with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TomlError {
    /// Humane message.
    pub(crate) message: String,
    /// 1-based line of the offending input, when known.
    pub(crate) line: Option<usize>,
}

impl TomlError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        TomlError { message: message.into(), line: Some(line) }
    }

    fn new(message: impl Into<String>) -> Self {
        TomlError { message: message.into(), line: None }
    }
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(l) => write!(f, "TOML line {l}: {}", self.message),
            None => write!(f, "TOML: {}", self.message),
        }
    }
}

impl std::error::Error for TomlError {}

/// Parses a TOML document into a [`Value::Table`].
///
/// # Errors
///
/// Returns [`TomlError`] on syntax outside the supported subset.
pub(crate) fn parse(input: &str) -> Result<Value, TomlError> {
    let mut root = Map::new();
    let mut path: Vec<String> = Vec::new();

    let lines: Vec<&str> = input.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let line_no = i + 1;
        let line = strip_comment(lines[i]);
        let trimmed = line.trim();
        if trimmed.is_empty() {
            i += 1;
            continue;
        }
        if let Some(header) = trimmed.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| TomlError::at(line_no, "unterminated table header"))?;
            if header.starts_with('[') {
                return Err(TomlError::at(line_no, "array-of-tables is not supported"));
            }
            path = header
                .split('.')
                .map(|s| {
                    let s = s.trim();
                    if s.is_empty() {
                        Err(TomlError::at(line_no, "empty table-path segment"))
                    } else {
                        Ok(s.to_owned())
                    }
                })
                .collect::<Result<_, _>>()?;
            ensure_table(&mut root, &path, line_no)?;
            i += 1;
            continue;
        }

        // key = value (the value may continue over following lines for
        // arrays).
        let eq = trimmed.find('=').ok_or_else(|| {
            TomlError::at(line_no, format!("expected `key = value`, got {trimmed:?}"))
        })?;
        let key = trimmed[..eq].trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || "-_".contains(c)) {
            return Err(TomlError::at(
                line_no,
                format!("unsupported key {key:?} (dotted/quoted keys are not supported)"),
            ));
        }
        let mut value_src = trimmed[eq + 1..].trim().to_owned();
        while unbalanced_brackets(&value_src) {
            i += 1;
            if i >= lines.len() {
                return Err(TomlError::at(line_no, "unterminated array"));
            }
            value_src.push(' ');
            value_src.push_str(strip_comment(lines[i]).trim());
        }
        let value = parse_value(&value_src, line_no)?;
        let table = lookup_table(&mut root, &path);
        if table.insert(key.to_owned(), value).is_some() {
            return Err(TomlError::at(line_no, format!("duplicate key `{key}`")));
        }
        i += 1;
    }
    Ok(Value::Table(root))
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (idx, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..idx],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

fn unbalanced_brackets(src: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut prev_backslash = false;
    for c in src.chars() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    depth > 0
}

fn ensure_table<'a>(
    root: &'a mut Map,
    path: &[String],
    line_no: usize,
) -> Result<&'a mut Map, TomlError> {
    let mut cur = root;
    for seg in path {
        let entry = cur.entry(seg.clone()).or_insert_with(|| Value::Table(Map::new()));
        cur = entry
            .as_table_mut()
            .ok_or_else(|| TomlError::at(line_no, format!("`{seg}` is not a table")))?;
    }
    Ok(cur)
}

fn lookup_table<'a>(root: &'a mut Map, path: &[String]) -> &'a mut Map {
    let mut cur = root;
    for seg in path {
        cur =
            cur.get_mut(seg).and_then(Value::as_table_mut).expect("table created by ensure_table");
    }
    cur
}

fn parse_value(src: &str, line_no: usize) -> Result<Value, TomlError> {
    let src = src.trim();
    if src.is_empty() {
        return Err(TomlError::at(line_no, "missing value"));
    }
    if let Some(rest) = src.strip_prefix('"') {
        let (s, used) = parse_string(rest, line_no)?;
        if !rest[used..].trim_start_matches('"').trim().is_empty() {
            return Err(TomlError::at(line_no, "trailing characters after string"));
        }
        return Ok(Value::Str(s));
    }
    if src == "true" {
        return Ok(Value::Bool(true));
    }
    if src == "false" {
        return Ok(Value::Bool(false));
    }
    if src.starts_with('[') {
        if !src.ends_with(']') {
            return Err(TomlError::at(line_no, "unterminated array"));
        }
        let inner = &src[1..src.len() - 1];
        let mut items = Vec::new();
        for part in split_array_items(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_value(part, line_no)?);
        }
        return Ok(Value::Array(items));
    }
    if src == "{}" {
        return Ok(Value::Table(Map::new()));
    }
    if src.starts_with('{') {
        return Err(TomlError::at(line_no, "inline tables are not supported"));
    }
    parse_number(src, line_no)
}

fn parse_string(rest: &str, line_no: usize) -> Result<(String, usize), TomlError> {
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((idx, c)) = chars.next() {
        match c {
            '"' => return Ok((out, idx + 1)),
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                other => {
                    return Err(TomlError::at(
                        line_no,
                        format!("unsupported string escape {other:?}"),
                    ))
                }
            },
            c => out.push(c),
        }
    }
    Err(TomlError::at(line_no, "unterminated string"))
}

fn split_array_items(inner: &str) -> Vec<String> {
    let mut items = vec![String::new()];
    let mut depth = 0i32;
    let mut in_str = false;
    let mut prev_backslash = false;
    for c in inner.chars() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            ',' if !in_str && depth == 0 => {
                items.push(String::new());
                prev_backslash = false;
                continue;
            }
            _ => {}
        }
        items.last_mut().expect("non-empty").push(c);
        prev_backslash = c == '\\' && !prev_backslash;
    }
    items
}

fn parse_number(src: &str, line_no: usize) -> Result<Value, TomlError> {
    let cleaned: String = src.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = cleaned.strip_prefix("0x").or_else(|| cleaned.strip_prefix("0X")) {
        return i64::from_str_radix(hex, 16)
            .map(Value::Int)
            .map_err(|e| TomlError::at(line_no, format!("bad hex integer {src:?}: {e}")));
    }
    if !cleaned.contains(['.', 'e', 'E']) {
        if let Ok(i) = cleaned.parse::<i64>() {
            return Ok(Value::Int(i));
        }
    }
    cleaned
        .parse::<f64>()
        .map(Value::Float)
        .map_err(|e| TomlError::at(line_no, format!("bad number {src:?}: {e}")))
}

/// Renders a [`Value::Table`] as TOML: scalar/array entries first, then
/// nested tables as `[path]` sections (depth-first). `Null` entries are
/// omitted.
///
/// # Errors
///
/// Returns [`TomlError`] if the root is not a table or an array
/// contains a table (outside the supported subset).
pub(crate) fn render(value: &Value) -> Result<String, TomlError> {
    let table = value.as_table().ok_or_else(|| TomlError::new("root must be a table"))?;
    let mut out = String::new();
    render_table(table, &mut Vec::new(), &mut out)?;
    Ok(out)
}

fn render_table(table: &Map, path: &mut Vec<String>, out: &mut String) -> Result<(), TomlError> {
    let mut subtables = Vec::new();
    let mut wrote_scalar = false;
    for (k, v) in table {
        match v {
            Value::Null => {}
            Value::Table(sub) => subtables.push((k, sub)),
            scalar => {
                out.push_str(k);
                out.push_str(" = ");
                render_scalar(scalar, out)?;
                out.push('\n');
                wrote_scalar = true;
            }
        }
    }
    if wrote_scalar && !subtables.is_empty() {
        out.push('\n');
    }
    for (k, sub) in subtables {
        path.push(k.clone());
        out.push('[');
        out.push_str(&path.join("."));
        out.push_str("]\n");
        render_table(sub, path, out)?;
        out.push('\n');
        path.pop();
    }
    Ok(())
}

fn render_scalar(v: &Value, out: &mut String) -> Result<(), TomlError> {
    match v {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        // `{:?}` is Rust's shortest round-trip float form.
        Value::Float(f) => {
            let s = format!("{f:?}");
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E', 'n', 'i']) {
                out.push_str(".0");
            }
        }
        Value::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_scalar(item, out)?;
            }
            out.push(']');
        }
        Value::Null => {}
        Value::Table(_) => {
            return Err(TomlError::new("tables inside arrays are not supported"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_sections() {
        let doc = r#"
            name = "fig3a"   # comment
            repeats = 4
            ratio = 0.25
            seed = 0xF1F1_2022
            on = true

            [fault]
            side = "Agent"
            bers = [0.0, 0.01, 0.2]
        "#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("fig3a"));
        assert_eq!(v.get("repeats").unwrap().as_int(), Some(4));
        assert_eq!(v.get("ratio").unwrap().as_float(), Some(0.25));
        assert_eq!(v.get("seed").unwrap().as_int(), Some(0xF1F1_2022));
        assert_eq!(v.get("on").unwrap().as_bool(), Some(true));
        let fault = v.get("fault").unwrap();
        assert_eq!(fault.get("side").unwrap().as_str(), Some("Agent"));
        assert_eq!(fault.get("bers").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn parses_multiline_arrays() {
        let doc = "xs = [1,\n  2,\n  3]\n";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("xs").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn nested_sections() {
        let doc = "[a.b]\nc = 1\n";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().get("b").unwrap().get("c").unwrap().as_int(), Some(1));
    }

    #[test]
    fn rejects_unsupported_syntax() {
        assert!(parse("a.b = 1\n").is_err());
        assert!(parse("x = { y = 1 }\n").is_err());
        assert!(parse("[[x]]\n").is_err());
        assert!(parse("x = \n").is_err());
        assert!(parse("x = 1\nx = 2\n").is_err());
    }

    #[test]
    fn round_trips() {
        let doc = r#"
            name = "demo"
            f = 0.1
            neg = -3
            [env]
            layout = "Standard"
            [fault]
            bers = [0.0, 1e-4, 0.2]
        "#;
        let v = parse(doc).unwrap();
        let rendered = render(&v).unwrap();
        let back = parse(&rendered).unwrap();
        assert_eq!(v, back, "rendered:\n{rendered}");
    }

    #[test]
    fn float_render_round_trips_exactly() {
        for f in [0.1, 1e-4, 2.5e-17, 1.0 / 3.0] {
            let v = Value::Float(f);
            let mut s = String::new();
            render_scalar(&v, &mut s).unwrap();
            assert_eq!(s.trim_end_matches(".0").parse::<f64>().unwrap().to_bits(), f.to_bits());
        }
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        let doc = "s = \"a \\\"b\\\" \\\\ c\"\n";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a \"b\" \\ c"));
        let back = parse(&render(&v).unwrap()).unwrap();
        assert_eq!(v, back);
    }
}
