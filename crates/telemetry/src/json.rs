//! Minimal JSON value, writer, and recursive-descent parser.
//!
//! The build container has no serde, so the telemetry event schema is
//! (de)serialized through this self-contained module. Integers are kept
//! exact through an `i128` variant (large enough for any `u64` counter),
//! and floats are written with Rust's shortest round-trip `Display`
//! formatting, so `parse(write(v)) == v` bit-for-bit for every finite
//! value — the property the event round-trip tests rely on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Object keys are held in a `BTreeMap` so serialization
/// order is deterministic regardless of construction order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i128),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Convenience object builder.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer view (floats with integral values are not coerced: the
    /// writer always emits counters as integers).
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_i128().and_then(|i| u64::try_from(i).ok())
    }

    pub fn as_usize(&self) -> Option<usize> {
        self.as_i128().and_then(|i| usize::try_from(i).ok())
    }

    /// Numeric view: integers widen to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    // Shortest round-trip representation; force a marker
                    // so the parser keeps the value a float.
                    let s = format!("{f}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null"); // non-finite is unrepresentable
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }
}

/// Compact single-line serialization (`Json::to_string()` via `Display`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' | b'-' | b'+' => *pos += 1,
            b'.' | b'e' | b'E' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let tok = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if tok.is_empty() {
        return Err(format!("expected number at byte {start}"));
    }
    if is_float {
        tok.parse::<f64>()
            .map(Json::Float)
            .map_err(|e| format!("bad float {tok:?}: {e}"))
    } else {
        tok.parse::<i128>()
            .map(Json::Int)
            .map_err(|e| format!("bad integer {tok:?}: {e}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // The plain run up to the next quote or escape, in one
                // piece: both are ASCII, so the run ends on a character
                // boundary, and every byte is validated once.
                let run = &b[*pos..];
                let len = run
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .unwrap_or(run.len());
                out.push_str(std::str::from_utf8(&run[..len]).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(b[*pos], b'{');
    *pos += 1;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let val = parse_value(b, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(b[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for src in [
            Json::Null,
            Json::Bool(true),
            Json::Int(-42),
            Json::Int(u64::MAX as i128),
            Json::Float(0.1),
            Json::Float(1.0),
            Json::Float(3.0e-11),
            Json::Str("a\"b\\c\nd".into()),
        ] {
            let s = src.to_string();
            assert_eq!(Json::parse(&s).unwrap(), src, "{s}");
        }
    }

    #[test]
    fn float_round_trip_is_exact() {
        for f in [1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.007, 6.02e23] {
            let s = Json::Float(f).to_string();
            match Json::parse(&s).unwrap() {
                Json::Float(g) => assert_eq!(f.to_bits(), g.to_bits(), "{s}"),
                other => panic!("parsed {other:?}"),
            }
        }
    }

    #[test]
    fn parses_nested_structures() {
        let src = r#"{"a":[1,2.5,"x"],"b":{"c":null,"d":false}}"#;
        let v = Json::parse(src).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj["a"].as_arr().unwrap().len(), 3);
        assert_eq!(obj["b"].as_obj().unwrap()["c"], Json::Null);
        // Determinstic re-serialization.
        assert_eq!(v.to_string(), src);
    }

    #[test]
    fn strings_of_multibyte_characters_round_trip() {
        // 1-, 2-, 3- and 4-byte UTF-8 characters between escapes, then a
        // line long enough that re-validating the rest of it per
        // character would show.
        let mixed = "a\u{e9}\u{20ac}\u{1f300}\"\\\n\u{1f300}\u{20ac}\u{e9}a";
        let long = "\u{e9}x\u{1f300}".repeat(200_000);
        for text in [mixed.to_string(), long] {
            let src = Json::Str(text);
            assert_eq!(Json::parse(&src.to_string()).unwrap(), src);
        }
        assert_eq!(Json::parse(r#""\u00e9\u20ac""#).unwrap(), Json::Str("\u{e9}\u{20ac}".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }
}
