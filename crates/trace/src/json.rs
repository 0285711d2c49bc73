//! The workspace's JSON string escaper and JSON reader (offline policy:
//! no serde). [`push_escaped`] escapes the free-form strings of the
//! Chrome exporter and the flight-recorder dump. [`parse`] builds a
//! document tree: `bench_check` compares a fresh `BENCH_*.json` against
//! its committed baseline with it, and
//! [`validate_json`](crate::validate_json) is it with the tree dropped.
//! Object key order is preserved — the bench writers emit keys in a
//! fixed order and the comparator reports mismatches in that order.

/// Appends `s` to `out` as the body of a JSON string literal: quotes,
/// backslashes and control characters escaped, everything else as is.
pub fn push_escaped(out: &mut String, s: &str) {
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
}

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All JSON numbers as f64 — bench files stay well inside the
    /// 2^53 integer range except seeds, which the comparator treats as
    /// opaque equality anyway (two f64 conversions of the same literal
    /// are bitwise equal).
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A one-word name for the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// Parses one complete JSON document (RFC 8259); trailing
/// non-whitespace is an error.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { b: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.b.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal(b"true", Value::Bool(true)),
            Some(b'f') => self.literal(b"false", Value::Bool(false)),
            Some(b'n') => self.literal(b"null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!("unexpected byte {c:#x} at {}", self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &[u8], v: Value) -> Result<Value, String> {
        if self.b.len() >= self.pos + lit.len() && &self.b[self.pos..self.pos + lit.len()] == lit {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        let int = &self.b[int_start..self.pos];
        // RFC 8259: a non-empty integer part, with no leading zero
        // unless it is the whole part.
        if int.is_empty() || (int.len() > 1 && int[0] == b'0') {
            return Err(format!("bad number at byte {start}"));
        }
        if self.b.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            let mut frac = 0;
            while self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(format!("bad fraction at byte {}", self.pos));
            }
        }
        if matches!(self.b.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.b.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(format!("bad exponent at byte {}", self.pos));
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos])
            .map_err(|_| format!("non-UTF-8 number at byte {start}"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.b.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.b.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs don't occur in bench
                            // output; map unpaired surrogates to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(&c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(_) => {
                    // Advance one UTF-8 scalar (input is &str, so byte
                    // boundaries are known-good).
                    let rest = std::str::from_utf8(&self.b[self.pos..])
                        .map_err(|_| format!("non-UTF-8 string at byte {}", self.pos))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.b.get(self.pos) != Some(&b'"') {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.b.get(self.pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_document_shape() {
        let doc = r#"{
          "bench": "bench_soak",
          "seed": 84590814,
          "deterministic": true,
          "overhead": {"off_ms": 25.2, "pct": -3.56},
          "cells": [{"mix": "clean", "p99_ms": 32.41}, {"mix": "data", "p99_ms": 74.13}]
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("bench").and_then(Value::as_str), Some("bench_soak"));
        assert_eq!(v.get("seed").and_then(Value::as_num), Some(84590814.0));
        assert_eq!(v.get("deterministic"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("overhead").and_then(|o| o.get("pct")).and_then(Value::as_num),
            Some(-3.56)
        );
        let Value::Arr(cells) = v.get("cells").unwrap() else { panic!("cells is an array") };
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].get("mix").and_then(Value::as_str), Some("data"));
    }

    #[test]
    fn parses_escapes_and_nested_shapes() {
        let v = parse(r#"{"a": "x\n\"y\\zA", "b": [1, -2.5e-3, null, false]}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_str), Some("x\n\"y\\zA"));
        let Value::Arr(b) = v.get("b").unwrap() else { panic!() };
        assert_eq!(b[1], Value::Num(-2.5e-3));
        assert_eq!(b[2], Value::Null);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{} x",
            "1.",
            "\"oops",
            "{\"a\" 1}",
            "\"\\u+abc\"",
            "01",
            "-01",
            "00.5",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn round_trips_real_baselines_when_present() {
        // Best-effort: exercised fully by `bench_check --all` in CI.
        for name in ["BENCH_soak.json", "BENCH_fleet.json"] {
            let path = format!("../../{name}");
            if let Ok(text) = std::fs::read_to_string(&path) {
                parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
    }
}
