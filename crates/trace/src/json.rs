//! The workspace's one JSON writer and reader (offline policy: no
//! serde). Every emitter — the `bench_*` artifacts, flight-recorder
//! dumps, telemetry snapshots and the Chrome trace export — builds a
//! [`Value`] tree and renders it with [`render`], so the format
//! (layout, escaping, number text) is decided here and nowhere else.
//! [`parse`] reads documents back: `bench_check` compares a fresh
//! `BENCH_*.json` against its committed baseline with it, and
//! [`validate_json`](crate::validate_json) is it with the tree dropped.
//! Object key order is preserved in both directions.

/// One JSON value.
///
/// Numbers keep their kind: an integer literal parses to an exact
/// [`Value::Int`] over the whole `u64` and `i64` ranges, anything with
/// a fraction or exponent to a [`Value::Num`]. Numbers compare by
/// value — two integers exactly, any other pair as `f64` — so `1` and
/// `1.0` are equal.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i128),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Arr(a), Value::Arr(b)) => a == b,
            (Value::Obj(a), Value::Obj(b)) => a == b,
            _ => matches!((self.as_num(), other.as_num()), (Some(a), Some(b)) if a == b),
        }
    }
}

impl Value {
    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number payload as an `f64`, if this is a number of either
    /// kind.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
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
            Value::Int(_) | Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

macro_rules! from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Self {
                Value::$variant(x.into())
            }
        }
    )*};
}
from!(&str => Str, String => Str, bool => Bool, f64 => Num, Vec<Value> => Arr);
from!(u8 => Int, u16 => Int, u32 => Int, u64 => Int, i8 => Int, i16 => Int, i32 => Int, i64 => Int);

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i128)
    }
}

/// An object with `members` in the given order.
pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `x` rounded to `decimals` places, as `format!("{x:.decimals$}")`
/// rounds it. The writer prints the rounded value's shortest form, so
/// a field keeps its rounding without fixing its text width.
pub fn fixed(x: f64, decimals: usize) -> Value {
    Value::Num(format!("{x:.decimals$}").parse().expect("Rust float text parses back"))
}

/// Renders `v` as the workspace's one JSON layout, newline-terminated:
/// the root's members go one per line, an array of objects directly
/// under the root puts one object per line, and everything deeper is
/// inline with `": "` and `", "`. Floats print as their shortest
/// round-trip text with a fraction or exponent kept (`1.0`, `2.5e-7`);
/// non-finite floats print as `null`.
pub fn render(v: &Value) -> String {
    let mut out = String::new();
    write(&mut out, v, 0);
    out.push('\n');
    out
}

fn write(out: &mut String, v: &Value, depth: usize) {
    let ([open, close], rows, items): (_, _, Vec<(Option<&str>, &Value)>) = match v {
        Value::Null => return out.push_str("null"),
        Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => return out.push_str(&i.to_string()),
        Value::Num(x) if x.is_finite() => return out.push_str(&format!("{x:?}")),
        Value::Num(_) => return out.push_str("null"),
        Value::Str(s) => return write_str(out, s),
        Value::Arr(items) => {
            let objects = items.iter().all(|item| matches!(item, Value::Obj(_)));
            let rows = depth == 0 || (depth == 1 && objects);
            (['[', ']'], rows, items.iter().map(|item| (None, item)).collect())
        }
        Value::Obj(members) => {
            (['{', '}'], depth == 0, members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
        }
    };
    let rows = rows && !items.is_empty();
    let (sep, pad) = if rows { (",\n", "  ".repeat(depth + 1)) } else { (", ", String::new()) };
    out.push(open);
    for (i, (key, v)) in items.into_iter().enumerate() {
        out.push_str(if i > 0 { sep } else if rows { "\n" } else { "" });
        out.push_str(&pad);
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        write(out, v, depth + 1);
    }
    if rows {
        out.push('\n');
        out.push_str(&pad[2..]);
    }
    out.push(close);
}

/// Writes `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped, everything else as is.
fn write_str(out: &mut String, s: &str) {
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

/// Parses one complete JSON document (RFC 8259); trailing
/// non-whitespace is an error.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { s, b: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
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
        // An integer literal stays exact; one too long even for i128
        // degrades to f64 like any float.
        if let Ok(i) = text.parse::<i128>() {
            return Ok(Value::Int(i));
        }
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
                            let unit = self
                                .hex4(self.pos + 1)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // A high surrogate joins the `\uXXXX` low
                            // surrogate right after it into one scalar;
                            // any other surrogate decodes to U+FFFD.
                            let low = if (0xD800..0xDC00).contains(&unit)
                                && self.b.get(self.pos + 1..self.pos + 3) == Some(&b"\\u"[..])
                            {
                                self.hex4(self.pos + 3).filter(|lo| (0xDC00..0xE000).contains(lo))
                            } else {
                                None
                            };
                            let scalar = match low {
                                Some(lo) => {
                                    self.pos += 6;
                                    0x10000 + ((unit - 0xD800) << 10) + (lo - 0xDC00)
                                }
                                None => unit,
                            };
                            out.push(char::from_u32(scalar).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(&c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one slice: those are all ASCII,
                    // so the run ends on a char boundary of the input.
                    let start = self.pos;
                    while self
                        .b
                        .get(self.pos)
                        .is_some_and(|&c| c != b'"' && c != b'\\' && c >= 0x20)
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.s[start..self.pos]);
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// The four hex digits at `at` as a UTF-16 code unit.
    fn hex4(&self, at: usize) -> Option<u32> {
        let digits = self.s.get(at..at + 4)?;
        if !digits.bytes().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        u32::from_str_radix(digits, 16).ok()
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
    fn surrogate_pairs_decode_and_lone_surrogates_become_replacement_chars() {
        let v = parse(r#"["\uD83D\uDE00", "\uD83D", "\uDE00x", "\uD83Dx", "\uD83D\u0041"]"#)
            .unwrap();
        let Value::Arr(items) = v else { panic!("array") };
        let strs: Vec<&str> = items.iter().filter_map(Value::as_str).collect();
        assert_eq!(strs, ["\u{1F600}", "\u{FFFD}", "\u{FFFD}x", "\u{FFFD}x", "\u{FFFD}A"]);
    }

    #[test]
    fn multi_megabyte_documents_parse_in_linear_time() {
        // ~4 MB of short strings. A parser that re-validates the rest of
        // the document per character needs minutes here, not seconds.
        let row = |i: usize| {
            obj([("name", format!("span-{i} — é\t\"q\"").into()), ("ns", i.into())])
        };
        let doc = Value::Arr((0..90_000).map(row).collect());
        let text = render(&doc);
        assert!(text.len() > 4_000_000, "document is {} bytes", text.len());
        let start = std::time::Instant::now();
        assert_eq!(parse(&text).unwrap(), doc);
        let secs = start.elapsed().as_secs_f64();
        assert!(secs < 10.0, "parsing {} bytes took {secs:.1} s", text.len());
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
    fn integers_parse_exactly_over_u64_and_i64() {
        assert_eq!(parse("18446744073709551615").unwrap(), Value::Int(u64::MAX as i128));
        assert_eq!(parse("-9223372036854775808").unwrap(), Value::Int(i64::MIN as i128));
        let (a, b) =
            (parse("11400714819238673611").unwrap(), parse("11400714819238673612").unwrap());
        assert_ne!(a, b, "20-digit integers one apart must stay distinct");
        assert_eq!(render(&a), "11400714819238673611\n");
    }

    #[test]
    fn numbers_compare_by_value_across_kinds() {
        assert_eq!(parse("1").unwrap(), parse("1.0").unwrap());
        assert_eq!(parse("0").unwrap(), Value::Num(0.0));
        assert_ne!(parse("1").unwrap(), parse("1.5").unwrap());
        assert_ne!(Value::Int(1), Value::Bool(true));
        assert_eq!(parse("2.5").unwrap().as_num(), Some(2.5));
        assert_eq!(parse("-7").unwrap().as_num(), Some(-7.0));
    }

    #[test]
    fn renders_the_one_layout() {
        let doc = obj([
            ("bench", "b".into()),
            ("seed", 7u64.into()),
            ("ok", true.into()),
            ("rate", 0.0.into()),
            (
                "cells",
                vec![obj([("x", 1.into()), ("ys", vec![1.into(), 2.5.into()].into())])].into(),
            ),
            ("nums", vec![1.into(), Value::Null].into()),
            ("inner", obj([("rows", vec![obj([])].into()), ("s", "q\"\\\n".into())])),
            ("empty", Vec::new().into()),
        ]);
        let want = r#"{
  "bench": "b",
  "seed": 7,
  "ok": true,
  "rate": 0.0,
  "cells": [
    {"x": 1, "ys": [1, 2.5]}
  ],
  "nums": [1, null],
  "inner": {"rows": [{}], "s": "q\"\\\n"},
  "empty": []
}
"#;
        assert_eq!(render(&doc), want);
        assert_eq!(parse(want).unwrap(), doc);
        assert_eq!(render(&Value::Arr(vec![obj([])])), "[\n  {}\n]\n");
    }

    #[test]
    fn floats_render_shortest_and_non_finite_as_null() {
        for (x, text) in [(1.0, "1.0"), (0.1, "0.1"), (-2.5e-7, "-2.5e-7"), (1e16, "1e16")] {
            assert_eq!(render(&x.into()), format!("{text}\n"));
            assert_eq!(parse(text).unwrap(), Value::Num(x));
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(render(&obj([("x", x.into())])), "{\n  \"x\": null\n}\n");
        }
    }

    #[test]
    fn fixed_rounds_like_format_precision() {
        assert_eq!(render(&fixed(1.0, 4)), "1.0\n");
        assert_eq!(render(&fixed(0.123456789, 6)), "0.123457\n");
        assert_eq!(fixed(2.0 / 3.0, 4), parse("0.6667").unwrap());
        assert_eq!(render(&fixed(f64::NAN, 3)), "null\n");
    }

    #[test]
    fn render_then_parse_is_the_identity() {
        let doc = obj([
            ("s", "tab\tctl\u{1}é".into()),
            ("big", u64::MAX.into()),
            ("neg", i64::MIN.into()),
            ("f", (1.0f64 / 3.0).into()),
            ("a", vec![obj([("k", Value::Null)]), obj([("k", false.into())])].into()),
        ]);
        let text = render(&doc);
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(render(&back), text);
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
