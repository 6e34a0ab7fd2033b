//! The workspace's JSON helpers, with no external dependency: the one
//! string escaper every JSON-writing crate calls ([`push_escaped`] /
//! [`push_string`]), and a minimal reader — enough of RFC 8259 for our own
//! output (objects, arrays, strings with basic escapes, numbers, booleans,
//! null): the `/metrics` export and the `BENCH_*.json` files.

use std::fmt::Write;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always held as `f64` — bench metrics are measurements).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last value on
    /// lookup, like most readers).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document; trailing whitespace is allowed,
    /// trailing garbage is an error.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup (last duplicate wins); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Render back to JSON text (pretty, two-space indent) so tools can
    /// rewrite `BENCH_*.json` files in place. `parse(render(v)) == v`
    /// for every value this module can hold.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => render_num(out, *n),
            Json::Str(s) => push_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.render_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    push_string(out, key);
                    out.push_str(": ");
                    value.render_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_num(out: &mut String, n: f64) {
    if n.is_finite() {
        out.push_str(&format!("{n}"));
    } else {
        // JSON has no NaN/Inf; a measurement that produced one is absent.
        out.push_str("null");
    }
}

/// Append `s` with JSON string escapes applied (`"`, `\` and control
/// bytes), without the surrounding quotes. Each run of bytes that needs
/// no escape is copied whole; a string with nothing to escape, found by a
/// branch-free pass, is copied at once.
#[inline]
pub fn push_escaped(out: &mut String, s: &str) {
    let escapes = s
        .bytes()
        .fold(false, |any, b| any | (b < 0x20 || b == b'"' || b == b'\\'));
    if !escapes {
        out.push_str(s);
        return;
    }
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // An ASCII byte is never inside a multi-byte character, so both
        // ends of the run are character boundaries.
        out.push_str(s.get(start..i).unwrap_or_default());
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        start = i + 1;
    }
    out.push_str(s.get(start..).unwrap_or_default());
}

/// Append `s` as a quoted JSON string literal.
#[inline]
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn parse_literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            members.push((key, self.parse_value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Surrogate pairs never appear in our metric names;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The escaper as it was written first, one char at a time: the
    /// reference [`push_escaped`] must match byte for byte.
    fn push_escaped_by_char(out: &mut String, s: &str) {
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

    /// A string drawn to hit every escape: control bytes, quotes and
    /// backslashes, plain ASCII, two-byte characters and any scalar value
    /// (mostly four bytes).
    fn awkward_string() -> impl Strategy<Value = String> {
        let piece = (0u8..5, 0u32..0x11_0000);
        prop::collection::vec(piece, 0..48).prop_map(|pieces| {
            pieces
                .into_iter()
                .map(|(kind, code)| match kind {
                    0 => char::from(code as u8 & 0x1f),
                    1 => ['"', '\\', '/'][code as usize % 3],
                    2 => char::from(0x20 + (code % 0x60) as u8),
                    3 => char::from_u32(0x80 + code % 0x780).unwrap_or('\u{fffd}'),
                    _ => char::from_u32(code).unwrap_or('\u{fffd}'),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Escaping by runs of bytes writes what escaping char by char
        /// writes, after any prefix already in the buffer.
        #[test]
        fn push_escaped_matches_the_char_by_char_escaper(s in awkward_string()) {
            let (mut runs, mut chars) = ("[".to_string(), "[".to_string());
            push_escaped(&mut runs, &s);
            push_escaped_by_char(&mut chars, &s);
            prop_assert_eq!(runs, chars);
        }
    }

    #[test]
    fn parses_bench_shaped_documents() {
        let doc = r#"{
            "batch_size": 8,
            "models": [
                {"model": "vocab_miner", "examples_per_sec_1_worker": 1234.56, "parity": true},
                {"model": "tagger", "speedup": 1.5, "note": null}
            ]
        }"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("batch_size").unwrap().as_num(), Some(8.0));
        let Json::Arr(models) = v.get("models").unwrap() else {
            panic!("models must be an array");
        };
        assert_eq!(
            models[0].get("model").unwrap().as_str(),
            Some("vocab_miner")
        );
        assert_eq!(
            models[0].get("examples_per_sec_1_worker").unwrap().as_num(),
            Some(1234.56)
        );
        assert_eq!(models[1].get("note"), Some(&Json::Null));
        assert_eq!(models[0].get("parity"), Some(&Json::Bool(true)));
    }

    #[test]
    fn parses_strings_numbers_and_escapes() {
        assert_eq!(
            Json::parse(r#""a\n\"b\"A""#).unwrap(),
            Json::Str("a\n\"b\"A".to_string())
        );
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("tru").is_err());
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let v = Json::parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_num(), Some(2.0));
    }

    #[test]
    fn render_roundtrips_through_parse() {
        let doc = r#"{
            "meta": {"bench": "serving", "note": "a \"quoted\" name\n"},
            "levels": [
                {"target_qps": 200, "achieved_qps": 199.5, "p99_ns": 120000, "passed": true},
                {"target_qps": 3200, "achieved_qps": 801.25, "passed": false, "note": null}
            ],
            "empty_obj": {},
            "empty_arr": [],
            "negative": -1.5e3
        }"#;
        let v = Json::parse(doc).unwrap();
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Rendering is deterministic: same value, same bytes.
        assert_eq!(v.render(), text);
        // And idempotent through a second roundtrip.
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn render_emits_compact_scalars() {
        assert_eq!(Json::Num(8.0).render(), "8\n");
        assert_eq!(Json::Str("a\tb".into()).render(), "\"a\\tb\"\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Obj(vec![]).render(), "{}\n");
    }
}
