//! Minimal JSON reader/writer for the metrics JSON.
//!
//! The workspace builds offline (no serde), so the stats blocks write their
//! JSON (`EngineStats::to_json`, the `metrics_json:` line of `--metrics`
//! runs, the benchmark records) by hand through [`JsonWriter`], and
//! [`parse`] reads those documents back in `repro validate-metrics`, the
//! benchmark gates and tests. Sensor messages have one encoding, the binary
//! [`crate::wire`] framing.
//!
//! Numbers are written with Rust's shortest-round-trip `f64` formatting and
//! parsed with `str::parse::<f64>`, which makes `f64` fields byte-exact
//! across a round trip.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (held as `f64`; exact for the integers used here).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Key order is not preserved (irrelevant to JSON equality).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object map, if it is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// Parses one JSON document, rejecting trailing non-whitespace.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
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

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(|c| c as char), self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this wire
                            // format; map lone surrogates to the replacement
                            // character rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("invalid escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (content is valid UTF-8: the
                    // input is &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0b1100_0000 == 0b1000_0000) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

/// Incremental writer producing compact (no-whitespace) JSON, in the same
/// style as `serde_json::to_string`.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the current nesting level already holds an element.
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn elem(&mut self) {
        if let Some(has) = self.needs_comma.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
    }

    /// Opens an object (as the next value).
    pub fn begin_object(&mut self) -> &mut Self {
        self.elem();
        self.out.push('{');
        self.needs_comma.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.out.push('}');
        self
    }

    /// Opens an array (as the next value).
    pub fn begin_array(&mut self) -> &mut Self {
        self.elem();
        self.out.push('[');
        self.needs_comma.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.out.push(']');
        self
    }

    /// Writes an object key; the next write is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.elem();
        write_escaped(&mut self.out, key);
        self.out.push(':');
        // The value following a key is not a new element at this level.
        if let Some(has) = self.needs_comma.last_mut() {
            *has = false;
        }
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.elem();
        write_escaped(&mut self.out, s);
        self
    }

    /// Writes a float with shortest-round-trip formatting.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.elem();
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
            // Keep serde_json's convention of marking float-typed fields.
            if v.fract() == 0.0 && v.abs() < 1e17 {
                self.out.push_str(".0");
            }
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.elem();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes every integer in `values` as one array value.
    pub fn u64_array(&mut self, values: &[u64]) -> &mut Self {
        self.begin_array();
        for &v in values {
            self.u64(v);
        }
        self.end_array()
    }

    /// Consumes the writer, returning the document.
    pub fn finish(self) -> String {
        debug_assert!(self.needs_comma.is_empty(), "unbalanced begin/end");
        self.out
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"hi\n","d":true},"e":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("hi\n"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("e"), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["not json", "{", "[1,", "{\"a\":}", "{\"a\":1,}", "1 2", "\"open", "{2:3}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accepts_whitespace_and_unicode() {
        let v = parse(" { \"k\" : [ 1 , 2 ] , \"s\" : \"héllo \\u00e9\" } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("s").unwrap().as_str(), Some("héllo é"));
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for v in [0.1, 1.0 / 3.0, 1e300, -2.2250738585072014e-308, 123456.75] {
            let mut w = JsonWriter::new();
            w.f64(v);
            let text = w.finish();
            assert_eq!(parse(&text).unwrap().as_f64(), Some(v), "{text}");
        }
    }

    #[test]
    fn writer_produces_compact_serde_style_output() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name").string("a\"b");
        w.key("xs").begin_array().f64(1.0).f64(2.5).end_array();
        w.key("n").u64(7);
        w.key("ns").u64_array(&[3, 4]);
        w.end_object();
        assert_eq!(w.finish(), r#"{"name":"a\"b","xs":[1.0,2.5],"n":7,"ns":[3,4]}"#);
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(JsonValue::Number(7.0).as_u64(), Some(7));
        assert_eq!(JsonValue::Number(7.5).as_u64(), None);
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
        assert_eq!(JsonValue::String("7".into()).as_u64(), None);
    }
}
