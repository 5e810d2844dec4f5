//! Minimal JSON support for the observability exports.
//!
//! The workspace builds offline with no serde, so exports are written
//! with [`escape`] plus hand-rolled `format!` calls, and the CI schema
//! smoke test validates them with [`parse`]. The parser accepts the
//! full JSON grammar (objects, arrays, strings with escapes, numbers,
//! booleans, null) and rejects trailing garbage.

use std::collections::BTreeMap;

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Writes `s` as a quoted, escaped JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Writes an `f64` the way JSON expects: finite values as-is, non-finite
/// values as `null` (JSON has no NaN/Infinity).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Trim to a stable short form; `{}` on f64 already avoids
        // trailing zeros ("1.5", "3", "0.25").
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup for objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string payload if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `u64` if this is a non-negative integer
    /// below 2^64 (a cast would saturate larger ones to `u64::MAX`).
    pub fn as_u64(&self) -> Option<u64> {
        const TWO_TO_THE_64: f64 = 18_446_744_073_709_551_616.0;
        match self {
            Value::Number(n) if (0.0..TWO_TO_THE_64).contains(n) && n.fract() == 0.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The keys, in order, if this is an object; empty otherwise.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Value::Object(m) => m.keys().map(|k| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// The boolean payload if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// How deeply arrays and objects may nest. The parser recurses once a
/// level, so a document nested deeper is refused with a [`ParseError`]
/// rather than overflowing the stack; every export nests a handful of
/// levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document, rejecting trailing garbage and
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("arrays and objects nest too deeply"));
                }
                self.depth += 1;
                let nested = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: decode when a low
                            // surrogate follows, else substitute.
                            let ch = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xd800) << 10)
                                        + (lo.wrapping_sub(0xdc00) & 0x3ff);
                                    char::from_u32(combined).unwrap_or('\u{fffd}')
                                } else {
                                    '\u{fffd}'
                                }
                            } else {
                                char::from_u32(cp).unwrap_or('\u{fffd}')
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a character boundary
                    // of the input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{0001}"), "\\u0001");
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true}, "e": null}"#;
        let v = parse(doc).expect("parse");
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("e"), Some(&Value::Null));
        // An unsigned integer is a whole number in [0, 2^64).
        for (number, unsigned) in [
            ("7", Some(7)),
            ("18446744073709549568", Some(18_446_744_073_709_549_568)),
            ("2.5", None),
            ("-3e2", None),
            ("18446744073709551616", None),
            ("1e300", None),
        ] {
            let v = parse(number).expect("a number");
            assert_eq!(v.as_u64(), unsigned, "{number}");
        }
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(parse("{} extra").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,,]").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn round_trips_escaped_strings() {
        let original = "line1\nline2\t\"quoted\" \\slash\\";
        let doc = format!("{{\"s\": {}}}", string(original));
        let v = parse(&doc).expect("parse");
        assert_eq!(v.get("s").unwrap().as_str(), Some(original));
    }

    #[test]
    fn nesting_deeper_than_the_bound_is_an_error_not_an_overflow() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"a\": ".repeat(depth) + "1" + &"}".repeat(depth);
        // Sixty thousand levels overflow any thread's stack if recursed.
        let err = parse(&arrays(60_000)).expect_err("a nesting bomb");
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        for too_deep in [arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1)] {
            let err = parse(&too_deep).expect_err("one level too deep");
            assert_eq!(err.message, "arrays and objects nest too deeply");
        }
    }

    /// A string is copied in runs, not re-validated character by
    /// character against the rest of the input: a 7 MB one-string
    /// document parses in linear time.
    #[test]
    fn a_long_string_parses_in_linear_time() {
        let body = "a\u{e9}\u{1f600}".repeat(4 << 18);
        let doc = format!("[{}, \"tail\\n\"]", string(&body));
        let (done, wait) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let lens = |items: &[Value]| items.iter().map(|s| s.as_str().map(str::len)).collect();
            let parsed = parse(&doc).map(|v| v.as_array().map(lens));
            let _ = done.send(parsed);
        });
        let parsed = wait
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("parsed within 5 s");
        assert_eq!(parsed, Ok(Some(vec![Some(body.len()), Some(5)])));
    }

    #[test]
    fn parses_unicode_escapes() {
        let v = parse(r#""é 😀""#).expect("parse raw");
        assert_eq!(v.as_str(), Some("\u{e9} \u{1f600}"));
        let v = parse("\"\\u00e9 \\ud83d\\ude00\"").expect("parse escapes");
        assert_eq!(v.as_str(), Some("\u{e9} \u{1f600}"));
    }
}
