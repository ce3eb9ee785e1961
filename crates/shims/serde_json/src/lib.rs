//! Offline stand-in for `serde_json`: renders the shim [`serde::Value`] tree
//! produced by the shim `Serialize` trait as JSON text, compact
//! ([`to_string`]) or indented ([`to_string_pretty`]), renders a borrowed
//! [`serde::Value`] tree without copying it ([`value_to_string`]), and
//! parses JSON text back into a [`serde::Value`] tree ([`from_str`]).

use serde::{Serialize, Value};
use std::fmt;

/// Serialisation or parse error; parse errors carry a byte offset and message.
#[derive(Debug)]
pub struct Error {
    message: String,
}

impl Error {
    fn at(offset: usize, message: impl Into<String>) -> Error {
        Error { message: format!("{} at byte {offset}", message.into()) }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

/// Serialises `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value_to_string(&value.serialize()))
}

/// Renders a [`Value`] tree as compact JSON by reference. Unlike
/// [`to_string`], whose `Serialize` step builds an owned copy of the tree,
/// this reads the tree in place.
pub fn value_to_string(value: &Value) -> String {
    let mut out = String::new();
    render(value, None, 0, &mut out);
    out
}

/// Serialises `value` to an indented (2 spaces) JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.serialize(), Some(2), 0, &mut out);
    Ok(out)
}

/// Parses a JSON document into a [`Value`] tree.
///
/// Accepts exactly one top-level value (any trailing non-whitespace is an
/// error), which is what newline-delimited-JSON framing needs. Numbers parse
/// to [`Value::Int`]/[`Value::UInt`] when integral and in range, and to
/// [`Value::Num`] otherwise; `\uXXXX` escapes (including surrogate pairs) are
/// decoded.
pub fn from_str(input: &str) -> Result<Value, Error> {
    let mut parser = Parser { bytes: input.as_bytes(), pos: 0 };
    parser.skip_whitespace();
    let value = parser.parse_value(0)?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::at(parser.pos, "trailing characters after JSON value"));
    }
    Ok(value)
}

/// Nesting depth cap: deeper documents are rejected instead of overflowing
/// the stack on hostile input (the service parses untrusted request lines).
const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_whitespace(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::at(self.pos, format!("expected `{}`", byte as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_PARSE_DEPTH {
            return Err(Error::at(self.pos, "JSON nesting too deep"));
        }
        match self.peek() {
            None => Err(Error::at(self.pos, "unexpected end of input")),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_whitespace();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_whitespace();
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_whitespace();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error::at(self.pos, "expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_whitespace();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_whitespace();
                    let key = self.parse_string()?;
                    self.skip_whitespace();
                    self.expect(b':')?;
                    self.skip_whitespace();
                    let value = self.parse_value(depth + 1)?;
                    entries.push((key, value));
                    self.skip_whitespace();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(entries));
                        }
                        _ => return Err(Error::at(self.pos, "expected `,` or `}`")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(Error::at(
                self.pos,
                format!("unexpected character `{}`", other as char),
            )),
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::at(start, "invalid number"))?;
        if integral {
            if let Ok(u) = text.parse::<u128>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| Error::at(start, format!("invalid number `{text}`")))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::at(self.pos, "unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let high = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&high) {
                                // High surrogate: a \uXXXX low surrogate must follow.
                                if !self.eat_literal("\\u") {
                                    return Err(Error::at(self.pos, "unpaired surrogate"));
                                }
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(Error::at(self.pos, "invalid low surrogate"));
                                }
                                let code =
                                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| Error::at(self.pos, "invalid surrogate pair"))?
                            } else {
                                char::from_u32(high)
                                    .ok_or_else(|| Error::at(self.pos, "invalid \\u escape"))?
                            };
                            out.push(c);
                            // parse_hex4 leaves pos past the digits; skip the
                            // `pos += 1` shared by single-byte escapes below.
                            continue;
                        }
                        _ => return Err(Error::at(self.pos, "invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar from the source text.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::at(self.pos, "invalid UTF-8 in string"))?;
                    let c = rest.chars().next().expect("non-empty by peek");
                    if (c as u32) < 0x20 {
                        return Err(Error::at(self.pos, "unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::at(self.pos, "truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::at(self.pos, "invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16)
            .map_err(|_| Error::at(self.pos, "invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }
}

fn render(value: &Value, indent: Option<usize>, level: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Num(n) => {
            if n.is_finite() {
                if *n == n.trunc() && n.abs() < 1e15 {
                    out.push_str(&format!("{:.1}", n));
                } else {
                    out.push_str(&n.to_string());
                }
            } else {
                // JSON has no NaN/Infinity; serde_json uses null.
                out.push_str("null");
            }
        }
        Value::Str(s) => push_json_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, level + 1, out);
                render(item, indent, level + 1, out);
            }
            newline_indent(indent, level, out);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, level + 1, out);
                push_json_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(item, indent, level + 1, out);
            }
            newline_indent(indent, level, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, level: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * level));
    }
}

fn push_json_string(s: &str, out: &mut String) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    struct Row;

    impl Serialize for Row {
        fn serialize(&self) -> Value {
            Value::Object(vec![
                ("name".to_string(), Value::Str("geo(1/2)".to_string())),
                ("pterm".to_string(), Value::Num(1.0)),
                ("paths".to_string(), Value::UInt(12)),
                ("missing".to_string(), Value::Null),
            ])
        }
    }

    #[test]
    fn compact_and_pretty_render() {
        let compact = to_string(&Row).unwrap();
        assert_eq!(
            compact,
            "{\"name\":\"geo(1/2)\",\"pterm\":1.0,\"paths\":12,\"missing\":null}"
        );
        let pretty = to_string_pretty(&Row).unwrap();
        assert!(pretty.contains("\n  \"name\": \"geo(1/2)\""));
    }

    #[test]
    fn strings_are_escaped() {
        let s = to_string(&"a\"b\\c\n").unwrap();
        assert_eq!(s, "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn arrays_of_objects_render() {
        let rows = vec![Row, Row];
        let json = to_string(&rows).unwrap();
        assert!(json.starts_with('['));
        assert_eq!(json.matches("geo(1/2)").count(), 2);
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str(" true ").unwrap(), Value::Bool(true));
        assert_eq!(from_str("42").unwrap(), Value::UInt(42));
        assert_eq!(from_str("-7").unwrap(), Value::Int(-7));
        assert_eq!(from_str("2.5").unwrap(), Value::Num(2.5));
        assert_eq!(from_str("1e3").unwrap(), Value::Num(1000.0));
        assert_eq!(from_str("\"hi\"").unwrap(), Value::Str("hi".into()));
        assert_eq!(
            from_str("[1, [2], {}]").unwrap(),
            Value::Array(vec![
                Value::UInt(1),
                Value::Array(vec![Value::UInt(2)]),
                Value::Object(vec![]),
            ])
        );
        let obj = from_str("{\"op\": \"lower\", \"depth\": 60}").unwrap();
        assert_eq!(obj.get("op").and_then(Value::as_str), Some("lower"));
        assert_eq!(obj.get("depth").and_then(Value::as_u64), Some(60));
    }

    #[test]
    fn parse_roundtrips_rendered_values() {
        let original = Row.serialize();
        let json = to_string(&Row).unwrap();
        assert_eq!(from_str(&json).unwrap(), original);
        let pretty = to_string_pretty(&Row).unwrap();
        assert_eq!(from_str(&pretty).unwrap(), original);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        assert_eq!(
            from_str("\"a\\\"b\\\\c\\n\\u0041\"").unwrap(),
            Value::Str("a\"b\\c\nA".into())
        );
        // Surrogate pair for 𝄞 (U+1D11E).
        assert_eq!(
            from_str("\"\\uD834\\uDD1E\"").unwrap(),
            Value::Str("\u{1D11E}".into())
        );
        assert_eq!(from_str("\"κ ∈ {L,R}*\"").unwrap(), Value::Str("κ ∈ {L,R}*".into()));
    }

    #[test]
    fn parse_errors_are_structured() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "\"unterminated",
            "\"\\u12\"", "\"\\uD834\"", "1 2", "{\"a\":1} trailing", "nan",
        ] {
            let err = from_str(bad).expect_err(bad);
            assert!(err.to_string().contains("byte"), "{bad}: {err}");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(from_str(&deep).is_err());
    }
}
