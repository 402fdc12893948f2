//! Minimal `serde_json`-compatible shim over the serde shim's [`Value`]
//! model: renders a `Value` tree as JSON text, and parses JSON text into a
//! `Value` tree (the only reader is the benchmark's own smoke test, which
//! checks the JSON it prints; nothing deserialises typed values).
//!
//! The parser is a hand-rolled recursive-descent pass over bytes that must
//! never panic: all indexing is bounds-checked and nesting depth is capped.
//! Matching real serde_json behaviour where it matters to this workspace:
//! non-finite floats render as `null`, integers keep 64-bit fidelity, and
//! enum representations are externally tagged (that part lives in the
//! derive).

use serde::{Serialize, Value};
use std::fmt;

/// Nesting depth cap: garbage like `[[[[...` must error, not blow the
/// stack.
const MAX_DEPTH: usize = 128;

/// JSON encode/decode error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serializes `value` to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value());
    Ok(out)
}

/// Parses JSON text into a [`Value`] tree.
pub fn from_str(s: &str) -> Result<Value, Error> {
    parse_value(s.as_bytes())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(n) => {
            out.push_str(&n.to_string());
        }
        Value::U64(n) => {
            out.push_str(&n.to_string());
        }
        Value::F64(x) => {
            if x.is_finite() {
                out.push_str(&format_f64(*x));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

/// Formats a finite f64 so it re-parses as a float when it carries a
/// fraction, and as an integer otherwise.
fn format_f64(x: f64) -> String {
    let s = x.to_string();
    debug_assert!(!s.contains("inf") && !s.contains("NaN"));
    s
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(bytes: &[u8]) -> Result<Value, Error> {
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing bytes at offset {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(Error::msg(format!(
                "expected `{}` at offset {}, found `{}`",
                b as char,
                self.pos - 1,
                got as char
            ))),
            None => Err(Error::msg("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::msg(format!("invalid literal at offset {}", self.pos)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(Error::msg("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(Error::msg(format!("unexpected byte 0x{b:02x} at offset {}", self.pos))),
            None => Err(Error::msg("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                Some(b) => {
                    return Err(Error::msg(format!("expected `,` or `]`, found `{}`", b as char)))
                }
                None => return Err(Error::msg("unterminated array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(fields)),
                Some(b) => {
                    return Err(Error::msg(format!("expected `,` or `}}`, found `{}`", b as char)))
                }
                None => return Err(Error::msg("unterminated object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(Error::msg("unpaired surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(Error::msg("invalid low surrogate"));
                            }
                            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(code)
                                .ok_or_else(|| Error::msg("invalid surrogate pair"))?
                        } else {
                            char::from_u32(hi).ok_or_else(|| Error::msg("invalid \\u escape"))?
                        };
                        out.push(c);
                    }
                    _ => return Err(Error::msg("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => {
                    return Err(Error::msg("unescaped control character in string"))
                }
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences.
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(Error::msg("invalid UTF-8 in string")),
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(Error::msg("truncated UTF-8 in string"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| Error::msg("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut n = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| Error::msg("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| Error::msg("invalid hex digit in \\u escape"))?;
            n = n * 16 + d;
        }
        Ok(n)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(Error::msg("invalid number"));
        }
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .map(Value::F64)
            .ok_or_else(|| Error::msg(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) {
        let s = {
            let mut out = String::new();
            write_value(&mut out, v);
            out
        };
        assert_eq!(&parse_value(s.as_bytes()).unwrap(), v, "roundtrip of {s}");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&Value::Null);
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::U64(u64::MAX));
        roundtrip(&Value::I64(i64::MIN));
        roundtrip(&Value::F64(1.5));
        roundtrip(&Value::Str("hé\"llo\n\\ \u{1F600} \u{1}".to_string()));
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&Value::Array(vec![Value::U64(1), Value::Null, Value::Str("x".into())]));
        roundtrip(&Value::Object(vec![
            ("a".to_string(), Value::Array(vec![])),
            ("b".to_string(), Value::Object(vec![("c".to_string(), Value::Bool(false))])),
        ]));
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        for s in [
            "",
            "{",
            "[",
            "\"",
            "tru",
            "nul",
            "-",
            "1e",
            "{\"a\"}",
            "[1,]",
            "{,}",
            "\"\\u12\"",
            "\"\\ud800\"",
            "01x",
            "[1 2]",
            "\u{0}",
        ] {
            assert!(parse_value(s.as_bytes()).is_err(), "should reject {s:?}");
        }
        let deep = "[".repeat(100_000);
        assert!(parse_value(deep.as_bytes()).is_err());
    }

    #[test]
    fn typed_roundtrip() {
        let v: Vec<u64> = vec![0, 1, u64::MAX];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[0,1,18446744073709551615]");
        assert_eq!(
            from_str(&s).unwrap(),
            Value::Array(vec![Value::U64(0), Value::U64(1), Value::U64(u64::MAX)])
        );
        let pair: (String, Option<u8>) = ("k".into(), None);
        assert_eq!(to_string(&pair).unwrap(), r#"["k",null]"#);
    }
}
