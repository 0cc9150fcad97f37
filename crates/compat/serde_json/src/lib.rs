#![warn(missing_docs)]

//! Offline stand-in for `serde_json`: renders and parses JSON text against
//! the sibling `serde` stand-in's [`serde::Value`] tree.
//!
//! Numbers round-trip exactly: integers through `u64`/`i64`, floats through
//! Rust's shortest-round-trip formatting. Non-finite floats serialize as
//! `null` (matching real serde_json) and deserialize back as NaN.

use serde::{Deserialize, Serialize, Value};

/// JSON error (parse or shape mismatch).
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

/// Serialize a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out);
    Ok(out)
}

/// Deserialize a value from JSON text.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value(text)?;
    T::from_value(&value).map_err(Error::from)
}

/// Parse JSON text into a [`Value`] tree.
pub fn parse_value(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => {
            if f.is_finite() {
                // `{:?}` is Rust's shortest representation that parses back
                // to the identical f64.
                let s = format!("{f:?}");
                out.push_str(&s);
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Recursion cap matching real serde_json's default; corrupt input fails
/// with an Error instead of blowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        if self.depth >= MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = self.value_inner();
        self.depth -= 1;
        v
    }

    fn value_inner(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(Error("unexpected end of input".into())),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(_) => self.number(),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error(format!("invalid UTF-8 in string: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error("unterminated escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            // RFC 8259: non-BMP characters arrive as a
                            // UTF-16 surrogate pair of \u escapes.
                            if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(Error(
                                        "high surrogate not followed by \\u escape".into(),
                                    ));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(Error("invalid low surrogate".into()));
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".into()))?,
                            );
                        }
                        other => {
                            return Err(Error(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => return Err(Error("unterminated string".into())),
            }
        }
    }

    /// Four hex digits of a `\u` escape, advancing past them.
    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error("truncated \\u escape".into()))?;
        let code = u32::from_str_radix(
            std::str::from_utf8(hex).map_err(|_| Error("bad \\u escape".into()))?,
            16,
        )
        .map_err(|_| Error("bad \\u escape".into()))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if text.is_empty() {
            return Err(Error(format!("expected value at byte {start}")));
        }
        let is_float = text.contains(['.', 'e', 'E']);
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if stripped.parse::<u64>().is_ok() || text.parse::<i64>().is_ok() {
                    if let Ok(n) = text.parse::<i64>() {
                        return Ok(Value::I64(n));
                    }
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert_eq!(from_str::<f64>(&to_string(&0.1f64).unwrap()).unwrap(), 0.1);
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn u64_extremes_are_exact() {
        for w in [u64::MAX, 0x9E3779B97F4A7C15, 1u64 << 63] {
            let json = to_string(&w).unwrap();
            assert_eq!(from_str::<u64>(&json).unwrap(), w);
        }
    }

    #[test]
    fn f64_shortest_repr_roundtrips_bits() {
        for f in [
            0.1,
            1e300,
            -2.5e-10,
            std::f64::consts::PI,
            f64::MIN_POSITIVE,
        ] {
            let json = to_string(&f).unwrap();
            assert_eq!(from_str::<f64>(&json).unwrap().to_bits(), f.to_bits());
        }
    }

    #[test]
    fn nan_is_null_is_nan() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert!(from_str::<f64>("null").unwrap().is_nan());
        assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v: Vec<(u32, Vec<f64>)> = vec![(1, vec![1.5, 2.5]), (2, vec![])];
        let json = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<(u32, Vec<f64>)>>(&json).unwrap(), v);
    }

    #[test]
    fn surrogate_pairs_decode_to_non_bmp_chars() {
        assert_eq!(
            from_str::<String>("\"\\ud83d\\ude00\"").unwrap(),
            "\u{1F600}"
        );
        // A lone high surrogate is invalid JSON.
        assert!(from_str::<String>("\"\\ud83d\"").is_err());
        assert!(from_str::<String>("\"\\ud83d\\u0041\"").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = from_str::<Vec<u64>>(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"));
        // Depths inside the cap still parse.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_value(&ok).is_ok());
    }

    #[test]
    fn error_messages_locate_problems() {
        assert!(from_str::<u64>("[1").is_err());
        assert!(from_str::<u64>("42 garbage").is_err());
        assert!(from_str::<String>("42").is_err());
    }
}
