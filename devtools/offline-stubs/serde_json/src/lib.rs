//! Offline stand-in for `serde_json`.
//!
//! Prints and parses real JSON text over the stub `serde::Content` data
//! model, so capture files round-trip for local testing. Supports the
//! functions this workspace calls: `to_string`, `to_writer`, `from_str`.

use serde::{Content, Deserialize, Serialize};
use std::fmt::Write as _;

/// JSON error: a plain message (the workspace only calls `to_string()`).
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` as a compact JSON string.
pub fn to_string<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    print_content(&value.to_content(), &mut out);
    Ok(out)
}

/// Serializes `value` as compact JSON into `writer` (no trailing newline).
pub fn to_writer<W: std::io::Write, T: ?Sized + Serialize>(
    mut writer: W,
    value: &T,
) -> Result<()> {
    let s = to_string(value)?;
    writer
        .write_all(s.as_bytes())
        .map_err(|e| Error(e.to_string()))
}

/// Deserializes a value from a JSON string.
pub fn from_str<'a, T: Deserialize<'a>>(s: &'a str) -> Result<T> {
    let mut parser = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let content = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    T::from_content(&content).map_err(|e| Error(e.to_string()))
}

fn print_content(c: &Content, out: &mut String) {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(true) => out.push_str("true"),
        Content::Bool(false) => out.push_str("false"),
        Content::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Content::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Content::F64(v) => {
            if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                let _ = write!(out, "{v:.1}");
            } else {
                let _ = write!(out, "{v}");
            }
        }
        Content::Str(s) => print_string(s, out),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print_content(item, out);
            }
            out.push(']');
        }
        Content::Map(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print_string(k, out);
                out.push(':');
                print_content(v, out);
            }
            out.push('}');
        }
    }
}

fn print_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

struct Parser<'a> {
    text: &'a str,
    /// `text.as_bytes()`.
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Content> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Content::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Content::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Content::Bool(false)),
            Some(b'"') => self.string().map(Content::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Content::Seq(items));
                        }
                        _ => return Err(Error(format!("bad array at offset {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value()?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Content::Map(entries));
                        }
                        _ => return Err(Error(format!("bad object at offset {}", self.pos))),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(Error(format!("unexpected input at offset {}", self.pos))),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".to_string()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".to_string()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".to_string()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".to_string()))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error("bad escape".to_string())),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape.
                    // Both are ASCII, which no multi-byte scalar contains,
                    // so the run ends on a character boundary of `text`.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .ok_or_else(|| Error("unterminated string".to_string()))?;
                    out.push_str(&self.text[start..start + run]);
                    self.pos += run;
                }
                None => return Err(Error("unterminated string".to_string())),
            }
        }
    }

    fn number(&mut self) -> Result<Content> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".to_string()))?;
        if is_float {
            text.parse::<f64>()
                .map(Content::F64)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Content::I64)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Content::U64)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_byte_scalars_next_to_escapes_round_trip_unchanged() {
        for text in [
            "é\"ü\\漢\n字\t🦀",
            "\\é",
            "é\\",
            "🦀",
            "",
            "plain ascii",
            "\u{8}\u{c}\r/",
        ] {
            let json = to_string(&text.to_string()).expect("serializes");
            let back: String = from_str(&json).expect("parses");
            assert_eq!(back, text, "{json}");
        }
        let back: String = from_str(r#""\u00e9é\/\u6f22漢""#).expect("parses");
        assert_eq!(back, "éé/漢漢");
    }

    #[test]
    fn an_unterminated_string_is_still_an_error() {
        for json in [r#""abc"#, r#""ab\"#, r#""é"#, r#"""#, r#"{"key":"va"#] {
            assert!(from_str::<String>(json).is_err(), "{json}");
        }
    }

    /// One `from_utf8` over the rest of the input per character made this
    /// about 10^12 byte validations: effectively a hang.
    #[test]
    fn a_one_mebibyte_string_value_parses() {
        let text = "x".repeat(1 << 20);
        let back: String = from_str(&format!("\"{text}\"")).expect("parses");
        assert_eq!(back, text);
    }
}
