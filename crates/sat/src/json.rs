//! The workspace's one JSON codec: a dependency-free value tree with
//! deterministic rendering and a small recursive-descent parser.
//!
//! The workspace builds offline, so `serde_json` is unavailable. The
//! codec lives here, next to the binary [`crate::codec`], because both
//! the driver and the `smartly serve` daemon depend on this crate while
//! neither depends on the other. It carries:
//!
//! * the driver's reports, `--digest` artifacts and Chrome trace
//!   exports, rendered with [`Json::render`] / [`Json::render_pretty`];
//! * the traces `smartly trace` reads back with [`Json::parse`];
//! * every daemon response line, and every request line a client sends
//!   it — untrusted input from any process that can open the socket.
//!
//! The contract:
//!
//! * **Never panics on input.** A malformed document is an `Err` naming
//!   the byte offset of the first problem, and nesting deeper than 64
//!   levels is rejected before it can exhaust a thread's stack. Parsing
//!   is linear in the input length.
//! * **Numbers carry no schema.** Non-negative integers without fraction
//!   or exponent that fit a `u64` parse as [`Json::UInt`]; every other
//!   number parses as [`Json::Float`]. Whether a field must be an
//!   integer is the reader's call: [`Json::as_u64`] refuses floats, and
//!   the daemon's request decoder (`protocol.rs` in `smartly-server`)
//!   uses it to type-check `id` and `timeout_ms`.
//! * **Deterministic rendering.** Object keys keep insertion order,
//!   floats print with 6 decimal digits, and non-finite floats (NaN,
//!   ±inf) render as `null`, never as the invalid bare tokens
//!   `NaN`/`inf`. Every control character below U+0020 in a string is
//!   escaped (`\n`, `\r`, `\t` short forms; `\u00XX` otherwise), so a
//!   compact rendering never contains a raw newline — the daemon's
//!   line framing relies on that.
//! * **First write wins.** [`Json::get`] on an object with a repeated
//!   key returns the first entry.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order, which makes rendered
/// output byte-stable — the property the driver's determinism tests rely
/// on.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer (the reports never need negatives).
    UInt(u64),
    /// Floating point, rendered with 6 decimal digits.
    Float(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Insertion-ordered object.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object under construction.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Inserts `key: value` (panics when `self` is not an object — a
    /// caller's schema bug, not a runtime condition).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        match self {
            Json::Object(entries) => entries.push((key.to_string(), value)),
            _ => panic!("Json::set on non-object"),
        }
        self
    }

    /// Member lookup on an object (`None` on missing key or non-object).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a boolean (`Bool` only).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an unsigned integer (`UInt` only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a float (`Float`, or `UInt` widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document. Non-negative integers without fraction
    /// or exponent parse as [`Json::UInt`]; every other number parses as
    /// [`Json::Float`]. Trailing garbage is an error.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Renders compactly (no whitespace, never a raw newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with `indent`-space pretty-printing.
    pub fn render_pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(n) => ("\n", " ".repeat(n * depth), " ".repeat(n * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => write!(out, "{v}").expect("write"),
            Json::Float(v) => {
                if v.is_finite() {
                    write!(out, "{v:.6}").expect("write");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
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
                write!(out, "\\u{:04x}", c as u32).expect("write");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Recursion guard for the parser. Reports and protocol lines are a few
/// levels deep; the bound keeps a hostile line such as 10,000 `[` from
/// overflowing a daemon connection thread's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
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

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so any run without structural bytes
            // is already valid UTF-8.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let b = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: the low half must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("lone low surrogate"));
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?);
            }
            _ => return Err(self.err("invalid escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
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
            .map_err(|_| self.err("invalid number"))?;
        if integral && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) => Ok(Json::Float(v)),
            Err(_) => Err(format!("invalid number at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Json;

    #[test]
    fn renders_deterministically_in_insertion_order() {
        let mut obj = Json::object();
        obj.set("zeta", Json::UInt(1));
        obj.set("alpha", Json::Array(vec![Json::Bool(true), Json::Null]));
        obj.set("s", Json::Str("a\"b\n".into()));
        assert_eq!(
            obj.render(),
            r#"{"zeta":1,"alpha":[true,null],"s":"a\"b\n"}"#
        );
        assert_eq!(obj.render(), obj.clone().render());
    }

    #[test]
    fn pretty_print_shape() {
        let mut obj = Json::object();
        obj.set("a", Json::UInt(2));
        assert_eq!(obj.render_pretty(2), "{\n  \"a\": 2\n}\n");
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
        assert_eq!(Json::Float(f64::NEG_INFINITY).render(), "null");
        assert_eq!(Json::Float(1.5).render(), "1.500000");
    }

    #[test]
    fn control_characters_are_escaped() {
        let s = Json::Str("a\u{1}b\u{1f}\u{7}".into());
        assert_eq!(s.render(), r#""a\u0001b\u001f\u0007""#);
        // Round-trips through the parser.
        assert_eq!(Json::parse(&s.render()).unwrap(), s);
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-3").unwrap(), Json::Float(-3.0));
        assert_eq!(Json::parse("2.5e1").unwrap(), Json::Float(25.0));
        assert_eq!(Json::parse(r#""hi""#).unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_string_escapes() {
        let v = Json::parse(r#""a\n\t\"\\\u0041\u00e9""#).unwrap();
        assert_eq!(v, Json::Str("a\n\t\"\\Aé".into()));
        // Surrogate pair (U+1F600).
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, Json::Str("\u{1F600}".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn parses_nested_structures() {
        let text = r#"{"a": [1, {"b": null}, "x"], "c": {"d": 2.5}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.as_array()).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].get("b"),
            Some(&Json::Null)
        );
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(2.5));
        // Parse(render(v)) is the identity on the value tree.
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(&v.render_pretty(2)).unwrap(), v);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "{\"a\" 1}",
            "1 2",
            "{'a':1}",
            "\"\u{1}\"",
            "[1]]",
            "nan",
            "+1",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accessors_are_type_checked() {
        let v = Json::parse(r#"{"n": 7, "s": "x", "b": true}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("n").unwrap().as_str(), None);
        assert_eq!(v.get("n").unwrap().as_bool(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::UInt(1).get("k"), None);
        assert_eq!(Json::Float(7.0).as_u64(), None);
    }
}
