//! The workspace's one JSON module: a minimal recursive-descent parser, the
//! string escaper, and a small streaming object/array [`Writer`].
//!
//! The workspace builds with no registry access (no serde), yet the golden
//! tests must *structurally* validate `--time-trace` output rather than
//! substring-match it, and every document the tools emit (traces, counters,
//! diagnostics, daemon frames, tuner reports) must be byte-deterministic.
//! The parser covers exactly the JSON this repo emits: objects, arrays,
//! strings with the standard escapes, numbers, booleans and null; errors are
//! strings with a byte offset. The writer emits no whitespace and keeps keys
//! in call order, so a document's bytes are a function of the calls alone.

use std::fmt::{Display, Write as _};

/// Escapes `s` for embedding in a JSON string literal (quotes, backslashes,
/// control characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A streaming JSON writer. Call [`Writer::open`]/[`Writer::close`] for
/// `{}`/`[]`, [`Writer::key`] before each object member, and one of the
/// value methods per value; commas are inserted automatically.
#[derive(Default)]
pub struct Writer {
    out: String,
    /// Whether the next key or value must be preceded by a comma.
    comma: bool,
}

impl Writer {
    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Starts an object (`'{'`) or array (`'['`) value.
    pub fn open(&mut self, bracket: char) -> &mut Self {
        self.sep();
        self.out.push(bracket);
        self.comma = false;
        self
    }

    /// Ends the innermost object (`'}'`) or array (`']'`).
    pub fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// Writes an object member's key; its value must follow.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        self.out.push('"');
        push_escaped(&mut self.out, key);
        self.out.push_str("\":");
        self.comma = false;
        self
    }

    /// Writes a value verbatim: a number, `true`/`false`, or `null`.
    pub fn raw(&mut self, value: impl Display) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{value}");
        self
    }

    /// Writes a string value.
    pub fn str(&mut self, value: &str) -> &mut Self {
        self.sep();
        self.out.push('"');
        push_escaped(&mut self.out, value);
        self.out.push('"');
        self
    }

    /// Writes a string value, or `null` for `None`.
    pub fn opt_str(&mut self, value: Option<&str>) -> &mut Self {
        match value {
            Some(s) => self.str(s),
            None => self.raw("null"),
        }
    }

    /// The finished document.
    pub fn finish(&mut self) -> String {
        std::mem::take(&mut self.out)
    }
}

/// Renders `{"counters":{...}}` plus a newline, members in iteration order —
/// the one counters-document shape (`--counters-json`, the daemon's `stats`
/// reply, the drift guard's pins).
pub fn counters_doc<K: AsRef<str>>(counters: impl IntoIterator<Item = (K, u64)>) -> String {
    let mut w = Writer::default();
    w.open('{').key("counters").open('{');
    for (k, v) in counters {
        w.key(k.as_ref()).raw(v);
    }
    w.close('}').close('}');
    w.finish() + "\n"
}

/// A parsed JSON value. Object keys keep their source order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as f64, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as u64, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parses a complete JSON document; trailing whitespace is allowed, trailing
/// garbage is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn eat_keyword(&mut self, kw: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.eat_keyword("true", Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Value::Bool(false)),
            Some(b'n') => self.eat_keyword("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
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
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs are not produced by this repo's
                            // writers; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is
                    // always valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex =
            std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).map_err(|e| e.to_string())?;
        let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e1").unwrap(), Value::Num(-125.0));
        assert_eq!(parse("\"a\\nb\"").unwrap().as_str(), Some("a\nb"));
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse("{\"a\":[1,{\"b\":\"x\"},null],\"c\":{}}").unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(arr[2], Value::Null);
        assert_eq!(v.get("c").unwrap().as_object().unwrap().len(), 0);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("tru").is_err());
    }

    #[test]
    fn u64_conversion_is_strict() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
    }

    #[test]
    fn writer_output_parses_back_and_pins_its_bytes() {
        let mut w = Writer::default();
        w.open('{').key("a\"b").str("x\n\u{1}").key("n").raw(3);
        w.key("list")
            .open('[')
            .raw(true)
            .opt_str(None)
            .open('{')
            .close('}');
        w.close(']').close('}');
        let text = w.finish();
        assert_eq!(
            text,
            "{\"a\\\"b\":\"x\\n\\u0001\",\"n\":3,\"list\":[true,null,{}]}"
        );
        let v = parse(&text).unwrap();
        assert_eq!(v.get("a\"b").unwrap().as_str(), Some("x\n\u{1}"));
        assert_eq!(v.get("list").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            counters_doc([("k", 2u64), ("z", 0)]),
            "{\"counters\":{\"k\":2,\"z\":0}}\n"
        );
    }

    #[test]
    fn roundtrips_diagnostics_shape() {
        // Shape emitted by DiagnosticsEngine::render_json.
        let text = "[{\"level\":\"warning\",\"message\":\"m\",\"file\":null,\"notes\":[]}]\n";
        let v = parse(text).unwrap();
        let first = &v.as_array().unwrap()[0];
        assert_eq!(first.get("level").unwrap().as_str(), Some("warning"));
        assert_eq!(first.get("file").unwrap(), &Value::Null);
    }
}
