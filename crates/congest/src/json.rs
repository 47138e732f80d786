//! The workspace's one JSON reader and string escaper.
//!
//! The workspace has no serde (every dependency is a vendored shim), so
//! JSON is hand-*written* by each exporter's `format!` bodies and
//! hand-*read* here: a small recursive-descent parser over the full JSON
//! grammar — objects, arrays, strings with escapes, numbers, booleans,
//! null — returning a [`Value`] tree with typed accessors. Run reports,
//! JSONL event dumps ([`crate::JsonlTrace::decode`]), flight records and
//! `congest-serve` request lines are all read through [`parse`]; every
//! writer escapes strings with [`escape`]. Documents are one object per
//! line or one small report, so a tree parse is the simple, deterministic
//! choice. Nesting is capped at [`MAX_DEPTH`] so a hostile line cannot
//! overflow the stack.

use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`parse`] accepts. The deepest
/// document the repo writes is a `congest-serve` response embedding a run
/// report's metrics block (response → report → metrics → histogram →
/// buckets: 5 levels); past this, `parse` fails instead of recursing on.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object entries keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal, kept exact (every count, id and
    /// seed the repo writes is one, and `u64` values past 2^53 do not
    /// survive `f64`).
    Int(u64),
    /// Any other JSON number (negative, fractional, exponent form, or past
    /// `u64::MAX`), as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects (`None` elsewhere or when absent).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(n) => Some(n),
            Value::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Some(n as u64),
            _ => None,
        }
    }

    /// [`Value::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// Member `key` as a non-negative integer that fits `T`, with an error
    /// naming the key when it is absent or out of range.
    pub fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field \"{key}\""))?
            .as_u64()
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| format!("field \"{key}\" is not a non-negative integer in range"))
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one JSON document, rejecting trailing garbage and nesting deeper
/// than [`MAX_DEPTH`] (that error names the byte offset of the first
/// bracket past the limit).
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Runs `parse` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                            let cp = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by `\uDC00..`; anything else is an
                            // error (the protocol never emits lone halves).
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("invalid low surrogate".into());
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(c).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(cp).ok_or("invalid \\u escape")?
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(format!("invalid escape '\\{}'", other as char));
                        }
                    }
                }
                Some(b) if b < 0x20 => return Err("raw control character in string".into()),
                Some(_) => {
                    // Copy one UTF-8 scalar (multi-byte sequences intact).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8")?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "invalid \\u escape")?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
        self.pos += 4;
        Ok(cp)
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            entries.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
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
}

/// Escapes `s` for embedding in a JSON string literal: the one escaper
/// every writer in the workspace uses, and the inverse of [`parse`]'s
/// string reading.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_request_shapes() {
        let v = parse(
            r#"{"schema":"congest.serve","version":1,"op":"query","id":"q1",
                "graph":{"generator":"gnp","n":48,"p":0.05,"seed":5},
                "scenario":{"kind":"even_cycle","k":2,"reliable":true,"faults":null},
                "tags":[1,2,3]}"#,
        )
        .unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("congest.serve"));
        assert_eq!(v.get("version").unwrap().as_u64(), Some(1));
        let g = v.get("graph").unwrap();
        assert_eq!(g.get("n").unwrap().as_usize(), Some(48));
        assert_eq!(g.get("p").unwrap().as_f64(), Some(0.05));
        let s = v.get("scenario").unwrap();
        assert_eq!(s.get("reliable").unwrap().as_bool(), Some(true));
        assert_eq!(s.get("faults"), Some(&Value::Null));
        assert_eq!(
            v.get("tags").unwrap(),
            &Value::Arr(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\n\tAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\n\tA\u{e9}"));
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} extra",
            "\"unterminated",
            "nul",
            "01a",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn numbers_parse_with_exponents_and_signs() {
        assert_eq!(parse("-2.5e3").unwrap().as_f64(), Some(-2500.0));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("1e2").unwrap().as_u64(), Some(100));
    }

    #[test]
    fn integers_past_f64_precision_stay_exact() {
        for n in [u64::MAX, (1 << 53) + 1] {
            assert_eq!(parse(&n.to_string()).unwrap().as_u64(), Some(n));
        }
        // One past u64::MAX is still a number, just not an exact one.
        assert!(parse("18446744073709551616").unwrap().as_f64().is_some());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let deep = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let e = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.contains(&format!("at byte {MAX_DEPTH}")), "{e}");
        // Far past the limit: an error, not a stack overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny"), r#"x\ny"#);
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn escape_mirrors_parser() {
        let original = "line1\nline2\t\"quoted\" back\\slash\u{1}";
        let wrapped = format!("\"{}\"", escape(original));
        assert_eq!(parse(&wrapped).unwrap().as_str(), Some(original));
    }
}
