//! A minimal, tolerant JSON parser for reading traces back.
//!
//! Zero dependencies by design (the workspace builds offline). The
//! parser accepts one JSON value per call; any syntax error — including
//! a line torn mid-write by `SIGKILL` — yields `None` rather than a
//! panic or error type, which is exactly the degradation mode the trace
//! reader wants: skip the line, count it, carry on.
//!
//! Integers without fraction or exponent parse as [`Json::Int`] so that
//! `u64` sequence numbers and microsecond timestamps survive exactly;
//! everything else numeric becomes [`Json::Float`].

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer literal (no fraction/exponent) that fits in `i64`.
    Int(i64),
    /// Any other numeric literal.
    Float(f64),
    /// String literal, unescaped.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as ordered key/value pairs (duplicates preserved).
    Obj(Vec<(String, Json)>),
}

/// Parse a complete JSON value from `input`.
///
/// Returns `None` on any syntax error or on trailing non-whitespace.
pub fn parse(input: &str) -> Option<Json> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(value)
    } else {
        None
    }
}

/// Nesting beyond this depth is rejected (stack-overflow guard; trace
/// events are at most two levels deep).
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Option<()> {
        let end = self.pos.checked_add(lit.len())?;
        if self.bytes.get(self.pos..end)? == lit.as_bytes() {
            self.pos = end;
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self, depth: usize) -> Option<Json> {
        if depth > MAX_DEPTH {
            return None;
        }
        match self.peek()? {
            b'{' => self.object(depth),
            b'[' => self.array(depth),
            b'"' => self.string().map(Json::Str),
            b't' => {
                self.expect_literal("true")?;
                Some(Json::Bool(true))
            }
            b'f' => {
                self.expect_literal("false")?;
                Some(Json::Bool(false))
            }
            b'n' => {
                self.expect_literal("null")?;
                Some(Json::Null)
            }
            b'-' | b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn object(&mut self, depth: usize) -> Option<Json> {
        self.eat(b'{');
        self.skip_ws();
        let mut pairs = Vec::new();
        if self.eat(b'}') {
            return Some(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return None;
            }
            self.skip_ws();
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Some(Json::Obj(pairs));
            }
            return None;
        }
    }

    fn array(&mut self, depth: usize) -> Option<Json> {
        self.eat(b'[');
        self.skip_ws();
        let mut items = Vec::new();
        if self.eat(b']') {
            return Some(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Some(Json::Arr(items));
            }
            return None;
        }
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Some(out),
                b'\\' => match self.bump()? {
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
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            self.expect_literal("\\u")?;
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return None;
                            }
                            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(code)?
                        } else {
                            char::from_u32(hi)?
                        };
                        out.push(c);
                    }
                    _ => return None,
                },
                // Multi-byte UTF-8: the input is a &str, so continuation
                // bytes are valid; copy the raw byte run.
                b if b >= 0x80 => {
                    let start = self.pos - 1;
                    while matches!(self.peek(), Some(nb) if nb >= 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).ok()?);
                }
                b if b < 0x20 => return None,
                b => out.push(b as char),
            }
        }
    }

    fn hex4(&mut self) -> Option<u32> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.bump()? {
                b @ b'0'..=b'9' => u32::from(b - b'0'),
                b @ b'a'..=b'f' => u32::from(b - b'a') + 10,
                b @ b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return None,
            };
            v = (v << 4) | d;
        }
        Some(v)
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        self.eat(b'-');
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return None;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return None;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return None;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        if integral {
            if let Ok(v) = text.parse::<i64>() {
                return Some(Json::Int(v));
            }
        }
        text.parse::<f64>().ok().map(Json::Float)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null"), Some(Json::Null));
        assert_eq!(parse("true"), Some(Json::Bool(true)));
        assert_eq!(parse("-42"), Some(Json::Int(-42)));
        assert_eq!(parse("9007199254740993"), Some(Json::Int(9007199254740993)));
        assert_eq!(parse("1.5"), Some(Json::Float(1.5)));
        assert_eq!(parse("2e3"), Some(Json::Float(2000.0)));
        assert_eq!(parse("\"hi\\nthere\""), Some(Json::Str("hi\nthere".into())));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse("{\"a\":[1,{\"b\":false}],\"c\":\"x\"}").expect("valid");
        let Json::Obj(pairs) = v else {
            panic!("object")
        };
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[1], ("c".to_owned(), Json::Str("x".into())));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse("\"\\u0041\""), Some(Json::Str("A".into())));
        // Surrogate pair for U+1F600.
        assert_eq!(
            parse("\"\\ud83d\\ude00\""),
            Some(Json::Str("\u{1F600}".into()))
        );
        // Lone high surrogate is rejected, not panicked on.
        assert_eq!(parse("\"\\ud83d\""), None);
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(parse("\"héllo\""), Some(Json::Str("héllo".into())));
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        for bad in [
            "",
            "{",
            "{\"a\"",
            "{\"a\":}",
            "[1,",
            "\"unterminated",
            "01x",
            "nul",
            "{\"a\":1}trailing",
            "1.",
            "--1",
        ] {
            assert_eq!(parse(bad), None, "input {bad:?} should be rejected");
        }
    }

    #[test]
    fn depth_limit_guards_recursion() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert_eq!(parse(&deep), None);
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&ok).is_some());
    }
}
