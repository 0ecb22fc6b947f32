//! The pull reader every [`crate::Deserialize`] impl reads from: a
//! recursive-descent JSON parser that hands out one token at a time,
//! so typed values are built straight from the text.

use std::fmt;

use crate::{Deserializer, Error};

/// Deepest nesting of objects and arrays the reader accepts. Deeper
/// input (for example a megabyte of `[`) is refused with an error
/// instead of exhausting the stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON number as written: non-negative integers are `U64`, negative
/// integers `I64`, and anything with a fraction or exponent (or out of
/// integer range) `F64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A float.
    F64(f64),
}

impl Number {
    /// The value widened to `f64`.
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U64(v) => v as f64,
            Number::I64(v) => v as f64,
            Number::F64(v) => v,
        }
    }

    /// The value as `u64`, if it is a non-negative integer (an
    /// integral float such as `3.0` counts).
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::U64(v) => Some(v),
            Number::I64(v) => u64::try_from(v).ok(),
            Number::F64(v) if v >= 0.0 && v.fract() == 0.0 => Some(v as u64),
            Number::F64(_) => None,
        }
    }

    /// The value as `i64`, if it is an integer in range (an integral
    /// float counts).
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::U64(v) => i64::try_from(v).ok(),
            Number::I64(v) => Some(v),
            Number::F64(v) if v.fract() == 0.0 => Some(v as i64),
            Number::F64(_) => None,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::U64(v) => write!(f, "{v}"),
            Number::I64(v) => write!(f, "{v}"),
            Number::F64(v) if v.is_finite() => write!(f, "{v:?}"),
            Number::F64(_) => f.write_str("null"),
        }
    }
}

/// Which form of an externally tagged enum the input holds: a bare
/// string names a unit variant, a one-entry object a data variant.
pub enum Variant {
    /// Index into the unit-variant names.
    Unit(usize),
    /// Index into the data-variant names; the variant's content comes
    /// next, then [`Reader::end_variant`].
    Data(usize),
}

/// Pull parser over one JSON document.
///
/// Containers are read as `begin_*`, then `next_key`/`next_element`
/// until it reports the end. The reader tracks only the innermost
/// container's "no entry yet" flag: every nested value is read in full
/// before its parent's next entry.
pub struct Reader<'de> {
    text: &'de str,
    pos: usize,
    depth: usize,
    first: bool,
    /// Decoded text of the last string that held escapes.
    scratch: String,
}

impl<'de> Reader<'de> {
    /// A reader at the start of `text`.
    pub fn new(text: &'de str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
            first: true,
            scratch: String::new(),
        }
    }

    /// An error at the current position.
    pub fn error(&self, msg: impl fmt::Display) -> Error {
        error_at(self.pos, msg)
    }

    /// Check that only whitespace follows the document.
    pub fn finish(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    /// The next significant byte, after skipping whitespace.
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format_args!("expected `{}`", b as char)))
        }
    }

    /// Error for a value that is not the `expected` kind: names the
    /// value found (compacted, truncated), or the syntax error that
    /// stops it from being read.
    fn unexpected(&mut self, expected: &str) -> Error {
        self.peek();
        let at = self.pos;
        if let Err(e) = self.skip_value() {
            return e;
        }
        error_at(
            at,
            format_args!(
                "expected {expected}, got {}",
                compact(&self.text[at..self.pos])
            ),
        )
    }

    fn open(&mut self, bracket: u8, expected: &str) -> Result<(), Error> {
        if self.peek() != Some(bracket) {
            return Err(self.unexpected(expected));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error(format_args!(
                "recursion limit exceeded: more than {MAX_DEPTH} nested containers"
            )));
        }
        self.pos += 1;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Whether the innermost container has another entry; consumes the
    /// separator or the closing bracket.
    fn has_next(&mut self, close: u8) -> Result<bool, Error> {
        let b = self.peek();
        if b == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            self.first = false;
            return Ok(false);
        }
        if self.first {
            self.first = false;
        } else if b == Some(b',') {
            self.pos += 1;
        } else {
            return Err(self.error(format_args!("expected `,` or `{}`", close as char)));
        }
        Ok(true)
    }

    /// Open an object; `expected` names what was wanted if the next
    /// value is not one.
    pub fn begin_object(&mut self, expected: &str) -> Result<(), Error> {
        self.open(b'{', expected)
    }

    /// The next key of the innermost object (its `:` consumed), or
    /// `None` once the object has closed.
    pub fn next_key_str(&mut self) -> Result<Option<&str>, Error> {
        if !self.has_next(b'}')? {
            return Ok(None);
        }
        self.peek();
        let key = self.string_span()?;
        self.expect(b':')?;
        Ok(Some(self.resolve(key)))
    }

    /// Like [`Self::next_key_str`], but yields the key's index in
    /// `keys` (`keys.len()` for a key not listed).
    pub fn next_key(&mut self, keys: &[&str]) -> Result<Option<usize>, Error> {
        Ok(self
            .next_key_str()?
            .map(|k| keys.iter().position(|f| *f == k).unwrap_or(keys.len())))
    }

    /// Open an array; `expected` names what was wanted if the next
    /// value is not one.
    pub fn begin_array(&mut self, expected: &str) -> Result<(), Error> {
        self.open(b'[', expected)
    }

    /// Whether the innermost array has another element (positioned at
    /// it), or has closed.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.has_next(b']')
    }

    /// Move to element `i` of an `n`-element array holding `what`.
    pub fn tuple_element(&mut self, what: &str, i: usize, n: usize) -> Result<(), Error> {
        if !self.next_element()? {
            return Err(self.error(format_args!("expected {n} elements for {what}, got {i}")));
        }
        Ok(())
    }

    /// Close an `n`-element array holding `what`.
    pub fn end_tuple(&mut self, what: &str, n: usize) -> Result<(), Error> {
        if self.next_element()? {
            return Err(self.error(format_args!("expected {n} elements for {what}, got more")));
        }
        Ok(())
    }

    /// Consume `null` if it is next.
    pub fn null(&mut self) -> Result<bool, Error> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.keyword("null").map(|()| true)
    }

    fn keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.text.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.error(format_args!("expected `{kw}`")))
        }
    }

    /// Read a boolean.
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') => self.keyword("true").map(|()| true),
            Some(b'f') => self.keyword("false").map(|()| false),
            _ => Err(self.unexpected("bool")),
        }
    }

    /// Read a number; `expected` names what was wanted if the next
    /// value is not one.
    pub fn number(&mut self, expected: &str) -> Result<Number, Error> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.unexpected(expected));
        }
        let (text, start) = (self.text, self.pos);
        let bytes = text.as_bytes();
        self.pos += 1;
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &text[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Number::F64)
            .map_err(|_| error_at(start, "invalid number"))
    }

    /// Read a string. The slice borrows the input, or the reader's
    /// scratch buffer when the string held escapes.
    pub fn string(&mut self) -> Result<&str, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.unexpected("string"));
        }
        let span = self.string_span()?;
        Ok(self.resolve(span))
    }

    fn resolve(&self, span: Option<(usize, usize)>) -> &str {
        match span {
            Some((start, end)) => &self.text[start..end],
            None => &self.scratch,
        }
    }

    /// Parse the string literal at `pos`. Returns its raw span if it has
    /// no escapes; otherwise decodes it into `scratch` and returns
    /// `None`.
    fn string_span(&mut self) -> Result<Option<(usize, usize)>, Error> {
        self.expect(b'"')?;
        let text = self.text;
        let bytes = text.as_bytes();
        let start = self.pos;
        let mut run = start;
        let mut escaped = false;
        loop {
            // The input is a `str`, so any span between ASCII quotes and
            // backslashes is valid UTF-8.
            let Some(n) = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = bytes.len();
                return Err(self.error("unterminated string"));
            };
            let end = self.pos + n;
            self.pos = end + 1;
            if bytes[end] == b'"' {
                if !escaped {
                    return Ok(Some((start, end)));
                }
                self.scratch.push_str(&text[run..end]);
                return Ok(None);
            }
            if !escaped {
                escaped = true;
                self.scratch.clear();
            }
            self.scratch.push_str(&text[run..end]);
            let c = self.escape()?;
            self.scratch.push(c);
            run = self.pos;
        }
    }

    /// Decode the escape after a backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let b = self.text.as_bytes().get(self.pos).copied();
        self.pos += 1;
        Ok(match b {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let at = self.pos - 2;
                let cp = self.hex4()?;
                let cp = if (0xD800..0xDC00).contains(&cp) {
                    // A high surrogate must pair with a low one.
                    let low = if self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        self.hex4()?
                    } else {
                        0
                    };
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(error_at(at, "unpaired surrogate in unicode escape"));
                    }
                    0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    cp
                };
                char::from_u32(cp).ok_or_else(|| error_at(at, "invalid unicode escape"))?
            }
            _ => return Err(error_at(self.pos - 1, "invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated unicode escape"))?;
        let mut v = 0;
        for &d in digits {
            let nibble = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid unicode escape"))?;
            v = v * 16 + nibble;
        }
        self.pos += 4;
        Ok(v)
    }

    /// Read and discard one value of any kind, checking its syntax but
    /// building nothing.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'{') => {
                self.begin_object("object")?;
                while self.next_key_str()?.is_some() {
                    self.skip_value()?;
                }
            }
            Some(b'[') => {
                self.begin_array("array")?;
                while self.next_element()? {
                    self.skip_value()?;
                }
            }
            Some(b'"') => {
                self.string_span()?;
            }
            Some(b't' | b'f') => {
                self.bool()?;
            }
            Some(b'n') => {
                self.null()?;
            }
            Some(b'-' | b'0'..=b'9') => {
                self.number("number")?;
            }
            Some(_) => return Err(self.error("unexpected character")),
            None => return Err(self.error("unexpected end of input")),
        }
        Ok(())
    }

    /// Read the tag of an externally tagged enum `name` whose unit
    /// variants are `unit` and data variants `data`.
    pub fn variant(&mut self, name: &str, unit: &[&str], data: &[&str]) -> Result<Variant, Error> {
        let next = self.peek();
        let at = self.pos;
        let (tag, is_unit) = match next {
            Some(b'"') => (self.string()?, true),
            Some(b'{') => {
                self.begin_object("")?;
                match self.next_key_str()? {
                    Some(tag) => (tag, false),
                    None => return Err(error_at(at, format_args!("empty object for enum {name}"))),
                }
            }
            _ => return Err(self.unexpected(&format!("enum {name}"))),
        };
        let names = if is_unit { unit } else { data };
        match names.iter().position(|v| *v == tag) {
            Some(i) if is_unit => Ok(Variant::Unit(i)),
            Some(i) => Ok(Variant::Data(i)),
            None => Err(error_at(
                at,
                format_args!("unknown variant `{tag}` of {name}"),
            )),
        }
    }

    /// Close the one-entry object around a data variant of enum `name`.
    pub fn end_variant(&mut self, name: &str) -> Result<(), Error> {
        match self.next_key_str()? {
            None => Ok(()),
            Some(_) => Err(self.error(format_args!("more than one entry for enum {name}"))),
        }
    }
}

impl<'de> Deserializer<'de> for &mut Reader<'de> {
    type Error = Error;

    fn with_reader<T>(
        self,
        f: impl FnOnce(&mut Reader<'de>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        f(self)
    }
}

fn error_at(pos: usize, msg: impl fmt::Display) -> Error {
    Error(format!("{msg} at byte {pos}"))
}

/// `json` without insignificant whitespace, cut to 80 bytes, so an
/// error quoting it stays on one line.
fn compact(json: &str) -> String {
    const MAX: usize = 80;
    let mut out = String::new();
    let (mut in_string, mut escaped) = (false, false);
    for c in json.chars() {
        if out.len() >= MAX {
            out.push_str("...");
            break;
        }
        if in_string {
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
        } else if c.is_ascii_whitespace() {
            continue;
        } else {
            in_string = c == '"';
        }
        if c.is_control() {
            // A raw control character inside a string.
            out.extend(c.escape_default());
        } else {
            out.push(c);
        }
    }
    out
}
