//! The pull reader every [`crate::Deserialize`] impl reads from: a
//! recursive-descent JSON parser that hands out one token at a time,
//! so typed values are built straight from the text.
//!
//! Derived readers pass their field and variant names as quoted
//! literals. [`Reader::next_key`] compares the raw bytes with the field
//! declared after the last one matched, and [`Reader::variant`] with
//! each variant name, before decoding anything: the names hold nothing
//! to escape, so a byte match is exactly the key decoding would yield.
//! A miss consumes nothing and takes the general path, which is the
//! only one for escaped, reordered or unknown keys.

use std::fmt;

use crate::{Deserializer, Error};

/// Deepest nesting of objects and arrays the reader accepts. Deeper
/// input (for example a megabyte of `[`) is refused with an error
/// instead of exhausting the stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON number as written: non-negative integers are `U64`, negative
/// integers `I64`, integers outside both ranges `BigInt`, and anything
/// with a fraction or exponent `F64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// An integer outside the `u64` and `i64` ranges, as the nearest
    /// `f64`. It is kept apart from `F64` because rounding can land it
    /// in range: `-9223372036854775809` rounds to `i64::MIN`.
    BigInt(f64),
    /// A float.
    F64(f64),
}

impl Number {
    /// The value widened to `f64`.
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U64(v) => v as f64,
            Number::I64(v) => v as f64,
            Number::BigInt(v) | Number::F64(v) => v,
        }
    }

    /// The value as `u64`, if it is a non-negative integer in range (an
    /// integral float such as `3.0` counts; `1e30` does not).
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::U64(v) => Some(v),
            Number::I64(v) => u64::try_from(v).ok(),
            // `u64::MAX as f64` rounds up to 2⁶⁴, the first value
            // out of range.
            Number::F64(v) if v.fract() == 0.0 && (0.0..u64::MAX as f64).contains(&v) => {
                Some(v as u64)
            }
            Number::BigInt(_) | Number::F64(_) => None,
        }
    }

    /// The value as `i64`, if it is an integer in range (an integral
    /// float counts).
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::U64(v) => i64::try_from(v).ok(),
            Number::I64(v) => Some(v),
            // `i64::MIN as f64` is exactly -2⁶³, and 2⁶³ is the first
            // value out of range above.
            Number::F64(v)
                if v.fract() == 0.0 && (i64::MIN as f64..-(i64::MIN as f64)).contains(&v) =>
            {
                Some(v as i64)
            }
            Number::BigInt(_) | Number::F64(_) => None,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::U64(v) => write!(f, "{v}"),
            Number::I64(v) => write!(f, "{v}"),
            Number::BigInt(v) | Number::F64(v) if v.is_finite() => write!(f, "{v:?}"),
            Number::BigInt(_) | Number::F64(_) => f.write_str("null"),
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

    /// Like [`Self::next_key_str`], for a derived struct whose keys
    /// are `keys`, each given as its JSON text and colon (`"name":`):
    /// yields the key's index in `keys` (`keys.len()` for a key not
    /// listed).
    ///
    /// `guess` is the index after the last key matched. Text written by
    /// the derive holds the fields in declaration order, so the raw
    /// bytes at the key are first compared with `keys[guess]`: on a
    /// match they are consumed in one step. The names need no escapes,
    /// so such a match reads exactly what decoding would. On a miss
    /// nothing is consumed, and the key is decoded and looked up like
    /// any other.
    pub fn next_key(&mut self, keys: &[&str], guess: usize) -> Result<Option<usize>, Error> {
        if !self.has_next(b'}')? {
            return Ok(None);
        }
        self.peek();
        if let Some(key) = keys.get(guess) {
            if self.text.as_bytes()[self.pos..].starts_with(key.as_bytes()) {
                self.pos += key.len();
                return Ok(Some(guess));
            }
        }
        let span = self.string_span()?;
        self.expect(b':')?;
        let key = self.resolve(span);
        Ok(Some(
            keys.iter()
                .position(|k| unquoted(k) == key)
                .unwrap_or(keys.len()),
        ))
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
        let (bytes, start) = (self.text.as_bytes(), self.pos);
        if bytes[start] != b'-' {
            // A plain non-negative integer is built as it is scanned. A
            // fraction, an exponent, an overflow or a leading zero takes
            // `number_text`.
            let mut value = 0u64;
            let mut end = start;
            while let Some(&b @ b'0'..=b'9') = bytes.get(end) {
                match value
                    .checked_mul(10)
                    .and_then(|v| v.checked_add(u64::from(b - b'0')))
                {
                    Some(v) => value = v,
                    None => break,
                }
                end += 1;
            }
            let leading_zero = bytes[start] == b'0' && end > start + 1;
            if !leading_zero
                && !matches!(
                    bytes.get(end),
                    Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                )
            {
                self.pos = end;
                return Ok(Number::U64(value));
            }
        }
        self.number_text(start)
    }

    /// The rest of [`Self::number`]: scan the literal at `start`, check
    /// it against JSON's grammar, then parse it. Kept out of line so
    /// the integer path stays small: event logs hold only non-negative
    /// integers.
    #[cold]
    #[inline(never)]
    fn number_text(&mut self, start: usize) -> Result<Number, Error> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        self.pos = start + 1;
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
        if !is_json_number(text.as_bytes()) {
            return Err(error_at(start, "invalid number"));
        }
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::I64(i));
            }
        }
        let v = text
            .parse::<f64>()
            .map_err(|_| error_at(start, "invalid number"))?;
        Ok(if is_float {
            Number::F64(v)
        } else {
            Number::BigInt(v)
        })
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
    /// variants are `unit`, each given as its JSON string (`"Name"`),
    /// and data variants `data`, each as its JSON key and colon
    /// (`"Name":`). The raw bytes at the tag are compared with each
    /// name first, as in [`Self::next_key`]; if none matches, the tag is
    /// decoded and looked up.
    pub fn variant(&mut self, name: &str, unit: &[&str], data: &[&str]) -> Result<Variant, Error> {
        let next = self.peek();
        let at = self.pos;
        let (names, is_unit) = match next {
            Some(b'"') => (unit, true),
            Some(b'{') => {
                self.begin_object("")?;
                if !self.has_next(b'}')? {
                    return Err(error_at(at, format_args!("empty object for enum {name}")));
                }
                self.peek();
                (data, false)
            }
            _ => return Err(self.unexpected(&format!("enum {name}"))),
        };
        let rest = &self.text.as_bytes()[self.pos..];
        let i = match names.iter().position(|n| rest.starts_with(n.as_bytes())) {
            Some(i) => {
                self.pos += names[i].len();
                i
            }
            None => {
                let span = self.string_span()?;
                if !is_unit {
                    self.expect(b':')?;
                }
                let tag = self.resolve(span);
                names
                    .iter()
                    .position(|n| unquoted(n) == tag)
                    .ok_or_else(|| {
                        error_at(at, format_args!("unknown variant `{tag}` of {name}"))
                    })?
            }
        };
        Ok(if is_unit {
            Variant::Unit(i)
        } else {
            Variant::Data(i)
        })
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

/// The name inside a derived key or string, `"name":` or `"name"`.
fn unquoted(literal: &str) -> &str {
    let literal = literal.strip_suffix(':').unwrap_or(literal);
    literal
        .get(1..literal.len().saturating_sub(1))
        .unwrap_or("")
}

/// Whether `text` is a JSON number:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
/// `str::parse` also takes `007`, `0.`, `.5` and `1.e5`; JSON does not.
fn is_json_number(text: &[u8]) -> bool {
    let digits = |from: usize| {
        text[from..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count()
    };
    let mut i = usize::from(text.first() == Some(&b'-'));
    match digits(i) {
        0 => return false,
        n if n > 1 && text[i] == b'0' => return false,
        n => i += n,
    }
    if text.get(i) == Some(&b'.') {
        match digits(i + 1) {
            0 => return false,
            n => i += 1 + n,
        }
    }
    if matches!(text.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(text.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        match digits(i) {
            0 => return false,
            n => i += n,
        }
    }
    i == text.len()
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
