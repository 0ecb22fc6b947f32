//! The JSON writer every [`crate::Serialize`] impl writes into.

use std::io::Write as _;

use crate::{Error, Serializer};

/// Appends compact or pretty (two-space indent) JSON text to a string.
///
/// Containers are written as `begin_*`, then `key`/`element` before
/// each entry's value, then `end_*`; an empty container renders as
/// `{}`/`[]`.
pub struct Writer {
    /// UTF-8 text: only `str` input and ASCII are ever appended.
    out: Vec<u8>,
    pretty: bool,
    depth: usize,
    /// No entry has been written yet in the innermost open container.
    first: bool,
}

impl Writer {
    /// A writer producing compact JSON.
    pub fn compact() -> Self {
        Self::new(false)
    }

    /// A writer producing pretty-printed JSON.
    pub fn pretty() -> Self {
        Self::new(true)
    }

    fn new(pretty: bool) -> Self {
        Self {
            out: Vec::new(),
            pretty,
            depth: 0,
            first: true,
        }
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        String::from_utf8(self.out).expect("only UTF-8 text is written")
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push(b'\n');
            for _ in 0..self.depth {
                self.out.extend_from_slice(b"  ");
            }
        }
    }

    fn open(&mut self, bracket: u8) {
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn next_entry(&mut self) {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
        self.newline();
    }

    fn close(&mut self, bracket: u8) {
        self.depth -= 1;
        if !self.first {
            self.newline();
        }
        self.out.push(bracket);
        self.first = false;
    }

    /// Open a JSON object.
    pub fn begin_object(&mut self) {
        self.open(b'{');
    }

    /// Start the next object entry: write its key.
    pub fn key(&mut self, key: &str) {
        self.next_entry();
        self.str(key);
        self.colon();
    }

    fn colon(&mut self) {
        self.out.push(b':');
        if self.pretty {
            self.out.push(b' ');
        }
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    /// Open a JSON array.
    pub fn begin_array(&mut self) {
        self.open(b'[');
    }

    /// Start the next array element.
    pub fn element(&mut self) {
        self.next_entry();
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) {
        self.close(b']');
    }

    /// Write `null`.
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    /// Write a boolean.
    pub fn bool(&mut self, v: bool) {
        self.out
            .extend_from_slice(if v { b"true" } else { b"false" });
    }

    /// Write an unsigned integer.
    pub fn u64(&mut self, v: u64) {
        write!(self.out, "{v}").expect("writing to a Vec cannot fail");
    }

    /// Write a signed integer.
    pub fn i64(&mut self, v: i64) {
        write!(self.out, "{v}").expect("writing to a Vec cannot fail");
    }

    /// Write a float: `{:?}` keeps a trailing `.0` on integral values;
    /// NaN and infinities, which JSON cannot express, become `null`.
    pub fn f64(&mut self, v: f64) {
        if v.is_finite() {
            write!(self.out, "{v:?}").expect("writing to a Vec cannot fail");
        } else {
            self.null();
        }
    }

    /// Write a string literal with JSON escapes.
    pub fn str(&mut self, s: &str) {
        self.out.push(b'"');
        let bytes = s.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let escape = ESCAPE[usize::from(b)];
            if escape == 0 {
                continue;
            }
            self.out.extend_from_slice(&bytes[start..i]);
            if escape == b'u' {
                write!(self.out, "\\u{b:04x}").expect("writing to a Vec cannot fail");
            } else {
                self.out.extend_from_slice(&[b'\\', escape]);
            }
            start = i + 1;
        }
        self.out.extend_from_slice(&bytes[start..]);
        self.out.push(b'"');
    }
}

/// For each byte, the character after the backslash that escapes it
/// (`u` for a `\u00XX` escape), or 0 if it is written as is.
const ESCAPE: [u8; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = b'u';
        b += 1;
    }
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table
};

impl Serializer for &mut Writer {
    type Ok = ();
    type Error = Error;

    fn with_writer(self, f: impl FnOnce(&mut Writer) -> Result<(), Error>) -> Result<(), Error> {
        f(self)
    }
}
