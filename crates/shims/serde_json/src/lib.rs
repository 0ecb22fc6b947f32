//! Offline shim for `serde_json`.
//!
//! Pairs with the shim `serde` crate, whose data model is JSON text:
//! `to_string`/`to_string_pretty` run a value's `Serialize` impl against
//! a compact or pretty JSON writer, and `from_str` runs its
//! `Deserialize` impl against a pull reader over the text. [`Value`], a
//! parsed document tree with `as_*` accessors and indexing, is one more
//! such type: it renders and parses itself. Covers the API surface this
//! workspace uses, plus [`Result`] and [`Error`].

use std::fmt;

use serde::__private::{Number, Reader, Writer};
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Error raised by JSON (de)serialization.
pub use serde::__private::Error;

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut w = Writer::compact();
    value.serialize(&mut w)?;
    Ok(w.into_string())
}

/// Serialize a value to pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut w = Writer::pretty();
    value.serialize(&mut w)?;
    Ok(w.into_string())
}

/// Deserialize a value from JSON text.
pub fn from_str<'a, T: Deserialize<'a>>(s: &'a str) -> Result<T> {
    let mut r = Reader::new(s);
    let value = T::deserialize(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object, entries in document order.
    Map(Vec<(String, Value)>),
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        matches!(self, Value::Str(s) if s == other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self == *other
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self == other.as_str()
    }
}

macro_rules! impl_value_eq_int {
    ($($ty:ty),*) => {$(
        impl PartialEq<$ty> for Value {
            #[allow(clippy::cast_lossless)]
            fn eq(&self, other: &$ty) -> bool {
                self.as_i64() == i64::try_from(*other).ok()
            }
        }
    )*};
}

impl_value_eq_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        matches!(self, Value::Bool(b) if b == other)
    }
}

impl Value {
    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Seq(v) => Some(v),
            _ => None,
        }
    }

    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    fn number(&self) -> Option<Number> {
        match *self {
            Value::U64(v) => Some(Number::U64(v)),
            Value::I64(v) => Some(Number::I64(v)),
            Value::F64(v) => Some(Number::F64(v)),
            _ => None,
        }
    }

    /// Numeric value widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        self.number().map(Number::as_f64)
    }

    /// Unsigned integer value, if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        self.number().and_then(Number::as_u64)
    }

    /// Signed integer value, if losslessly representable.
    pub fn as_i64(&self) -> Option<i64> {
        self.number().and_then(Number::as_i64)
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object lookup by key (`None` for non-objects or missing keys;
    /// the first entry wins on a duplicate key).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    fn write(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::U64(v) => w.u64(*v),
            Value::I64(v) => w.i64(*v),
            Value::F64(v) => w.f64(*v),
            Value::Str(s) => w.str(s),
            Value::Seq(items) => {
                w.begin_array();
                for item in items {
                    w.element();
                    item.write(w);
                }
                w.end_array();
            }
            Value::Map(entries) => {
                w.begin_object();
                for (k, v) in entries {
                    w.key(k);
                    v.write(w);
                }
                w.end_object();
            }
        }
    }

    /// Parse one value; nesting is bounded by the reader's depth cap.
    fn read(r: &mut Reader<'_>) -> Result<Value> {
        Ok(match r.peek() {
            Some(b'{') => {
                r.begin_object("object")?;
                let mut entries = Vec::new();
                while let Some(key) = r.next_key_str()? {
                    let key = key.to_owned();
                    entries.push((key, Value::read(r)?));
                }
                Value::Map(entries)
            }
            Some(b'[') => {
                r.begin_array("array")?;
                let mut items = Vec::new();
                while r.next_element()? {
                    items.push(Value::read(r)?);
                }
                Value::Seq(items)
            }
            Some(b'"') => Value::Str(r.string()?.to_owned()),
            Some(b't' | b'f') => Value::Bool(r.bool()?),
            Some(b'n') if r.null()? => Value::Null,
            Some(b'-' | b'0'..=b'9') => match r.number("number")? {
                Number::U64(v) => Value::U64(v),
                Number::I64(v) => Value::I64(v),
                Number::BigInt(v) | Number::F64(v) => Value::F64(v),
            },
            Some(_) => return Err(r.error("unexpected character")),
            None => return Err(r.error("unexpected end of input")),
        })
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: S) -> std::result::Result<S::Ok, S::Error> {
        s.with_writer(|w| {
            self.write(w);
            Ok(())
        })
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(d: D) -> std::result::Result<Self, D::Error> {
        d.with_reader(Value::read)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = Writer::compact();
        self.write(&mut w);
        f.write_str(&w.into_string())
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|v| v.get(i)).unwrap_or(&NULL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_document() {
        let text = r#"{"a": [1, -2, 3.5], "b": {"c": "x\ny"}, "d": null, "e": true}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(v["a"][0].as_u64(), Some(1));
        assert_eq!(v["a"][1].as_i64(), Some(-2));
        assert_eq!(v["a"][2].as_f64(), Some(3.5));
        assert_eq!(v["b"]["c"].as_str(), Some("x\ny"));
        assert!(v["d"].is_null());
        assert_eq!(v["e"].as_bool(), Some(true));
        let rendered = to_string(&v).unwrap();
        let v2: Value = from_str(&rendered).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn skip_serializing_if_omits_key_and_default_restores_it() {
        #[derive(serde::Serialize, serde::Deserialize, PartialEq, Debug)]
        struct Opt {
            a: u64,
            #[serde(skip_serializing_if = "Option::is_none", default)]
            b: Option<u64>,
        }

        let none = Opt { a: 1, b: None };
        let json = to_string(&none).unwrap();
        assert_eq!(json, r#"{"a":1}"#);
        let back: Opt = from_str(&json).unwrap();
        assert_eq!(back, none);

        let some = Opt { a: 1, b: Some(2) };
        let json = to_string(&some).unwrap();
        assert_eq!(json, r#"{"a":1,"b":2}"#);
        let back: Opt = from_str(&json).unwrap();
        assert_eq!(back, some);
    }

    #[test]
    fn default_field_missing_from_input_takes_its_default() {
        #[derive(serde::Deserialize, PartialEq, Debug)]
        struct Versioned {
            version: u32,
            #[serde(default)]
            window_ns: u64,
        }

        let v: Versioned = from_str(r#"{"version":1}"#).unwrap();
        assert_eq!(
            v,
            Versioned {
                version: 1,
                window_ns: 0
            }
        );
        let err = from_str::<Versioned>(r#"{"window_ns":1}"#).unwrap_err();
        assert!(err.to_string().contains("missing field `version`"), "{err}");
    }

    #[test]
    fn struct_fields_skip_unknown_keys_and_keep_the_first_duplicate() {
        #[derive(serde::Deserialize, PartialEq, Debug)]
        struct Pair {
            a: u64,
            b: String,
        }

        let text = r#"{"x":{"deep":[1,{"y":null}]},"a":1,"b":"one","a":2,"b":"two"}"#;
        let p: Pair = from_str(text).unwrap();
        assert_eq!(
            p,
            Pair {
                a: 1,
                b: "one".into()
            }
        );
        // The skipped value is still syntax-checked.
        assert!(from_str::<Pair>(r#"{"x":[1,],"a":1,"b":""}"#).is_err());
    }

    #[test]
    fn numbers_convert_as_before() {
        assert_eq!(from_str::<u32>("3.0").unwrap(), 3);
        assert_eq!(from_str::<i8>("-4").unwrap(), -4);
        assert_eq!(from_str::<f64>("7").unwrap(), 7.0);
        assert!(from_str::<u32>("-1").is_err());
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<u64>("2.5").is_err());
        let err = from_str::<u64>("null").unwrap_err().to_string();
        assert!(
            err.starts_with("expected unsigned integer, got null"),
            "{err}"
        );
        // The value quoted in an error is compacted onto one line.
        let err = from_str::<u64>("{\n  \"a\": [1,\n 2],\n \"b\": \"x\ny\"\n}")
            .unwrap_err()
            .to_string();
        assert!(
            err.starts_with(r#"expected unsigned integer, got {"a":[1,2],"b":"x\ny"}"#),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_integers_are_errors_not_saturated() {
        for (text, ty, err) in [
            (
                "18446744073709551616",
                "u64",
                "integer 1.8446744073709552e19 out of range for u64",
            ),
            ("1e30", "u64", "integer 1e30 out of range for u64"),
            ("1e30", "u32", "integer 1e30 out of range for u32"),
            (
                "-9223372036854775809",
                "i64",
                "integer -9.223372036854776e18 out of range for i64",
            ),
            ("9.3e18", "i64", "integer 9.3e18 out of range for i64"),
        ] {
            let got = match ty {
                "u64" => from_str::<u64>(text).map(|_| ()),
                "u32" => from_str::<u32>(text).map(|_| ()),
                _ => from_str::<i64>(text).map(|_| ()),
            };
            let got = got.unwrap_err().to_string();
            assert_eq!(
                got,
                format!("{err} at byte {}", text.len()),
                "{text} as {ty}"
            );
        }
        // Integral floats exactly in range still read, at both ends.
        assert_eq!(from_str::<u64>("1e19").unwrap(), 10_000_000_000_000_000_000);
        assert_eq!(
            from_str::<u64>("18446744073709549568.0").unwrap(),
            18_446_744_073_709_549_568
        );
        assert_eq!(from_str::<u64>("-0.0").unwrap(), 0);
        assert_eq!(from_str::<i64>("-9223372036854775808.0").unwrap(), i64::MIN);
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        // Errors that were not about range keep their text.
        let err = from_str::<i64>("9223372036854775808")
            .unwrap_err()
            .to_string();
        assert!(
            err.starts_with("expected integer, got 9223372036854775808"),
            "{err}"
        );
        let err = from_str::<u64>("-3.0").unwrap_err().to_string();
        assert!(
            err.starts_with("expected unsigned integer, got -3.0"),
            "{err}"
        );
        let err = from_str::<u8>("300.0").unwrap_err().to_string();
        assert!(err.starts_with("integer 300 out of range for u8"), "{err}");
        assert_eq!(from_str::<Value>("1e30").unwrap().as_u64(), None);
        assert_eq!(from_str::<Value>("1e30").unwrap().as_i64(), None);

        #[derive(serde::Deserialize, Debug)]
        struct Lost {
            #[allow(dead_code)]
            at: u64,
        }
        let err = from_str::<Lost>(r#"{"at":1e30}"#).unwrap_err().to_string();
        assert!(
            err.starts_with("integer 1e30 out of range for u64"),
            "{err}"
        );
    }

    #[test]
    fn integers_read_and_write_like_std() {
        for v in [0, 1, 9, 10, 99, 100, 12_345, u64::MAX / 10, u64::MAX] {
            assert_eq!(to_string(&v).unwrap(), v.to_string());
        }
        for v in [i64::MIN, -100, -1, 0, 7, i64::MAX] {
            assert_eq!(to_string(&v).unwrap(), v.to_string());
        }
        for (text, value) in [
            ("0", Value::U64(0)),
            ("-0", Value::I64(0)),
            ("-7", Value::I64(-7)),
            ("18446744073709551615", Value::U64(u64::MAX)),
            ("18446744073709551616", Value::F64(2f64.powi(64))),
            ("100000000000000000000", Value::F64(1e20)),
            ("1.5", Value::F64(1.5)),
            ("2e3", Value::F64(2000.0)),
            ("4E-1", Value::F64(0.4)),
            ("-0.0e+05", Value::F64(-0.0)),
            ("10.01E00", Value::F64(10.01)),
        ] {
            assert_eq!(from_str::<Value>(text).unwrap(), value, "{text}");
        }
        for bad in [
            "1-", "1+2", "1e", "1x", "12 3", "--1", "007", "-01", "00", "0.", "-.5", "1.e5", "1e+",
            "[01]",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?} must be rejected");
        }
        let err = from_str::<Vec<u64>>("[1,007]").unwrap_err().to_string();
        assert_eq!(err, "invalid number at byte 3");
    }

    #[test]
    fn derived_keys_and_tags_read_in_any_form() {
        #[derive(serde::Serialize, serde::Deserialize, PartialEq, Debug)]
        enum Ev {
            Idle,
            Go { a: u64, ab: u64 },
        }
        #[derive(serde::Serialize, serde::Deserialize, PartialEq, Debug)]
        struct Doc {
            a: u64,
            ab: Ev,
            b: Vec<Ev>,
        }

        let doc = Doc {
            a: 1,
            ab: Ev::Idle,
            b: vec![Ev::Go { a: 2, ab: 3 }, Ev::Idle],
        };
        let compact = r#"{"a":1,"ab":"Idle","b":[{"Go":{"a":2,"ab":3}},"Idle"]}"#;
        assert_eq!(to_string(&doc).unwrap(), compact);
        for text in [
            compact,
            // Declaration order broken, keys that prefix each other.
            r#"{"b":[{"Go":{"ab":3,"a":2}},"Idle"],"ab":"Idle","a":1}"#,
            // Escaped keys and tags, whitespace before the colon.
            r#"{"\u0061" :1,"a\u0062":"Id\u006ce","b":[{"G\u006f" : {"ab" :3,"a":2}},"Idle"]}"#,
            // Unknown and duplicate keys.
            r#"{"a":1,"a":"x","abc":2,"ab":"Idle","b":[{"Go":{"a":2,"a":9,"ab":3}},"Idle"]}"#,
        ] {
            assert_eq!(from_str::<Doc>(text).unwrap(), doc, "{text}");
        }
        assert_eq!(
            from_str::<Ev>(r#""Idl""#).unwrap_err().to_string(),
            "unknown variant `Idl` of Ev at byte 0"
        );
        assert_eq!(
            from_str::<Ev>(r#"{"Gone":{}}"#).unwrap_err().to_string(),
            "unknown variant `Gone` of Ev at byte 0"
        );
        assert_eq!(
            from_str::<Ev>("{}").unwrap_err().to_string(),
            "empty object for enum Ev at byte 0"
        );
        assert_eq!(
            to_string_pretty(&doc).unwrap(),
            "{\n  \"a\": 1,\n  \"ab\": \"Idle\",\n  \"b\": [\n    {\n      \"Go\": {\n        \"a\": 2,\n        \"ab\": 3\n      }\n    },\n    \"Idle\"\n  ]\n}"
        );
    }

    #[test]
    fn typed_writer_matches_value_renderer() {
        let text = r#"{"a":[1,-2,3.5,1e300,[],{}],"s":"q\"\u0001\\","n":null,"t":[true,false]}"#;
        let v: Value = from_str(text).unwrap();
        let compact = to_string(&v).unwrap();
        assert_eq!(
            compact,
            r#"{"a":[1,-2,3.5,1e300,[],{}],"s":"q\"\u0001\\","n":null,"t":[true,false]}"#
        );
        assert_eq!(v.to_string(), compact);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(
            pretty.starts_with("{\n  \"a\": [\n    1,\n    -2,"),
            "{pretty}"
        );
        assert!(pretty.contains("    [],\n    {}\n  ],"), "{pretty}");
        assert_eq!(from_str::<Value>(&pretty).unwrap(), v);
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
    }

    #[test]
    fn unicode_escapes_pair_surrogates_and_reject_unpaired_ones() {
        let s: String = from_str(r#""😀 é""#).unwrap();
        assert_eq!(s, "\u{1F600} \u{e9}");
        for bad in [
            r#""\ud800A""#,
            r#""\ud800""#,
            r#""\ud800x""#,
            r#""\udc00""#,
            r#""\u12""#,
            r#""\u12g4""#,
        ] {
            assert!(from_str::<String>(bad).is_err(), "{bad} must be rejected");
            assert!(from_str::<Value>(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn nesting_deeper_than_the_cap_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nested(serde::__private::MAX_DEPTH)).is_ok());
        #[derive(serde::Deserialize, Debug)]
        struct Known {
            #[allow(dead_code)]
            a: u64,
        }

        for text in [nested(serde::__private::MAX_DEPTH + 1), "[".repeat(1 << 20)] {
            let err = from_str::<Value>(&text).unwrap_err().to_string();
            assert!(err.contains("recursion limit exceeded"), "{err}");
            // Skipping an unknown key's value honours the same cap.
            let doc = format!(r#"{{"a":1,"x":{text}}}"#);
            let err = from_str::<Known>(&doc).unwrap_err().to_string();
            assert!(err.contains("recursion limit exceeded"), "{err}");
        }
    }

    #[test]
    fn pretty_output_parses_back() {
        let v: Value = from_str(r#"{"k": [1, 2], "s": "q\"uote"}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn syntax_errors_are_reported() {
        for bad in [
            "",
            "{",
            "[1 2]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "-",
            "\"abc",
            "{\"a\":1,}",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
