//! Offline shim for the `serde` crate.
//!
//! The build environment has no network access to a cargo registry, so
//! the workspace patches `serde` with this minimal re-implementation.
//! Instead of serde's visitor architecture, the data model is JSON text
//! itself: every [`Serializer`] is a [`__private::Writer`] that values
//! write compact or pretty JSON into, and every [`Deserializer`] is a
//! [`__private::Reader`], a pull parser that values read themselves
//! from. No intermediate tree is built. The public trait surface
//! (`Serialize`, `Deserialize`, `Serializer::serialize_str`,
//! `Deserializer`, `de::Error::custom`, `#[derive(..)]`,
//! `#[serde(with = "module")]`) is source-compatible with the subset of
//! serde this workspace uses.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

mod read;
mod write;

use read::Reader;
use write::Writer;

/// The error every shim (de)serializer reports.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serialization-side error support (mirrors `serde::ser`).
pub mod ser {
    /// Trait every [`crate::Serializer`] error implements.
    pub trait Error: Sized {
        /// Build an error from a message.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }
}

/// Deserialization-side error support (mirrors `serde::de`).
pub mod de {
    /// Trait every [`crate::Deserializer`] error implements.
    pub trait Error: Sized {
        /// Build an error from a message.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }
}

impl ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

/// A value that can write itself as JSON.
pub trait Serialize {
    /// Write `self` through `serializer`.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A JSON sink (mirrors `serde::Serializer`).
pub trait Serializer: Sized {
    /// Success value.
    type Ok;
    /// Error type.
    type Error: ser::Error;

    /// Run `f` against the underlying JSON writer.
    fn with_writer(
        self,
        f: impl FnOnce(&mut Writer) -> Result<(), Error>,
    ) -> Result<Self::Ok, Self::Error>;

    /// Write a string.
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error> {
        self.with_writer(|w| {
            w.str(v);
            Ok(())
        })
    }
}

/// A value that can read itself from JSON.
pub trait Deserialize<'de>: Sized {
    /// Read a value from `deserializer`.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A JSON source (mirrors `serde::Deserializer`).
pub trait Deserializer<'de>: Sized {
    /// Error type.
    type Error: de::Error;

    /// Run `f` against the underlying JSON reader.
    fn with_reader<T>(
        self,
        f: impl FnOnce(&mut Reader<'de>) -> Result<T, Error>,
    ) -> Result<T, Self::Error>;
}

// ---------------------------------------------------------------------
// Implementations for std types.
// ---------------------------------------------------------------------

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.with_writer(|w| {
                    w.u64(*self as u64);
                    Ok(())
                })
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                d.with_reader(|r| {
                    let n = r.number("unsigned integer")?;
                    let v = n.as_u64().ok_or_else(|| {
                        r.error(format_args!("expected unsigned integer, got {n}"))
                    })?;
                    <$t>::try_from(v).map_err(|_| {
                        r.error(format_args!("integer {v} out of range for {}", stringify!($t)))
                    })
                })
            }
        }
    )*};
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.with_writer(|w| {
                    w.i64(*self as i64);
                    Ok(())
                })
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                d.with_reader(|r| {
                    let n = r.number("integer")?;
                    let v = n
                        .as_i64()
                        .ok_or_else(|| r.error(format_args!("expected integer, got {n}")))?;
                    <$t>::try_from(v).map_err(|_| {
                        r.error(format_args!("integer {v} out of range for {}", stringify!($t)))
                    })
                })
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);
impl_serde_int!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.with_writer(|w| {
                    w.f64(f64::from(*self));
                    Ok(())
                })
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                d.with_reader(|r| Ok(r.number("number")?.as_f64() as $t))
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.with_writer(|w| {
            w.bool(*self);
            Ok(())
        })
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.with_reader(Reader::bool)
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.with_reader(|r| r.string().map(str::to_owned))
    }
}

impl<'de> Deserialize<'de> for &'static str {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        // Static string slices (`&'static str` struct fields) cannot
        // borrow from the input; the shim leaks the handful of small
        // strings this workspace ever deserializes this way (SoC spec
        // tables), which is bounded and test-only.
        d.with_reader(|r| {
            r.string()
                .map(|s| &*Box::leak(s.to_owned().into_boxed_str()))
        })
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => v.serialize(s),
            None => s.with_writer(|w| {
                w.null();
                Ok(())
            }),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.with_reader(|r| {
            if r.null()? {
                Ok(None)
            } else {
                T::deserialize(r).map(Some)
            }
        })
    }
}

/// Write `items` as a JSON array.
fn write_seq<S: Serializer>(
    s: S,
    items: impl IntoIterator<Item = impl Serialize>,
) -> Result<S::Ok, S::Error> {
    s.with_writer(|w| {
        w.begin_array();
        for item in items {
            w.element();
            item.serialize(&mut *w)?;
        }
        w.end_array();
        Ok(())
    })
}

/// Read a JSON array (`expected` names it in errors) into any
/// collection.
fn read_seq<'de, T: Deserialize<'de>, C: FromIterator<T>>(
    r: &mut Reader<'de>,
    expected: &str,
) -> Result<C, Error> {
    r.begin_array(expected)?;
    std::iter::from_fn(|| match r.next_element() {
        Ok(true) => Some(T::deserialize(&mut *r)),
        Ok(false) => None,
        Err(e) => Some(Err(e)),
    })
    .collect()
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        write_seq(s, self)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.with_reader(|r| read_seq(r, "array"))
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        write_seq(s, self)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        write_seq(s, self)
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.with_reader(|r| {
            let vec: Vec<T> = read_seq(r, "array")?;
            vec.try_into()
                .map_err(|_| r.error(format_args!("expected array of length {N}")))
        })
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        write_seq(s, self)
    }
}

impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.with_reader(|r| read_seq(r, "array"))
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        // Maps serialize as a sequence of `[key, value]` pairs: keys in
        // this workspace are not always strings, and pair lists
        // round-trip uniformly.
        write_seq(s, self)
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.with_reader(|r| read_seq::<(K, V), _>(r, "array of pairs"))
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident . $idx:tt),+) ; $len:expr),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.with_writer(|w| {
                    w.begin_array();
                    $(
                        w.element();
                        self.$idx.serialize(&mut *w)?;
                    )+
                    w.end_array();
                    Ok(())
                })
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<De: Deserializer<'de>>(d: De) -> Result<Self, De::Error> {
                d.with_reader(|r| {
                    r.begin_array("tuple array")?;
                    let value = ($({
                        r.tuple_element("tuple", $idx, $len)?;
                        $name::deserialize(&mut *r)?
                    },)+);
                    r.end_tuple("tuple", $len)?;
                    Ok(value)
                })
            }
        }
    )+};
}

impl_serde_tuple!(
    (A.0); 1,
    (A.0, B.1); 2,
    (A.0, B.1, C.2); 3,
    (A.0, B.1, C.2, D.3); 4,
    (A.0, B.1, C.2, D.3, E.4); 5,
    (A.0, B.1, C.2, D.3, E.4, F.5); 6,
);

/// Support machinery used by generated derive code and the `serde_json`
/// shim. Not part of the serde-compatible API surface.
pub mod __private {
    pub use super::read::{Number, Reader, Variant, MAX_DEPTH};
    pub use super::write::Writer;
    pub use super::Error;
}
