//! The self-describing data model carried across heterogeneous RPC.
//!
//! NSM interfaces pass arguments and results as [`Value`] trees: each query
//! class fixes a schema (see [`crate::idl`]) and every NSM for that class
//! returns results "in a format that is standard for that query class"
//! regardless of which underlying name service produced them.

use std::borrow::Cow;
use std::fmt;

use crate::error::{WireError, WireResult};

/// A dynamically typed wire value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// No value.
    Void,
    /// Boolean.
    Bool(bool),
    /// Unsigned 32-bit integer.
    U32(u32),
    /// Signed 32-bit integer.
    I32(i32),
    /// Unsigned 64-bit integer.
    U64(u64),
    /// UTF-8 string.
    Str(String),
    /// Opaque bytes.
    Bytes(Vec<u8>),
    /// Homogeneously-intended sequence (not enforced).
    List(Vec<Value>),
    /// Ordered named fields. Names the program writes are `'static`
    /// literals (no allocation per message); decoders produce owned ones.
    Struct(Vec<(Cow<'static, str>, Value)>),
    /// Optional value.
    Opt(Option<Box<Value>>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Builds a struct from `(name, value)` pairs. Passing an array
    /// (`Value::record([("k", v)])`) costs one allocation, the field
    /// vector itself.
    pub fn record(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Struct(
            fields
                .into_iter()
                .map(|(k, v)| (Cow::Borrowed(k), v))
                .collect(),
        )
    }

    /// Name of the variant, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Void => "void",
            Value::Bool(_) => "bool",
            Value::U32(_) => "u32",
            Value::I32(_) => "i32",
            Value::U64(_) => "u64",
            Value::Str(_) => "str",
            Value::Bytes(_) => "bytes",
            Value::List(_) => "list",
            Value::Struct(_) => "struct",
            Value::Opt(_) => "opt",
        }
    }

    /// Extracts a `u32`, or a type-mismatch error.
    pub fn as_u32(&self) -> WireResult<u32> {
        match self {
            Value::U32(v) => Ok(*v),
            other => Err(WireError::TypeMismatch {
                expected: "u32",
                found: other.kind(),
            }),
        }
    }

    /// Extracts a `u32` that must fit 16 bits (a port, a type code):
    /// one beyond is a type mismatch, not a value to truncate.
    pub fn as_u16(&self) -> WireResult<u16> {
        u16::try_from(self.as_u32()?).map_err(|_| WireError::TypeMismatch {
            expected: "u16",
            found: "u32",
        })
    }

    /// Extracts a `u64`.
    pub fn as_u64(&self) -> WireResult<u64> {
        match self {
            Value::U64(v) => Ok(*v),
            other => Err(WireError::TypeMismatch {
                expected: "u64",
                found: other.kind(),
            }),
        }
    }

    /// Extracts a `bool`.
    pub fn as_bool(&self) -> WireResult<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(WireError::TypeMismatch {
                expected: "bool",
                found: other.kind(),
            }),
        }
    }

    /// Extracts a string slice.
    pub fn as_str(&self) -> WireResult<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(WireError::TypeMismatch {
                expected: "str",
                found: other.kind(),
            }),
        }
    }

    /// Takes the string out, for a reader that keeps it.
    pub fn into_str(self) -> WireResult<String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(WireError::TypeMismatch {
                expected: "str",
                found: other.kind(),
            }),
        }
    }

    /// Extracts the byte payload.
    pub fn as_bytes(&self) -> WireResult<&[u8]> {
        match self {
            Value::Bytes(b) => Ok(b),
            other => Err(WireError::TypeMismatch {
                expected: "bytes",
                found: other.kind(),
            }),
        }
    }

    /// Extracts list elements.
    pub fn as_list(&self) -> WireResult<&[Value]> {
        match self {
            Value::List(items) => Ok(items),
            other => Err(WireError::TypeMismatch {
                expected: "list",
                found: other.kind(),
            }),
        }
    }

    /// Extracts struct fields.
    pub fn as_struct(&self) -> WireResult<&[(Cow<'static, str>, Value)]> {
        match self {
            Value::Struct(fields) => Ok(fields),
            other => Err(WireError::TypeMismatch {
                expected: "struct",
                found: other.kind(),
            }),
        }
    }

    /// Looks up a struct field by name.
    pub fn field(&self, name: &str) -> WireResult<&Value> {
        self.as_struct()?
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| WireError::FieldMissing(name.to_string()))
    }

    /// Convenience: string field of a struct.
    pub fn str_field(&self, name: &str) -> WireResult<&str> {
        self.field(name)?.as_str()
    }

    /// Convenience: u32 field of a struct.
    pub fn u32_field(&self, name: &str) -> WireResult<u32> {
        self.field(name)?.as_u32()
    }

    /// Convenience: 16-bit field of a struct (see [`Value::as_u16`]).
    pub fn u16_field(&self, name: &str) -> WireResult<u16> {
        self.field(name)?.as_u16()
    }

    /// Approximate serialized size in bytes, used by the network layer for
    /// per-byte charging.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Void => 1,
            Value::Bool(_) => 4,
            Value::U32(_) | Value::I32(_) => 4,
            Value::U64(_) => 8,
            Value::Str(s) => 4 + s.len(),
            Value::Bytes(b) => 4 + b.len(),
            Value::List(items) => 4 + items.iter().map(Value::approx_size).sum::<usize>(),
            Value::Struct(fields) => {
                4 + fields
                    .iter()
                    .map(|(k, v)| 4 + k.len() + v.approx_size())
                    .sum::<usize>()
            }
            Value::Opt(inner) => 4 + inner.as_deref().map_or(0, Value::approx_size),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Void => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::U32(v) => write!(f, "{v}"),
            Value::I32(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Struct(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Opt(None) => write!(f, "none"),
            Value::Opt(Some(inner)) => write!(f, "some({inner})"),
        }
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U32(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_succeed_on_matching_variant() {
        assert_eq!(Value::U32(7).as_u32().unwrap(), 7);
        assert_eq!(Value::U32(65_535).as_u16().unwrap(), 65_535);
        assert_eq!(Value::U64(8).as_u64().unwrap(), 8);
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(Value::str("hi").as_str().unwrap(), "hi");
        assert_eq!(Value::str("hi").into_str().unwrap(), "hi");
        assert!(Value::U32(1).into_str().is_err());
        assert_eq!(Value::Bytes(vec![1, 2]).as_bytes().unwrap(), &[1, 2]);
        assert_eq!(Value::List(vec![Value::Void]).as_list().unwrap().len(), 1);
    }

    #[test]
    fn accessors_fail_with_type_mismatch() {
        let err = Value::str("x").as_u32().unwrap_err();
        assert_eq!(
            err,
            WireError::TypeMismatch {
                expected: "u32",
                found: "str"
            }
        );
    }

    #[test]
    fn a_u32_beyond_sixteen_bits_is_refused_not_truncated() {
        let mismatch = WireError::TypeMismatch {
            expected: "u16",
            found: "u32",
        };
        assert_eq!(Value::U32(65_536).as_u16(), Err(mismatch.clone()));
        let rec = Value::record([("port", Value::U32(65_589))]);
        assert_eq!(rec.u16_field("port"), Err(mismatch));
    }

    #[test]
    fn struct_field_lookup() {
        let rec = Value::record([("host", Value::str("fiji")), ("port", Value::U32(111))]);
        assert_eq!(rec.str_field("host").unwrap(), "fiji");
        assert_eq!(rec.u32_field("port").unwrap(), 111);
        assert_eq!(
            rec.field("absent").unwrap_err(),
            WireError::FieldMissing("absent".to_string())
        );
    }

    #[test]
    fn approx_size_grows_with_content() {
        let small = Value::str("a");
        let big = Value::List(vec![Value::str("aaaa"); 10]);
        assert!(big.approx_size() > small.approx_size());
        assert_eq!(Value::U64(0).approx_size(), 8);
        assert_eq!(Value::Opt(None).approx_size(), 4);
    }

    #[test]
    fn display_round_trips_visually() {
        let rec = Value::record([
            ("name", Value::str("fiji")),
            ("addrs", Value::List(vec![Value::U32(1), Value::U32(2)])),
            ("extra", Value::Opt(None)),
        ]);
        let shown = rec.to_string();
        assert!(shown.contains("fiji"));
        assert!(shown.contains("[1, 2]"));
        assert!(shown.contains("none"));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3u32), Value::U32(3));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(String::from("t")), Value::str("t"));
    }

    #[test]
    fn kind_names() {
        assert_eq!(Value::Void.kind(), "void");
        assert_eq!(Value::Struct(vec![]).kind(), "struct");
        assert_eq!(Value::Opt(Some(Box::new(Value::Void))).kind(), "opt");
    }
}
