//! Messages cross the fabric as what they are.
//!
//! The fabric never serialises (the self-describing encodings round-trip
//! losslessly, so it charges for the exact datagram length and hands the
//! caller's data to the server), which leaves a [`Value`] tree as pure
//! overhead between two peers that both know the struct it was built
//! from. A [`Message`] is what the fabric needs of its unit of exchange
//! instead, three duties:
//!
//! 1. state its exact encoded length under a [`WireFormat`] without
//!    building anything — every charge is computed from it;
//! 2. yield its tree for a peer that wants one;
//! 3. be recognisable by a typed peer (`Any`).
//!
//! [`Value`] is the first implementor: its tree is itself, borrowed. A
//! typed message writes its [`Shaped::shape`] once; read by [`Tree`] that
//! description builds the value, read by the codec's sizer it gives the
//! length, so the two cannot drift.
//!
//! A plain record goes one step further: [`crate::record!`] reads its field
//! list — each field a [`Field`] — as its shape and as its tree decoder,
//! so the struct is described once, as HRPC's stubs were generated from
//! one interface description.

use std::any::Any;
use std::borrow::Cow;
use std::sync::Arc;

use crate::error::{WireError, WireResult};
use crate::format::WireFormat;
use crate::value::Value;

/// The fabric's unit of exchange.
pub trait Message: Any {
    /// Exact length of `format.encode(&self.tree())`, failing exactly
    /// when that would, without building the tree.
    fn encoded_len(&self, format: WireFormat) -> WireResult<usize>;

    /// The message as a tree, for a peer that does not know its type.
    fn tree(&self) -> Cow<'_, Value>;

    /// The message made into its tree: a tree is itself, moved.
    fn into_tree(self) -> Value
    where
        Self: Sized,
    {
        self.tree().into_owned()
    }
}

impl dyn Message {
    /// The message as a `T`, if that is what it is.
    pub fn downcast_ref<T: Message>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref()
    }

    /// The message as the `T` a typed peer reads: the sender's own struct
    /// if that is what it sent, else `decode`d from its tree — the edge
    /// where an untyped peer's message is decoded, once.
    pub fn read<T: Message + Clone, E>(
        &self,
        decode: impl FnOnce(&Value) -> Result<T, E>,
    ) -> Result<Cow<'_, T>, E> {
        match self.downcast_ref::<T>() {
            Some(typed) => Ok(Cow::Borrowed(typed)),
            None => decode(&self.tree()).map(Cow::Owned),
        }
    }
}

impl Message for Value {
    fn encoded_len(&self, format: WireFormat) -> WireResult<usize> {
        format.encoded_len(self)
    }

    fn tree(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }

    fn into_tree(self) -> Value {
        self
    }
}

/// A reading of a message's shape: what each piece of it becomes.
/// [`Tree`] builds the value; the codec's sizer adds up its encoded
/// length.
pub trait Shape {
    /// What a piece becomes.
    type Out;

    /// A boolean.
    fn bool(&self, b: bool) -> Self::Out;

    /// An unsigned 32-bit integer.
    fn u32(&self, v: u32) -> Self::Out;

    /// An unsigned 64-bit integer.
    fn u64(&self, v: u64) -> Self::Out;

    /// A string.
    fn str(&self, s: &str) -> Self::Out;

    /// A tree the message carries as it is (a Clearinghouse item: opaque
    /// to everything but its reader).
    fn value(&self, v: &Value) -> Self::Out;

    /// Opaque data of `len` bytes, which `write` appends.
    fn bytes(&self, len: usize, write: impl FnOnce(&mut Vec<u8>)) -> Self::Out;

    /// A list of what `each` makes of every item.
    fn list<T>(
        &self,
        items: impl ExactSizeIterator<Item = T>,
        each: impl FnMut(T) -> Self::Out,
    ) -> Self::Out;

    /// An optional piece.
    fn opt(&self, inner: Option<Self::Out>) -> Self::Out;

    /// A struct of named fields.
    fn record<const N: usize>(&self, fields: [(&'static str, Self::Out); N]) -> Self::Out;
}

/// A message that describes itself once, for every [`Shape`] to read.
/// Implementing it is implementing [`Message`].
pub trait Shaped {
    /// The message, piece by piece.
    fn shape<S: Shape>(&self, s: &S) -> S::Out;

    /// The message made into its tree, what [`Message::into_tree`] gives:
    /// its shape read by [`Tree`] unless it can move its pieces in, as a
    /// [`crate::record!`] moves each field ([`Field::into_value`]).
    fn into_shaped_tree(self) -> Value
    where
        Self: Sized,
    {
        self.shape(&Tree)
    }
}

impl<T: Shaped + Any> Message for T {
    fn encoded_len(&self, format: WireFormat) -> WireResult<usize> {
        format.shaped_len(self)
    }

    fn tree(&self) -> Cow<'_, Value> {
        Cow::Owned(self.shape(&Tree))
    }

    fn into_tree(self) -> Value {
        self.into_shaped_tree()
    }
}

/// One field of a record: how it is shaped, how it is moved into a tree,
/// and how it is read back from an untyped peer's tree.
pub trait Field: Sized {
    /// The field, for `s` to read.
    fn shape<S: Shape>(&self, s: &S) -> S::Out;

    /// The field made into its piece of a tree: the piece its shape
    /// builds, unless it owns what that piece holds and moves it in.
    fn into_value(self) -> Value {
        self.shape(&Tree)
    }

    /// The field decoded from `v`: refused with the accessor's error when
    /// `v` is of another kind, with [`WireError::Refused`] when this type
    /// refuses what it holds.
    fn read(v: &Value) -> WireResult<Self>;
}

/// A number or a flag: its own piece of the shape, read by its accessor.
macro_rules! scalar_fields {
    ($($ty:ty => $piece:ident, $accessor:ident;)+) => {$(
        impl Field for $ty {
            fn shape<S: Shape>(&self, s: &S) -> S::Out {
                s.$piece(*self)
            }

            fn read(v: &Value) -> WireResult<$ty> {
                v.$accessor()
            }
        }
    )+};
}

scalar_fields! {
    u32 => u32, as_u32;
    u64 => u64, as_u64;
    bool => bool, as_bool;
}

impl Field for String {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.str(self)
    }

    fn into_value(self) -> Value {
        Value::Str(self)
    }

    fn read(v: &Value) -> WireResult<String> {
        v.as_str().map(str::to_string)
    }
}

/// A tree carried as it is.
impl Field for Value {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.value(self)
    }

    fn into_value(self) -> Value {
        self
    }

    fn read(v: &Value) -> WireResult<Value> {
        Ok(v.clone())
    }
}

impl<T: Field> Field for Vec<T> {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.list(self.iter(), |item| item.shape(s))
    }

    fn into_value(self) -> Value {
        Value::List(self.into_iter().map(T::into_value).collect())
    }

    fn read(v: &Value) -> WireResult<Vec<T>> {
        v.as_list()?.iter().map(T::read).collect()
    }
}

/// A shared field crosses as what it shares; read from a tree, it is
/// shared by nobody yet.
impl<T: Field + Clone> Field for Arc<T> {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        (**self).shape(s)
    }

    fn into_value(self) -> Value {
        Arc::unwrap_or_clone(self).into_value()
    }

    fn read(v: &Value) -> WireResult<Arc<T>> {
        T::read(v).map(Arc::new)
    }
}

impl<T: Field> Field for Option<T> {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.opt(self.as_ref().map(|inner| inner.shape(s)))
    }

    fn into_value(self) -> Value {
        Value::Opt(self.map(|inner| Box::new(inner.into_value())))
    }

    fn read(v: &Value) -> WireResult<Option<T>> {
        match v {
            Value::Opt(inner) => inner.as_deref().map(T::read).transpose(),
            other => Err(WireError::TypeMismatch {
                expected: "opt",
                found: other.kind(),
            }),
        }
    }
}

/// Describes a struct once, as the record of its fields in wire order —
/// `record!(Type { field, field: "wire_name" })`, a field's wire name
/// being its own unless given — and reads that one list four ways: as
/// the struct's [`Shaped::shape`], as its [`Shaped::into_shaped_tree`]
/// (each field moved in by [`Field::into_value`]), as its [`Field`] (so
/// records nest), and as its `from_value`, the decoder of an untyped
/// peer's tree. Each
/// field's type must be a [`Field`]; a missing or wrongly kinded field is
/// refused with the error of the [`Value`] accessor that found it.
#[macro_export]
macro_rules! record {
    ($ty:ident { $($field:ident $(: $wire:literal)?),+ $(,)? }) => {
        impl $crate::message::Shaped for $ty {
            fn shape<S: $crate::message::Shape>(&self, s: &S) -> S::Out {
                s.record([$((
                    $crate::record!(@wire $field $($wire)?),
                    $crate::message::Field::shape(&self.$field, s),
                )),+])
            }

            fn into_shaped_tree(self) -> $crate::Value {
                $crate::Value::record([$((
                    $crate::record!(@wire $field $($wire)?),
                    $crate::message::Field::into_value(self.$field),
                )),+])
            }
        }

        impl $crate::message::Field for $ty {
            fn shape<S: $crate::message::Shape>(&self, s: &S) -> S::Out {
                $crate::message::Shaped::shape(self, s)
            }

            fn into_value(self) -> $crate::Value {
                $crate::message::Shaped::into_shaped_tree(self)
            }

            fn read(v: &$crate::Value) -> $crate::WireResult<$ty> {
                ::core::result::Result::Ok($ty {$(
                    $field: $crate::message::Field::read(
                        v.field($crate::record!(@wire $field $($wire)?))?,
                    )?,
                )+})
            }
        }

        impl $ty {
            /// Decodes an untyped peer's tree, field by field.
            pub fn from_value(v: &$crate::Value) -> $crate::WireResult<$ty> {
                <$ty as $crate::message::Field>::read(v)
            }
        }
    };
    (@wire $field:ident) => {
        stringify!($field)
    };
    (@wire $field:ident $wire:literal) => {
        $wire
    };
}

/// The reading that builds the tree.
#[derive(Debug, Clone, Copy)]
pub struct Tree;

impl Shape for Tree {
    type Out = Value;

    fn bool(&self, b: bool) -> Value {
        Value::Bool(b)
    }

    fn u32(&self, v: u32) -> Value {
        Value::U32(v)
    }

    fn u64(&self, v: u64) -> Value {
        Value::U64(v)
    }

    fn str(&self, s: &str) -> Value {
        Value::str(s)
    }

    fn value(&self, v: &Value) -> Value {
        v.clone()
    }

    fn bytes(&self, len: usize, write: impl FnOnce(&mut Vec<u8>)) -> Value {
        let mut data = Vec::with_capacity(len);
        write(&mut data);
        debug_assert_eq!(data.len(), len, "a shape states the length it writes");
        Value::Bytes(data)
    }

    fn list<T>(
        &self,
        items: impl ExactSizeIterator<Item = T>,
        each: impl FnMut(T) -> Value,
    ) -> Value {
        Value::List(items.map(each).collect())
    }

    fn opt(&self, inner: Option<Value>) -> Value {
        Value::Opt(inner.map(Box::new))
    }

    fn record<const N: usize>(&self, fields: [(&'static str, Value); N]) -> Value {
        Value::record(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Opaque data: a field with a rule of its own, written by hand.
    #[derive(Debug, Clone, PartialEq)]
    struct Blob(Vec<u8>);

    impl Field for Blob {
        fn shape<S: Shape>(&self, s: &S) -> S::Out {
            s.bytes(self.0.len(), |out| out.extend_from_slice(&self.0))
        }

        fn read(v: &Value) -> WireResult<Blob> {
            v.as_bytes().map(|b| Blob(b.to_vec()))
        }
    }

    /// A record nested in another.
    #[derive(Debug, Clone, PartialEq)]
    struct Inner {
        count: u32,
    }

    crate::record!(Inner { count });

    /// Every kind of field — one renamed on the wire, one a nested
    /// record — and a string the caller sizes.
    #[derive(Debug, Clone, PartialEq)]
    struct Sample {
        text: String,
        blob: Blob,
        items: Vec<u32>,
        flag: bool,
        wide: u64,
        carried: Value,
        maybe: Option<String>,
        absent: Option<String>,
        inner: Inner,
    }

    crate::record!(Sample {
        text,
        blob,
        items: "list",
        flag,
        wide,
        carried,
        maybe,
        absent,
        inner,
    });

    /// A carried tree of every kind of node.
    fn carried() -> Value {
        Value::record([
            ("opt", Value::Opt(Some(Box::new(Value::I32(-1))))),
            ("none", Value::Opt(None)),
            ("void", Value::Void),
        ])
    }

    fn sample(text_len: usize) -> Sample {
        let text = "x".repeat(text_len);
        Sample {
            maybe: Some(text.clone()),
            text,
            blob: Blob(b"abc".to_vec()),
            items: vec![1, 2, 3],
            flag: true,
            wide: u64::MAX,
            carried: carried(),
            absent: None,
            inner: Inner { count: 7 },
        }
    }

    /// `sample(2)`, written by hand.
    fn by_hand() -> Value {
        Value::record([
            ("text", Value::str("xx")),
            ("blob", Value::Bytes(b"abc".to_vec())),
            (
                "list",
                Value::List(vec![Value::U32(1), Value::U32(2), Value::U32(3)]),
            ),
            ("flag", Value::Bool(true)),
            ("wide", Value::U64(u64::MAX)),
            ("carried", carried()),
            ("maybe", Value::Opt(Some(Box::new(Value::str("xx"))))),
            ("absent", Value::Opt(None)),
            ("inner", Value::record([("count", Value::U32(7))])),
        ])
    }

    /// `tree` with its field `name` set to `value`, or dropped for none.
    fn with(tree: &Value, name: &str, value: Option<Value>) -> Value {
        let fields = tree.as_struct().expect("a record").iter();
        let kept = fields.filter_map(|(k, v)| match k == name {
            false => Some((k.clone(), v.clone())),
            true => value.clone().map(|value| (k.clone(), value)),
        });
        Value::Struct(kept.collect())
    }

    #[test]
    fn a_shape_read_as_a_tree_is_the_value_written_by_hand() {
        assert_eq!(sample(2).tree().into_owned(), by_hand());
        assert_eq!(Sample::from_value(&by_hand()), Ok(sample(2)));
    }

    #[test]
    fn a_shape_read_as_a_length_is_the_length_of_its_encoded_tree() {
        for format in [WireFormat::Xdr, WireFormat::Courier] {
            for text_len in 0..9 {
                let msg = sample(text_len);
                let bytes = format.encode(&msg.tree()).expect("encodes");
                assert_eq!(msg.encoded_len(format), Ok(bytes.len()), "{format}");
            }
        }
    }

    #[test]
    fn a_length_is_refused_exactly_when_encoding_is() {
        let over = crate::courier::MAX_LEN + 1;
        let long = sample(over);
        assert_eq!(
            long.encoded_len(WireFormat::Courier),
            Err(WireError::Oversize(over))
        );
        assert_eq!(
            WireFormat::Courier.encode(&long.tree()),
            Err(WireError::Oversize(over))
        );
        assert!(long.encoded_len(WireFormat::Xdr).is_ok());
        let many = Sample {
            text: String::new(),
            items: vec![0; over],
            ..sample(0)
        };
        assert_eq!(
            many.encoded_len(WireFormat::Courier),
            WireFormat::Courier.encode(&many.tree()).map(|b| b.len())
        );
    }

    /// A field that is missing — at the top, under its wire name, or in
    /// the nested record — or of the wrong kind is refused with the error
    /// the accessor that found it gives.
    #[test]
    fn a_missing_or_wrongly_kinded_field_is_refused_as_the_accessor_refuses_it() {
        let tree = by_hand();
        for name in ["wide", "list", "absent"] {
            let bad = with(&tree, name, None);
            assert_eq!(Sample::from_value(&bad), Err(bad.field(name).unwrap_err()));
        }
        let inner = Value::record([("n", Value::U32(7))]);
        let missing = inner.field("count").unwrap_err();
        assert_eq!(Inner::from_value(&inner), Err(missing.clone()));
        let bad = with(&tree, "inner", Some(inner));
        assert_eq!(Sample::from_value(&bad), Err(missing));
        let (one, text) = (Value::U32(1), Value::str("1"));
        for (name, wrong, refusal) in [
            ("wide", one.clone(), one.as_u64().unwrap_err()),
            ("flag", one.clone(), one.as_bool().unwrap_err()),
            ("text", one.clone(), one.as_str().unwrap_err()),
            ("blob", one.clone(), one.as_bytes().unwrap_err()),
            ("inner", one.clone(), one.as_struct().unwrap_err()),
            (
                "list",
                Value::List(vec![text.clone()]),
                text.as_u32().unwrap_err(),
            ),
            (
                "maybe",
                text,
                WireError::TypeMismatch {
                    expected: "opt",
                    found: "str",
                },
            ),
        ] {
            let bad = with(&tree, name, Some(wrong));
            assert_eq!(Sample::from_value(&bad), Err(refusal), "{name}");
        }
    }

    #[test]
    fn a_value_is_its_own_tree_and_a_typed_peer_finds_the_struct() {
        let value = Value::str("ping");
        assert!(matches!(value.tree(), Cow::Borrowed(v) if std::ptr::eq(v, &value)));
        assert_eq!(
            Message::encoded_len(&value, WireFormat::Xdr),
            WireFormat::Xdr.encoded_len(&value)
        );

        let msg: Box<dyn Message> = Box::new(sample(1));
        assert!(msg.downcast_ref::<Value>().is_none());
        assert_eq!(msg.downcast_ref::<Sample>().map(|s| s.text.len()), Some(1));
        assert!(matches!(sample(1).into_tree(), Value::Struct(_)));
        assert_eq!(value.clone().into_tree(), value);
    }

    /// A typed peer reads the sender's struct as it is, and decodes the
    /// tree of a sender that sent one — with the decoder's own error.
    #[test]
    fn read_lends_the_struct_and_decodes_a_tree() {
        let typed = sample(2);
        let msg: &dyn Message = &typed;
        let read = msg.read(Sample::from_value);
        assert!(matches!(read, Ok(Cow::Borrowed(s)) if std::ptr::eq(s, &typed)));
        let tree = typed.tree().into_owned();
        let msg: &dyn Message = &tree;
        assert!(matches!(msg.read(Sample::from_value), Ok(Cow::Owned(s)) if s == typed));
        let msg: &dyn Message = &Value::U32(7);
        assert_eq!(
            msg.read(Sample::from_value).err(),
            Value::U32(7).as_struct().err()
        );
    }
}
