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

use std::any::Any;
use std::borrow::Cow;

use crate::error::WireResult;
use crate::format::WireFormat;
use crate::value::Value;

/// The fabric's unit of exchange.
pub trait Message: Any {
    /// Exact length of `format.encode(&self.tree())`, failing exactly
    /// when that would, without building the tree.
    fn encoded_len(&self, format: WireFormat) -> WireResult<usize>;

    /// The message as a tree, for a peer that does not know its type.
    fn tree(&self) -> Cow<'_, Value>;
}

impl dyn Message {
    /// The message as a `T`, if that is what it is.
    pub fn downcast_ref<T: Message>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref()
    }

    /// The message itself as a `T`; handed back if it is something else.
    #[expect(
        clippy::expect_used,
        reason = "the type was checked on the line before"
    )]
    pub fn downcast<T: Message>(self: Box<Self>) -> Result<T, Box<dyn Message>> {
        if self.downcast_ref::<T>().is_none() {
            return Err(self);
        }
        let any: Box<dyn Any> = self;
        Ok(*any.downcast::<T>().expect("checked to be a T"))
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

    /// A struct of named fields.
    fn record<const N: usize>(&self, fields: [(&'static str, Self::Out); N]) -> Self::Out;
}

/// A message that describes itself once, for every [`Shape`] to read.
/// Implementing it is implementing [`Message`].
pub trait Shaped {
    /// The message, piece by piece.
    fn shape<S: Shape>(&self, s: &S) -> S::Out;
}

impl<T: Shaped + Any> Message for T {
    fn encoded_len(&self, format: WireFormat) -> WireResult<usize> {
        format.shaped_len(self)
    }

    fn tree(&self) -> Cow<'_, Value> {
        Cow::Owned(self.shape(&Tree))
    }
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

    fn record<const N: usize>(&self, fields: [(&'static str, Value); N]) -> Value {
        Value::record(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WireError;

    /// Every kind of piece, and a string the caller sizes.
    #[derive(Debug, Clone, PartialEq)]
    struct Sample {
        text: String,
        items: Vec<u32>,
    }

    /// A carried tree of every kind of node.
    fn carried() -> Value {
        Value::record([
            ("opt", Value::Opt(Some(Box::new(Value::I32(-1))))),
            ("none", Value::Opt(None)),
            ("void", Value::Void),
        ])
    }

    impl Shaped for Sample {
        fn shape<S: Shape>(&self, s: &S) -> S::Out {
            s.record([
                ("text", s.str(&self.text)),
                ("blob", s.bytes(3, |out| out.extend_from_slice(b"abc"))),
                ("items", s.list(self.items.iter(), |v| s.u32(*v))),
                ("flag", s.bool(true)),
                ("wide", s.u64(u64::MAX)),
                ("carried", s.value(&carried())),
            ])
        }
    }

    fn sample(text_len: usize) -> Sample {
        Sample {
            text: "x".repeat(text_len),
            items: vec![1, 2, 3],
        }
    }

    #[test]
    fn a_shape_read_as_a_tree_is_the_value_written_by_hand() {
        let by_hand = Value::record([
            ("text", Value::str("xx")),
            ("blob", Value::Bytes(b"abc".to_vec())),
            (
                "items",
                Value::List(vec![Value::U32(1), Value::U32(2), Value::U32(3)]),
            ),
            ("flag", Value::Bool(true)),
            ("wide", Value::U64(u64::MAX)),
            ("carried", carried()),
        ]);
        assert_eq!(sample(2).tree().into_owned(), by_hand);
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
        };
        assert_eq!(
            many.encoded_len(WireFormat::Courier),
            WireFormat::Courier.encode(&many.tree()).map(|b| b.len())
        );
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
        let msg = msg.downcast::<Value>().expect_err("not a value");
        assert_eq!(
            msg.downcast::<Sample>().ok().map(|s| s.items.len()),
            Some(3)
        );
    }

    /// A typed peer reads the sender's struct as it is, and decodes the
    /// tree of a sender that sent one — with the decoder's own error.
    #[test]
    fn read_lends_the_struct_and_decodes_a_tree() {
        let decode = |v: &Value| -> Result<Sample, &'static str> {
            let text = v.str_field("text").map_err(|_| "no text")?;
            Ok(Sample {
                text: text.to_string(),
                items: vec![1, 2, 3],
            })
        };
        let typed = sample(2);
        let msg: &dyn Message = &typed;
        assert!(matches!(msg.read(decode), Ok(Cow::Borrowed(s)) if std::ptr::eq(s, &typed)));
        let tree = typed.tree().into_owned();
        let msg: &dyn Message = &tree;
        assert!(matches!(msg.read(decode), Ok(Cow::Owned(s)) if s == typed));
        let msg: &dyn Message = &Value::U32(7);
        assert_eq!(msg.read(decode), Err("no text"));
    }
}
