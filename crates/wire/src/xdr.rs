//! XDR-style encoding (the Sun RPC data representation).
//!
//! Everything is carried in big-endian 32-bit units; opaque data and strings
//! are length-prefixed and padded to a 4-byte boundary, as in Sun's external
//! data representation. Values are self-describing: each is preceded by a
//! type tag so heterogeneous peers can decode without a shared stub.

use crate::error::{WireError, WireResult};
use crate::value::Value;

/// Sanity limit on any declared length (strings, lists, structs).
pub const MAX_LEN: usize = 1 << 24;

const TAG_VOID: u32 = 0;
const TAG_BOOL: u32 = 1;
const TAG_U32: u32 = 2;
const TAG_I32: u32 = 3;
const TAG_U64: u32 = 4;
const TAG_STR: u32 = 5;
const TAG_BYTES: u32 = 6;
const TAG_LIST: u32 = 7;
const TAG_STRUCT: u32 = 8;
const TAG_OPT: u32 = 9;

/// Encodes `value` into XDR bytes.
pub fn encode(value: &Value) -> WireResult<Vec<u8>> {
    let mut out = Vec::with_capacity(value.approx_size() + 16);
    encode_into(value, &mut out)?;
    Ok(out)
}

/// Encodes `value`, appending to `out`.
pub fn encode_into(value: &Value, out: &mut Vec<u8>) -> WireResult<()> {
    match value {
        Value::Void => put_u32(out, TAG_VOID),
        Value::Bool(b) => {
            put_u32(out, TAG_BOOL);
            put_u32(out, u32::from(*b));
        }
        Value::U32(v) => {
            put_u32(out, TAG_U32);
            put_u32(out, *v);
        }
        Value::I32(v) => {
            put_u32(out, TAG_I32);
            put_u32(out, *v as u32);
        }
        Value::U64(v) => {
            put_u32(out, TAG_U64);
            put_u32(out, (*v >> 32) as u32);
            put_u32(out, *v as u32);
        }
        Value::Str(s) => {
            put_u32(out, TAG_STR);
            put_opaque(out, s.as_bytes())?;
        }
        Value::Bytes(b) => {
            put_u32(out, TAG_BYTES);
            put_opaque(out, b)?;
        }
        Value::List(items) => {
            put_u32(out, TAG_LIST);
            put_len(out, items.len())?;
            for item in items {
                encode_into(item, out)?;
            }
        }
        Value::Struct(fields) => {
            put_u32(out, TAG_STRUCT);
            put_len(out, fields.len())?;
            for (name, v) in fields {
                put_opaque(out, name.as_bytes())?;
                encode_into(v, out)?;
            }
        }
        Value::Opt(inner) => {
            put_u32(out, TAG_OPT);
            match inner {
                None => put_u32(out, 0),
                Some(v) => {
                    put_u32(out, 1);
                    encode_into(v, out)?;
                }
            }
        }
    }
    Ok(())
}

/// Exact length of [`encode`]'s output for `value`, without allocating.
///
/// Performs the same length validation as encoding, so it fails with
/// [`WireError::Oversize`] exactly when [`encode`] would.
pub fn encoded_len(value: &Value) -> WireResult<usize> {
    Ok(match value {
        Value::Void => 4,
        Value::Bool(_) | Value::U32(_) | Value::I32(_) => 8,
        Value::U64(_) => 12,
        Value::Str(s) => 4 + opaque_len(s.len())?,
        Value::Bytes(b) => 4 + opaque_len(b.len())?,
        Value::List(items) => {
            check_len(items.len())?;
            let mut total = 8;
            for item in items {
                total += encoded_len(item)?;
            }
            total
        }
        Value::Struct(fields) => {
            check_len(fields.len())?;
            let mut total = 8;
            for (name, v) in fields {
                total += opaque_len(name.len())? + encoded_len(v)?;
            }
            total
        }
        Value::Opt(inner) => match inner {
            None => 8,
            Some(v) => 8 + encoded_len(v)?,
        },
    })
}

fn check_len(len: usize) -> WireResult<()> {
    if len > MAX_LEN {
        return Err(WireError::Oversize(len));
    }
    Ok(())
}

fn opaque_len(len: usize) -> WireResult<usize> {
    check_len(len)?;
    Ok(4 + len + (4 - len % 4) % 4)
}

/// Decodes a single value, requiring the input to be fully consumed.
pub fn decode(bytes: &[u8]) -> WireResult<Value> {
    let mut cur = Cursor::new(bytes);
    let v = cur.read_value()?;
    if cur.remaining() != 0 {
        return Err(WireError::TrailingBytes(cur.remaining()));
    }
    Ok(v)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_len(out: &mut Vec<u8>, len: usize) -> WireResult<()> {
    if len > MAX_LEN {
        return Err(WireError::Oversize(len));
    }
    put_u32(out, len as u32);
    Ok(())
}

fn put_opaque(out: &mut Vec<u8>, data: &[u8]) -> WireResult<()> {
    put_len(out, data.len())?;
    out.extend_from_slice(data);
    let pad = (4 - data.len() % 4) % 4;
    out.extend(std::iter::repeat_n(0u8, pad));
    Ok(())
}

/// A decoding cursor over XDR bytes.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn read_u32(&mut self) -> WireResult<u32> {
        if self.remaining() < 4 {
            return Err(WireError::Truncated);
        }
        let v = u32::from_be_bytes(
            self.bytes[self.pos..self.pos + 4]
                .try_into()
                .expect("slice of length 4"),
        );
        self.pos += 4;
        Ok(v)
    }

    fn read_opaque(&mut self) -> WireResult<Vec<u8>> {
        let len = self.read_u32()? as usize;
        if len > MAX_LEN {
            return Err(WireError::Oversize(len));
        }
        let padded = len + (4 - len % 4) % 4;
        if self.remaining() < padded {
            return Err(WireError::Truncated);
        }
        let data = self.bytes[self.pos..self.pos + len].to_vec();
        self.pos += padded;
        Ok(data)
    }

    fn read_string(&mut self) -> WireResult<String> {
        String::from_utf8(self.read_opaque()?).map_err(|_| WireError::BadUtf8)
    }

    /// Reads one self-describing value.
    pub fn read_value(&mut self) -> WireResult<Value> {
        let tag = self.read_u32()?;
        match tag {
            TAG_VOID => Ok(Value::Void),
            TAG_BOOL => Ok(Value::Bool(self.read_u32()? != 0)),
            TAG_U32 => Ok(Value::U32(self.read_u32()?)),
            TAG_I32 => Ok(Value::I32(self.read_u32()? as i32)),
            TAG_U64 => {
                let hi = self.read_u32()? as u64;
                let lo = self.read_u32()? as u64;
                Ok(Value::U64((hi << 32) | lo))
            }
            TAG_STR => Ok(Value::Str(self.read_string()?)),
            TAG_BYTES => Ok(Value::Bytes(self.read_opaque()?)),
            TAG_LIST => {
                let n = self.read_u32()? as usize;
                if n > MAX_LEN {
                    return Err(WireError::Oversize(n));
                }
                // Every element carries at least a 4-byte tag, so a count
                // the remaining bytes cannot satisfy is a truncation —
                // rejected before allocating (length-prefix bomb defence).
                if n > self.remaining() / 4 {
                    return Err(WireError::Truncated);
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.read_value()?);
                }
                Ok(Value::List(items))
            }
            TAG_STRUCT => {
                let n = self.read_u32()? as usize;
                if n > MAX_LEN {
                    return Err(WireError::Oversize(n));
                }
                // A field needs a 4-byte name length plus a 4-byte value
                // tag at minimum; bound the claim by the bytes on hand.
                if n > self.remaining() / 8 {
                    return Err(WireError::Truncated);
                }
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = self.read_string()?;
                    let v = self.read_value()?;
                    fields.push((name.into(), v));
                }
                Ok(Value::Struct(fields))
            }
            TAG_OPT => {
                let present = self.read_u32()?;
                if present == 0 {
                    Ok(Value::Opt(None))
                } else {
                    Ok(Value::Opt(Some(Box::new(self.read_value()?))))
                }
            }
            other => Err(WireError::BadTag((other & 0xFF) as u8)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn roundtrip(v: &Value) {
        let bytes = encode(v).expect("encode");
        let back = decode(&bytes).expect("decode");
        assert_eq!(&back, v);
        assert_eq!(encoded_len(v).expect("len"), bytes.len());
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&Value::Void);
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Bool(false));
        roundtrip(&Value::U32(0xDEAD_BEEF));
        roundtrip(&Value::I32(-12345));
        roundtrip(&Value::U64(u64::MAX));
    }

    #[test]
    fn strings_and_bytes_roundtrip_with_padding() {
        for len in 0..9 {
            roundtrip(&Value::Str("x".repeat(len)));
            roundtrip(&Value::Bytes(vec![0xAB; len]));
        }
        roundtrip(&Value::str("fiji.cs.washington.edu"));
    }

    #[test]
    fn padded_length_is_multiple_of_four() {
        let bytes = encode(&Value::str("abc")).expect("encode");
        assert_eq!(bytes.len() % 4, 0);
        let bytes = encode(&Value::str("abcd")).expect("encode");
        assert_eq!(bytes.len() % 4, 0);
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Value::record([
            ("host", Value::str("fiji")),
            (
                "addrs",
                Value::List(vec![Value::U32(1), Value::U32(2), Value::U32(3)]),
            ),
            ("alias", Value::Opt(Some(Box::new(Value::str("f"))))),
            ("none", Value::Opt(None)),
            ("blob", Value::Bytes(vec![1, 2, 3, 4, 5])),
        ]);
        roundtrip(&v);
    }

    #[test]
    fn truncated_input_is_detected() {
        let bytes = encode(&Value::str("hello world")).expect("encode");
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).expect_err("must fail");
            assert!(
                matches!(err, WireError::Truncated | WireError::BadTag(_)),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&Value::U32(1)).expect("encode");
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(decode(&bytes), Err(WireError::TrailingBytes(4)));
    }

    #[test]
    fn bad_tag_is_rejected() {
        let bytes = 99u32.to_be_bytes().to_vec();
        assert_eq!(decode(&bytes), Err(WireError::BadTag(99)));
    }

    #[test]
    fn bad_utf8_is_rejected() {
        // Hand-assemble: tag STR, len 2, bytes [0xFF, 0xFE], padded.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&5u32.to_be_bytes());
        bytes.extend_from_slice(&2u32.to_be_bytes());
        bytes.extend_from_slice(&[0xFF, 0xFE, 0, 0]);
        assert_eq!(decode(&bytes), Err(WireError::BadUtf8));
    }

    #[test]
    fn oversize_length_rejected_without_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u32.to_be_bytes()); // list tag
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(decode(&bytes), Err(WireError::Oversize(_))));
    }

    #[test]
    fn length_bomb_rejected_before_allocation() {
        // A list claiming 2^20 items backed by zero bytes: the claim must
        // be rejected as truncation, not pre-allocated even partially.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u32.to_be_bytes());
        bytes.extend_from_slice(&(1u32 << 20).to_be_bytes());
        assert_eq!(decode(&bytes), Err(WireError::Truncated));

        // Same for a struct field-count bomb.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&8u32.to_be_bytes());
        bytes.extend_from_slice(&(1u32 << 20).to_be_bytes());
        assert_eq!(decode(&bytes), Err(WireError::Truncated));

        // A claim the remaining bytes almost — but not quite — satisfy.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u32.to_be_bytes());
        bytes.extend_from_slice(&3u32.to_be_bytes());
        bytes.extend_from_slice(&encode(&Value::Void).expect("encode"));
        bytes.extend_from_slice(&encode(&Value::Void).expect("encode"));
        assert_eq!(decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn deep_nesting_roundtrips() {
        let mut v = Value::U32(1);
        for _ in 0..100 {
            v = Value::List(vec![v]);
        }
        roundtrip(&v);
    }
}
