//! Courier-style encoding (the Xerox data representation).
//!
//! Courier carries data in big-endian 16-bit words; strings and opaque data
//! are length-prefixed with a 16-bit count and padded to an even byte
//! boundary. As with [`crate::xdr`], values are self-describing.

use crate::error::{WireError, WireResult};
use crate::value::Value;

/// Courier lengths are 16-bit, so no field may exceed this.
pub const MAX_LEN: usize = u16::MAX as usize;

const TAG_VOID: u16 = 0;
const TAG_BOOL: u16 = 1;
const TAG_U32: u16 = 2;
const TAG_I32: u16 = 3;
const TAG_U64: u16 = 4;
const TAG_STR: u16 = 5;
const TAG_BYTES: u16 = 6;
const TAG_LIST: u16 = 7;
const TAG_STRUCT: u16 = 8;
const TAG_OPT: u16 = 9;

/// Encodes `value` into Courier bytes.
pub fn encode(value: &Value) -> WireResult<Vec<u8>> {
    let mut out = Vec::with_capacity(value.approx_size() + 8);
    encode_into(value, &mut out)?;
    Ok(out)
}

/// Encodes `value`, appending to `out`.
pub fn encode_into(value: &Value, out: &mut Vec<u8>) -> WireResult<()> {
    match value {
        Value::Void => put_u16(out, TAG_VOID),
        Value::Bool(b) => {
            put_u16(out, TAG_BOOL);
            put_u16(out, u16::from(*b));
        }
        Value::U32(v) => {
            put_u16(out, TAG_U32);
            put_u32(out, *v);
        }
        Value::I32(v) => {
            put_u16(out, TAG_I32);
            put_u32(out, *v as u32);
        }
        Value::U64(v) => {
            put_u16(out, TAG_U64);
            put_u32(out, (*v >> 32) as u32);
            put_u32(out, *v as u32);
        }
        Value::Str(s) => {
            put_u16(out, TAG_STR);
            put_opaque(out, s.as_bytes())?;
        }
        Value::Bytes(b) => {
            put_u16(out, TAG_BYTES);
            put_opaque(out, b)?;
        }
        Value::List(items) => {
            put_u16(out, TAG_LIST);
            put_len(out, items.len())?;
            for item in items {
                encode_into(item, out)?;
            }
        }
        Value::Struct(fields) => {
            put_u16(out, TAG_STRUCT);
            put_len(out, fields.len())?;
            for (name, v) in fields {
                put_opaque(out, name.as_bytes())?;
                encode_into(v, out)?;
            }
        }
        Value::Opt(inner) => {
            put_u16(out, TAG_OPT);
            match inner {
                None => put_u16(out, 0),
                Some(v) => {
                    put_u16(out, 1);
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
        Value::Void => 2,
        Value::Bool(_) => 4,
        Value::U32(_) | Value::I32(_) => 6,
        Value::U64(_) => 10,
        Value::Str(s) => 2 + opaque_len(s.len())?,
        Value::Bytes(b) => 2 + opaque_len(b.len())?,
        Value::List(items) => {
            check_len(items.len())?;
            let mut total = 4;
            for item in items {
                total += encoded_len(item)?;
            }
            total
        }
        Value::Struct(fields) => {
            check_len(fields.len())?;
            let mut total = 4;
            for (name, v) in fields {
                total += opaque_len(name.len())? + encoded_len(v)?;
            }
            total
        }
        Value::Opt(inner) => match inner {
            None => 4,
            Some(v) => 4 + encoded_len(v)?,
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
    Ok(2 + len + len % 2)
}

/// Decodes a single value, requiring full consumption of the input.
pub fn decode(bytes: &[u8]) -> WireResult<Value> {
    let mut cur = Cursor::new(bytes);
    let v = cur.read_value()?;
    if cur.remaining() != 0 {
        return Err(WireError::TrailingBytes(cur.remaining()));
    }
    Ok(v)
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_len(out: &mut Vec<u8>, len: usize) -> WireResult<()> {
    if len > MAX_LEN {
        return Err(WireError::Oversize(len));
    }
    put_u16(out, len as u16);
    Ok(())
}

fn put_opaque(out: &mut Vec<u8>, data: &[u8]) -> WireResult<()> {
    put_len(out, data.len())?;
    out.extend_from_slice(data);
    if data.len() % 2 == 1 {
        out.push(0);
    }
    Ok(())
}

/// A decoding cursor over Courier bytes.
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

    fn read_u16(&mut self) -> WireResult<u16> {
        if self.remaining() < 2 {
            return Err(WireError::Truncated);
        }
        let v = u16::from_be_bytes(
            self.bytes[self.pos..self.pos + 2]
                .try_into()
                .expect("slice of length 2"),
        );
        self.pos += 2;
        Ok(v)
    }

    fn read_u32(&mut self) -> WireResult<u32> {
        let hi = self.read_u16()? as u32;
        let lo = self.read_u16()? as u32;
        Ok((hi << 16) | lo)
    }

    fn read_opaque(&mut self) -> WireResult<Vec<u8>> {
        let len = self.read_u16()? as usize;
        let padded = len + len % 2;
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
        let tag = self.read_u16()?;
        match tag {
            TAG_VOID => Ok(Value::Void),
            TAG_BOOL => Ok(Value::Bool(self.read_u16()? != 0)),
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
                let n = self.read_u16()? as usize;
                // Every element carries at least a 2-byte tag, so a count
                // the remaining bytes cannot satisfy is a truncation —
                // rejected before allocating (length-prefix bomb defence).
                if n > self.remaining() / 2 {
                    return Err(WireError::Truncated);
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.read_value()?);
                }
                Ok(Value::List(items))
            }
            TAG_STRUCT => {
                let n = self.read_u16()? as usize;
                // A field needs a 2-byte name length plus a 2-byte value
                // tag at minimum; bound the claim by the bytes on hand.
                if n > self.remaining() / 4 {
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
                let present = self.read_u16()?;
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
        roundtrip(&Value::U32(0xDEAD_BEEF));
        roundtrip(&Value::I32(i32::MIN));
        roundtrip(&Value::U64(u64::MAX));
    }

    #[test]
    fn strings_pad_to_even() {
        let odd = encode(&Value::str("abc")).expect("encode");
        assert_eq!(odd.len() % 2, 0);
        roundtrip(&Value::str("abc"));
        roundtrip(&Value::str("abcd"));
        roundtrip(&Value::str(""));
    }

    #[test]
    fn courier_is_more_compact_than_xdr_for_small_values() {
        // 16-bit framing beats 32-bit framing on tag-heavy data.
        let v = Value::List(vec![Value::Bool(true); 8]);
        let c = encode(&v).expect("courier").len();
        let x = crate::xdr::encode(&v).expect("xdr").len();
        assert!(c < x, "courier {c} >= xdr {x}");
    }

    #[test]
    fn oversize_string_rejected() {
        let v = Value::str("x".repeat(MAX_LEN + 1));
        assert_eq!(encode(&v), Err(WireError::Oversize(MAX_LEN + 1)));
        assert_eq!(encoded_len(&v), Err(WireError::Oversize(MAX_LEN + 1)));
    }

    #[test]
    fn nested_roundtrip() {
        let v = Value::record([
            ("obj", Value::str("printer:accounting:uw")),
            (
                "props",
                Value::List(vec![Value::record([("k", Value::U32(4))])]),
            ),
            ("opt", Value::Opt(Some(Box::new(Value::Bytes(vec![9; 3]))))),
        ]);
        roundtrip(&v);
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode(&Value::str("hello")).expect("encode");
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn length_bomb_rejected_before_allocation() {
        // A list claiming 65535 items backed by zero bytes must be
        // rejected as truncation before any allocation happens.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u16.to_be_bytes());
        bytes.extend_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(decode(&bytes), Err(WireError::Truncated));

        // Same for a struct field-count bomb.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&8u16.to_be_bytes());
        bytes.extend_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn formats_are_incompatible_by_design() {
        // Bytes produced by one representation must not silently decode as
        // the other: heterogeneity is real. (They may fail differently.)
        let v = Value::record([("a", Value::U32(7))]);
        let xdr_bytes = crate::xdr::encode(&v).expect("xdr");
        let decoded = decode(&xdr_bytes);
        assert_ne!(decoded.as_ref().ok(), Some(&v));
    }
}
