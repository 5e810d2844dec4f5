//! The self-describing codec both data representations instantiate.
//!
//! A value travels as a type tag followed by its body, so heterogeneous
//! peers can decode without a shared stub. Everything that frames — tag,
//! length, boolean, option marker — is one big-endian *unit* of `UNIT`
//! bytes, and strings and opaque data are padded to a unit boundary; the
//! body of a `u32`/`i32` is 4 big-endian bytes and of a `u64` 8, at any
//! width. The paper's "data representation is a component selected at
//! bind time" is then one parameter: [`crate::xdr`] is the 4-byte
//! instance (Sun's 32-bit units), [`crate::courier`] the 2-byte one
//! (Xerox's 16-bit words). The walkers are generic over a `const`, so
//! each width is compiled as its own straight-line code.

use crate::error::{WireError, WireResult};
use crate::message::Shape;
use crate::value::Value;

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

/// Limit on any declared length (strings, lists, structs) at a unit
/// width: what one unit can count, capped at a 2^24 sanity bound.
pub(crate) const fn max_len(unit: usize) -> usize {
    let countable = (1 << (8 * unit)) - 1;
    if countable < 1 << 24 {
        countable
    } else {
        1 << 24
    }
}

/// Encodes `value` into a fresh buffer.
pub(crate) fn encode<const UNIT: usize>(value: &Value) -> WireResult<Vec<u8>> {
    let mut out = Vec::with_capacity(value.approx_size() + 4 * UNIT);
    encode_into::<UNIT>(value, &mut out)?;
    Ok(out)
}

/// Encodes `value`, appending to `out`.
pub(crate) fn encode_into<const UNIT: usize>(value: &Value, out: &mut Vec<u8>) -> WireResult<()> {
    match value {
        Value::Void => put_unit::<UNIT>(out, TAG_VOID),
        Value::Bool(b) => {
            put_unit::<UNIT>(out, TAG_BOOL);
            put_unit::<UNIT>(out, u32::from(*b));
        }
        Value::U32(v) => {
            put_unit::<UNIT>(out, TAG_U32);
            out.extend_from_slice(&v.to_be_bytes());
        }
        Value::I32(v) => {
            put_unit::<UNIT>(out, TAG_I32);
            out.extend_from_slice(&v.to_be_bytes());
        }
        Value::U64(v) => {
            put_unit::<UNIT>(out, TAG_U64);
            out.extend_from_slice(&v.to_be_bytes());
        }
        Value::Str(s) => {
            put_unit::<UNIT>(out, TAG_STR);
            put_opaque::<UNIT>(out, s.as_bytes())?;
        }
        Value::Bytes(b) => {
            put_unit::<UNIT>(out, TAG_BYTES);
            put_opaque::<UNIT>(out, b)?;
        }
        Value::List(items) => {
            put_unit::<UNIT>(out, TAG_LIST);
            put_len::<UNIT>(out, items.len())?;
            for item in items {
                encode_into::<UNIT>(item, out)?;
            }
        }
        Value::Struct(fields) => {
            put_unit::<UNIT>(out, TAG_STRUCT);
            put_len::<UNIT>(out, fields.len())?;
            for (name, v) in fields {
                put_opaque::<UNIT>(out, name.as_bytes())?;
                encode_into::<UNIT>(v, out)?;
            }
        }
        Value::Opt(inner) => {
            put_unit::<UNIT>(out, TAG_OPT);
            put_unit::<UNIT>(out, u32::from(inner.is_some()));
            if let Some(v) = inner {
                encode_into::<UNIT>(v, out)?;
            }
        }
    }
    Ok(())
}

/// Exact length of [`encode`]'s output for `value`, without allocating.
/// Validates lengths as encoding does, so it fails with
/// [`WireError::Oversize`] exactly when [`encode`] would.
pub(crate) fn encoded_len<const UNIT: usize>(value: &Value) -> WireResult<usize> {
    Ok(match value {
        Value::Void => UNIT,
        Value::Bool(_) | Value::Opt(None) => 2 * UNIT,
        Value::U32(_) | Value::I32(_) => UNIT + 4,
        Value::U64(_) => UNIT + 8,
        Value::Str(s) => UNIT + opaque_len::<UNIT>(s.len())?,
        Value::Bytes(b) => UNIT + opaque_len::<UNIT>(b.len())?,
        Value::List(items) => {
            check_len::<UNIT>(items.len())?;
            let mut total = 2 * UNIT;
            for item in items {
                total += encoded_len::<UNIT>(item)?;
            }
            total
        }
        Value::Struct(fields) => {
            check_len::<UNIT>(fields.len())?;
            let mut total = 2 * UNIT;
            for (name, v) in fields {
                total += opaque_len::<UNIT>(name.len())? + encoded_len::<UNIT>(v)?;
            }
            total
        }
        Value::Opt(Some(v)) => 2 * UNIT + encoded_len::<UNIT>(v)?,
    })
}

/// [`encoded_len`] of the tree a message's shape describes, read off the
/// description: the same arithmetic — unit, padding, the `max_len`
/// checks in encoding order — over pieces instead of nodes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sizer<const UNIT: usize>;

impl<const UNIT: usize> Shape for Sizer<UNIT> {
    type Out = WireResult<usize>;

    fn bool(&self, _: bool) -> WireResult<usize> {
        Ok(2 * UNIT)
    }

    fn u32(&self, _: u32) -> WireResult<usize> {
        Ok(UNIT + 4)
    }

    fn u64(&self, _: u64) -> WireResult<usize> {
        Ok(UNIT + 8)
    }

    fn str(&self, s: &str) -> WireResult<usize> {
        Ok(UNIT + opaque_len::<UNIT>(s.len())?)
    }

    fn value(&self, v: &Value) -> WireResult<usize> {
        encoded_len::<UNIT>(v)
    }

    fn bytes(&self, len: usize, _: impl FnOnce(&mut Vec<u8>)) -> WireResult<usize> {
        Ok(UNIT + opaque_len::<UNIT>(len)?)
    }

    fn list<T>(
        &self,
        items: impl ExactSizeIterator<Item = T>,
        mut each: impl FnMut(T) -> WireResult<usize>,
    ) -> WireResult<usize> {
        check_len::<UNIT>(items.len())?;
        let mut total = 2 * UNIT;
        for item in items {
            total += each(item)?;
        }
        Ok(total)
    }

    fn record<const N: usize>(
        &self,
        fields: [(&'static str, WireResult<usize>); N],
    ) -> WireResult<usize> {
        check_len::<UNIT>(N)?;
        let mut total = 2 * UNIT;
        for (name, v) in fields {
            total += opaque_len::<UNIT>(name.len())? + v?;
        }
        Ok(total)
    }
}

/// Decodes a single value, requiring the input to be fully consumed.
pub(crate) fn decode<const UNIT: usize>(bytes: &[u8]) -> WireResult<Value> {
    let mut cur = Cursor::<UNIT>::new(bytes);
    let v = cur.read_value()?;
    if cur.remaining() != 0 {
        return Err(WireError::TrailingBytes(cur.remaining()));
    }
    Ok(v)
}

fn check_len<const UNIT: usize>(len: usize) -> WireResult<()> {
    if len > max_len(UNIT) {
        return Err(WireError::Oversize(len));
    }
    Ok(())
}

/// Bytes that pad `len` to a unit boundary.
fn pad<const UNIT: usize>(len: usize) -> usize {
    (UNIT - len % UNIT) % UNIT
}

fn opaque_len<const UNIT: usize>(len: usize) -> WireResult<usize> {
    check_len::<UNIT>(len)?;
    Ok(UNIT + len + pad::<UNIT>(len))
}

/// Appends the low `UNIT` bytes of `v`, big-endian.
fn put_unit<const UNIT: usize>(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes()[4 - UNIT..]);
}

fn put_len<const UNIT: usize>(out: &mut Vec<u8>, len: usize) -> WireResult<()> {
    check_len::<UNIT>(len)?;
    put_unit::<UNIT>(out, len as u32);
    Ok(())
}

fn put_opaque<const UNIT: usize>(out: &mut Vec<u8>, data: &[u8]) -> WireResult<()> {
    put_len::<UNIT>(out, data.len())?;
    out.extend_from_slice(data);
    out.extend(std::iter::repeat_n(0u8, pad::<UNIT>(data.len())));
    Ok(())
}

/// A decoding cursor over bytes framed in `UNIT`-byte units.
#[derive(Debug)]
pub struct Cursor<'a, const UNIT: usize> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a, const UNIT: usize> Cursor<'a, UNIT> {
    /// Creates a cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads `N` bytes as one big-endian number.
    fn read_be<const N: usize>(&mut self) -> WireResult<u64> {
        if self.remaining() < N {
            return Err(WireError::Truncated);
        }
        let mut be = [0u8; 8];
        be[8 - N..].copy_from_slice(&self.bytes[self.pos..self.pos + N]);
        self.pos += N;
        Ok(u64::from_be_bytes(be))
    }

    /// Reads one unit as a count, refusing one past the limit.
    fn read_len(&mut self) -> WireResult<usize> {
        let len = self.read_be::<UNIT>()? as usize;
        check_len::<UNIT>(len)?;
        Ok(len)
    }

    fn read_opaque(&mut self) -> WireResult<Vec<u8>> {
        let len = self.read_len()?;
        let padded = len + pad::<UNIT>(len);
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
        let tag = self.read_be::<UNIT>()? as u32;
        match tag {
            TAG_VOID => Ok(Value::Void),
            TAG_BOOL => Ok(Value::Bool(self.read_be::<UNIT>()? != 0)),
            TAG_U32 => Ok(Value::U32(self.read_be::<4>()? as u32)),
            TAG_I32 => Ok(Value::I32(self.read_be::<4>()? as u32 as i32)),
            TAG_U64 => Ok(Value::U64(self.read_be::<8>()?)),
            TAG_STR => Ok(Value::Str(self.read_string()?)),
            TAG_BYTES => Ok(Value::Bytes(self.read_opaque()?)),
            TAG_LIST => {
                let n = self.read_len()?;
                // Every element carries at least a one-unit tag, so a
                // count the remaining bytes cannot satisfy is a truncation
                // — rejected before allocating (length-bomb defence).
                if n > self.remaining() / UNIT {
                    return Err(WireError::Truncated);
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.read_value()?);
                }
                Ok(Value::List(items))
            }
            TAG_STRUCT => {
                let n = self.read_len()?;
                // A field needs a one-unit name length plus a one-unit
                // value tag at minimum; bound the claim by what is left.
                if n > self.remaining() / (2 * UNIT) {
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
            TAG_OPT => Ok(Value::Opt(match self.read_be::<UNIT>()? {
                0 => None,
                _ => Some(Box::new(self.read_value()?)),
            })),
            other => Err(WireError::BadTag((other & 0xFF) as u8)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Instantiates each generic test below at both unit widths.
    macro_rules! at_both_widths {
        ($($name:ident),* $(,)?) => {
            mod xdr_width {
                $(#[test] fn $name() { super::$name::<4>(); })*
            }
            mod courier_width {
                $(#[test] fn $name() { super::$name::<2>(); })*
            }
        };
    }

    at_both_widths!(
        scalars_roundtrip,
        strings_and_bytes_roundtrip_with_padding,
        nested_structures_roundtrip,
        deep_nesting_roundtrips,
        truncated_input_is_detected,
        trailing_bytes_are_rejected,
        bad_tag_is_rejected,
        bad_utf8_is_rejected,
        oversize_string_rejected,
        length_bomb_rejected_before_allocation,
    );

    fn roundtrip<const UNIT: usize>(v: &Value) {
        let bytes = encode::<UNIT>(v).expect("encode");
        let back = decode::<UNIT>(&bytes).expect("decode");
        assert_eq!(&back, v);
        assert_eq!(encoded_len::<UNIT>(v).expect("len"), bytes.len());
        assert_eq!(bytes.len() % UNIT, 0, "whole units only");
    }

    /// Hand-assembles a frame of units.
    fn units<const UNIT: usize>(values: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        for v in values {
            put_unit::<UNIT>(&mut out, *v);
        }
        out
    }

    fn scalars_roundtrip<const UNIT: usize>() {
        roundtrip::<UNIT>(&Value::Void);
        roundtrip::<UNIT>(&Value::Bool(true));
        roundtrip::<UNIT>(&Value::Bool(false));
        roundtrip::<UNIT>(&Value::U32(0xDEAD_BEEF));
        roundtrip::<UNIT>(&Value::I32(-12345));
        roundtrip::<UNIT>(&Value::I32(i32::MIN));
        roundtrip::<UNIT>(&Value::U64(u64::MAX));
    }

    fn strings_and_bytes_roundtrip_with_padding<const UNIT: usize>() {
        for len in 0..9 {
            roundtrip::<UNIT>(&Value::Str("x".repeat(len)));
            roundtrip::<UNIT>(&Value::Bytes(vec![0xAB; len]));
        }
        roundtrip::<UNIT>(&Value::str("fiji.cs.washington.edu"));
    }

    fn nested_structures_roundtrip<const UNIT: usize>() {
        roundtrip::<UNIT>(&Value::record([
            ("host", Value::str("fiji")),
            (
                "addrs",
                Value::List(vec![Value::U32(1), Value::U32(2), Value::U32(3)]),
            ),
            ("alias", Value::Opt(Some(Box::new(Value::str("f"))))),
            ("none", Value::Opt(None)),
            ("blob", Value::Bytes(vec![1, 2, 3, 4, 5])),
        ]));
        roundtrip::<UNIT>(&Value::record([
            ("obj", Value::str("printer:accounting:uw")),
            (
                "props",
                Value::List(vec![Value::record([("k", Value::U32(4))])]),
            ),
            ("opt", Value::Opt(Some(Box::new(Value::Bytes(vec![9; 3]))))),
        ]));
    }

    fn deep_nesting_roundtrips<const UNIT: usize>() {
        let mut v = Value::U32(1);
        for _ in 0..100 {
            v = Value::List(vec![v]);
        }
        roundtrip::<UNIT>(&v);
    }

    fn truncated_input_is_detected<const UNIT: usize>() {
        let bytes = encode::<UNIT>(&Value::str("hello world")).expect("encode");
        for cut in 0..bytes.len() {
            let err = decode::<UNIT>(&bytes[..cut]).expect_err("must fail");
            assert!(
                matches!(err, WireError::Truncated | WireError::BadTag(_)),
                "cut {cut}: {err:?}"
            );
        }
    }

    fn trailing_bytes_are_rejected<const UNIT: usize>() {
        let mut bytes = encode::<UNIT>(&Value::U32(1)).expect("encode");
        bytes.extend_from_slice(&units::<UNIT>(&[0]));
        assert_eq!(decode::<UNIT>(&bytes), Err(WireError::TrailingBytes(UNIT)));
    }

    fn bad_tag_is_rejected<const UNIT: usize>() {
        let bytes = units::<UNIT>(&[99]);
        assert_eq!(decode::<UNIT>(&bytes), Err(WireError::BadTag(99)));
    }

    fn bad_utf8_is_rejected<const UNIT: usize>() {
        // Tag STR, length 2, bytes [0xFF, 0xFE], padded to a unit.
        let mut bytes = units::<UNIT>(&[TAG_STR, 2]);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        bytes.resize(bytes.len() + pad::<UNIT>(2), 0);
        assert_eq!(decode::<UNIT>(&bytes), Err(WireError::BadUtf8));
    }

    fn oversize_string_rejected<const UNIT: usize>() {
        let over = max_len(UNIT) + 1;
        let v = Value::str("x".repeat(over));
        assert_eq!(encode::<UNIT>(&v), Err(WireError::Oversize(over)));
        assert_eq!(encoded_len::<UNIT>(&v), Err(WireError::Oversize(over)));
    }

    fn length_bomb_rejected_before_allocation<const UNIT: usize>() {
        // A list claiming as many items as the width can (up to 2^20)
        // backed by zero bytes: the claim must be rejected as truncation,
        // not pre-allocated even partially. Same for a struct's fields.
        let claim = max_len(UNIT).min(1 << 20) as u32;
        for tag in [TAG_LIST, TAG_STRUCT] {
            let bytes = units::<UNIT>(&[tag, claim]);
            assert_eq!(decode::<UNIT>(&bytes), Err(WireError::Truncated));
        }
        // A claim the remaining bytes almost — but not quite — satisfy.
        let bytes = units::<UNIT>(&[TAG_LIST, 3, TAG_VOID, TAG_VOID]);
        assert_eq!(decode::<UNIT>(&bytes), Err(WireError::Truncated));
    }
}
