//! Courier-style encoding (the Xerox data representation).
//!
//! Courier carries data in big-endian 16-bit words; strings and opaque data
//! are length-prefixed with a 16-bit count and padded to an even byte
//! boundary. As with [`crate::xdr`], values are self-describing, and the
//! walkers are `codec`'s — here instantiated at a 2-byte unit.

use crate::codec;
use crate::error::WireResult;
use crate::value::Value;

const UNIT: usize = 2;

/// Courier lengths are 16-bit, so no field may exceed this.
pub const MAX_LEN: usize = codec::max_len(UNIT);

/// The length reading of a message's shape at this unit width.
pub(crate) const SIZER: codec::Sizer<UNIT> = codec::Sizer;

/// A decoding cursor over Courier bytes.
pub type Cursor<'a> = codec::Cursor<'a, UNIT>;

/// Encodes `value` into Courier bytes.
pub fn encode(value: &Value) -> WireResult<Vec<u8>> {
    codec::encode::<UNIT>(value)
}

/// Encodes `value`, appending to `out`.
pub fn encode_into(value: &Value, out: &mut Vec<u8>) -> WireResult<()> {
    codec::encode_into::<UNIT>(value, out)
}

/// Exact length of [`encode`]'s output for `value`, without allocating.
///
/// Performs the same length validation as encoding, so it fails with
/// [`crate::WireError::Oversize`] exactly when [`encode`] would.
pub fn encoded_len(value: &Value) -> WireResult<usize> {
    codec::encoded_len::<UNIT>(value)
}

/// Decodes a single value, requiring full consumption of the input.
pub fn decode(bytes: &[u8]) -> WireResult<Value> {
    codec::decode::<UNIT>(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_len_is_what_a_word_can_count() {
        assert_eq!(MAX_LEN, u16::MAX as usize);
        assert_eq!(crate::xdr::MAX_LEN, 1 << 24);
    }

    #[test]
    fn strings_pad_to_even() {
        let odd = encode(&Value::str("abc")).expect("encode");
        assert_eq!(odd.len() % 2, 0);
        assert_eq!(decode(&odd).expect("decode"), Value::str("abc"));
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
    fn formats_are_incompatible_by_design() {
        // Bytes produced by one representation must not silently decode as
        // the other: heterogeneity is real. (They may fail differently.)
        let v = Value::record([("a", Value::U32(7))]);
        let xdr_bytes = crate::xdr::encode(&v).expect("xdr");
        let decoded = decode(&xdr_bytes);
        assert_ne!(decoded.as_ref().ok(), Some(&v));
    }
}
