//! XDR-style encoding (the Sun RPC data representation).
//!
//! Everything is carried in big-endian 32-bit units; opaque data and strings
//! are length-prefixed and padded to a 4-byte boundary, as in Sun's external
//! data representation. Values are self-describing: each is preceded by a
//! type tag so heterogeneous peers can decode without a shared stub. The
//! walkers are `codec`'s, instantiated at a 4-byte unit.

use crate::codec;
use crate::error::WireResult;
use crate::value::Value;

const UNIT: usize = 4;

/// Sanity limit on any declared length (strings, lists, structs).
pub const MAX_LEN: usize = codec::max_len(UNIT);

/// The length reading of a message's shape at this unit width.
pub(crate) const SIZER: codec::Sizer<UNIT> = codec::Sizer;

/// A decoding cursor over XDR bytes.
pub type Cursor<'a> = codec::Cursor<'a, UNIT>;

/// Encodes `value` into XDR bytes.
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

/// Decodes a single value, requiring the input to be fully consumed.
pub fn decode(bytes: &[u8]) -> WireResult<Value> {
    codec::decode::<UNIT>(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WireError;

    #[test]
    fn padded_length_is_multiple_of_four() {
        let bytes = encode(&Value::str("abc")).expect("encode");
        assert_eq!(bytes.len() % 4, 0);
        let bytes = encode(&Value::str("abcd")).expect("encode");
        assert_eq!(bytes.len() % 4, 0);
    }

    #[test]
    fn oversize_length_rejected_without_allocation() {
        // Only a 32-bit unit can claim more than `MAX_LEN`; a 16-bit one
        // tops out at Courier's limit exactly.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u32.to_be_bytes()); // list tag
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(decode(&bytes), Err(WireError::Oversize(_))));
    }
}
