//! Dispatch over the available data representations.

use crate::courier;
use crate::error::WireResult;
use crate::message::Shaped;
use crate::value::Value;
use crate::xdr;

/// The data representations an HRPC component set can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireFormat {
    /// Sun external data representation (32-bit units).
    Xdr,
    /// Xerox Courier representation (16-bit words).
    Courier,
}

impl WireFormat {
    /// Encodes a value under this representation.
    pub fn encode(self, v: &Value) -> WireResult<Vec<u8>> {
        match self {
            WireFormat::Xdr => xdr::encode(v),
            WireFormat::Courier => courier::encode(v),
        }
    }

    /// Decodes a value under this representation.
    pub fn decode(self, bytes: &[u8]) -> WireResult<Value> {
        match self {
            WireFormat::Xdr => xdr::decode(bytes),
            WireFormat::Courier => courier::decode(bytes),
        }
    }

    /// Exact encoded length of `v` under this representation, without
    /// allocating the datagram. Fails exactly when `encode` would.
    pub fn encoded_len(self, v: &Value) -> WireResult<usize> {
        match self {
            WireFormat::Xdr => xdr::encoded_len(v),
            WireFormat::Courier => courier::encoded_len(v),
        }
    }

    /// [`WireFormat::encoded_len`] of the tree `msg`'s shape describes,
    /// without building it.
    pub(crate) fn shaped_len(self, msg: &impl Shaped) -> WireResult<usize> {
        match self {
            WireFormat::Xdr => msg.shape(&xdr::SIZER),
            WireFormat::Courier => msg.shape(&courier::SIZER),
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            WireFormat::Xdr => "xdr",
            WireFormat::Courier => "courier",
        }
    }
}

impl std::fmt::Display for WireFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_formats_roundtrip() {
        let v = Value::record([("k", Value::U32(7)), ("s", Value::str("hello"))]);
        for fmt in [WireFormat::Xdr, WireFormat::Courier] {
            let bytes = fmt.encode(&v).expect("encode");
            assert_eq!(fmt.decode(&bytes).expect("decode"), v, "{fmt}");
        }
    }

    #[test]
    fn formats_produce_different_bytes() {
        let v = Value::str("heterogeneous");
        let x = WireFormat::Xdr.encode(&v).expect("xdr");
        let c = WireFormat::Courier.encode(&v).expect("courier");
        assert_ne!(x, c);
    }

    #[test]
    fn names() {
        assert_eq!(WireFormat::Xdr.to_string(), "xdr");
        assert_eq!(WireFormat::Courier.to_string(), "courier");
    }
}
