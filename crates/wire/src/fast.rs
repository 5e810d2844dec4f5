//! Hand-written marshalling for name-server messages — the "standard BIND
//! library routines" of Table 3.2.
//!
//! One pre-sized buffer, no dynamic dispatch, no intermediate copies. The
//! paper measured these at 0.65 ms (one resource record) and 2.6 ms (six)
//! against 20.23/32.34 ms for the generated path.

use crate::error::{WireError, WireResult};

/// Maximum rdata size, per the paper: "each of which can be up to 256 bytes
/// of data".
pub const MAX_RDATA: usize = 256;

/// A resource record as carried on the wire by the fast path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRecord {
    /// Record type code.
    pub rtype: u16,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Opaque record data (at most [`MAX_RDATA`] bytes).
    pub rdata: Vec<u8>,
}

/// Encodes an owner name and its records into a single buffer.
///
/// Layout: `u16 name_len, name bytes, u16 count, then per record:
/// u16 rtype, u32 ttl, u16 rdata_len, rdata bytes`. No padding — this is
/// the tight, special-purpose format a hand-written library would use.
pub fn encode_rr_batch(name: &str, records: &[WireRecord]) -> WireResult<Vec<u8>> {
    if name.len() > u16::MAX as usize {
        return Err(WireError::Oversize(name.len()));
    }
    if records.len() > u16::MAX as usize {
        return Err(WireError::Oversize(records.len()));
    }
    let size = 2
        + name.len()
        + 2
        + records
            .iter()
            .map(|r| 2 + 4 + 2 + r.rdata.len())
            .sum::<usize>();
    let mut out = Vec::with_capacity(size);
    out.extend_from_slice(&(name.len() as u16).to_be_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&(records.len() as u16).to_be_bytes());
    for r in records {
        if r.rdata.len() > MAX_RDATA {
            return Err(WireError::Oversize(r.rdata.len()));
        }
        out.extend_from_slice(&r.rtype.to_be_bytes());
        out.extend_from_slice(&r.ttl.to_be_bytes());
        out.extend_from_slice(&(r.rdata.len() as u16).to_be_bytes());
        out.extend_from_slice(&r.rdata);
    }
    debug_assert_eq!(out.len(), size);
    Ok(out)
}

/// Decodes a batch encoded by [`encode_rr_batch`].
pub fn decode_rr_batch(bytes: &[u8]) -> WireResult<(String, Vec<WireRecord>)> {
    let mut pos = 0usize;
    let name_len = take_u16(bytes, &mut pos)? as usize;
    if bytes.len() < pos + name_len {
        return Err(WireError::Truncated);
    }
    let name = std::str::from_utf8(&bytes[pos..pos + name_len])
        .map_err(|_| WireError::BadUtf8)?
        .to_string();
    pos += name_len;
    let count = take_u16(bytes, &mut pos)? as usize;
    // A record needs at least 8 bytes (rtype + ttl + rdata length), so a
    // count the remaining bytes cannot satisfy is a truncation — rejected
    // before allocating (length-prefix bomb defence).
    if count > (bytes.len() - pos) / 8 {
        return Err(WireError::Truncated);
    }
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let rtype = take_u16(bytes, &mut pos)?;
        let ttl = take_u32(bytes, &mut pos)?;
        let rdata_len = take_u16(bytes, &mut pos)? as usize;
        if rdata_len > MAX_RDATA {
            return Err(WireError::Oversize(rdata_len));
        }
        if bytes.len() < pos + rdata_len {
            return Err(WireError::Truncated);
        }
        let rdata = bytes[pos..pos + rdata_len].to_vec();
        pos += rdata_len;
        records.push(WireRecord { rtype, ttl, rdata });
    }
    if pos != bytes.len() {
        return Err(WireError::TrailingBytes(bytes.len() - pos));
    }
    Ok((name, records))
}

fn take_u16(bytes: &[u8], pos: &mut usize) -> WireResult<u16> {
    let (head, _) = bytes
        .get(*pos..)
        .and_then(<[u8]>::split_first_chunk::<2>)
        .ok_or(WireError::Truncated)?;
    *pos += 2;
    Ok(u16::from_be_bytes(*head))
}

fn take_u32(bytes: &[u8], pos: &mut usize) -> WireResult<u32> {
    let (head, _) = bytes
        .get(*pos..)
        .and_then(<[u8]>::split_first_chunk::<4>)
        .ok_or(WireError::Truncated)?;
    *pos += 4;
    Ok(u32::from_be_bytes(*head))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> (String, Vec<WireRecord>) {
        let records = (0..n)
            .map(|i| WireRecord {
                rtype: 1,
                ttl: 86_400,
                rdata: vec![i as u8; 4],
            })
            .collect();
        ("fiji.cs.washington.edu".to_string(), records)
    }

    #[test]
    fn roundtrip_one_and_six_records() {
        for n in [1usize, 6] {
            let (name, records) = sample(n);
            let bytes = encode_rr_batch(&name, &records).expect("encode");
            let (back_name, back_records) = decode_rr_batch(&bytes).expect("decode");
            assert_eq!(back_name, name);
            assert_eq!(back_records, records);
        }
    }

    #[test]
    fn empty_batch_roundtrips() {
        let bytes = encode_rr_batch("n", &[]).expect("encode");
        let (name, records) = decode_rr_batch(&bytes).expect("decode");
        assert_eq!(name, "n");
        assert!(records.is_empty());
    }

    #[test]
    fn rdata_over_256_bytes_rejected() {
        let rec = WireRecord {
            rtype: 99,
            ttl: 1,
            rdata: vec![0; MAX_RDATA + 1],
        };
        assert!(matches!(
            encode_rr_batch("n", &[rec]),
            Err(WireError::Oversize(_))
        ));
    }

    #[test]
    fn truncation_detected_at_every_cut() {
        let (name, records) = sample(2);
        let bytes = encode_rr_batch(&name, &records).expect("encode");
        for cut in 0..bytes.len() {
            assert!(
                decode_rr_batch(&bytes[..cut]).is_err(),
                "cut {cut} accepted"
            );
        }
    }

    #[test]
    fn record_count_bomb_rejected_before_allocation() {
        // name_len 0, count 65535, no record bytes behind the claim.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0u16.to_be_bytes());
        bytes.extend_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(decode_rr_batch(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (name, records) = sample(1);
        let mut bytes = encode_rr_batch(&name, &records).expect("encode");
        bytes.push(0);
        assert!(matches!(
            decode_rr_batch(&bytes),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn fast_encoding_is_compact() {
        // The hand-written format should be much smaller than the
        // self-describing XDR equivalent.
        let (name, records) = sample(6);
        let fast_len = encode_rr_batch(&name, &records).expect("encode").len();
        let value = crate::value::Value::record([
            ("name", crate::value::Value::str(&name)),
            (
                "records",
                crate::value::Value::List(
                    records
                        .iter()
                        .map(|r| {
                            crate::value::Value::record([
                                ("rtype", crate::value::Value::U32(r.rtype as u32)),
                                ("ttl", crate::value::Value::U32(r.ttl)),
                                ("rdata", crate::value::Value::Bytes(r.rdata.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let xdr_len = crate::xdr::encode(&value).expect("xdr").len();
        assert!(fast_len * 2 < xdr_len, "fast {fast_len} vs xdr {xdr_len}");
    }
}
