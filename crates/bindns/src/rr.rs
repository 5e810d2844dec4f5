//! Resource records.
//!
//! "BIND data is stored as a collection of resource records, each of which
//! can be up to 256 bytes of data. Separate resource records are intended
//! to store alternate data for one name, e.g., multiple network addresses
//! for gateway hosts."
//!
//! The `UNSPEC` type is the extension of the paper's modified BIND, which
//! was altered "to support both dynamic updates and also data of
//! unspecified type" so it could serve as the HNS meta-naming repository.

use std::sync::Arc;

use simnet::topology::{HostId, NetAddr};
use wire::message::{Shape, Shaped, Tree};
use wire::Value;

use crate::error::{NsError, NsResult};
use crate::name::DomainName;

/// Maximum rdata size per record.
pub const MAX_RDATA: usize = 256;

/// Record type codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RType {
    /// Host address.
    A,
    /// Authoritative name server.
    Ns,
    /// Canonical name (alias target).
    Cname,
    /// Arbitrary text.
    Txt,
    /// Host information (CPU and OS).
    Hinfo,
    /// Well-known services.
    Wks,
    /// Mail exchanger.
    Mx,
    /// Start of authority.
    Soa,
    /// Data of unspecified type (the HNS meta-information extension).
    Unspec,
}

impl RType {
    /// Wire code.
    pub fn code(self) -> u16 {
        match self {
            RType::A => 1,
            RType::Ns => 2,
            RType::Cname => 5,
            RType::Soa => 6,
            RType::Wks => 11,
            RType::Hinfo => 13,
            RType::Mx => 15,
            RType::Txt => 16,
            RType::Unspec => 103,
        }
    }

    /// Reads the `rtype` field of a wire struct. A code beyond 16 bits
    /// names no type: it is refused, not truncated onto one.
    pub(crate) fn read(v: &Value) -> NsResult<RType> {
        RType::from_code(v.u16_field("rtype").map_err(bad_field)?)
    }

    /// Decodes a wire code.
    pub fn from_code(code: u16) -> NsResult<RType> {
        match code {
            1 => Ok(RType::A),
            2 => Ok(RType::Ns),
            5 => Ok(RType::Cname),
            6 => Ok(RType::Soa),
            11 => Ok(RType::Wks),
            13 => Ok(RType::Hinfo),
            15 => Ok(RType::Mx),
            16 => Ok(RType::Txt),
            103 => Ok(RType::Unspec),
            other => Err(NsError::BadRecord(format!("unknown rtype code {other}"))),
        }
    }
}

impl std::fmt::Display for RType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RType::A => "A",
            RType::Ns => "NS",
            RType::Cname => "CNAME",
            RType::Soa => "SOA",
            RType::Wks => "WKS",
            RType::Hinfo => "HINFO",
            RType::Mx => "MX",
            RType::Txt => "TXT",
            RType::Unspec => "UNSPEC",
        };
        f.write_str(s)
    }
}

/// The tag byte that opens the rdata of an [`RData::Opaque`] payload.
const OPAQUE_TAG: u8 = 3;

/// Typed record data.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RData {
    /// A network address (for `A` records).
    Addr(NetAddr),
    /// A domain name (for `NS`, `CNAME`, `MX` targets).
    Domain(DomainName),
    /// Text (for `TXT`, `HINFO`).
    Text(String),
    /// Opaque bytes (for `WKS`, `UNSPEC`), shared: a record handed out
    /// by a zone, a cache or a transfer points at the stored payload.
    Opaque(Arc<[u8]>),
    /// Start-of-authority payload.
    Soa {
        /// Primary server host name.
        primary: DomainName,
        /// Zone serial number.
        serial: u32,
        /// Default TTL for the zone, seconds.
        default_ttl: u32,
    },
}

impl RData {
    /// Length in bytes of what [`RData::write`] appends: one tag byte
    /// plus the payload.
    fn wire_len(&self) -> usize {
        1 + match self {
            RData::Addr(_) => 4,
            RData::Domain(name) => name.as_str().len(),
            RData::Text(s) => s.len(),
            RData::Opaque(data) => data.len(),
            RData::Soa { primary, .. } => 8 + primary.as_str().len(),
        }
    }

    /// Serialized length in bytes, or the error [`RData::to_bytes`]
    /// reports when it exceeds [`MAX_RDATA`].
    pub fn encoded_len(&self) -> NsResult<usize> {
        let len = self.wire_len();
        if len > MAX_RDATA {
            return Err(NsError::BadRecord(format!(
                "rdata {len} bytes exceeds {MAX_RDATA}"
            )));
        }
        Ok(len)
    }

    /// Serializes to rdata bytes (bounded by [`MAX_RDATA`]).
    pub fn to_bytes(&self) -> NsResult<Vec<u8>> {
        let mut b = Vec::with_capacity(self.encoded_len()?);
        self.write(&mut b);
        Ok(b)
    }

    /// Appends the rdata bytes.
    fn write(&self, b: &mut Vec<u8>) {
        match self {
            RData::Addr(addr) => {
                b.push(0);
                b.extend_from_slice(&addr.host.0.to_be_bytes());
            }
            RData::Domain(name) => {
                b.push(1);
                b.extend_from_slice(name.as_str().as_bytes());
            }
            RData::Text(s) => {
                b.push(2);
                b.extend_from_slice(s.as_bytes());
            }
            RData::Opaque(data) => {
                b.push(OPAQUE_TAG);
                b.extend_from_slice(data);
            }
            RData::Soa {
                primary,
                serial,
                default_ttl,
            } => {
                b.push(4);
                b.extend_from_slice(&serial.to_be_bytes());
                b.extend_from_slice(&default_ttl.to_be_bytes());
                b.extend_from_slice(primary.as_str().as_bytes());
            }
        }
    }

    /// Deserializes rdata bytes.
    pub fn from_bytes(bytes: &[u8]) -> NsResult<RData> {
        let (&tag, rest) = bytes
            .split_first()
            .ok_or_else(|| NsError::BadRecord("empty rdata".into()))?;
        match tag {
            0 => {
                let arr: [u8; 4] = rest
                    .try_into()
                    .map_err(|_| NsError::BadRecord("bad A rdata".into()))?;
                Ok(RData::Addr(NetAddr::of(HostId(u32::from_be_bytes(arr)))))
            }
            1 => {
                let s = std::str::from_utf8(rest)
                    .map_err(|_| NsError::BadRecord("bad domain rdata".into()))?;
                Ok(RData::Domain(DomainName::parse(s)?))
            }
            2 => {
                let s = std::str::from_utf8(rest)
                    .map_err(|_| NsError::BadRecord("bad text rdata".into()))?;
                Ok(RData::Text(s.to_string()))
            }
            OPAQUE_TAG => Ok(RData::Opaque(rest.into())),
            4 => {
                let short = || NsError::BadRecord("short SOA rdata".into());
                let (serial, rest) = rest.split_first_chunk::<4>().ok_or_else(short)?;
                let (default_ttl, rest) = rest.split_first_chunk::<4>().ok_or_else(short)?;
                let s = std::str::from_utf8(rest)
                    .map_err(|_| NsError::BadRecord("bad SOA primary".into()))?;
                Ok(RData::Soa {
                    primary: DomainName::parse(s)?,
                    serial: u32::from_be_bytes(*serial),
                    default_ttl: u32::from_be_bytes(*default_ttl),
                })
            }
            other => Err(NsError::BadRecord(format!("unknown rdata tag {other}"))),
        }
    }
}

/// One resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Owner name.
    pub name: DomainName,
    /// Record type.
    pub rtype: RType,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Payload.
    pub rdata: RData,
}

impl ResourceRecord {
    /// Builds an `A` record.
    pub fn a(name: DomainName, ttl: u32, addr: NetAddr) -> Self {
        ResourceRecord {
            name,
            rtype: RType::A,
            ttl,
            rdata: RData::Addr(addr),
        }
    }

    /// Builds a `TXT` record.
    pub fn txt(name: DomainName, ttl: u32, text: impl Into<String>) -> Self {
        ResourceRecord {
            name,
            rtype: RType::Txt,
            ttl,
            rdata: RData::Text(text.into()),
        }
    }

    /// Builds an `UNSPEC` record carrying opaque bytes.
    pub fn unspec(name: DomainName, ttl: u32, data: impl Into<Arc<[u8]>>) -> Self {
        ResourceRecord {
            name,
            rtype: RType::Unspec,
            ttl,
            rdata: RData::Opaque(data.into()),
        }
    }

    /// Builds a `CNAME` record.
    pub fn cname(name: DomainName, ttl: u32, target: DomainName) -> Self {
        ResourceRecord {
            name,
            rtype: RType::Cname,
            ttl,
            rdata: RData::Domain(target),
        }
    }

    /// Serializes to a wire value (used by the HRPC interface to BIND).
    pub fn to_value(&self) -> NsResult<Value> {
        check_rdata([self])?;
        Ok(self.shape(&Tree))
    }

    /// Deserializes from a wire value.
    pub fn from_value(v: &Value) -> NsResult<ResourceRecord> {
        Self::decode(v, None)
    }

    /// Deserializes a list of records, as lookup and transfer replies
    /// carry them. Records of one owner arrive together, so an owner
    /// whose text equals the previous record's name shares that name
    /// instead of being validated and allocated again — equal canonical
    /// text parses to an equal name.
    pub fn list_from_values(list: &[Value]) -> NsResult<Vec<ResourceRecord>> {
        let mut records: Vec<ResourceRecord> = Vec::with_capacity(list.len());
        for v in list {
            let rr = Self::decode(v, records.last())?;
            records.push(rr);
        }
        Ok(records)
    }

    /// The one per-record decoder; `previous` is the record decoded just
    /// before this one of the same list, if any.
    fn decode(v: &Value, previous: Option<&ResourceRecord>) -> NsResult<ResourceRecord> {
        let owner = v.str_field("name").map_err(bad_field)?;
        let rtype = RType::read(v)?;
        let ttl = v.u32_field("ttl").map_err(bad_field)?;
        let rdata = v
            .field("rdata")
            .and_then(Value::as_bytes)
            .map_err(bad_field)?;
        let name = match previous {
            Some(p) if p.name.as_str() == owner => p.name.clone(),
            _ => DomainName::parse(owner)?,
        };
        Ok(ResourceRecord {
            name,
            rtype,
            ttl,
            rdata: RData::from_bytes(rdata)?,
        })
    }

    /// The payload of opaque rdata (`UNSPEC`, `WKS`).
    pub fn opaque(&self) -> Option<&[u8]> {
        match &self.rdata {
            RData::Opaque(payload) => Some(payload),
            _ => None,
        }
    }

    /// Approximate stored size in bytes (for zone-transfer costing).
    pub fn size_bytes(&self) -> usize {
        self.name.wire_len() + 8 + self.rdata.encoded_len().unwrap_or(0)
    }
}

/// The record as a wire struct; its rdata is written as it is, the
/// [`MAX_RDATA`] rule being `check_rdata`'s.
impl Shaped for ResourceRecord {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([
            ("name", s.str(self.name.as_str())),
            ("rtype", s.u32(u32::from(self.rtype.code()))),
            ("ttl", s.u32(self.ttl)),
            (
                "rdata",
                s.bytes(self.rdata.wire_len(), |b| self.rdata.write(b)),
            ),
        ])
    }
}

/// What a decoder says of a field that is missing or of the wrong type.
pub(crate) fn bad_field(e: wire::WireError) -> NsError {
    NsError::BadRecord(e.to_string())
}

/// Refuses, as [`RData::to_bytes`] would, rdata beyond [`MAX_RDATA`] in
/// any of `records`: asked of a message before it leaves with them.
pub(crate) fn check_rdata<'a>(
    records: impl IntoIterator<Item = &'a ResourceRecord>,
) -> NsResult<()> {
    records
        .into_iter()
        .try_for_each(|record| record.rdata.encoded_len().map(drop))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).expect("valid name")
    }

    #[test]
    fn rtype_codes_roundtrip() {
        for t in [
            RType::A,
            RType::Ns,
            RType::Cname,
            RType::Soa,
            RType::Wks,
            RType::Hinfo,
            RType::Mx,
            RType::Txt,
            RType::Unspec,
        ] {
            assert_eq!(RType::from_code(t.code()).expect("roundtrip"), t);
        }
        assert!(RType::from_code(999).is_err());
    }

    #[test]
    fn rdata_roundtrips() {
        let cases = vec![
            RData::Addr(NetAddr::of(HostId(7))),
            RData::Domain(name("ns.cs.washington.edu")),
            RData::Text("VAX-II / Unix".into()),
            RData::Opaque(vec![1, 2, 3].into()),
            RData::Soa {
                primary: name("ns.cs.washington.edu"),
                serial: 42,
                default_ttl: 3600,
            },
        ];
        for rdata in cases {
            let bytes = rdata.to_bytes().expect("encode");
            assert_eq!(RData::from_bytes(&bytes).expect("decode"), rdata);
        }
    }

    #[test]
    fn oversized_rdata_rejected() {
        let rdata = RData::Opaque(vec![0; MAX_RDATA].into());
        assert!(rdata.to_bytes().is_err());
        let ok = RData::Opaque(vec![0; MAX_RDATA - 1].into());
        assert!(ok.to_bytes().is_ok());
    }

    #[test]
    fn record_value_roundtrip() {
        let rr = ResourceRecord::a(
            name("fiji.cs.washington.edu"),
            86_400,
            NetAddr::of(HostId(3)),
        );
        let v = rr.to_value().expect("to value");
        assert_eq!(ResourceRecord::from_value(&v).expect("from value"), rr);
    }

    /// `rtype` 0x0003_0001 used to read back as `A`.
    #[test]
    fn a_type_code_beyond_sixteen_bits_is_refused_not_truncated() {
        let rr = ResourceRecord::txt(name("a.b"), 60, "t");
        let Value::Struct(mut fields) = rr.to_value().expect("to value") else {
            panic!("records marshal as structs");
        };
        fields[1].1 = Value::U32(0x0003_0001);
        let wide = Value::Struct(fields);
        assert!(matches!(
            ResourceRecord::from_value(&wide),
            Err(NsError::BadRecord(_))
        ));
        assert!(ResourceRecord::list_from_values(&[wide]).is_err());
    }

    #[test]
    fn oversized_rdata_never_becomes_a_value() {
        let rr = ResourceRecord::unspec(name("a.b"), 60, vec![0; MAX_RDATA]);
        assert!(matches!(rr.to_value(), Err(NsError::BadRecord(_))));
    }

    #[test]
    fn unspec_record_value_roundtrip() {
        let rr = ResourceRecord::unspec(name("hns-meta.hns"), 600, b"ns=BIND".to_vec());
        let v = rr.to_value().expect("to value");
        assert_eq!(ResourceRecord::from_value(&v).expect("from value"), rr);
    }

    #[test]
    fn list_decode_equals_record_by_record_decode() {
        // Runs of one owner, a change of owner and back, and an owner
        // spelt non-canonically after its canonical twin.
        let owners = ["a.edu", "a.edu", "b.edu", "a.edu", "A.EDU.", ".", "."];
        let list: Vec<Value> = owners
            .iter()
            .enumerate()
            .map(|(i, owner)| {
                let rr = ResourceRecord::txt(name("x.y"), 60, format!("t{i}"));
                let Value::Struct(mut fields) = rr.to_value().expect("to value") else {
                    panic!("records marshal as structs");
                };
                fields[0].1 = Value::str(*owner);
                Value::Struct(fields)
            })
            .collect();
        let one_by_one: Vec<ResourceRecord> = list
            .iter()
            .map(|v| ResourceRecord::from_value(v).expect("decode"))
            .collect();
        assert_eq!(
            ResourceRecord::list_from_values(&list).expect("decode"),
            one_by_one
        );
        assert_eq!(one_by_one[4].name, name("a.edu"));
        assert!(one_by_one[6].name.is_root());

        let mut bad = list;
        bad[3] = Value::U32(7);
        assert!(ResourceRecord::list_from_values(&bad).is_err());
    }

    #[test]
    fn malformed_rdata_rejected() {
        assert!(RData::from_bytes(&[]).is_err());
        assert!(RData::from_bytes(&[0, 1]).is_err()); // short A
        assert!(RData::from_bytes(&[9, 0]).is_err()); // unknown tag
        assert!(RData::from_bytes(&[4, 0, 0]).is_err()); // short SOA
        assert!(RData::from_bytes(&[1, 0xFF]).is_err()); // bad UTF-8 domain
    }

    #[test]
    fn size_reflects_contents() {
        let small = ResourceRecord::txt(name("a.b"), 60, "x");
        let large = ResourceRecord::txt(name("a.b"), 60, "x".repeat(200));
        assert!(large.size_bytes() > small.size_bytes());
    }

    #[test]
    fn builders_set_types() {
        assert_eq!(
            ResourceRecord::cname(name("a.b"), 1, name("c.d")).rtype,
            RType::Cname
        );
        assert_eq!(ResourceRecord::txt(name("a.b"), 1, "t").rtype, RType::Txt);
        assert_eq!(
            ResourceRecord::unspec(name("a.b"), 1, vec![]).rtype,
            RType::Unspec
        );
    }
}
