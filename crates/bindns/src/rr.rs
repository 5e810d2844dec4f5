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
use simnet::ttl::arc_bytes;
use wire::message::{Field, Shape, Shaped};
use wire::{Value, WireError, WireResult};

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

/// Crosses the fabric as its code; a code beyond 16 bits, or one that
/// names no type, is refused, not truncated onto one.
impl Field for RType {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.u32(u32::from(self.code()))
    }

    fn read(v: &Value) -> WireResult<RType> {
        RType::from_code(v.as_u16()?).map_err(|e| WireError::Refused(e.to_string()))
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
    /// Text (for `TXT`, `HINFO`), shared as an opaque payload is.
    Text(Arc<str>),
    /// Opaque bytes (for `WKS`, `UNSPEC`), shared: a record handed out
    /// by a zone, a cache or a transfer points at the stored payload.
    Opaque(Arc<[u8]>),
    /// Start-of-authority payload, behind one `Arc` so that a rare `SOA`
    /// widens no other record.
    Soa(Arc<Soa>),
}

/// The fields of an `SOA` record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Soa {
    /// Primary server host name.
    pub primary: DomainName,
    /// Zone serial number.
    pub serial: u32,
    /// Default TTL for the zone, seconds.
    pub default_ttl: u32,
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
            RData::Soa(soa) => 8 + soa.primary.as_str().len(),
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
            RData::Soa(soa) => {
                b.push(4);
                b.extend_from_slice(&soa.serial.to_be_bytes());
                b.extend_from_slice(&soa.default_ttl.to_be_bytes());
                b.extend_from_slice(soa.primary.as_str().as_bytes());
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
                Ok(RData::Text(s.into()))
            }
            OPAQUE_TAG => Ok(RData::Opaque(rest.into())),
            4 => {
                let short = || NsError::BadRecord("short SOA rdata".into());
                let (serial, rest) = rest.split_first_chunk::<4>().ok_or_else(short)?;
                let (default_ttl, rest) = rest.split_first_chunk::<4>().ok_or_else(short)?;
                let s = std::str::from_utf8(rest)
                    .map_err(|_| NsError::BadRecord("bad SOA primary".into()))?;
                Ok(RData::Soa(Arc::new(Soa {
                    primary: DomainName::parse(s)?,
                    serial: u32::from_be_bytes(*serial),
                    default_ttl: u32::from_be_bytes(*default_ttl),
                })))
            }
            other => Err(NsError::BadRecord(format!("unknown rdata tag {other}"))),
        }
    }
}

/// The owner-independent remainder of a resource record: the one form a
/// record takes from a zone's body table to an answer's reader. Two
/// records at different names with the same type, TTL and rdata share
/// one body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RrBody {
    /// Record type.
    pub rtype: RType,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Payload.
    pub rdata: RData,
}

impl RrBody {
    /// The body of `rr`.
    pub(crate) fn of(rr: &ResourceRecord) -> RrBody {
        RrBody {
            rtype: rr.rtype,
            ttl: rr.ttl,
            rdata: rr.rdata.clone(),
        }
    }

    /// Stored bytes of the body alone (type + ttl + rdata).
    pub(crate) fn body_bytes(&self) -> usize {
        8 + self.rdata.encoded_len().unwrap_or(0)
    }

    /// Bytes the body's rdata points at: a name's share of its text,
    /// which bodies naming the same host hold once between them.
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.rdata {
            RData::Addr(_) => 0,
            RData::Domain(name) => name.resident_share(),
            RData::Text(text) => arc_bytes(text.len()),
            RData::Opaque(payload) => arc_bytes(payload.len()),
            RData::Soa(soa) => arc_bytes(std::mem::size_of::<Soa>()) + soa.primary.resident_share(),
        }
    }
}

/// What a lookup finds: an owner and its record bodies, the owner named
/// once, then the records of any other owner — a `CNAME`'s target, a
/// referral's glue. One body is held inline, so a one-record answer
/// allocates nothing; more share one vector.
#[derive(Debug, Clone)]
pub struct Records {
    owner: DomainName,
    bodies: BodyList,
    others: Vec<(DomainName, RrBody)>,
}

/// An owner's bodies: one inline, more in a vector.
#[derive(Debug, Clone)]
enum BodyList {
    One(RrBody),
    Many(Vec<RrBody>),
}

impl BodyList {
    fn as_slice(&self) -> &[RrBody] {
        match self {
            BodyList::One(body) => std::slice::from_ref(body),
            BodyList::Many(bodies) => bodies,
        }
    }
}

/// Equal when they hold the same records, however they hold them: the
/// owner of no bodies is nobody's.
impl PartialEq for Records {
    fn eq(&self, other: &Self) -> bool {
        let bodies = self.bodies();
        bodies == other.bodies()
            && (bodies.is_empty() || self.owner == other.owner)
            && self.others == other.others
    }
}

impl Eq for Records {}

impl Records {
    /// No records, owned by nobody: the root stands in.
    pub fn none() -> Records {
        Records::of(DomainName::root(), [])
    }

    /// `owner` and its `bodies`: none or one allocates nothing, more are
    /// collected once, sized by the iterator's bound.
    pub fn of(owner: DomainName, bodies: impl IntoIterator<Item = RrBody>) -> Records {
        let mut bodies = bodies.into_iter();
        let bodies = match (bodies.next(), bodies.next()) {
            (None, _) => BodyList::Many(Vec::new()),
            (Some(only), None) => BodyList::One(only),
            (Some(first), Some(second)) => {
                let (least, most) = bodies.size_hint();
                let mut list = Vec::with_capacity(most.unwrap_or(least) + 2);
                list.extend([first, second].into_iter().chain(bodies));
                BodyList::Many(list)
            }
        };
        let others = Vec::new();
        Records {
            owner,
            bodies,
            others,
        }
    }

    /// Adds the record of `body` at `name`, after every record held: the
    /// owner's if it is the first, or the owner's with no other owner's
    /// before it; else another owner's.
    pub fn push(&mut self, name: DomainName, body: RrBody) {
        if self.is_empty() {
            self.owner = name;
        } else if !self.others.is_empty() || name != self.owner {
            return self.others.push((name, body));
        }
        self.bodies = match std::mem::replace(&mut self.bodies, BodyList::Many(Vec::new())) {
            BodyList::Many(bodies) if bodies.capacity() == 0 => BodyList::One(body),
            BodyList::Many(mut bodies) => {
                bodies.push(body);
                BodyList::Many(bodies)
            }
            BodyList::One(held) => {
                let mut bodies = Vec::with_capacity(4);
                bodies.extend([held, body]);
                BodyList::Many(bodies)
            }
        };
    }

    /// The owner of [`Records::bodies`].
    pub fn owner(&self) -> &DomainName {
        &self.owner
    }

    /// The owner's bodies, in order.
    pub fn bodies(&self) -> &[RrBody] {
        self.bodies.as_slice()
    }

    /// The records of other owners, in order, after the owner's.
    pub fn others(&self) -> &[(DomainName, RrBody)] {
        &self.others
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.bodies().len() + self.others.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every record, the owner's first: its owner and its body.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&DomainName, &RrBody)> + Clone {
        let bodies = self.bodies();
        (0..self.len()).map(move |i| match bodies.get(i) {
            Some(body) => (&self.owner, body),
            None => {
                let (name, body) = &self.others[i - bodies.len()];
                (name, body)
            }
        })
    }

    /// The records made whole, each named by its owner: what a client
    /// that keeps them is handed (collected, they fill one allocation).
    pub fn whole(&self) -> impl ExactSizeIterator<Item = ResourceRecord> + '_ {
        (self.iter()).map(|(name, body)| ResourceRecord::new(name.clone(), body.clone()))
    }

    /// Decodes a list of record trees, as lookup replies carry them, as
    /// [`Records::push`] takes them in order; each owner is shared with
    /// the record before it as [`ResourceRecord::list_from_values`]
    /// shares it.
    pub(crate) fn from_values(list: &[Value]) -> NsResult<Records> {
        let mut records = Records::none();
        if list.len() > 1 {
            records.bodies = BodyList::Many(Vec::with_capacity(list.len()));
        }
        for (i, v) in list.iter().enumerate() {
            let previous = match records.others.last() {
                Some((other, _)) => other,
                None => &records.owner,
            };
            let record = ResourceRecord::decode(v, (i > 0).then_some(previous))?;
            let (name, body) = record.into_parts();
            records.push(name, body);
        }
        Ok(records)
    }
}

/// Whole records as [`Records::push`] takes them in order.
impl FromIterator<ResourceRecord> for Records {
    fn from_iter<I: IntoIterator<Item = ResourceRecord>>(records: I) -> Records {
        let mut found = Records::none();
        for record in records {
            let (name, body) = record.into_parts();
            found.push(name, body);
        }
        found
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
    /// The record of `body` at `name`.
    pub(crate) fn new(name: DomainName, body: RrBody) -> Self {
        let RrBody { rtype, ttl, rdata } = body;
        ResourceRecord {
            name,
            rtype,
            ttl,
            rdata,
        }
    }

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
    pub fn txt(name: DomainName, ttl: u32, text: impl Into<Arc<str>>) -> Self {
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

    /// Deserializes from a wire value.
    pub fn from_value(v: &Value) -> NsResult<ResourceRecord> {
        Self::decode(v, None)
    }

    /// Deserializes a list of records, as transfer replies carry them.
    /// Records of one owner arrive together, so an owner whose text equals
    /// the previous record's name shares that name instead of being
    /// validated and allocated again — equal canonical text parses to an
    /// equal name.
    pub fn list_from_values(list: &[Value]) -> NsResult<Vec<ResourceRecord>> {
        let mut records: Vec<ResourceRecord> = Vec::with_capacity(list.len());
        for v in list {
            let rr = Self::decode(v, records.last().map(|r| &r.name))?;
            records.push(rr);
        }
        Ok(records)
    }

    /// The one per-record decoder; `previous` names the record decoded
    /// just before this one of the same list, if any.
    fn decode(v: &Value, previous: Option<&DomainName>) -> NsResult<ResourceRecord> {
        let owner = v.str_field("name").map_err(bad_field)?;
        let rtype = RType::read(v)?;
        let ttl = v.u32_field("ttl").map_err(bad_field)?;
        let rdata = v
            .field("rdata")
            .and_then(Value::as_bytes)
            .map_err(bad_field)?;
        let name = match previous {
            Some(p) if p.as_str() == owner => p.clone(),
            _ => DomainName::parse(owner)?,
        };
        Ok(ResourceRecord {
            name,
            rtype,
            ttl,
            rdata: RData::from_bytes(rdata)?,
        })
    }

    /// The record's owner and its body.
    pub fn into_parts(self) -> (DomainName, RrBody) {
        let ResourceRecord {
            name,
            rtype,
            ttl,
            rdata,
        } = self;
        (name, RrBody { rtype, ttl, rdata })
    }

    /// Approximate stored size in bytes (for zone-transfer costing).
    pub fn size_bytes(&self) -> usize {
        self.name.wire_len() + 8 + self.rdata.encoded_len().unwrap_or(0)
    }
}

impl Shaped for ResourceRecord {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        let (name, rdata) = (&self.name, &self.rdata);
        record_shape(s, name, self.rtype, self.ttl, rdata)
    }
}

/// A record as a wire struct; its rdata is written as it is, the
/// [`MAX_RDATA`] rule being `check_rdata`'s.
pub(crate) fn record_shape<S: Shape>(
    s: &S,
    name: &DomainName,
    rtype: RType,
    ttl: u32,
    rdata: &RData,
) -> S::Out {
    s.record([
        ("name", s.str(name.as_str())),
        ("rtype", s.u32(u32::from(rtype.code()))),
        ("ttl", s.u32(ttl)),
        ("rdata", s.bytes(rdata.wire_len(), |b| rdata.write(b))),
    ])
}

/// What a decoder says of a field that is missing or of the wrong type.
pub(crate) fn bad_field(e: wire::WireError) -> NsError {
    NsError::BadRecord(e.to_string())
}

/// Refuses, as [`RData::to_bytes`] would, rdata beyond [`MAX_RDATA`] in
/// any of `rdata`: asked of a message before it leaves with it.
pub(crate) fn check_rdata<'a>(rdata: impl IntoIterator<Item = &'a RData>) -> NsResult<()> {
    rdata
        .into_iter()
        .try_for_each(|rdata| rdata.encoded_len().map(drop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::Message;

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
            RData::Soa(Arc::new(Soa {
                primary: name("ns.cs.washington.edu"),
                serial: 42,
                default_ttl: 3600,
            })),
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
        let v = rr.tree().into_owned();
        assert_eq!(ResourceRecord::from_value(&v).expect("from value"), rr);
    }

    /// `rtype` 0x0003_0001 used to read back as `A`.
    #[test]
    fn a_type_code_beyond_sixteen_bits_is_refused_not_truncated() {
        let rr = ResourceRecord::txt(name("a.b"), 60, "t");
        let Value::Struct(mut fields) = rr.tree().into_owned() else {
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
        let answer = crate::message::Answer::ok([rr].into_iter().collect());
        assert!(matches!(answer.to_value(), Err(NsError::BadRecord(_))));
    }

    #[test]
    fn unspec_record_value_roundtrip() {
        let rr = ResourceRecord::unspec(name("hns-meta.hns"), 600, b"ns=BIND".to_vec());
        let v = rr.tree().into_owned();
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
                let Value::Struct(mut fields) = rr.tree().into_owned() else {
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
