//! The meta-naming store and the `FindNSM` mapping chain over it.
//!
//! "Although all data associated with individually nameable entities is
//! kept in the underlying name services, the HNS maintains additional
//! meta-naming information needed for managing the global name space. This
//! information consists of the names and binding information for each name
//! service and each NSM, the names of all contexts, and the mappings from
//! contexts to name services. ... we use a version of BIND, modified to
//! support both dynamic updates and also data of unspecified type."
//!
//! Three record [`Kind`]s live here, mirroring `FindNSM`'s decomposition:
//!
//! 1. context → name-service name (one `UNSPEC` record),
//! 2. (name-service name, query class) → NSM name (one record),
//! 3. NSM name → NSM binding information (six records — this is the
//!    6-resource-record row of Table 3.2).
//!
//! The chain over them is written once, in `chase`: it derives each
//! `Step`'s key, asks its caller's `fetch` for the record there and reads
//! it. Where the records come from is the caller's business — cache and
//! meta server for [`crate::service::Hns`], the server's own zone for
//! [`crate::chaser::MetaChaser`] — but every one of them is a
//! [`MetaRecord`], decoded once by [`MetaRecord::decode`] where the set
//! entered the process, so a change of record format edits this file only.

use std::fmt;
use std::sync::{Arc, LazyLock};

use bindns::error::Rcode;
use bindns::message::Question;
use bindns::name::DomainName;
use bindns::resolver::HrpcResolver;
use bindns::rr::{RData, RType, Records, ResourceRecord, RrBody};
use bindns::update::UpdateOp;
use hrpc::error::RpcError;
use hrpc::ProgramId;
use simnet::topology::HostId;
use wire::Value;

use crate::cache::{Cacheable, HeapBytes};
use crate::error::{HnsError, HnsResult};
use crate::name::{Context, NameMapping};
use crate::nsm::{NsmBinding, SuiteTag};
use crate::query::QueryClass;

/// Default TTL for meta records, seconds.
pub const META_TTL: u32 = 600;

/// A value fetched from the meta store, with the sizing/lifetime data the
/// HNS cache needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fetched<T> {
    /// The decoded value.
    pub value: T,
    /// Resource records the reply carried (drives marshalling cost).
    pub rrs: usize,
    /// Minimum TTL among those records, seconds.
    pub ttl_secs: u32,
}

/// What a context maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextInfo {
    /// The name service responsible for the context.
    pub name_service: String,
    /// The individual-name ↔ local-name mapping.
    pub mapping: NameMapping,
}

/// The record kinds of the meta zone. A key's first label says which
/// kind lives under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Under `ctx`: context → name service and name mapping.
    Context,
    /// Under `map`: (name service, query class) → NSM name.
    NsmName,
    /// Under `info`: NSM name → binding information.
    NsmInfo,
}

impl Kind {
    /// Every kind.
    pub const ALL: [Kind; 3] = [Kind::Context, Kind::NsmName, Kind::NsmInfo];

    /// The first label of this kind's keys.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Context => "ctx",
            Kind::NsmName => "map",
            Kind::NsmInfo => "info",
        }
    }

    fn of_label(label: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.label() == label)
    }

    /// The kind of record set `key` names, if it is a meta key at all:
    /// the kind its text up to the first `.` spells.
    pub fn of_key(key: &DomainName) -> Option<Kind> {
        let text = key.as_str();
        let first = text.bytes().position(|b| b == b'.').unwrap_or(text.len());
        Kind::of_label(&text[..first])
    }
}

/// One mapping of a `FindNSM`, decoded: what the chain reads, and what a
/// demarshalled cache keeps. Mappings 1–5 are record sets of the meta
/// zone, [`MetaRecord::decode`]d where they enter the process; mapping 6
/// is the word of a linked host-address NSM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaRecord {
    /// Mappings 1 and 4: what a context maps to.
    Context(ContextInfo),
    /// Mappings 2 and 5: the NSM serving a (name service, query class).
    NsmName(String),
    /// Mapping 3: an NSM's binding information.
    NsmInfo(NsmBinding),
    /// Mapping 6: the address of an NSM's host.
    HostAddr(HostId),
}

fn bad(what: impl Into<String>) -> HnsError {
    HnsError::BadMetaRecord(what.into())
}

/// Files `value` as the one `key=` piece of its record set.
fn set_once<T>(slot: &mut Option<T>, key: &str, value: T) -> HnsResult<()> {
    match slot.replace(value) {
        None => Ok(()),
        Some(_) => Err(bad(format!("duplicate key `{key}`"))),
    }
}

/// The `key=value` pieces of one payload, `;` apart, each split at its
/// first `=`: one scan over the bytes finds both.
fn pieces(payload: &str) -> impl Iterator<Item = HnsResult<(&str, &str)>> {
    let mut rest = Some(payload);
    std::iter::from_fn(move || {
        let text = rest?;
        let (mut eq, mut end) = (None, text.len());
        for (at, &b) in text.as_bytes().iter().enumerate() {
            match b {
                b'=' if eq.is_none() => eq = Some(at),
                b';' => {
                    end = at;
                    break;
                }
                _ => {}
            }
        }
        // Past the last piece there is nothing; past a `;`, another piece.
        rest = text.get(end + 1..);
        let piece = &text[..end];
        Some(match eq {
            Some(eq) => Ok((&piece[..eq], &piece[eq + 1..])),
            None => Err(bad(format!("`{piece}`"))),
        })
    })
}

/// The payload [`MetaStore::register_context`] writes.
fn context_payload(name_service: &str, mapping: &NameMapping) -> String {
    format!("ns={name_service};map={}", mapping.encode())
}

impl MetaRecord {
    /// The one decoder: the payloads of a `kind` record set, as a reply, a
    /// zone, a transfer or a marshalled cache entry holds them, into the
    /// typed record. Every payload must be UTF-8; a context or NSM-name
    /// set is read off its first record, binding information off all of
    /// them, each `key=value` piece known, wanted and given once.
    pub fn decode<P: AsRef<[u8]>>(
        kind: Kind,
        payloads: impl IntoIterator<Item = P>,
    ) -> HnsResult<MetaRecord> {
        let mut first = None;
        let mut binding = BindingPieces::default();
        for (nth, payload) in payloads.into_iter().enumerate() {
            let payload =
                std::str::from_utf8(payload.as_ref()).map_err(|_| bad("non-UTF-8 payload"))?;
            match kind {
                Kind::Context if nth == 0 => first = Some(decode_context(payload)?),
                Kind::NsmName if nth == 0 => first = Some(MetaRecord::NsmName(payload.into())),
                Kind::NsmInfo => binding.read(payload)?,
                Kind::Context | Kind::NsmName => {}
            }
        }
        match kind {
            Kind::Context => first.ok_or_else(|| bad("empty context record")),
            Kind::NsmName => first.ok_or_else(|| bad("empty NSM record")),
            Kind::NsmInfo => binding.finish().map(MetaRecord::NsmInfo),
        }
    }

    /// What [`MetaRecord::decode`] reads this record back from: its kind
    /// and the payloads `MetaStore::register_*` would write for it.
    /// `None` for mapping 6, which no zone holds.
    pub fn payloads(&self) -> Option<(Kind, Vec<String>)> {
        Some(match self {
            MetaRecord::Context(info) => (
                Kind::Context,
                vec![context_payload(&info.name_service, &info.mapping)],
            ),
            MetaRecord::NsmName(name) => (Kind::NsmName, vec![name.clone()]),
            MetaRecord::NsmInfo(binding) => (Kind::NsmInfo, binding.to_records()),
            MetaRecord::HostAddr(_) => return None,
        })
    }

    fn wrong_kind(&self, wanted: &str) -> HnsError {
        bad(format!("expected {wanted}, found {self:?}"))
    }

    /// The context information of a mapping 1 or 4 record.
    pub fn as_context(&self) -> HnsResult<&ContextInfo> {
        match self {
            MetaRecord::Context(info) => Ok(info),
            other => Err(other.wrong_kind("a context record")),
        }
    }

    /// The NSM name of a mapping 2 or 5 record.
    pub fn as_nsm_name(&self) -> HnsResult<&str> {
        match self {
            MetaRecord::NsmName(name) => Ok(name),
            other => Err(other.wrong_kind("an NSM name")),
        }
    }

    /// The binding information of a mapping 3 record.
    pub fn as_nsm_info(&self) -> HnsResult<&NsmBinding> {
        match self {
            MetaRecord::NsmInfo(binding) => Ok(binding),
            other => Err(other.wrong_kind("NSM binding information")),
        }
    }

    /// The host of a mapping 6 record.
    pub fn as_host_addr(&self) -> HnsResult<HostId> {
        match self {
            MetaRecord::HostAddr(host) => Ok(*host),
            other => Err(other.wrong_kind("a host address")),
        }
    }
}

fn decode_context(payload: &str) -> HnsResult<MetaRecord> {
    let (mut name_service, mut mapping) = (None, None);
    for piece in pieces(payload) {
        match piece? {
            ("ns", v) => set_once(&mut name_service, "ns", v.to_string())?,
            ("map", v) => set_once(&mut mapping, "map", NameMapping::decode(v)?)?,
            (other, _) => return Err(bad(format!("unknown key `{other}`"))),
        }
    }
    Ok(MetaRecord::Context(ContextInfo {
        name_service: name_service.ok_or_else(|| bad("missing ns"))?,
        mapping: mapping.ok_or_else(|| bad("missing map"))?,
    }))
}

/// The pieces of mapping 3's six records, as they come in.
#[derive(Default)]
struct BindingPieces {
    host_name: Option<String>,
    host_context: Option<Context>,
    program: Option<ProgramId>,
    port: Option<u16>,
    suite: Option<SuiteTag>,
    version: Option<u32>,
    owner: Option<String>,
}

impl BindingPieces {
    fn read(&mut self, payload: &str) -> HnsResult<()> {
        fn number<T: std::str::FromStr>(what: &str, value: &str) -> HnsResult<T> {
            let unparsed = |_| bad(format!("bad {what} `{value}`"));
            value.parse().map_err(unparsed)
        }
        for piece in pieces(payload) {
            let (key, value) = piece?;
            match key {
                "host" => set_once(&mut self.host_name, key, value.to_string())?,
                "hostctx" => set_once(&mut self.host_context, key, Context::new(value)?)?,
                "prog" => set_once(&mut self.program, key, ProgramId(number("program", value)?))?,
                "port" => set_once(&mut self.port, key, number("port", value)?)?,
                "suite" => set_once(&mut self.suite, key, SuiteTag::decode(value)?)?,
                "ver" => set_once(&mut self.version, key, number("version", value)?)?,
                "owner" => set_once(&mut self.owner, key, value.to_string())?,
                other => return Err(bad(format!("unknown key `{other}`"))),
            }
        }
        Ok(())
    }

    fn finish(self) -> HnsResult<NsmBinding> {
        let missing = |what: &str| bad(format!("missing {what}"));
        Ok(NsmBinding {
            host_name: self.host_name.ok_or_else(|| missing("host"))?,
            host_context: self.host_context.ok_or_else(|| missing("hostctx"))?,
            program: self.program.ok_or_else(|| missing("prog"))?,
            port: self.port.ok_or_else(|| missing("port"))?,
            suite: self.suite.ok_or_else(|| missing("suite"))?,
            version: self.version.ok_or_else(|| missing("ver"))?,
            owner: self.owner.ok_or_else(|| missing("owner"))?,
        })
    }
}

/// The marshalled form of Table 3.2: the XDR list of the kind's label and
/// the payloads (of the host alone for mapping 6), so that a marshalled
/// hit demarshals and then decodes, through [`MetaRecord::decode`].
impl Cacheable for MetaRecord {
    fn marshal(&self) -> Option<Vec<u8>> {
        let list = match self {
            MetaRecord::HostAddr(host) => vec![Value::U32(host.0)],
            of_the_zone => {
                let (kind, payloads) = of_the_zone.payloads()?;
                let label = std::iter::once(kind.label().to_string());
                label.chain(payloads).map(Value::Str).collect()
            }
        };
        wire::xdr::encode(&Value::List(list)).ok()
    }

    fn demarshal(bytes: &[u8]) -> Option<Self> {
        match wire::xdr::decode(bytes).ok()?.as_list().ok()? {
            [Value::U32(host)] => Some(MetaRecord::HostAddr(HostId(*host))),
            [Value::Str(label), payloads @ ..] => {
                let payloads: Result<Vec<&str>, _> = payloads.iter().map(Value::as_str).collect();
                MetaRecord::decode(Kind::of_label(label)?, payloads.ok()?).ok()
            }
            _ => None,
        }
    }
}

impl HeapBytes for MetaRecord {
    fn heap_bytes(&self) -> usize {
        match self {
            MetaRecord::Context(info) => info.name_service.capacity() + info.mapping.heap_bytes(),
            MetaRecord::NsmName(nsm) => nsm.capacity(),
            MetaRecord::NsmInfo(binding) => {
                binding.host_name.capacity()
                    + binding.host_context.heap_bytes()
                    + binding.owner.capacity()
            }
            MetaRecord::HostAddr(_) => 0,
        }
    }
}

/// The payload of one body of the set that answers for `key`: it must be
/// an `UNSPEC` body of opaque data, of an owner that is `key` — `owned`,
/// which the caller checks once.
fn payload_of<'r>(
    key: &DomainName,
    (owner, owned): (&DomainName, bool),
    body: &'r RrBody,
) -> HnsResult<&'r [u8]> {
    if body.rtype != RType::Unspec {
        return Err(bad(format!("expected UNSPEC, found {}", body.rtype)));
    }
    match (owned, &body.rdata) {
        (false, _) => Err(bad(format!("`{owner}` answers for `{key}`"))),
        (true, RData::Opaque(payload)) => Ok(payload),
        (true, _) => Err(bad("expected opaque rdata")),
    }
}

/// Decodes the records that answer a question about `key`: a meta
/// server's answer, a zone's, a set of an `MQUERY` batch or of a
/// transfer. They must be `key`'s bodies alone, the owner checked once,
/// and the first that [`payload_of`] refuses ends the set and is the
/// error; what their payloads must be is [`MetaRecord::decode`]'s to say.
pub(crate) fn decode_records(
    key: &DomainName,
    records: &Records,
) -> HnsResult<Fetched<MetaRecord>> {
    let kind = Kind::of_key(key).ok_or_else(|| bad(format!("`{key}` is not a meta key")))?;
    let owner = records.owner();
    let owner = (owner, owner.as_str().eq_ignore_ascii_case(key.as_str()));
    let (mut rrs, mut ttl_secs, mut refused) = (0, None, None);
    let payloads = records
        .bodies()
        .iter()
        .map_while(|body| match payload_of(key, owner, body) {
            Ok(payload) => {
                rrs += 1;
                ttl_secs = Some(ttl_secs.map_or(body.ttl, |least: u32| least.min(body.ttl)));
                Some(payload)
            }
            Err(refusal) => {
                refused = Some(refusal);
                None
            }
        });
    let record = MetaRecord::decode(kind, payloads);
    if let Some(refusal) = refused {
        return Err(refusal);
    }
    if let Some((other, _)) = records.others().first() {
        return Err(bad(format!("`{other}` answers for `{key}`")));
    }
    Ok(Fetched {
        value: record?,
        rrs,
        ttl_secs: ttl_secs.unwrap_or(META_TTL),
    })
}

/// The meta store: a client of the modified BIND holding the `hns` zone.
pub struct MetaStore {
    resolver: HrpcResolver,
    origin: DomainName,
    record_ttl: parking_lot::Mutex<u32>,
}

/// A batched meta fetch: the primary record set plus any speculative
/// additional sets the meta server piggybacked on the same reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaBatch {
    /// The answer to the primary question; `None` when the meta server
    /// reported the name absent (NameError / NoData).
    pub primary: Option<Fetched<MetaRecord>>,
    /// Speculative additional sets, keyed by the meta name they live under.
    pub additional: Vec<(DomainName, Fetched<MetaRecord>)>,
}

/// The query class of mapping 5, built once: a `QueryClass` owns a
/// lowercased copy of its name.
static HOST_ADDRESS: LazyLock<QueryClass> = LazyLock::new(QueryClass::host_address);

/// One meta-zone mapping of `FindNSM` and what it is asked about: the
/// paper's three, then the first two again to locate the NSM's host.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step<'a> {
    /// Mapping 1: the query's context → its name service.
    Context(&'a Context),
    /// Mapping 2: (name service, query class) → NSM name.
    NsmName(&'a str, &'a str),
    /// Mapping 3: NSM name → binding information.
    NsmInfo(&'a str),
    /// Mapping 4: mapping 1 for the context of the NSM's host.
    HostContext(&'a Context),
    /// Mapping 5: mapping 2 for the host's name service and the
    /// host-address query class.
    HostAddrNsm(&'a str, &'a str),
}

impl Step<'_> {
    /// The paper's number for this mapping, 1–5.
    pub(crate) fn mapping(&self) -> usize {
        match self {
            Step::Context(_) => 1,
            Step::NsmName(..) => 2,
            Step::NsmInfo(_) => 3,
            Step::HostContext(_) => 4,
            Step::HostAddrNsm(..) => 5,
        }
    }

    /// The meta-zone name this mapping's record set lives under: one
    /// label for the record kind, one for what is asked about, case
    /// folded. Written once — every mapping of every walk, read or
    /// write, derives one — by [`DomainName::child_of`], which copies,
    /// folds and checks each byte in one pass into the name's one
    /// allocation. A key must determine the name it came from, so a name
    /// that is not [`keyable`] is refused, and so is a name service that
    /// would let two (name service, query class) pairs meet across the
    /// `--` that joins them.
    pub(crate) fn key(&self, origin: &DomainName) -> HnsResult<DomainName> {
        let (kind, about, splits): (Kind, &[&str], bool) = match self {
            Step::Context(context) | Step::HostContext(context) => {
                (Kind::Context, &[context.as_str()], true)
            }
            Step::NsmName(ns, qc) | Step::HostAddrNsm(ns, qc) => {
                let splits = !ns.contains("--") && !ns.ends_with('-');
                (Kind::NsmName, &[ns, "--", qc], splits)
            }
            Step::NsmInfo(nsm_name) => (Kind::NsmInfo, &[nsm_name], true),
        };
        let len: usize = about.iter().map(|piece| piece.len()).sum();
        // The bytes are `child_of`'s to check, but a dot it takes for the
        // end of a label.
        let bare = |piece: &&str| !piece.is_empty() && !piece.contains('.');
        if !(splits && len <= MAX_KEY_LABEL && about.iter().all(bare)) {
            return Err(unkeyed(about));
        }
        let mut pieces = [kind.label(), ".", "", "", ""];
        pieces[2..2 + about.len()].copy_from_slice(about);
        origin.child_of(&pieces).map_err(|e| {
            // Of keyable bytes, only a key past a name's length is refused.
            match about.iter().all(|piece| piece.bytes().all(key_byte)) {
                true => bad(e.to_string()),
                false => unkeyed(about),
            }
        })
    }
}

/// The refusal of a name that has no meta key.
fn unkeyed(about: &[&str]) -> HnsError {
    HnsError::BadName(format!(
        "`{}` has no meta key: a keyed name is 1..={MAX_KEY_LABEL} characters of \
         [A-Za-z0-9_-], a name service holds no `--` and ends in none",
        about.concat()
    ))
}

/// The label of the mapping's trace span.
impl fmt::Display for Step<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Context(context) => write!(f, "context {context} -> name service"),
            Step::NsmName(ns, qc) => write!(f, "({ns}, {qc}) -> NSM name"),
            Step::NsmInfo(nsm_name) => write!(f, "NSM {nsm_name} -> binding info"),
            Step::HostContext(context) => write!(f, "host context {context} -> name service"),
            Step::HostAddrNsm(ns, qc) => write!(f, "({ns}, {qc}) -> HA-NSM name"),
        }
    }
}

/// A record as the chain holds it: shared with a cache or a batch's
/// overlay that keeps it, or owned outright when nothing keeps it — a
/// cache-off walk, the server's chaser — so that no walk wraps a record
/// in an `Arc` nobody shares.
#[derive(Debug)]
pub(crate) enum Held {
    /// Kept elsewhere too.
    Shared(Arc<MetaRecord>),
    /// The walk's alone.
    Owned(MetaRecord),
}

impl std::ops::Deref for Held {
    type Target = MetaRecord;

    fn deref(&self) -> &MetaRecord {
        match self {
            Held::Shared(record) => record,
            Held::Owned(record) => record,
        }
    }
}

/// What the chain asks of its caller: the record at `key`.
pub(crate) type Fetch<'f> = dyn FnMut(Step<'_>, &DomainName) -> HnsResult<Held> + 'f;

/// Derives `step`'s key and asks `fetch` for the record there. A
/// `NotFound` comes back as what it means to the caller of `FindNSM`.
pub(crate) fn ask(origin: &DomainName, step: Step<'_>, fetch: &mut Fetch<'_>) -> HnsResult<Held> {
    use RpcError::NotFound;
    fetch(step, &step.key(origin)?).map_err(|err| match (err, step) {
        (HnsError::Rpc(NotFound(_)), Step::Context(context) | Step::HostContext(context)) => {
            HnsError::NoSuchContext(context.as_str().to_string())
        }
        (HnsError::Rpc(NotFound(_)), Step::NsmName(ns, qc) | Step::HostAddrNsm(ns, qc)) => {
            HnsError::NoSuchNsm {
                name_service: ns.to_string(),
                query_class: qc.to_string(),
            }
        }
        (err, _) => err,
    })
}

/// What [`chase`] found: mappings 2–5 of one `FindNSM`, read where the
/// fetched records lie.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chased<'a> {
    /// Mapping 2: the NSM serving (name service, query class).
    pub nsm_name: &'a str,
    /// Mapping 3: its binding information, naming the host it runs on.
    pub info: &'a NsmBinding,
    /// Mapping 4: what that host's context maps to.
    pub host_context: &'a ContextInfo,
    /// Mapping 5: the host-address NSM of the host's name service.
    pub host_addr_nsm: &'a str,
}

/// The `FindNSM` chain after mapping 1: from a name service and a query
/// class to everything needed to call the NSM but its host's address,
/// handed to `found` while the four records are held. Stops at the first
/// link it cannot follow; asks for every key it needs, in order, even one
/// it has asked for before.
pub(crate) fn chase<T>(
    origin: &DomainName,
    name_service: &str,
    query_class: &str,
    fetch: &mut Fetch<'_>,
    found: impl FnOnce(Chased<'_>) -> HnsResult<T>,
) -> HnsResult<T> {
    let record = ask(origin, Step::NsmName(name_service, query_class), fetch)?;
    let nsm_name = record.as_nsm_name()?;
    let record = ask(origin, Step::NsmInfo(nsm_name), fetch)?;
    let info = record.as_nsm_info()?;
    // The info names the NSM's host, and translating that name "is in
    // itself an HNS naming operation": mappings 1–2 again.
    let record = ask(origin, Step::HostContext(&info.host_context), fetch)?;
    let host_context = record.as_context()?;
    let step = Step::HostAddrNsm(&host_context.name_service, HOST_ADDRESS.as_str());
    let record = ask(origin, step, fetch)?;
    found(Chased {
        nsm_name,
        info,
        host_context,
        host_addr_nsm: record.as_nsm_name()?,
    })
}

/// Longest name a meta key label holds.
const MAX_KEY_LABEL: usize = 60;

fn key_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-' || b == b'_'
}

/// Whether `name` survives meta-key derivation, case aside: 1 to 60
/// characters of `[A-Za-z0-9_-]`. Any other name has no key — were it
/// folded onto one, two names (`ee.uw`, `ee-uw`) would share a record and
/// registering either would rebind the other.
pub fn keyable(name: &str) -> bool {
    (1..=MAX_KEY_LABEL).contains(&name.len()) && name.bytes().all(key_byte)
}

impl MetaStore {
    /// Creates a store speaking to the modified BIND behind `resolver`,
    /// whose meta zone is rooted at `origin` (conventionally `hns`).
    pub fn new(resolver: HrpcResolver, origin: DomainName) -> Self {
        MetaStore {
            resolver,
            origin,
            record_ttl: parking_lot::Mutex::new(META_TTL),
        }
    }

    /// The meta zone origin.
    pub fn origin(&self) -> &DomainName {
        &self.origin
    }

    /// Sets the TTL stamped on subsequently written records (the TTL
    /// sensitivity ablation varies this).
    pub fn set_record_ttl(&self, ttl_secs: u32) {
        *self.record_ttl.lock() = ttl_secs;
    }

    /// The TTL currently stamped on written records.
    pub fn record_ttl(&self) -> u32 {
        *self.record_ttl.lock()
    }

    /// Replaces the record set at meta key `name` by one `UNSPEC` record
    /// per payload; no payloads deletes it.
    pub(crate) fn write(
        &self,
        name: DomainName,
        payloads: impl IntoIterator<Item = String>,
    ) -> HnsResult<()> {
        let ttl = self.record_ttl();
        let records: Vec<ResourceRecord> = payloads
            .into_iter()
            .map(|p| ResourceRecord::unspec(name.clone(), ttl, p.into_bytes()))
            .collect();
        self.resolver
            .update(&UpdateOp::Replace {
                name,
                rtype: RType::Unspec,
                records,
            })
            .map_err(HnsError::Rpc)
    }

    /// Reads the record at a meta key, decoded straight off the answer's
    /// records.
    pub fn fetch(&self, key: &DomainName) -> HnsResult<Fetched<MetaRecord>> {
        let records = self.resolver.query(key, RType::Unspec)?;
        decode_records(key, &records)
    }

    /// Fetches `primary` plus whatever additional sets the meta server's
    /// chaser speculatively attaches for the given query-class `hints`,
    /// all in one round trip.
    ///
    /// A NameError/NoData on the primary question comes back as
    /// `primary: None` (the caller turns it into a negative cache entry);
    /// unattachable hints simply yield fewer additional sets — the caller
    /// falls back to sequential fetches for anything missing.
    pub fn fetch_batch(&self, primary: &DomainName, hints: &[String]) -> HnsResult<MetaBatch> {
        let questions = [Question::new(primary.clone(), RType::Unspec)];
        let multi = self
            .resolver
            .mquery(&questions, hints)
            .map_err(HnsError::Rpc)?;
        let answer = multi
            .answers
            .first()
            .ok_or_else(|| bad("mquery reply missing answer"))?;
        let primary_set = match answer.rcode {
            Rcode::Ok => Some(decode_records(primary, &answer.records)?),
            Rcode::NameError | Rcode::NoData => None,
            other => {
                return Err(HnsError::Rpc(RpcError::Service(format!(
                    "mquery rcode {other:?}"
                ))))
            }
        };
        let mut additional = Vec::with_capacity(multi.additional.len());
        for set in &multi.additional {
            if set.rcode != Rcode::Ok || set.records.is_empty() {
                continue;
            }
            let owner = set.records.owner();
            additional.push((owner.clone(), decode_records(owner, &set.records)?));
        }
        Ok(MetaBatch {
            primary: primary_set,
            additional,
        })
    }

    /// Registers (or replaces) a context.
    pub fn register_context(
        &self,
        context: &Context,
        name_service: &str,
        mapping: &NameMapping,
    ) -> HnsResult<()> {
        let payload = context_payload(name_service, mapping);
        self.write(Step::Context(context).key(&self.origin)?, [payload])
    }

    /// Registers (or replaces) which NSM serves a (name service, query
    /// class) pair.
    pub fn register_nsm(
        &self,
        name_service: &str,
        qc: &QueryClass,
        nsm_name: &str,
    ) -> HnsResult<()> {
        let key = Step::NsmName(name_service, qc.as_str()).key(&self.origin)?;
        self.write(key, [nsm_name.to_string()])
    }

    /// Registers an NSM's binding information (six records).
    pub fn register_nsm_info(&self, info: &crate::nsm::NsmInfo) -> HnsResult<()> {
        let key = Step::NsmInfo(&info.nsm_name).key(&self.origin)?;
        self.write(key, info.binding.to_records())
    }
}

impl std::fmt::Debug for MetaStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaStore")
            .field("origin", &self.origin.as_str())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsm::NsmInfo;
    use bindns::rr::RData;
    use bindns::server::{deploy, single_zone_server};
    use bindns::zone::Zone;
    use hrpc::net::RpcNet;
    use simnet::world::World;
    use std::collections::HashMap;

    fn origin() -> DomainName {
        DomainName::parse("hns").expect("origin")
    }

    fn setup() -> (Arc<simnet::World>, MetaStore) {
        let world = World::paper();
        let hns_host = world.add_host("hns-host");
        let meta_host = world.add_host("meta-bind-host");
        let net = RpcNet::new(Arc::clone(&world));
        let zone = Zone::new(origin(), META_TTL);
        let dep = deploy(&net, meta_host, single_zone_server("meta-bind", zone, true));
        let resolver = HrpcResolver::new(net, hns_host, dep.hrpc_binding);
        (world, MetaStore::new(resolver, origin()))
    }

    fn ctx(s: &str) -> Context {
        Context::new(s).expect("ctx")
    }

    fn info(nsm_name: &str, host_name: &str, host_context: &str) -> NsmInfo {
        NsmInfo {
            nsm_name: nsm_name.into(),
            binding: NsmBinding {
                host_name: host_name.into(),
                host_context: ctx(host_context),
                program: ProgramId(300_001),
                port: 1025,
                suite: SuiteTag::Sun,
                version: 1,
                owner: "hcs".into(),
            },
        }
    }

    fn sample_info() -> NsmInfo {
        info("nsm-hrpcbinding-bind", "june.cs.washington.edu", "bind-uw")
    }

    fn key(step: Step<'_>) -> DomainName {
        step.key(&origin()).expect("key")
    }

    /// What [`chase`] found, copied out of the records it held.
    #[derive(Debug)]
    struct Found {
        nsm_name: String,
        info: NsmInfo,
        host_context: ContextInfo,
        host_addr_nsm: String,
    }

    fn chased(ns: &str, qc: &str, fetch: &mut Fetch<'_>) -> HnsResult<Found> {
        chase(&origin(), ns, qc, fetch, |found| {
            Ok(Found {
                nsm_name: found.nsm_name.into(),
                info: NsmInfo {
                    nsm_name: found.nsm_name.into(),
                    binding: found.info.clone(),
                },
                host_context: found.host_context.clone(),
                host_addr_nsm: found.host_addr_nsm.into(),
            })
        })
    }

    fn context_info(step: Step<'_>, fetch: &mut Fetch<'_>) -> HnsResult<ContextInfo> {
        Ok(ask(&origin(), step, fetch)?.as_context()?.clone())
    }

    /// A `fetch` answering from the real meta store, one RPC per set.
    fn live(meta: &MetaStore) -> impl FnMut(Step<'_>, &DomainName) -> HnsResult<Held> + '_ {
        |_, key| Ok(Held::Owned(meta.fetch(key)?.value))
    }

    /// A scripted meta zone — no world, no RPC: the BIND and Clearinghouse
    /// chains of the paper's testbed, the binding NSMs' host named in
    /// `bind-uw` and the mail NSM's in `ch-uw`.
    fn script() -> HashMap<String, Vec<String>> {
        let sets: [(&str, Vec<String>); 8] = [
            ("ctx.bind-uw.hns", vec!["ns=BIND;map=id".into()]),
            ("ctx.ch-uw.hns", vec!["ns=Clearinghouse;map=id".into()]),
            ("map.bind--hrpcbinding.hns", vec!["nsm-b".into()]),
            (
                "map.clearinghouse--mailboxlocation.hns",
                vec!["nsm-m".into()],
            ),
            (
                "info.nsm-b.hns",
                info("nsm-b", "june", "bind-uw").binding.to_records(),
            ),
            (
                "info.nsm-m.hns",
                info("nsm-m", "ivory", "ch-uw").binding.to_records(),
            ),
            ("map.bind--hostaddress.hns", vec!["nsm-ha-b".into()]),
            (
                "map.clearinghouse--hostaddress.hns",
                vec!["nsm-ha-c".into()],
            ),
        ];
        sets.into_iter()
            .map(|(k, payloads)| (k.to_string(), payloads))
            .collect()
    }

    /// Runs `f` against a `fetch` answering from `zone`; returns its
    /// result and one `mapping key` line per call it made.
    fn scripted<R>(
        zone: &HashMap<String, Vec<String>>,
        f: impl FnOnce(&mut Fetch<'_>) -> R,
    ) -> (R, Vec<String>) {
        let mut asked = Vec::new();
        let result = f(&mut |step, key| {
            asked.push(format!("{} {key}", step.mapping()));
            let payloads = zone
                .get(key.as_str())
                .ok_or_else(|| HnsError::Rpc(RpcError::NotFound(key.to_string())))?;
            let kind = Kind::of_key(key).expect("a meta key");
            Ok(Held::Owned(MetaRecord::decode(kind, payloads)?))
        });
        (result, asked)
    }

    #[test]
    fn chase_asks_for_each_key_in_order() {
        let zone = script();
        let (found, asked) = scripted(&zone, |fetch| {
            chased("BIND", "hrpcbinding", fetch).expect("BIND chain")
        });
        assert_eq!(
            asked,
            [
                "2 map.bind--hrpcbinding.hns",
                "3 info.nsm-b.hns",
                "4 ctx.bind-uw.hns",
                "5 map.bind--hostaddress.hns",
            ]
        );
        assert_eq!(found.nsm_name, "nsm-b");
        assert_eq!(found.info, info("nsm-b", "june", "bind-uw"));
        assert_eq!(found.host_context.name_service, "BIND");
        assert_eq!(found.host_addr_nsm, "nsm-ha-b");
        // The chain carries records only: which of them lapses first is the
        // walk's to fold, and `service::tests` holds the composed expiry to
        // the earliest part's instant, where the chain's TTL asserts were.

        let (found, asked) = scripted(&zone, |fetch| {
            chased("Clearinghouse", "mailboxlocation", fetch).expect("CH chain")
        });
        assert_eq!(
            asked,
            [
                "2 map.clearinghouse--mailboxlocation.hns",
                "3 info.nsm-m.hns",
                "4 ctx.ch-uw.hns",
                "5 map.clearinghouse--hostaddress.hns",
            ]
        );
        assert_eq!(found.host_addr_nsm, "nsm-ha-c");
    }

    #[test]
    fn chase_stops_at_a_missing_link_with_the_typed_error() {
        // `gone` is removed from the scripted zone before the chase.
        let run = |gone: &str, qc: &str| {
            let mut zone = script();
            zone.remove(gone);
            let (result, asked) = scripted(&zone, |fetch| chased("BIND", qc, fetch));
            (result.expect_err(gone), asked)
        };
        // Mapping 3 has no error of its own: the `NotFound` names the key.
        let (err, asked) = run("info.nsm-b.hns", "hrpcbinding");
        assert_eq!(
            err,
            HnsError::Rpc(RpcError::NotFound("info.nsm-b.hns".into()))
        );
        assert_eq!(asked.len(), 2, "nothing asked past the break: {asked:?}");
        // Mappings 2 and 5 say which (name service, query class) has no
        // NSM; mapping 4, which context does not exist.
        let nsm_less = |ns: &str, qc: &str| HnsError::NoSuchNsm {
            name_service: ns.into(),
            query_class: qc.into(),
        };
        assert_eq!(run("", "userinfo").0, nsm_less("BIND", "userinfo"));
        assert_eq!(
            run("map.bind--hostaddress.hns", "hrpcbinding").0,
            nsm_less("BIND", "hostaddress")
        );
        assert_eq!(
            run("ctx.bind-uw.hns", "hrpcbinding").0,
            HnsError::NoSuchContext("bind-uw".into())
        );
    }

    #[test]
    fn the_chain_asks_again_for_a_key_it_has_seen() {
        // The BIND binding NSM runs on a host named in the very context
        // being queried, so mapping 4's key is mapping 1's. The chain asks
        // for it both times: answering the second from memory is the
        // cache's job, attaching it once the chaser's.
        let (_, asked) = scripted(&script(), |fetch| {
            let queried = ctx("bind-uw");
            let ctx_info = context_info(Step::Context(&queried), fetch).expect("mapping 1");
            assert_eq!(ctx_info.name_service, "BIND");
            chased(&ctx_info.name_service, "hrpcbinding", fetch).expect("chain");
        });
        assert_eq!(asked[0], "1 ctx.bind-uw.hns");
        assert_eq!(asked[3], "4 ctx.bind-uw.hns");
    }

    #[test]
    fn a_record_of_another_kind_is_a_typed_error_not_a_panic() {
        // No key derivation files an NSM name under a context key; a
        // `fetch` that did so anyway is refused where the record is read.
        let mut zone = script();
        let misfiled = zone["map.bind--hostaddress.hns"].clone();
        let (result, _) = scripted(&zone, |fetch| {
            let mut misfiling = |step: Step<'_>, key: &DomainName| match step {
                Step::HostContext(_) => Ok(Held::Owned(MetaRecord::NsmName("x".into()))),
                _ => fetch(step, key),
            };
            chased("BIND", "hrpcbinding", &mut misfiling)
        });
        assert!(
            matches!(result, Err(HnsError::BadMetaRecord(_))),
            "{result:?}"
        );
        zone.insert("ctx.bind-uw.hns".into(), misfiled);
        let (result, _) = scripted(&zone, |fetch| chased("BIND", "hrpcbinding", fetch));
        assert!(
            matches!(result, Err(HnsError::BadMetaRecord(_))),
            "{result:?}"
        );
    }

    #[test]
    fn the_host_address_class_is_spelled_as_query_classes_are() {
        let qc = QueryClass::host_address();
        assert_eq!(
            key(Step::HostAddrNsm("BIND", HOST_ADDRESS.as_str())),
            key(Step::NsmName("BIND", qc.as_str()))
        );
    }

    #[test]
    fn every_record_kind_roundtrips_through_the_store() {
        let (_world, meta) = setup();
        let mapping = NameMapping::Suffixed {
            suffix: ":cs:uw".into(),
        };
        let qc = QueryClass::hrpc_binding();
        meta.register_context(&ctx("bind-uw"), "BIND", &mapping)
            .expect("context");
        meta.register_nsm("BIND", &qc, "nsm-hrpcbinding-bind")
            .expect("nsm name");
        meta.register_nsm_info(&sample_info()).expect("nsm info");
        meta.register_nsm("BIND", &QueryClass::host_address(), "nsm-ha-bind")
            .expect("host-address nsm");

        let ctx_info =
            context_info(Step::Context(&ctx("bind-uw")), &mut live(&meta)).expect("mapping 1");
        assert_eq!(ctx_info.name_service, "BIND");
        assert_eq!(ctx_info.mapping, mapping);
        let found = chased("BIND", qc.as_str(), &mut live(&meta)).expect("chain");
        assert_eq!(found.nsm_name, "nsm-hrpcbinding-bind");
        assert_eq!(found.info, sample_info());
        assert_eq!(found.host_context, ctx_info);
        assert_eq!(found.host_addr_nsm, "nsm-ha-bind");

        // What a fetch decodes is what `register_*` wrote, record for
        // record, and writes back to the same payloads.
        let steps = [
            (Step::Context(&ctx("bind-uw")), 1),
            (Step::NsmName("BIND", qc.as_str()), 1),
            (Step::NsmInfo("nsm-hrpcbinding-bind"), NsmInfo::RECORDS),
        ];
        for (step, rrs) in steps {
            let fetched = meta.fetch(&key(step)).expect("fetch");
            assert_eq!(fetched.rrs, rrs, "{step}");
            let (kind, payloads) = fetched.value.payloads().expect("a zone record");
            assert_eq!(Some(kind), Kind::of_key(&key(step)));
            assert_eq!(payloads.len(), rrs);
            let again = MetaRecord::decode(kind, &payloads).expect("decodes again");
            assert_eq!(again, fetched.value, "{step}");
        }
        assert_eq!(
            meta.fetch(&key(steps[2].0)).expect("fetch").value,
            MetaRecord::decode(Kind::NsmInfo, sample_info().binding.to_records()).expect("decode")
        );
    }

    #[test]
    fn a_record_marshals_to_what_demarshals_to_it() {
        let binding = MetaRecord::decode(Kind::NsmInfo, sample_info().binding.to_records());
        let records = [
            MetaRecord::Context(ContextInfo {
                name_service: "BIND".into(),
                mapping: NameMapping::Prefixed {
                    prefix: "uw:".into(),
                },
            }),
            MetaRecord::NsmName("nsm-ha-bind".into()),
            binding.expect("decode"),
            MetaRecord::HostAddr(HostId(7)),
        ];
        for record in records {
            let bytes = record.marshal().expect("marshals");
            assert_eq!(MetaRecord::demarshal(&bytes), Some(record));
        }
        let garbage: [&[u8]; 3] = [&[], &[0xff; 3], b"ns=BIND;map=id"];
        for bytes in garbage {
            assert_eq!(MetaRecord::demarshal(bytes), None);
        }
        let unlabelled = Value::List(vec![Value::str("ns=BIND;map=id")]);
        let bytes = wire::xdr::encode(&unlabelled).expect("encodes");
        assert_eq!(MetaRecord::demarshal(&bytes), None);
    }

    /// The records an answer of `records` holds, decoded for `key`.
    fn decode(key: &DomainName, records: &[&ResourceRecord]) -> HnsResult<Fetched<MetaRecord>> {
        let records: Records = records.iter().map(|&rr| rr.clone()).collect();
        decode_records(key, &records)
    }

    /// One answer of a set under `key`, well formed unless edited.
    fn answer(key: &str, payload: &[u8]) -> ResourceRecord {
        let owner = DomainName::parse(key).expect("key");
        ResourceRecord::unspec(owner, META_TTL, payload.to_vec())
    }

    #[test]
    fn the_decoder_refuses_what_is_not_a_meta_record_set() {
        use Kind::{Context as C, NsmInfo as I, NsmName as N};
        let bad_meta = |result: HnsResult<Fetched<MetaRecord>>, what: &str| {
            assert!(
                matches!(result, Err(HnsError::BadMetaRecord(_))),
                "{what}: {result:?}"
            );
        };
        // What answers: owner, type, rdata.
        let ctx_key = DomainName::parse("ctx.bind-uw.hns").expect("key");
        let good = answer("ctx.bind-uw.hns", b"ns=BIND;map=id");
        let decoded = decode(&ctx_key, &[&good]).expect("well formed");
        assert_eq!((decoded.rrs, decoded.ttl_secs), (1, META_TTL));
        let spelt = answer("CTX.Bind-UW.hns.", b"ns=BIND;map=id");
        assert_eq!(decode(&ctx_key, &[&spelt]), Ok(decoded));
        let other = answer("ctx.ch-uw.hns", b"ns=BIND;map=id");
        bad_meta(decode(&ctx_key, &[&other]), "wrong owner");
        bad_meta(decode(&ctx_key, &[&good, &other]), "wrong owner second");
        let wks = ResourceRecord {
            rtype: RType::Wks,
            ..good.clone()
        };
        bad_meta(decode(&ctx_key, &[&wks]), "opaque, but not UNSPEC");
        let text = ResourceRecord {
            rdata: RData::Text("ns=BIND;map=id".into()),
            ..good.clone()
        };
        bad_meta(decode(&ctx_key, &[&text]), "UNSPEC, but not opaque");
        let unkeyed = answer("n7.cell0.hns", b"ns=BIND;map=id");
        bad_meta(decode(&unkeyed.name, &[&unkeyed]), "no kind");
        bad_meta(decode(&ctx_key, &[]), "empty");
        // The least TTL of the set is the set's.
        let mut six: Vec<_> = sample_info().binding.to_records().into_iter().collect();
        six.rotate_left(2);
        let mut six: Vec<_> = six
            .iter()
            .map(|payload| answer("info.nsm-b.hns", payload.as_bytes()))
            .collect();
        six[4].ttl = 17;
        let info_key = six[0].name.clone();
        let decoded =
            decode(&info_key, &six.iter().collect::<Vec<_>>()).expect("six records, any order");
        assert_eq!((decoded.rrs, decoded.ttl_secs), (6, 17));
        assert_eq!(decoded.value.as_nsm_info().expect("info").port, 1025);

        // What the payloads hold, by kind.
        let six = sample_info().binding.to_records();
        let without = |gone: &str| -> Vec<String> {
            let kept = six.iter().filter(|payload| !payload.starts_with(gone));
            kept.cloned().collect()
        };
        let with =
            |more: &str| -> Vec<String> { six.iter().cloned().chain([more.to_string()]).collect() };
        let text = |payloads: &[&str]| payloads.iter().map(|p| p.to_string()).collect();
        let refused: Vec<(&str, Kind, Vec<String>)> = vec![
            ("empty context set", C, vec![]),
            ("empty NSM-name set", N, vec![]),
            ("empty info set", I, vec![]),
            ("context without ns", C, text(&["map=id"])),
            ("context without map", C, text(&["ns=BIND"])),
            (
                "context with a key of its own",
                C,
                text(&["ns=BIND;map=id;x=1"]),
            ),
            (
                "context with a piece that is no pair",
                C,
                text(&["ns=BIND;map=id;"]),
            ),
            ("context with ns twice", C, text(&["ns=BIND;ns=CH;map=id"])),
            (
                "context with a mapping unheard of",
                C,
                text(&["ns=BIND;map=rot13"]),
            ),
            ("info without host", I, without("host=")),
            ("info without prog and port", I, without("prog=")),
            ("info without owner", I, without("owner=")),
            ("info with a key of its own", I, with("colour=red")),
            ("info with a piece that is no pair", I, with("bogus")),
            ("info with host twice", I, with("host=elsewhere")),
            ("info with port twice", I, with("port=1")),
            (
                "info with a port that is no number",
                I,
                rewritten(&six, "prog=300001;port=http"),
            ),
            (
                "info with a suite unheard of",
                I,
                rewritten(&six, "suite=smoke"),
            ),
        ];
        for (what, kind, payloads) in refused {
            let result = MetaRecord::decode(kind, &payloads);
            assert!(
                matches!(result, Err(HnsError::BadMetaRecord(_))),
                "{what}: {result:?}"
            );
        }
        for kind in Kind::ALL {
            let result = MetaRecord::decode(kind, [&[0xff_u8, 0xfe][..]]);
            assert_eq!(
                result,
                Err(HnsError::BadMetaRecord("non-UTF-8 payload".into())),
                "{kind:?}"
            );
        }
        // A second record of a one-record set is not read, but is checked.
        let spare = MetaRecord::decode(N, ["nsm-b", "spare"]).expect("first one counts");
        assert_eq!(spare, MetaRecord::NsmName("nsm-b".into()));
        assert!(MetaRecord::decode(N, [&b"nsm-b"[..], &[0xff]]).is_err());
        // A context that is malformed as a context is that error still.
        assert!(matches!(
            MetaRecord::decode(I, rewritten(&six, "hostctx=a!b")),
            Err(HnsError::BadName(_))
        ));
    }

    /// `six` with the record that opens like `edited` replaced by it.
    fn rewritten(six: &[String], edited: &str) -> Vec<String> {
        let opens = edited.split_once('=').expect("a pair").0;
        let keep = |payload: &String| match payload.starts_with(opens) {
            true => edited.to_string(),
            false => payload.clone(),
        };
        let edited: Vec<String> = six.iter().map(keep).collect();
        assert_ne!(edited, six, "`{opens}` opens no record");
        edited
    }

    #[test]
    fn unregistered_names_are_specific_errors() {
        let (_world, meta) = setup();
        assert_eq!(
            context_info(Step::Context(&ctx("ghost")), &mut live(&meta)),
            Err(HnsError::NoSuchContext("ghost".into()))
        );
        assert!(matches!(
            chased("BIND", "mailboxlocation", &mut live(&meta)),
            Err(HnsError::NoSuchNsm { .. })
        ));
    }

    #[test]
    fn reregistration_replaces() {
        let (_world, meta) = setup();
        meta.register_context(&ctx("c"), "BIND", &NameMapping::Identity)
            .expect("first");
        meta.register_context(
            &ctx("c"),
            "Clearinghouse",
            &NameMapping::Suffixed {
                suffix: ":cs:uw".into(),
            },
        )
        .expect("second");
        let fetched = meta.fetch(&key(Step::Context(&ctx("c")))).expect("fetch");
        assert_eq!(fetched.rrs, 1, "replace must not accumulate records");
        let ctx_info = fetched.value.as_context().expect("a context record");
        assert_eq!(ctx_info.name_service, "Clearinghouse");
    }

    /// `Step::key` as it was before it was written in one pass: fold the
    /// text `char` by `char` into a `String`, check it, parse the whole.
    fn key_by_fold_and_parse(step: Step<'_>) -> HnsResult<DomainName> {
        let (kind, about, splits): (&str, Vec<&str>, bool) = match step {
            Step::Context(context) | Step::HostContext(context) => {
                ("ctx", vec![context.as_str()], true)
            }
            Step::NsmName(ns, qc) | Step::HostAddrNsm(ns, qc) => (
                "map",
                vec![ns, "--", qc],
                !ns.contains("--") && !ns.ends_with('-'),
            ),
            Step::NsmInfo(nsm_name) => ("info", vec![nsm_name], true),
        };
        let folded: String = about
            .iter()
            .flat_map(|piece| piece.chars())
            .map(|c| c.to_ascii_lowercase())
            .collect();
        if !(splits && about.iter().all(|piece| !piece.is_empty()) && keyable(&folded)) {
            return Err(HnsError::BadName(about.concat()));
        }
        DomainName::parse(&format!("{kind}.{folded}.{}", origin().as_str()))
            .map_err(|e| HnsError::BadMetaRecord(e.to_string()))
    }

    #[test]
    fn keys_are_byte_for_byte_what_fold_and_parse_derived() {
        let long = "n".repeat(61);
        let names = [
            // Contexts, name services, query classes and NSM names of the
            // testbed, the examples and the experiments.
            "bind-uw",
            "ch-uw",
            "hns-hosts",
            "ee-uw",
            "bind-uw-sibling",
            "Bind_UW-2",
            "ctx0-bind",
            "ctx1023-ch",
            "late-arrival",
            "BIND",
            "Clearinghouse",
            "LateNS",
            "NS-cell0",
            "HRPCBinding",
            "hostaddress",
            "MailboxLocation",
            "FileLocation",
            "UserInfo",
            "Echo",
            "nsm-hrpcbinding-bind",
            "nsm-hostaddress-ch",
            "nsm-b",
            "b--c",
            "-b",
            "_",
            "0",
            &long[..60],
            &long[..58],
            // And what has no key.
            "",
            "ee.uw",
            "ee/uw",
            "ee uw",
            "a--b",
            "a-",
            "é",
            "a\u{212a}",
            &long,
        ];
        let mut keys = 0;
        let mut agree = |step: Step<'_>| {
            let (key, was) = (step.key(&origin()), key_by_fold_and_parse(step));
            match (&key, &was) {
                (Ok(key), Ok(was)) => assert_eq!(key.as_str(), was.as_str()),
                (Err(HnsError::BadName(_)), Err(HnsError::BadName(_))) => {}
                _ => panic!("{step:?}: {key:?} was {was:?}"),
            }
            keys += usize::from(key.is_ok());
        };
        for one in names {
            if let Ok(context) = Context::new(one) {
                agree(Step::Context(&context));
                agree(Step::HostContext(&context));
            }
            agree(Step::NsmInfo(one));
            for other in names {
                agree(Step::NsmName(one, other));
                agree(Step::HostAddrNsm(other, one));
            }
        }
        assert!(keys > 500, "{keys} keys compared");
        // A key that does not fit a name is a bad record, not a bad name.
        let deep = DomainName::parse(&format!("{}hns", "a.".repeat(110))).expect("223 bytes");
        let fits = Step::NsmInfo(&long[..26]).key(&deep).expect("255 bytes");
        assert_eq!(fits.as_str().len(), 255);
        assert!(matches!(
            Step::NsmInfo(&long[..27]).key(&deep),
            Err(HnsError::BadMetaRecord(_))
        ));
    }

    #[test]
    fn a_name_that_would_share_a_key_is_refused_on_writes_and_reads() {
        let (_world, meta) = setup();
        let refused = |result: HnsResult<()>| matches!(result, Err(HnsError::BadName(_)));
        // `ee.uw` once sanitised onto `ee-uw`'s key, so registering either
        // context rebound the other, and `ee/uw` resolved unregistered.
        meta.register_context(&ctx("ee-uw"), "Clearinghouse", &NameMapping::Identity)
            .expect("a keyable context registers");
        for alias in ["ee.uw", "ee/uw", "ee uw"] {
            let alias = ctx(alias);
            assert!(refused(meta.register_context(
                &alias,
                "BIND",
                &NameMapping::Identity
            )));
            let read = context_info(Step::Context(&alias), &mut live(&meta));
            assert!(
                refused(read.map(drop)),
                "{alias} must not read ee-uw's record"
            );
        }
        let found = context_info(Step::Context(&ctx("ee-uw")), &mut live(&meta))
            .expect("the registered context still resolves");
        assert_eq!(found.name_service, "Clearinghouse");
        // ("a", "b--c") and ("a--b", "c") once met at `map.a--b--c`; so
        // would ("a-", "b") and ("a", "-b").
        let qc = QueryClass::new;
        meta.register_nsm("a", &qc("b--c"), "nsm-1").expect("first");
        assert!(refused(meta.register_nsm("a--b", &qc("c"), "nsm-2")));
        assert!(refused(meta.register_nsm("a-", &qc("b"), "nsm-3")));
        assert!(refused(chased("a--b", "c", &mut live(&meta)).map(drop)));
        // A label holds 60 characters; the 61st once fell off silently.
        let long = "n".repeat(61);
        assert!(refused(
            meta.register_nsm_info(&info(&long, "june", "bind-uw"))
        ));
        assert!(refused(Step::NsmInfo("").key(&origin()).map(drop)));
        // Every name that was its own key keeps it, byte for byte.
        assert_eq!(key(Step::NsmInfo(&long[..60])).as_str().len(), 60 + 9);
        assert_eq!(
            key(Step::NsmName("BIND", "HostAddress")).as_str(),
            "map.bind--hostaddress.hns"
        );
        assert_eq!(
            key(Step::Context(&ctx("Bind_UW-2"))).as_str(),
            "ctx.bind_uw-2.hns"
        );
        assert!(keyable("my-svc") && !keyable("my.svc") && !keyable(""));
    }

    #[test]
    fn meta_lookup_cost_matches_calibration() {
        // One 1-RR meta lookup: raw_tcp (22) + bind service (8) +
        // generated miss (20.23) + interface overhead (15.5) ≈ 65.7 ms.
        let (world, meta) = setup();
        meta.register_context(&ctx("c"), "BIND", &NameMapping::Identity)
            .expect("register");
        let key = key(Step::Context(&ctx("c")));
        let (_, ledger) = world.measure(|| meta.fetch(&key));
        let took = ledger.total();
        let delta = ledger.counters();
        let ms = took.as_ms_f64();
        assert!((ms - 65.7).abs() < 2.0, "meta lookup took {ms} ms");
        assert_eq!(delta.remote_calls, 1);
    }

    #[test]
    fn fetch_batch_returns_primary_in_one_round_trip() {
        let (world, meta) = setup();
        meta.register_context(&ctx("c"), "BIND", &NameMapping::Identity)
            .expect("register");
        let key = key(Step::Context(&ctx("c")));
        let (result, ledger) =
            world.measure(|| meta.fetch_batch(&key, &["hrpcbinding".to_string()]));
        let delta = ledger.counters();
        let batch = result.expect("batch");
        assert_eq!(delta.remote_calls, 1);
        let primary = batch.primary.expect("primary present");
        assert_eq!(primary.rrs, 1);
        let ctx_info = primary.value.as_context().expect("a context record");
        assert_eq!(ctx_info.name_service, "BIND");
        // No chaser installed on the bare test server: nothing piggybacked.
        assert!(batch.additional.is_empty());
    }

    #[test]
    fn fetch_batch_missing_primary_is_none_not_error() {
        let (_world, meta) = setup();
        let key = key(Step::Context(&ctx("ghost")));
        let batch = meta.fetch_batch(&key, &[]).expect("batch");
        assert!(batch.primary.is_none());
        assert!(batch.additional.is_empty());
    }

    #[test]
    fn six_record_lookup_costs_more() {
        let (world, meta) = setup();
        let info = sample_info();
        meta.register_nsm_info(&info).expect("register");
        meta.register_context(&ctx("c"), "BIND", &NameMapping::Identity)
            .expect("register");
        let (one, six) = (
            key(Step::Context(&ctx("c"))),
            key(Step::NsmInfo(&info.nsm_name)),
        );
        let (_, ledger) = world.measure(|| meta.fetch(&one));
        let one_rr = ledger.total();
        let (_, ledger) = world.measure(|| meta.fetch(&six));
        let six_rr = ledger.total();
        let delta = six_rr.as_ms_f64() - one_rr.as_ms_f64();
        // gen_miss(6) - gen_miss(1) = 5 * 2.42 = 12.1
        assert!((delta - 12.1).abs() < 1.0, "delta {delta}");
    }

    /// `pieces` reads what `split(';')` then `split_once('=')` read,
    /// refusals included.
    #[test]
    fn pieces_read_what_split_and_split_once_read() {
        let by_split = |payload: &str| -> Vec<HnsResult<(String, String)>> {
            let pair = |piece: &str| match piece.split_once('=') {
                Some((k, v)) => Ok((k.to_string(), v.to_string())),
                None => Err(bad(format!("`{piece}`"))),
            };
            payload.split(';').map(pair).collect()
        };
        let owned = |piece: HnsResult<(&str, &str)>| piece.map(|(k, v)| (k.into(), v.into()));
        for payload in [
            "host=june;port=7",
            "a=1;;b=2",
            "a=1;",
            ";a=1",
            "k=a=b",
            "k=",
            "=v",
            "novalue",
            "a=1;novalue;b=2",
            "",
            ";",
            "owner=Zoë;host=日本",
            "é=ü;x",
        ] {
            let scanned: Vec<_> = pieces(payload).map(owned).collect();
            assert_eq!(scanned, by_split(payload), "`{payload}`");
        }
        let split: Vec<_> = pieces("k=a=b").map(owned).collect();
        assert_eq!(split, [Ok(("k".into(), "a=b".into()))]);
    }

    /// A key past a name's length is refused in the words of
    /// `DomainName::child`, which names the length.
    #[test]
    fn a_key_past_a_name_is_refused_as_child_refuses_it() {
        let deep = DomainName::parse(&format!("{}hns", "a.".repeat(110))).expect("223 bytes");
        let about = "n".repeat(27);
        let refusal = deep.child(&format!("info.{about}")).expect_err("256 bytes");
        assert_eq!(
            Step::NsmInfo(&about).key(&deep),
            Err(HnsError::BadMetaRecord(refusal.to_string()))
        );
        assert!(refusal.to_string().contains("256"), "{refusal}");
    }
}
