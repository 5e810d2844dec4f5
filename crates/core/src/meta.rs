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
//! Three record kinds live here, mirroring `FindNSM`'s decomposition:
//!
//! 1. context → name-service name (one `UNSPEC` record),
//! 2. (name-service name, query class) → NSM name (one record),
//! 3. NSM name → NSM binding information (six records — this is the
//!    6-resource-record row of Table 3.2).
//!
//! The chain over them is written once, in `chase`: it derives each
//! `Step`'s key, asks its caller's `fetch` for the record set there and
//! parses it. Where the sets come from is the caller's business — cache
//! and meta server for [`crate::service::Hns`], the server's own zone for
//! [`crate::chaser::MetaChaser`] — and [`records_to_fetched`] is the one
//! decoder, so a change of record format edits this file only.

use std::borrow::{Borrow, Cow};
use std::fmt;
use std::sync::{Arc, LazyLock};

use bindns::error::Rcode;
use bindns::message::Question;
use bindns::name::DomainName;
use bindns::resolver::HrpcResolver;
use bindns::rr::{RData, RType, ResourceRecord};
use bindns::update::UpdateOp;
use hrpc::error::RpcError;
use wire::Value;

use crate::error::{HnsError, HnsResult};
use crate::name::{Context, NameMapping};
use crate::nsm::NsmInfo;
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
    pub primary: Option<Fetched<Vec<String>>>,
    /// Speculative additional sets, keyed by the meta name they live under.
    pub additional: Vec<(DomainName, Fetched<Vec<String>>)>,
}

/// The query class of mapping 5, built once: a `QueryClass` owns a
/// lowercased copy of its name.
static HOST_ADDRESS: LazyLock<QueryClass> = LazyLock::new(QueryClass::host_address);

/// What a cached fetch hands back: a hit (live, or expired and served
/// stale) lends the cached value itself; a fetch owns what it fetched.
pub(crate) enum Got<T> {
    Cached(Arc<Value>),
    Fetched(T),
}

/// One meta record set as the chain reads it: off a cached list in
/// place, or out of what [`records_to_fetched`] decoded.
pub(crate) type Payloads = Got<Vec<String>>;

/// What the cache keeps of a fetched value (mapping 6's is `service`'s).
pub(crate) trait Cacheable {
    fn to_cached(&self) -> Cow<'_, Value>;
}

/// Mappings 1–5: a record set is cached as the list of its payloads,
/// which is the shape [`Payloads::iter`] reads back.
impl Cacheable for Vec<String> {
    fn to_cached(&self) -> Cow<'_, Value> {
        Cow::Owned(Value::List(self.iter().map(Value::str).collect()))
    }
}

impl Payloads {
    /// The payload strings; a cached value of any other shape is refused.
    fn iter(&self) -> HnsResult<impl Iterator<Item = &str>> {
        let (cached, owned): (&[Value], &[String]) = match self {
            Got::Cached(value) => (value.as_list()?, &[]),
            Got::Fetched(payloads) => (&[], payloads),
        };
        for payload in cached {
            payload.as_str()?;
        }
        let cached = cached.iter().filter_map(|payload| payload.as_str().ok());
        Ok(cached.chain(owned.iter().map(String::as_str)))
    }
}

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
    /// folded. Written once, parsed once — every mapping of every walk,
    /// read or write, derives one. A key must determine the name it came
    /// from, so a name that is not [`keyable`] is refused, and so is a
    /// name service that would let two (name service, query class) pairs
    /// meet across the `--` that joins them.
    pub(crate) fn key(&self, origin: &DomainName) -> HnsResult<DomainName> {
        let (kind, about, splits): (&str, &[&str], bool) = match self {
            Step::Context(context) | Step::HostContext(context) => {
                ("ctx", &[context.as_str()], true)
            }
            Step::NsmName(ns, qc) | Step::HostAddrNsm(ns, qc) => {
                let splits = !ns.contains("--") && !ns.ends_with('-');
                ("map", &[ns, "--", qc], splits)
            }
            Step::NsmInfo(nsm_name) => ("info", &[nsm_name], true),
        };
        let mut name = String::with_capacity(64);
        name.push_str(kind);
        name.push('.');
        let label = name.len();
        let folded = about.iter().flat_map(|piece| piece.chars());
        name.extend(folded.map(|c| c.to_ascii_lowercase()));
        if !(splits && about.iter().all(|piece| !piece.is_empty()) && keyable(&name[label..])) {
            return Err(HnsError::BadName(format!(
                "`{}` has no meta key: a keyed name is 1..={MAX_KEY_LABEL} characters of \
                 [A-Za-z0-9_-], a name service holds no `--` and ends in none",
                about.concat()
            )));
        }
        name.push('.');
        name.push_str(origin.as_str());
        DomainName::parse(&name).map_err(|e| HnsError::BadMetaRecord(e.to_string()))
    }
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

/// What the chain asks of its caller: the payloads of the record set at
/// `key` and their remaining TTL in seconds.
pub(crate) type Fetch<'f> = dyn FnMut(Step<'_>, &DomainName) -> HnsResult<(Payloads, u32)> + 'f;

/// Derives `step`'s key and asks `fetch` for the record set there. A
/// `NotFound` comes back as what it means to the caller of `FindNSM`.
fn ask(origin: &DomainName, step: Step<'_>, fetch: &mut Fetch<'_>) -> HnsResult<(Payloads, u32)> {
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

/// Mapping 1 or 4 ([`Step::Context`], [`Step::HostContext`]): context →
/// name service and name mapping.
pub(crate) fn context_info(
    origin: &DomainName,
    step: Step<'_>,
    fetch: &mut Fetch<'_>,
) -> HnsResult<(ContextInfo, u32)> {
    let (payloads, ttl) = ask(origin, step, fetch)?;
    let info = MetaStore::parse_context(payloads.iter()?)?;
    Ok((info, ttl))
}

/// Mapping 2 or 5 ([`Step::NsmName`], [`Step::HostAddrNsm`]): (name
/// service, query class) → NSM name.
fn nsm_name(
    origin: &DomainName,
    step: Step<'_>,
    fetch: &mut Fetch<'_>,
) -> HnsResult<(String, u32)> {
    let (payloads, ttl) = ask(origin, step, fetch)?;
    let name = MetaStore::parse_nsm_name(payloads.iter()?)?;
    Ok((name, ttl))
}

/// What [`chase`] found: mappings 2–5 of one `FindNSM`.
#[derive(Debug)]
pub(crate) struct Chased {
    /// Mapping 2: the NSM serving (name service, query class).
    pub nsm_name: String,
    /// Mapping 3: its binding information, naming the host it runs on.
    pub info: NsmInfo,
    /// Mapping 4: what that host's context maps to.
    pub host_context: ContextInfo,
    /// Mapping 5: the host-address NSM of the host's name service.
    pub host_addr_nsm: String,
    /// Minimum TTL among the four record sets, seconds.
    pub min_ttl: u32,
}

/// The `FindNSM` chain after mapping 1: from a name service and a query
/// class to everything needed to call the NSM but its host's address.
/// Stops at the first link it cannot follow; asks for every key it needs,
/// in order, even one it has asked for before.
pub(crate) fn chase(
    origin: &DomainName,
    name_service: &str,
    query_class: &str,
    fetch: &mut Fetch<'_>,
) -> HnsResult<Chased> {
    let (nsm, ttl2) = nsm_name(origin, Step::NsmName(name_service, query_class), fetch)?;
    let (payloads, ttl3) = ask(origin, Step::NsmInfo(&nsm), fetch)?;
    let info = NsmInfo::from_records(&nsm, payloads.iter()?)?;
    // The info names the NSM's host, and translating that name "is in
    // itself an HNS naming operation": mappings 1–2 again.
    let (host_context, ttl4) = context_info(origin, Step::HostContext(&info.host_context), fetch)?;
    let step = Step::HostAddrNsm(&host_context.name_service, HOST_ADDRESS.as_str());
    let (host_addr_nsm, ttl5) = nsm_name(origin, step, fetch)?;
    Ok(Chased {
        nsm_name: nsm,
        info,
        host_context,
        host_addr_nsm,
        min_ttl: ttl2.min(ttl3).min(ttl4).min(ttl5),
    })
}

/// Decodes a meta record set's UNSPEC payloads into a [`Fetched`] value —
/// the one place records become payload strings, for a reply, a batch, the
/// server-side chase and a preloaded zone alike.
pub fn records_to_fetched<R: Borrow<ResourceRecord>>(
    records: &[R],
) -> HnsResult<Fetched<Vec<String>>> {
    let records = records.iter().map(Borrow::borrow);
    let ttl_secs = records.clone().map(|r| r.ttl).min().unwrap_or(META_TTL);
    let rrs = records.len();
    let mut payloads = Vec::with_capacity(rrs);
    for r in records {
        match &r.rdata {
            RData::Opaque(bytes) => payloads.push(
                std::str::from_utf8(bytes)
                    .map_err(|_| HnsError::BadMetaRecord("non-UTF-8 payload".into()))?
                    .to_string(),
            ),
            other => {
                return Err(HnsError::BadMetaRecord(format!(
                    "expected UNSPEC, found {other:?}"
                )))
            }
        }
    }
    Ok(Fetched {
        value: payloads,
        rrs,
        ttl_secs,
    })
}

/// Longest name a meta key label holds.
const MAX_KEY_LABEL: usize = 60;

/// Whether `name` survives meta-key derivation, case aside: 1 to 60
/// characters of `[A-Za-z0-9_-]`. Any other name has no key — were it
/// folded onto one, two names (`ee.uw`, `ee-uw`) would share a record and
/// registering either would rebind the other.
pub fn keyable(name: &str) -> bool {
    let key_byte = |b: u8| b.is_ascii_alphanumeric() || b == b'-' || b == b'_';
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

    fn write(&self, name: DomainName, payloads: Vec<String>) -> HnsResult<()> {
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

    /// Reads the raw payload strings at a meta key.
    pub fn fetch(&self, name: &DomainName) -> HnsResult<Fetched<Vec<String>>> {
        let records = self
            .resolver
            .query(name, RType::Unspec)
            .map_err(HnsError::Rpc)?;
        records_to_fetched(&records)
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
            .ok_or_else(|| HnsError::BadMetaRecord("mquery reply missing answer".into()))?;
        let primary_set = match answer.rcode {
            Rcode::Ok => Some(records_to_fetched(&answer.records)?),
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
            let owner = set.records[0].name.clone();
            additional.push((owner, records_to_fetched(&set.records)?));
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
        let payload = format!("ns={name_service};map={}", mapping.encode());
        self.write(Step::Context(context).key(&self.origin)?, vec![payload])
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
        self.write(key, vec![nsm_name.to_string()])
    }

    /// Registers an NSM's binding information (six records).
    pub fn register_nsm_info(&self, info: &NsmInfo) -> HnsResult<()> {
        let key = Step::NsmInfo(&info.nsm_name).key(&self.origin)?;
        self.write(key, info.to_records())
    }

    /// Parses a context record's payloads, read where they are (a
    /// `&[String]` off a fetch, borrowed `&str`s off a cached list).
    pub fn parse_context<S: AsRef<str>>(
        payloads: impl IntoIterator<Item = S>,
    ) -> HnsResult<ContextInfo> {
        let payload = payloads
            .into_iter()
            .next()
            .ok_or_else(|| HnsError::BadMetaRecord("empty context record".into()))?;
        let mut name_service = None;
        let mut mapping = None;
        for piece in payload.as_ref().split(';') {
            match piece.split_once('=') {
                Some(("ns", v)) => name_service = Some(v.to_string()),
                Some(("map", v)) => mapping = Some(NameMapping::decode(v)?),
                _ => return Err(HnsError::BadMetaRecord(format!("`{piece}`"))),
            }
        }
        Ok(ContextInfo {
            name_service: name_service
                .ok_or_else(|| HnsError::BadMetaRecord("missing ns".into()))?,
            mapping: mapping.ok_or_else(|| HnsError::BadMetaRecord("missing map".into()))?,
        })
    }

    /// Parses an NSM-name record's payloads.
    pub fn parse_nsm_name<S: AsRef<str>>(
        payloads: impl IntoIterator<Item = S>,
    ) -> HnsResult<String> {
        payloads
            .into_iter()
            .next()
            .map(|name| name.as_ref().to_string())
            .ok_or_else(|| HnsError::BadMetaRecord("empty NSM record".into()))
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
    use crate::nsm::SuiteTag;
    use bindns::server::{deploy, single_zone_server};
    use bindns::zone::Zone;
    use hrpc::net::RpcNet;
    use hrpc::ProgramId;
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
            host_name: host_name.into(),
            host_context: ctx(host_context),
            program: ProgramId(300_001),
            port: 1025,
            suite: SuiteTag::Sun,
            version: 1,
            owner: "hcs".into(),
        }
    }

    fn sample_info() -> NsmInfo {
        info("nsm-hrpcbinding-bind", "june.cs.washington.edu", "bind-uw")
    }

    fn key(step: Step<'_>) -> DomainName {
        step.key(&origin()).expect("key")
    }

    /// A `fetch` answering from the real meta store, one RPC per set.
    fn live(
        meta: &MetaStore,
    ) -> impl FnMut(Step<'_>, &DomainName) -> HnsResult<(Payloads, u32)> + '_ {
        |_, key| {
            let set = meta.fetch(key)?;
            Ok((Got::Fetched(set.value), set.ttl_secs))
        }
    }

    /// A scripted meta zone — no world, no RPC: the BIND and Clearinghouse
    /// chains of the paper's testbed, the binding NSMs' host named in
    /// `bind-uw` and the mail NSM's in `ch-uw`.
    fn script() -> HashMap<String, (Vec<String>, u32)> {
        let sets: [(&str, Vec<String>, u32); 8] = [
            ("ctx.bind-uw.hns", vec!["ns=BIND;map=id".into()], 600),
            ("ctx.ch-uw.hns", vec!["ns=Clearinghouse;map=id".into()], 500),
            ("map.bind--hrpcbinding.hns", vec!["nsm-b".into()], 400),
            (
                "map.clearinghouse--mailboxlocation.hns",
                vec!["nsm-m".into()],
                300,
            ),
            (
                "info.nsm-b.hns",
                info("nsm-b", "june", "bind-uw").to_records(),
                200,
            ),
            (
                "info.nsm-m.hns",
                info("nsm-m", "ivory", "ch-uw").to_records(),
                100,
            ),
            ("map.bind--hostaddress.hns", vec!["nsm-ha-b".into()], 50),
            (
                "map.clearinghouse--hostaddress.hns",
                vec!["nsm-ha-c".into()],
                25,
            ),
        ];
        let sets = sets.into_iter();
        sets.map(|(k, payloads, ttl)| (k.to_string(), (payloads, ttl)))
            .collect()
    }

    /// Runs `f` against a `fetch` answering from `zone`; returns its
    /// result and one `mapping key` line per call it made.
    fn scripted<R>(
        zone: &HashMap<String, (Vec<String>, u32)>,
        f: impl FnOnce(&mut Fetch<'_>) -> R,
    ) -> (R, Vec<String>) {
        let mut asked = Vec::new();
        let result = f(&mut |step, key| {
            asked.push(format!("{} {key}", step.mapping()));
            let (payloads, ttl) = zone
                .get(key.as_str())
                .ok_or_else(|| HnsError::Rpc(RpcError::NotFound(key.to_string())))?;
            Ok((Got::Fetched(payloads.clone()), *ttl))
        });
        (result, asked)
    }

    #[test]
    fn chase_asks_for_each_key_in_order() {
        let zone = script();
        let (found, asked) = scripted(&zone, |fetch| {
            chase(&origin(), "BIND", "hrpcbinding", fetch).expect("BIND chain")
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
        assert_eq!(found.min_ttl, 50, "the earliest-lapsing set bounds it");

        let (found, asked) = scripted(&zone, |fetch| {
            chase(&origin(), "Clearinghouse", "mailboxlocation", fetch).expect("CH chain")
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
        assert_eq!(found.min_ttl, 25);
    }

    #[test]
    fn chase_stops_at_a_missing_link_with_the_typed_error() {
        // `gone` is removed from the scripted zone before the chase.
        let run = |gone: &str, qc: &str| {
            let mut zone = script();
            zone.remove(gone);
            let chased = |fetch: &mut Fetch<'_>| chase(&origin(), "BIND", qc, fetch);
            let (result, asked) = scripted(&zone, chased);
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
            let (ctx_info, ttl) =
                context_info(&origin(), Step::Context(&queried), fetch).expect("mapping 1");
            assert_eq!((ctx_info.name_service.as_str(), ttl), ("BIND", 600));
            chase(&origin(), &ctx_info.name_service, "hrpcbinding", fetch).expect("chain");
        });
        assert_eq!(asked[0], "1 ctx.bind-uw.hns");
        assert_eq!(asked[3], "4 ctx.bind-uw.hns");
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

        let (ctx_info, ttl) =
            context_info(&origin(), Step::Context(&ctx("bind-uw")), &mut live(&meta))
                .expect("mapping 1");
        assert_eq!(ctx_info.name_service, "BIND");
        assert_eq!(ctx_info.mapping, mapping);
        assert_eq!(ttl, META_TTL);
        let found = chase(&origin(), "BIND", qc.as_str(), &mut live(&meta)).expect("chain");
        assert_eq!(found.nsm_name, "nsm-hrpcbinding-bind");
        assert_eq!(found.info, sample_info());
        assert_eq!(found.host_context, ctx_info);
        assert_eq!(found.host_addr_nsm, "nsm-ha-bind");
        assert_eq!(found.min_ttl, META_TTL);

        let rrs = |step: Step<'_>| meta.fetch(&key(step)).expect("fetch").rrs;
        assert_eq!(rrs(Step::Context(&ctx("bind-uw"))), 1);
        assert_eq!(rrs(Step::NsmName("BIND", qc.as_str())), 1);
        assert_eq!(rrs(Step::NsmInfo("nsm-hrpcbinding-bind")), NsmInfo::RECORDS);
    }

    #[test]
    fn unregistered_names_are_specific_errors() {
        let (_world, meta) = setup();
        assert_eq!(
            context_info(&origin(), Step::Context(&ctx("ghost")), &mut live(&meta)),
            Err(HnsError::NoSuchContext("ghost".into()))
        );
        assert!(matches!(
            chase(&origin(), "BIND", "mailboxlocation", &mut live(&meta)),
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
        let ctx_info = MetaStore::parse_context(&fetched.value).expect("parse");
        assert_eq!(ctx_info.name_service, "Clearinghouse");
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
            let read = context_info(&origin(), Step::Context(&alias), &mut live(&meta));
            assert!(
                refused(read.map(drop)),
                "{alias} must not read ee-uw's record"
            );
        }
        let (found, _) = context_info(&origin(), Step::Context(&ctx("ee-uw")), &mut live(&meta))
            .expect("the registered context still resolves");
        assert_eq!(found.name_service, "Clearinghouse");
        // ("a", "b--c") and ("a--b", "c") once met at `map.a--b--c`; so
        // would ("a-", "b") and ("a", "-b").
        let qc = QueryClass::new;
        meta.register_nsm("a", &qc("b--c"), "nsm-1").expect("first");
        assert!(refused(meta.register_nsm("a--b", &qc("c"), "nsm-2")));
        assert!(refused(meta.register_nsm("a-", &qc("b"), "nsm-3")));
        assert!(refused(
            chase(&origin(), "a--b", "c", &mut live(&meta)).map(drop)
        ));
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
        let (_, took, delta) = world.measure(|| meta.fetch(&key));
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
        let (result, _, delta) =
            world.measure(|| meta.fetch_batch(&key, &["hrpcbinding".to_string()]));
        let batch = result.expect("batch");
        assert_eq!(delta.remote_calls, 1);
        let primary = batch.primary.expect("primary present");
        assert_eq!(primary.rrs, 1);
        assert!(primary.value[0].starts_with("ns=BIND"));
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
        let (_, one_rr, _) = world.measure(|| meta.fetch(&one));
        let (_, six_rr, _) = world.measure(|| meta.fetch(&six));
        let delta = six_rr.as_ms_f64() - one_rr.as_ms_f64();
        // gen_miss(6) - gen_miss(1) = 5 * 2.42 = 12.1
        assert!((delta - 12.1).abs() < 1.0, "delta {delta}");
    }
}
