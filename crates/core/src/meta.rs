//! The meta-naming store.
//!
//! "Although all data associated with individually nameable entities is
//! kept in the underlying name services, the HNS maintains additional
//! meta-naming information needed for managing the global name space. This
//! information consists of the names and binding information for each name
//! service and each NSM, the names of all contexts, and the mappings from
//! contexts to name services. ... we use a version of BIND, modified to
//! support both dynamic updates and also data of unspecified type."
//!
//! Three mapping families live here, mirroring `FindNSM`'s decomposition:
//!
//! 1. context → name-service name (one `UNSPEC` record),
//! 2. (name-service name, query class) → NSM name (one record),
//! 3. NSM name → NSM binding information (six records — this is the
//!    6-resource-record row of Table 3.2).

use bindns::error::Rcode;
use bindns::message::Question;
use bindns::name::DomainName;
use bindns::resolver::HrpcResolver;
use bindns::rr::{RData, RType, ResourceRecord};
use bindns::update::UpdateOp;
use hrpc::error::RpcError;

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

/// Builds a meta key under `origin`: one sanitized label per entry of
/// `labels`, each the concatenation of its pieces. The three `*_key_at`
/// functions below are the derivation [`MetaStore`] uses client-side,
/// free functions so the server-side chaser can recompute keys without a
/// store. The dotted text is written once and parsed once — a key is
/// derived for every mapping of every walk.
fn meta_key_at(origin: &DomainName, labels: &[&[&str]]) -> HnsResult<DomainName> {
    let mut name = String::with_capacity(64);
    for pieces in labels {
        push_label(&mut name, pieces);
        name.push('.');
    }
    name.push_str(origin.as_str());
    DomainName::parse(&name).map_err(|e| HnsError::BadMetaRecord(e.to_string()))
}

/// The meta key for a context record under `origin`.
pub fn context_key_at(origin: &DomainName, context: &str) -> HnsResult<DomainName> {
    meta_key_at(origin, &[&["ctx"], &[context]])
}

/// The meta key for an NSM-name record under `origin`.
pub fn nsm_name_key_at(
    origin: &DomainName,
    name_service: &str,
    query_class: &str,
) -> HnsResult<DomainName> {
    meta_key_at(origin, &[&["map"], &[name_service, "--", query_class]])
}

/// The meta key for an NSM-info record set under `origin`.
pub fn nsm_info_key_at(origin: &DomainName, nsm_name: &str) -> HnsResult<DomainName> {
    meta_key_at(origin, &[&["info"], &[nsm_name]])
}

/// Decodes a meta record set's UNSPEC payloads into a [`Fetched`] value.
pub fn records_to_fetched(records: &[ResourceRecord]) -> HnsResult<Fetched<Vec<String>>> {
    let ttl_secs = records.iter().map(|r| r.ttl).min().unwrap_or(META_TTL);
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

/// Longest label a meta key part is cut to.
const MAX_KEY_LABEL: usize = 60;

/// Appends `pieces`, concatenated and sanitized into one safe domain
/// label, to `out`.
fn push_label(out: &mut String, pieces: &[&str]) {
    let start = out.len();
    let sanitized = pieces.iter().flat_map(|p| p.chars()).map(|c| {
        if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
            c.to_ascii_lowercase()
        } else {
            '-'
        }
    });
    out.extend(sanitized.take(MAX_KEY_LABEL));
    if out.len() == start {
        out.push('x');
    }
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

    /// The meta key for a context record.
    pub fn context_key(&self, context: &Context) -> HnsResult<DomainName> {
        context_key_at(&self.origin, context.as_str())
    }

    /// The meta key for an NSM-name record.
    pub fn nsm_name_key(&self, name_service: &str, qc: &QueryClass) -> HnsResult<DomainName> {
        nsm_name_key_at(&self.origin, name_service, qc.as_str())
    }

    /// The meta key for an NSM-info record set.
    pub fn nsm_info_key(&self, nsm_name: &str) -> HnsResult<DomainName> {
        nsm_info_key_at(&self.origin, nsm_name)
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
        self.read(name)
    }

    fn read(&self, name: &DomainName) -> HnsResult<Fetched<Vec<String>>> {
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
        self.write(self.context_key(context)?, vec![payload])
    }

    /// Registers (or replaces) which NSM serves a (name service, query
    /// class) pair.
    pub fn register_nsm(
        &self,
        name_service: &str,
        qc: &QueryClass,
        nsm_name: &str,
    ) -> HnsResult<()> {
        self.write(
            self.nsm_name_key(name_service, qc)?,
            vec![nsm_name.to_string()],
        )
    }

    /// Registers an NSM's binding information (six records).
    pub fn register_nsm_info(&self, info: &NsmInfo) -> HnsResult<()> {
        self.write(self.nsm_info_key(&info.nsm_name)?, info.to_records())
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

    /// Mapping 1: context → name service (+ name mapping).
    pub fn lookup_context(&self, context: &Context) -> HnsResult<Fetched<ContextInfo>> {
        let fetched = self
            .read(&self.context_key(context)?)
            .map_err(|e| match e {
                HnsError::Rpc(RpcError::NotFound(_)) => {
                    HnsError::NoSuchContext(context.as_str().to_string())
                }
                other => other,
            })?;
        Ok(Fetched {
            value: Self::parse_context(&fetched.value)?,
            rrs: fetched.rrs,
            ttl_secs: fetched.ttl_secs,
        })
    }

    /// Mapping 2: (name service, query class) → NSM name.
    pub fn lookup_nsm_name(
        &self,
        name_service: &str,
        qc: &QueryClass,
    ) -> HnsResult<Fetched<String>> {
        let fetched = self
            .read(&self.nsm_name_key(name_service, qc)?)
            .map_err(|e| match e {
                HnsError::Rpc(RpcError::NotFound(_)) => HnsError::NoSuchNsm {
                    name_service: name_service.to_string(),
                    query_class: qc.as_str().to_string(),
                },
                other => other,
            })?;
        let nsm_name = Self::parse_nsm_name(&fetched.value)?;
        Ok(Fetched {
            value: nsm_name,
            rrs: fetched.rrs,
            ttl_secs: fetched.ttl_secs,
        })
    }

    /// Mapping 3 (first half): NSM name → binding information.
    pub fn lookup_nsm_info(&self, nsm_name: &str) -> HnsResult<Fetched<NsmInfo>> {
        let fetched = self.read(&self.nsm_info_key(nsm_name)?)?;
        let info = NsmInfo::from_records(nsm_name, &fetched.value)?;
        Ok(Fetched {
            value: info,
            rrs: fetched.rrs,
            ttl_secs: fetched.ttl_secs,
        })
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
    use std::sync::Arc;

    fn setup() -> (Arc<simnet::World>, MetaStore) {
        let world = World::paper();
        let hns_host = world.add_host("hns-host");
        let meta_host = world.add_host("meta-bind-host");
        let net = RpcNet::new(Arc::clone(&world));
        let zone = Zone::new(DomainName::parse("hns").expect("origin"), META_TTL);
        let dep = deploy(&net, meta_host, single_zone_server("meta-bind", zone, true));
        let resolver = HrpcResolver::new(net, hns_host, dep.hrpc_binding);
        (
            world,
            MetaStore::new(resolver, DomainName::parse("hns").expect("origin")),
        )
    }

    fn ctx(s: &str) -> Context {
        Context::new(s).expect("ctx")
    }

    fn sample_info() -> NsmInfo {
        NsmInfo {
            nsm_name: "nsm-hrpcbinding-bind".into(),
            host_name: "june.cs.washington.edu".into(),
            host_context: ctx("bind-uw"),
            program: ProgramId(300_001),
            port: 1025,
            suite: SuiteTag::Sun,
            version: 1,
            owner: "hcs".into(),
        }
    }

    #[test]
    fn context_registration_roundtrips() {
        let (_world, meta) = setup();
        let mapping = NameMapping::Identity;
        meta.register_context(&ctx("hrpcbinding-bind"), "BIND", &mapping)
            .expect("register");
        let fetched = meta
            .lookup_context(&ctx("hrpcbinding-bind"))
            .expect("lookup");
        assert_eq!(fetched.value.name_service, "BIND");
        assert_eq!(fetched.value.mapping, mapping);
        assert_eq!(fetched.rrs, 1);
        assert_eq!(fetched.ttl_secs, META_TTL);
    }

    #[test]
    fn unknown_context_is_specific_error() {
        let (_world, meta) = setup();
        assert!(matches!(
            meta.lookup_context(&ctx("ghost")),
            Err(HnsError::NoSuchContext(_))
        ));
    }

    #[test]
    fn nsm_name_registration_roundtrips() {
        let (_world, meta) = setup();
        let qc = QueryClass::hrpc_binding();
        meta.register_nsm("BIND", &qc, "nsm-hrpcbinding-bind")
            .expect("register");
        let fetched = meta.lookup_nsm_name("BIND", &qc).expect("lookup");
        assert_eq!(fetched.value, "nsm-hrpcbinding-bind");
        assert_eq!(fetched.rrs, 1);
    }

    #[test]
    fn missing_nsm_is_specific_error() {
        let (_world, meta) = setup();
        assert!(matches!(
            meta.lookup_nsm_name("BIND", &QueryClass::mailbox_location()),
            Err(HnsError::NoSuchNsm { .. })
        ));
    }

    #[test]
    fn nsm_info_occupies_six_records() {
        let (_world, meta) = setup();
        let info = sample_info();
        meta.register_nsm_info(&info).expect("register");
        let fetched = meta.lookup_nsm_info(&info.nsm_name).expect("lookup");
        assert_eq!(fetched.value, info);
        assert_eq!(fetched.rrs, NsmInfo::RECORDS);
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
        let fetched = meta.lookup_context(&ctx("c")).expect("lookup");
        assert_eq!(fetched.value.name_service, "Clearinghouse");
        assert_eq!(fetched.rrs, 1, "replace must not accumulate records");
    }

    #[test]
    fn labels_are_sanitized() {
        let (_world, meta) = setup();
        // Contexts with characters illegal in domain labels still work.
        let context = ctx("hrpcbinding bind/uw");
        meta.register_context(&context, "BIND", &NameMapping::Identity)
            .expect("register");
        assert!(meta.lookup_context(&context).is_ok());
        let label = |pieces: &[&str]| {
            let mut out = String::new();
            push_label(&mut out, pieces);
            out
        };
        assert_eq!(label(&[""]), "x");
        assert_eq!(label(&["A b.C"]), "a-b-c");
        assert_eq!(label(&["BIND", "--", "host address"]), "bind--host-address");
        assert_eq!(label(&["a".repeat(70).as_str(), "b"]).len(), MAX_KEY_LABEL);
    }

    #[test]
    fn meta_lookup_cost_matches_calibration() {
        // One 1-RR meta lookup: raw_tcp (22) + bind service (8) +
        // generated miss (20.23) + interface overhead (15.5) ≈ 65.7 ms.
        let (world, meta) = setup();
        meta.register_context(&ctx("c"), "BIND", &NameMapping::Identity)
            .expect("register");
        let (_, took, delta) = world.measure(|| meta.lookup_context(&ctx("c")));
        let ms = took.as_ms_f64();
        assert!((ms - 65.7).abs() < 2.0, "meta lookup took {ms} ms");
        assert_eq!(delta.remote_calls, 1);
    }

    #[test]
    fn fetch_batch_returns_primary_in_one_round_trip() {
        let (world, meta) = setup();
        meta.register_context(&ctx("c"), "BIND", &NameMapping::Identity)
            .expect("register");
        let key = meta.context_key(&ctx("c")).expect("key");
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
        let key = meta.context_key(&ctx("ghost")).expect("key");
        let batch = meta.fetch_batch(&key, &[]).expect("batch");
        assert!(batch.primary.is_none());
        assert!(batch.additional.is_empty());
    }

    #[test]
    fn key_helpers_match_store_keys() {
        let (_world, meta) = setup();
        let origin = meta.origin().clone();
        assert_eq!(
            meta.context_key(&ctx("bind-uw")).expect("k"),
            context_key_at(&origin, "bind-uw").expect("k")
        );
        assert_eq!(
            meta.nsm_name_key("BIND", &QueryClass::hrpc_binding())
                .expect("k"),
            nsm_name_key_at(&origin, "BIND", "hrpcbinding").expect("k")
        );
        assert_eq!(
            meta.nsm_info_key("nsm-hrpcbinding-bind").expect("k"),
            nsm_info_key_at(&origin, "nsm-hrpcbinding-bind").expect("k")
        );
    }

    #[test]
    fn six_record_lookup_costs_more() {
        let (world, meta) = setup();
        let info = sample_info();
        meta.register_nsm_info(&info).expect("register");
        meta.register_context(&ctx("c"), "BIND", &NameMapping::Identity)
            .expect("register");
        let (_, one_rr, _) = world.measure(|| meta.lookup_context(&ctx("c")));
        let (_, six_rr, _) = world.measure(|| meta.lookup_nsm_info(&info.nsm_name));
        let delta = six_rr.as_ms_f64() - one_rr.as_ms_f64();
        // gen_miss(6) - gen_miss(1) = 5 * 2.42 = 12.1
        assert!((delta - 12.1).abs() < 1.0, "delta {delta}");
    }
}
