//! Resolvers: the two client paths into a BIND server.
//!
//! * [`StdResolver`] — the standard library path: native DNS datagrams and
//!   hand-written marshalling. A name-to-address lookup costs ≈27 ms, the
//!   paper's primitive.
//! * [`HrpcResolver`] — the HRPC interface the HNS built to BIND: the Raw
//!   HRPC suite plus stub-compiler-generated marshalling, which is what made
//!   meta lookups expensive (Table 3.2) until caching was fixed.

use std::sync::{Arc, OnceLock};

use simnet::costs::Term;
use simnet::obs::{LazyCounter, LazyHistogram};
use simnet::topology::HostId;
use simnet::trace::{CacheOutcome, TraceKind};
use simnet::world::World;

use hrpc::error::{RpcError, RpcResult};
use hrpc::net::RpcNet;
use hrpc::HrpcBinding;

use crate::cache::{Entry, TtlCache};
use crate::error::NsError;
use crate::message::{
    decoded, Answer, MultiAnswer, MultiQuestion, Question, PROC_MQUERY, PROC_QUERY, PROC_UPDATE,
};
use crate::name::DomainName;
use crate::rr::{check_rdata, RData, RType, Records, ResourceRecord};
use crate::update::UpdateOp;

/// A lookup that found nothing is `NotFound`; any other refusal, or a
/// reply that does not decode, is the service's failure.
fn lookup_error(e: NsError) -> RpcError {
    match e {
        NsError::NameError(n) | NsError::NoData(n) => RpcError::NotFound(n),
        other => RpcError::Service(other.to_string()),
    }
}

/// The standard resolver: native transport, fast marshalling, TTL cache.
pub struct StdResolver {
    net: Arc<RpcNet>,
    host: HostId,
    server: HrpcBinding,
    /// Made at the first probe, so a resolver whose caller only asks the
    /// server ([`StdResolver::query_uncached`]) keeps no cache and files
    /// none with the metrics registry.
    cache: OnceLock<Arc<TtlCache>>,
    cache_hits: LazyCounter,
    queries: LazyCounter,
    query_us: LazyHistogram,
}

impl StdResolver {
    /// Creates a resolver on `host` pointed at a server's native binding.
    pub fn new(net: Arc<RpcNet>, host: HostId, server: HrpcBinding) -> Self {
        StdResolver {
            net,
            host,
            server,
            cache: OnceLock::new(),
            cache_hits: LazyCounter::new(),
            queries: LazyCounter::new(),
            query_us: LazyHistogram::new(),
        }
    }

    fn world(&self) -> &Arc<World> {
        self.net.world()
    }

    /// The TTL cache, made and exported under `bindns_cache` when first
    /// probed.
    fn cache(&self) -> &TtlCache {
        (self.cache).get_or_init(|| TtlCache::exported(self.world(), "bindns_cache"))
    }

    /// Queries, consulting the cache first; a one-record set, which the
    /// cache keeps as its body, is owned by `name`.
    ///
    /// When the server is unreachable (crashed or partitioned under an
    /// installed `FaultPlan`) and an expired entry is still resident,
    /// the resolver serves it stale rather than failing — RFC 8767
    /// behaviour, mirroring the HNS meta cache's serve-stale fallback.
    pub fn resolve(&self, name: &DomainName, rtype: RType) -> RpcResult<Records> {
        let owner = || name.clone();
        self.lookup(name.as_str(), rtype, owner, |entry| entry.to_records(owner))
    }

    /// [`StdResolver::resolve`] as a shared set of whole records: a hit
    /// shares the cached set, and a one-record set is rebuilt on `name`.
    ///
    /// Pinned by `benchmark/`; goes in ROADMAP item 1(c).
    pub fn query(&self, name: &DomainName, rtype: RType) -> RpcResult<Arc<[ResourceRecord]>> {
        let entry = self.lookup(name.as_str(), rtype, || name.clone(), Entry::clone)?;
        Ok(entry.records(|| name.clone()))
    }

    /// [`StdResolver::resolve`] of the name `text` parses to, read for its
    /// first record of `rtype`: that record's TTL and data (`None` if the
    /// set holds no record of `rtype`). A hit reads the cached set where
    /// it lies and builds nothing — no name, no set; the data is shared.
    /// Text that is no name is refused as parsing it is, before anything
    /// is charged or counted.
    pub fn query_first(&self, text: &str, rtype: RType) -> RpcResult<Option<(u32, RData)>> {
        let text = DomainName::canonical(text).map_err(|e| RpcError::Service(e.to_string()))?;
        let name = || DomainName::of_canonical(&text);
        self.lookup(&text, rtype, name, |entry| entry.first(rtype))
    }

    /// The one lookup under [`StdResolver::resolve`],
    /// [`StdResolver::query`] and [`StdResolver::query_first`]: probes
    /// the cache for (`text`, the name's canonical text, `rtype`) and
    /// hands a live entry to `read` in place, charging the probe and a
    /// demarshalled hit of the set's length; on a miss fetches from the
    /// server under `name()`, files the set and reads it; an unreachable
    /// server is answered from a retained expired entry, read as a hit
    /// is.
    fn lookup<T>(
        &self,
        text: &str,
        rtype: RType,
        name: impl FnOnce() -> DomainName,
        read: impl Fn(&Entry) -> T,
    ) -> RpcResult<T> {
        let world = self.world();
        let read = |entry: &Entry| (entry.len(), read(entry));
        let charge_hit = |rrs| {
            let form = simnet::CacheForm::Demarshalled;
            world.charge(Term::CacheHit { form, rrs });
        };
        world.charge(Term::CacheProbe);
        if let Some((len, value)) = self.cache().read(world.now(), text, rtype, read) {
            self.cache_hits
                .get(world.metrics(), "bind_resolver", "std_cache_hits")
                .inc();
            charge_hit(len);
            return Ok(value);
        }
        let name = name();
        let records: Arc<[ResourceRecord]> = match self.query_uncached(&name, rtype) {
            Ok(records) => records.whole().collect(),
            Err(err) if err.is_unreachable() => {
                let stale = self.cache().read_stale(world.now(), text, rtype, read);
                let Some(((len, value), stale_for)) = stale else {
                    return Err(err);
                };
                world.cache_outcome(CacheOutcome::Stale);
                charge_hit(len);
                world.trace(Some(self.host), TraceKind::Cache, || {
                    format!("stale_served: {name} {rtype:?} (stale {stale_for}; {err})")
                });
                return Ok(value);
            }
            Err(err) => return Err(err),
        };
        let (_, value) = read(&Entry::Records(Arc::clone(&records)));
        self.cache().insert(world.now(), name, rtype, records);
        Ok(value)
    }

    /// Queries the server directly, bypassing the cache.
    pub fn query_uncached(&self, name: &DomainName, rtype: RType) -> RpcResult<Records> {
        let t0 = self.world().now();
        self.queries
            .get(self.world().metrics(), "bind_resolver", "std_queries")
            .inc();
        let question = Question::new(name.clone(), rtype);
        let decode = decoded(Answer::from_value);
        let answer = (self.net).call_msg(self.host, &self.server, PROC_QUERY, &question, decode)?;
        // Hand-written marshalling cost for the records that came back, as
        // the recursive resolver charges it: an alias's answer, of two
        // owners, is read as any other.
        let world = self.world();
        world.charge(Term::FastMarshal {
            rrs: answer.records.len(),
        });
        self.query_us
            .get(world.metrics(), "bind_resolver", "std_query_us")
            .record(world.now().since(t0).as_us());
        answer.into_result(&question).map_err(lookup_error)
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        (self.cache.get()).map_or_else(Default::default, |cache| cache.stats())
    }

    /// Clears the cache.
    pub fn clear_cache(&self) {
        if let Some(cache) = self.cache.get() {
            cache.clear();
        }
    }
}

impl std::fmt::Debug for StdResolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StdResolver")
            .field("host", &self.host)
            .finish()
    }
}

/// The HRPC interface to BIND: Raw HRPC transport, generated marshalling.
///
/// No cache here — callers (the HNS, the NSMs) own their caches, which is
/// precisely what §3's caching experiments vary.
pub struct HrpcResolver {
    net: Arc<RpcNet>,
    host: HostId,
    server: HrpcBinding,
    queries: LazyCounter,
    query_us: LazyHistogram,
    mqueries: LazyCounter,
}

impl HrpcResolver {
    /// Creates the interface on `host` pointed at a server's Raw HRPC
    /// binding.
    pub fn new(net: Arc<RpcNet>, host: HostId, server: HrpcBinding) -> Self {
        HrpcResolver {
            net,
            host,
            server,
            queries: LazyCounter::new(),
            query_us: LazyHistogram::new(),
            mqueries: LazyCounter::new(),
        }
    }

    /// The host this resolver calls from.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Queries the server; returns the answer and charges the generated
    /// marshalling cost plus the interface's fixed overhead.
    pub fn query(&self, name: &DomainName, rtype: RType) -> RpcResult<Records> {
        let t0 = self.net.world().now();
        self.queries
            .get(self.net.world().metrics(), "bind_resolver", "hrpc_queries")
            .inc();
        let question = Question::new(name.clone(), rtype);
        let decode = decoded(Answer::from_value);
        let answer = (self.net).call_msg(self.host, &self.server, PROC_QUERY, &question, decode)?;
        let world = self.net.world();
        world.charge(Term::ResolverQuery {
            rrs: answer.records.len(),
        });
        self.query_us
            .get(world.metrics(), "bind_resolver", "hrpc_query_us")
            .record(world.now().since(t0).as_us());
        answer.into_result(&question).map_err(lookup_error)
    }

    /// Sends a multi-question query in one round trip; the reply may carry
    /// speculative additional record sets if the server has an
    /// [`crate::server::AdditionalProvider`] installed.
    ///
    /// Marshalling is charged per record set — the batch saves transport
    /// round trips and per-call resolver overhead, not demarshalling work.
    pub fn mquery(&self, questions: &[Question], hints: &[String]) -> RpcResult<MultiAnswer> {
        self.mqueries
            .get(self.net.world().metrics(), "bind_resolver", "mqueries")
            .inc();
        let mq = MultiQuestion::new(questions.to_vec(), hints.to_vec());
        let decode = decoded(MultiAnswer::from_value);
        let multi = (self.net).call_msg(self.host, &self.server, PROC_MQUERY, &mq, decode)?;
        let world = self.net.world();
        // Every returned set still pays generated demarshalling, but the
        // whole batch pays the fixed interface overhead exactly once.
        let answers = multi.answers.iter().chain(multi.additional.iter());
        world.charge(Term::ResolverBatch {
            sets: &mut answers.map(|answer| answer.records.len()),
        });
        Ok(multi)
    }

    /// Sends a dynamic update (requires the modified server).
    pub fn update(&self, op: &UpdateOp) -> RpcResult<()> {
        let rdata = op.records().iter().map(|r| &r.rdata);
        check_rdata(rdata).map_err(|e| RpcError::Service(e.to_string()))?;
        let decode = decoded(Answer::from_value);
        let answer = (self.net).call_msg(self.host, &self.server, PROC_UPDATE, op, decode)?;
        let world = self.net.world();
        world.charge(Term::GeneratedMiss { rrs: 1 });
        match answer.rcode {
            crate::error::Rcode::Ok => Ok(()),
            other => Err(RpcError::Service(format!("update refused: {other:?}"))),
        }
    }
}

impl std::fmt::Debug for HrpcResolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HrpcResolver")
            .field("host", &self.host)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{deploy, single_zone_server, BindDeployment};
    use crate::zone::Zone;
    use simnet::time::SimDuration;
    use simnet::topology::{HostId, NetAddr};
    use simnet::world::World;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).expect("valid name")
    }

    fn setup() -> (Arc<World>, Arc<RpcNet>, HostId, BindDeployment) {
        let world = World::paper();
        let client = world.add_host("client");
        let ns_host = world.add_host("ns.cs.washington.edu");
        let net = RpcNet::new(Arc::clone(&world));
        let mut zone = Zone::new(name("cs.washington.edu"), 3600);
        zone.add(ResourceRecord::a(
            name("fiji.cs.washington.edu"),
            86_400,
            NetAddr::of(HostId(9)),
        ))
        .expect("add");
        let dep = deploy(&net, ns_host, single_zone_server("public-bind", zone, true));
        (world, net, client, dep)
    }

    #[test]
    fn std_lookup_costs_about_27ms() {
        // The paper's primitive: "a BIND name to address lookup takes
        // 27 msec."
        let (world, net, client, dep) = setup();
        let resolver = StdResolver::new(net, client, dep.std_binding);
        let (result, took, _) =
            world.measure(|| resolver.query_uncached(&name("fiji.cs.washington.edu"), RType::A));
        assert_eq!(result.expect("found").len(), 1);
        let ms = took.as_ms_f64();
        assert!((ms - 27.0).abs() < 1.0, "std lookup took {ms} ms, paper 27");
    }

    #[test]
    fn cached_lookup_is_nearly_free() {
        let (world, net, client, dep) = setup();
        let resolver = StdResolver::new(net, client, dep.std_binding);
        resolver
            .resolve(&name("fiji.cs.washington.edu"), RType::A)
            .expect("warm");
        let (result, took, delta) =
            world.measure(|| resolver.resolve(&name("fiji.cs.washington.edu"), RType::A));
        assert!(result.is_ok());
        assert!(took.as_ms_f64() < 2.0, "cached took {took}");
        assert_eq!(delta.remote_calls, 0);
        assert_eq!(resolver.cache_stats().hits, 1);
    }

    /// Asking the server alone makes no cache; the first probe makes one,
    /// and what the registry reads of it is what it counted.
    #[test]
    fn a_resolver_that_only_asks_the_server_keeps_no_cache() {
        let (world, net, client, dep) = setup();
        let resolver = StdResolver::new(net, client, dep.std_binding);
        let fiji = name("fiji.cs.washington.edu");
        resolver.query_uncached(&fiji, RType::A).expect("found");
        resolver.clear_cache();
        assert!(resolver.cache.get().is_none());
        assert_eq!(resolver.cache_stats(), Default::default());
        for _ in 0..2 {
            resolver.resolve(&fiji, RType::A).expect("found");
        }
        assert!(resolver.cache.get().is_some());
        let stats = resolver.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        let snapshot = world.metrics().snapshot();
        assert_eq!(snapshot.counter("bindns_cache", "hits"), Some(1));
    }

    #[test]
    fn cache_expires_by_ttl() {
        let (world, net, client, dep) = setup();
        // Install a short-TTL record.
        dep.server.with_db(|db| {
            db.find_zone_mut(&name("short.cs.washington.edu"))
                .expect("zone")
                .add(ResourceRecord::txt(name("short.cs.washington.edu"), 1, "v"))
                .expect("add");
        });
        let resolver = StdResolver::new(net, client, dep.std_binding);
        resolver
            .resolve(&name("short.cs.washington.edu"), RType::Txt)
            .expect("warm");
        world.wait(SimDuration::from_ms(2_000)); // Let the TTL lapse.
        let (_, _, delta) =
            world.measure(|| resolver.resolve(&name("short.cs.washington.edu"), RType::Txt));
        assert_eq!(delta.remote_calls, 1, "expired entry must refetch");
    }

    #[test]
    fn hrpc_lookup_is_much_more_expensive() {
        // The HRPC-to-BIND interface pays Raw HRPC transport plus generated
        // marshalling plus interface overhead: ~66 ms vs ~27 ms standard.
        let (world, net, client, dep) = setup();
        let hrpc_resolver = HrpcResolver::new(Arc::clone(&net), client, dep.hrpc_binding);
        let (result, took, _) =
            world.measure(|| hrpc_resolver.query(&name("fiji.cs.washington.edu"), RType::A));
        assert!(result.is_ok());
        let ms = took.as_ms_f64();
        assert!(
            (ms - 66.0).abs() < 3.0,
            "hrpc lookup took {ms} ms, expected ~66"
        );
        assert_eq!(hrpc_resolver.host(), client);
    }

    #[test]
    fn hrpc_update_roundtrips() {
        let (_world, net, client, dep) = setup();
        let hrpc_resolver = HrpcResolver::new(net, client, dep.hrpc_binding);
        let rr = ResourceRecord::unspec(name("meta.cs.washington.edu"), 600, b"x".to_vec());
        hrpc_resolver.update(&UpdateOp::Add(rr)).expect("update");
        let found = hrpc_resolver
            .query(&name("meta.cs.washington.edu"), RType::Unspec)
            .expect("query");
        assert_eq!(found.len(), 1);
    }

    /// Over the fabric a refused `Replace` once told the client `FormErr`
    /// while the old set was gone and the serial had moved.
    #[test]
    fn a_refused_replace_changes_nothing_on_the_server() {
        let (_world, net, client, dep) = setup();
        let origin = name("cs.washington.edu");
        let owner = name("meta.cs.washington.edu");
        let unspec = |owner: &DomainName, payload: &str| {
            ResourceRecord::unspec(owner.clone(), 600, payload.as_bytes().to_vec())
        };
        let resolver = HrpcResolver::new(Arc::clone(&net), client, dep.hrpc_binding);
        let replace = |records| {
            resolver.update(&UpdateOp::Replace {
                name: owner.clone(),
                rtype: RType::Unspec,
                records,
            })
        };
        replace(vec![unspec(&owner, "ns=BIND")]).expect("first registration");
        let serial = || crate::axfr::read_serial(&net, client, &dep.hrpc_binding, &origin);
        let before = serial().expect("serial");

        let other = name("other.cs.washington.edu");
        let refused = replace(vec![unspec(&owner, "ns=CH"), unspec(&other, "ns=CH")]);
        assert!(
            matches!(&refused, Err(RpcError::Service(why)) if why.contains("FormErr")),
            "{refused:?}"
        );
        let found = resolver.query(&owner, RType::Unspec).expect("query");
        let old = [unspec(&owner, "ns=BIND")];
        assert_eq!(
            found.whole().collect::<Vec<_>>(),
            old,
            "the old set answers"
        );
        assert_eq!(serial().expect("serial"), before);
    }

    #[test]
    fn missing_name_maps_to_not_found() {
        let (_world, net, client, dep) = setup();
        let resolver = StdResolver::new(net, client, dep.std_binding);
        assert!(matches!(
            resolver.resolve(&name("ghost.cs.washington.edu"), RType::A),
            Err(RpcError::NotFound(_))
        ));
    }

    #[test]
    fn mquery_answers_all_questions_in_one_round_trip() {
        let (world, net, client, dep) = setup();
        let resolver = HrpcResolver::new(net, client, dep.hrpc_binding);
        let questions = vec![
            Question::new(name("fiji.cs.washington.edu"), RType::A),
            Question::new(name("ghost.cs.washington.edu"), RType::A),
        ];
        let (result, _, delta) = world.measure(|| resolver.mquery(&questions, &[]));
        let multi = result.expect("mquery");
        assert_eq!(delta.remote_calls, 1, "batch must be a single round trip");
        assert_eq!(multi.answers.len(), 2);
        assert_eq!(multi.answers[0].rcode, crate::error::Rcode::Ok);
        assert_eq!(multi.answers[0].records.len(), 1);
        assert_ne!(multi.answers[1].rcode, crate::error::Rcode::Ok);
        assert!(multi.additional.is_empty(), "no provider installed");
    }

    #[test]
    fn mquery_charges_overhead_once() {
        // Two sequential 1-RR queries pay bind_resolver_overhead twice; an
        // mquery of the same two questions pays it once. The saving per
        // elided call is one RTT plus one overhead.
        let (world, net, client, dep) = setup();
        dep.server.with_db(|db| {
            db.find_zone_mut(&name("tonga.cs.washington.edu"))
                .expect("zone")
                .add(ResourceRecord::a(
                    name("tonga.cs.washington.edu"),
                    86_400,
                    NetAddr::of(HostId(10)),
                ))
                .expect("add");
        });
        let resolver = HrpcResolver::new(net, client, dep.hrpc_binding);
        let q1 = name("fiji.cs.washington.edu");
        let q2 = name("tonga.cs.washington.edu");
        let (_, seq_took, _) = world.measure(|| {
            resolver.query(&q1, RType::A).expect("q1");
            resolver.query(&q2, RType::A).expect("q2");
        });
        let questions = vec![
            Question::new(q1.clone(), RType::A),
            Question::new(q2.clone(), RType::A),
        ];
        let (_, batch_took, _) = world.measure(|| resolver.mquery(&questions, &[]).expect("mq"));
        let saving = seq_took.as_ms_f64() - batch_took.as_ms_f64();
        // One round trip and one interface overhead fewer.
        let suite = simnet::RpcSuiteKind::RawTcp;
        let expected = world.price(Term::RemoteRequest { suite, bytes: 0 })
            + world.price(Term::ResolverQuery { rrs: 1 })
            - world.price(Term::GeneratedMiss { rrs: 1 });
        assert!(
            (saving - expected).abs() < 1.0,
            "batch saving {saving} ms, expected ~{expected}"
        );
    }

    #[test]
    fn unreachable_server_serves_stale_from_the_ttl_cache() {
        let (world, net, client, dep) = setup();
        dep.server.with_db(|db| {
            db.find_zone_mut(&name("short.cs.washington.edu"))
                .expect("zone")
                .add(ResourceRecord::txt(name("short.cs.washington.edu"), 1, "v"))
                .expect("add");
        });
        let resolver = StdResolver::new(net, client, dep.std_binding);
        resolver
            .resolve(&name("short.cs.washington.edu"), RType::Txt)
            .expect("warm");
        world.wait(SimDuration::from_ms(2_000)); // Let the TTL lapse.

        // Crash the BIND host: the expired entry is served stale…
        let mut plan = simnet::FaultPlan::new();
        plan.crash(dep.std_binding.host, world.now(), None);
        world.set_faults(Some(plan));
        let got = resolver
            .resolve(&name("short.cs.washington.edu"), RType::Txt)
            .expect("serve-stale");
        assert_eq!(got.len(), 1);
        assert_eq!(resolver.cache_stats().stale_serves, 1);

        // …while a name with nothing cached fails fast and typed.
        assert!(matches!(
            resolver.resolve(&name("fiji.cs.washington.edu"), RType::A),
            Err(RpcError::HostUnreachable { .. })
        ));

        // Healing the crash resumes real fetches (and stops stale serves).
        world.set_faults(None);
        let (result, _, delta) =
            world.measure(|| resolver.resolve(&name("short.cs.washington.edu"), RType::Txt));
        assert!(result.is_ok());
        assert_eq!(delta.remote_calls, 1, "healed query refetches");
        assert_eq!(resolver.cache_stats().stale_serves, 1, "no new stale serve");
    }

    /// One step of the differential: the answer read for its first
    /// record of the type, the virtual time it took, the resolver's two
    /// counters and its cache's statistics after it.
    type Seen = (
        RpcResult<Option<(u32, RData)>>,
        simnet::time::SimDuration,
        [Option<u64>; 2],
        crate::cache::CacheStats,
    );

    /// The three readers of one lookup.
    #[derive(Clone, Copy)]
    enum Reader {
        /// The pinned `Arc` form.
        Query,
        /// The first record of the type, read in place.
        First,
        /// The `Records` form.
        Resolve,
    }

    /// A script of queries on a fresh testbed, each through `reader`
    /// (`query` and `resolve` of the parsed name): a miss, a
    /// hit, an upper-case name with a trailing dot, a `CNAME` set kept
    /// whole, the same for an alias the server answers (its `CNAME` and
    /// its target's record, two owners) and then the cache, no data of
    /// the type, a name that does not parse, a name not there, and a
    /// stale serve inside a crash window.
    fn differential(reader: Reader) -> Vec<Seen> {
        let (world, net, client, dep) = setup();
        dep.server.with_db(|db| {
            let zone = db.find_zone_mut(&name("cs.washington.edu")).expect("zone");
            let short = ResourceRecord::txt(name("short.cs.washington.edu"), 1, "v");
            zone.add(short).expect("add");
            let www = name("www.cs.washington.edu");
            let cname = ResourceRecord::cname(www, 600, name("fiji.cs.washington.edu"));
            zone.add(cname).expect("add");
        });
        let resolver = StdResolver::new(net, client, dep.std_binding);
        // An alias's set — its `CNAME`, then the target's address — is
        // kept whole, whether filed here or learnt from the server.
        let (alias, fiji) = (
            name("alias.cs.washington.edu"),
            name("fiji.cs.washington.edu"),
        );
        let set = vec![
            ResourceRecord::cname(alias.clone(), 600, fiji.clone()),
            ResourceRecord::a(fiji, 600, NetAddr::of(HostId(9))),
        ];
        resolver.cache().insert(world.now(), alias, RType::A, set);
        let ask = |text: &str, rtype| {
            let parsed = || DomainName::parse(text).map_err(|e| RpcError::Service(e.to_string()));
            match reader {
                Reader::First => resolver.query_first(text, rtype),
                Reader::Query => {
                    let records = resolver.query(&parsed()?, rtype)?;
                    let first = records.iter().find(|r| r.rtype == rtype);
                    Ok(first.map(|r| (r.ttl, r.rdata.clone())))
                }
                Reader::Resolve => {
                    let records = resolver.resolve(&parsed()?, rtype)?;
                    let first = records.iter().find(|(_, body)| body.rtype == rtype);
                    Ok(first.map(|(_, body)| (body.ttl, body.rdata.clone())))
                }
            }
        };
        let mut seen = Vec::new();
        let mut step = |text: &str, rtype| {
            let (answer, took, _) = world.measure(|| ask(text, rtype));
            let snap = world.metrics().snapshot();
            let counters =
                ["std_cache_hits", "std_queries"].map(|c| snap.counter("bind_resolver", c));
            seen.push((answer, took, counters, resolver.cache_stats()));
        };
        for (text, rtype) in [
            ("fiji.cs.washington.edu", RType::A),
            ("fiji.cs.washington.edu", RType::A),
            ("FIJI.cs.Washington.EDU.", RType::A),
            ("alias.cs.washington.edu", RType::A),
            ("Alias.cs.washington.edu", RType::A),
            ("www.cs.washington.edu", RType::A),
            ("WWW.cs.washington.edu", RType::A),
            ("fiji.cs.washington.edu", RType::Mx),
            ("a..b", RType::A),
            ("ghost.cs.washington.edu", RType::A),
            ("short.cs.washington.edu", RType::Txt),
        ] {
            step(text, rtype);
        }
        world.wait(SimDuration::from_ms(2_000));
        let mut plan = simnet::FaultPlan::new();
        plan.crash(dep.std_binding.host, world.now(), None);
        world.set_faults(Some(plan));
        step("short.cs.washington.edu", RType::Txt);
        step("SHORT.cs.washington.edu", RType::Txt);
        step("tonga.cs.washington.edu", RType::A);
        seen
    }

    /// `query_first` is `query` read for its first record, and so is
    /// `resolve`: the same record, virtual time, counters and cache
    /// statistics at every step.
    #[test]
    fn query_first_answers_and_charges_as_query_does() {
        let by_query = differential(Reader::Query);
        let by_first = differential(Reader::First);
        assert_eq!(by_first, by_query);
        assert_eq!(differential(Reader::Resolve), by_query);
        let answers: Vec<_> = by_first.iter().map(|(answer, ..)| answer).collect();
        let fiji = |ttl| Ok(Some((ttl, RData::Addr(NetAddr::of(HostId(9))))));
        assert_eq!(answers[..3], [&fiji(86_400); 3]);
        assert_eq!(answers[3..5], [&fiji(600); 2]);
        // The alias the server answers: its target's record, one remote
        // query charged the fast marshal of both records, then a hit.
        assert_eq!(answers[5..7], [&fiji(86_400); 2]);
        let alias_ms = (by_first[5].1.as_ms_f64(), by_first[0].1.as_ms_f64());
        assert!(
            alias_ms.0 > alias_ms.1,
            "two records cost more: {alias_ms:?}"
        );
        assert_eq!(by_first[6].2, [Some(5), Some(2)]);
        assert_eq!(
            answers[7],
            &Err(RpcError::NotFound("fiji.cs.washington.edu".into()))
        );
        assert!(matches!(answers[8], Err(RpcError::Service(why)) if why.contains("empty label")));
        assert_eq!(answers[11], &Ok(Some((1, RData::Text("v".into())))));
        assert_eq!(answers[11], answers[12]);
        assert!(matches!(answers[13], Err(RpcError::HostUnreachable { .. })));
        let (hits, stats) = (by_first[12].2[0], by_first[12].3);
        assert_eq!((hits, stats.stale_serves), (Some(5), 2));
    }

    #[test]
    fn clear_cache_forces_refetch() {
        let (world, net, client, dep) = setup();
        let resolver = StdResolver::new(net, client, dep.std_binding);
        resolver
            .resolve(&name("fiji.cs.washington.edu"), RType::A)
            .expect("warm");
        resolver.clear_cache();
        let (_, _, delta) =
            world.measure(|| resolver.resolve(&name("fiji.cs.washington.edu"), RType::A));
        assert_eq!(delta.remote_calls, 1);
    }
}
