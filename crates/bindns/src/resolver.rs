//! Resolvers: the two client paths into a BIND server.
//!
//! * [`StdResolver`] — the standard library path: native DNS datagrams and
//!   hand-written marshalling. A name-to-address lookup costs ≈27 ms, the
//!   paper's primitive.
//! * [`HrpcResolver`] — the HRPC interface the HNS built to BIND: the Raw
//!   HRPC suite plus stub-compiler-generated marshalling, which is what made
//!   meta lookups expensive (Table 3.2) until caching was fixed.

use std::sync::Arc;

use simnet::obs::{LazyCounter, LazyHistogram};
use simnet::topology::HostId;
use simnet::trace::{CacheOutcome, TraceKind};
use simnet::world::World;

use hrpc::error::{RpcError, RpcResult};
use hrpc::net::RpcNet;
use hrpc::HrpcBinding;

use crate::cache::TtlCache;
use crate::error::NsError;
use crate::message::{
    replied, Answer, MultiAnswer, MultiQuestion, Question, PROC_MQUERY, PROC_QUERY, PROC_UPDATE,
};
use crate::name::DomainName;
use crate::rr::{check_rdata, RType, ResourceRecord};
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
    cache: Arc<TtlCache>,
    cache_hits: LazyCounter,
    queries: LazyCounter,
    query_us: LazyHistogram,
}

impl StdResolver {
    /// Creates a resolver on `host` pointed at a server's native binding.
    pub fn new(net: Arc<RpcNet>, host: HostId, server: HrpcBinding) -> Self {
        let cache = TtlCache::exported(net.world(), "bindns_cache");
        StdResolver {
            net,
            host,
            server,
            cache,
            cache_hits: LazyCounter::new(),
            queries: LazyCounter::new(),
            query_us: LazyHistogram::new(),
        }
    }

    fn world(&self) -> &Arc<World> {
        self.net.world()
    }

    /// Queries, consulting the cache first. Hits share the cached
    /// record set (`Arc`), so the hot path allocates nothing.
    ///
    /// When the server is unreachable (crashed or partitioned under an
    /// installed `FaultPlan`) and an expired entry is still resident,
    /// the resolver serves it stale rather than failing — RFC 8767
    /// behaviour, mirroring the HNS meta cache's serve-stale fallback.
    pub fn query(&self, name: &DomainName, rtype: RType) -> RpcResult<Arc<[ResourceRecord]>> {
        let world = Arc::clone(self.world());
        world.charge_ms(world.costs.cache_probe);
        if let Some(records) = self.cache.get(world.now(), name, rtype) {
            self.cache_hits
                .get(world.metrics(), "bind_resolver", "std_cache_hits")
                .inc();
            world.charge_ms(
                world
                    .costs
                    .cache_hit(simnet::CacheForm::Demarshalled, records.len()),
            );
            return Ok(records);
        }
        let records: Arc<[ResourceRecord]> = match self.query_uncached(name, rtype) {
            Ok(records) => records.into(),
            Err(err) if err.is_unreachable() => {
                let Some((records, stale_for)) = self.cache.get_stale(world.now(), name, rtype)
                else {
                    return Err(err);
                };
                world.cache_outcome(CacheOutcome::Stale);
                world.charge_ms(
                    world
                        .costs
                        .cache_hit(simnet::CacheForm::Demarshalled, records.len()),
                );
                world.trace(Some(self.host), TraceKind::Cache, || {
                    format!("stale_served: {name} {rtype:?} (stale {stale_for}; {err})")
                });
                return Ok(records);
            }
            Err(err) => return Err(err),
        };
        self.cache
            .insert(world.now(), name.clone(), rtype, Arc::clone(&records));
        Ok(records)
    }

    /// Queries the server directly, bypassing the cache.
    pub fn query_uncached(
        &self,
        name: &DomainName,
        rtype: RType,
    ) -> RpcResult<Vec<ResourceRecord>> {
        let t0 = self.world().now();
        self.queries
            .get(self.world().metrics(), "bind_resolver", "std_queries")
            .inc();
        let question = Question::new(name.clone(), rtype);
        let reply = self
            .net
            .call_msg(self.host, &self.server, PROC_QUERY, &question)?;
        let answer = replied(reply, Answer::from_value)?;
        // Hand-written marshalling cost for the records that came back:
        // exercise the real fast codec and charge its calibrated cost.
        let _wire = answer.to_fast_bytes().map_err(RpcError::Wire)?;
        let world = self.world();
        world.charge_ms(world.costs.fast_marshal(answer.records.len().max(1)));
        self.query_us
            .get(world.metrics(), "bind_resolver", "std_query_us")
            .record(world.now().since(t0).as_us());
        answer.into_result(&question).map_err(lookup_error)
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Clears the cache.
    pub fn clear_cache(&self) {
        self.cache.clear();
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
    pub fn query(&self, name: &DomainName, rtype: RType) -> RpcResult<Vec<ResourceRecord>> {
        let t0 = self.net.world().now();
        self.queries
            .get(self.net.world().metrics(), "bind_resolver", "hrpc_queries")
            .inc();
        let question = Question::new(name.clone(), rtype);
        let reply = self
            .net
            .call_msg(self.host, &self.server, PROC_QUERY, &question)?;
        let answer = replied(reply, Answer::from_value)?;
        let world = self.net.world();
        world.charge_ms(
            world.costs.generated_miss(answer.records.len().max(1))
                + world.costs.bind_resolver_overhead,
        );
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
        let reply = self
            .net
            .call_msg(self.host, &self.server, PROC_MQUERY, &mq)?;
        let multi = replied(reply, MultiAnswer::from_value)?;
        let world = self.net.world();
        // Every returned set still pays generated demarshalling, but the
        // whole batch pays the fixed interface overhead exactly once.
        let mut marshal_ms = world.costs.bind_resolver_overhead;
        for answer in multi.answers.iter().chain(multi.additional.iter()) {
            marshal_ms += world.costs.generated_miss(answer.records.len().max(1));
        }
        world.charge_ms(marshal_ms);
        Ok(multi)
    }

    /// Sends a dynamic update (requires the modified server).
    pub fn update(&self, op: &UpdateOp) -> RpcResult<()> {
        check_rdata(op.records()).map_err(|e| RpcError::Service(e.to_string()))?;
        let reply = self
            .net
            .call_msg(self.host, &self.server, PROC_UPDATE, op)?;
        let answer = replied(reply, Answer::from_value)?;
        let world = self.net.world();
        world.charge_ms(world.costs.generated_miss(1));
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
            .query(&name("fiji.cs.washington.edu"), RType::A)
            .expect("warm");
        let (result, took, delta) =
            world.measure(|| resolver.query(&name("fiji.cs.washington.edu"), RType::A));
        assert!(result.is_ok());
        assert!(took.as_ms_f64() < 2.0, "cached took {took}");
        assert_eq!(delta.remote_calls, 0);
        assert_eq!(resolver.cache_stats().hits, 1);
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
            .query(&name("short.cs.washington.edu"), RType::Txt)
            .expect("warm");
        world.charge_ms(2_000.0); // Let the TTL lapse.
        let (_, _, delta) =
            world.measure(|| resolver.query(&name("short.cs.washington.edu"), RType::Txt));
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
        assert_eq!(found, [unspec(&owner, "ns=BIND")], "the old set answers");
        assert_eq!(serial().expect("serial"), before);
    }

    #[test]
    fn missing_name_maps_to_not_found() {
        let (_world, net, client, dep) = setup();
        let resolver = StdResolver::new(net, client, dep.std_binding);
        assert!(matches!(
            resolver.query(&name("ghost.cs.washington.edu"), RType::A),
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
        let expected =
            world.costs.rpc_rtt(simnet::RpcSuiteKind::RawTcp) + world.costs.bind_resolver_overhead;
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
            .query(&name("short.cs.washington.edu"), RType::Txt)
            .expect("warm");
        world.charge_ms(2_000.0); // Let the TTL lapse.

        // Crash the BIND host: the expired entry is served stale…
        let mut plan = simnet::FaultPlan::new();
        plan.crash(dep.std_binding.host, world.now(), None);
        world.set_faults(Some(plan));
        let got = resolver
            .query(&name("short.cs.washington.edu"), RType::Txt)
            .expect("serve-stale");
        assert_eq!(got.len(), 1);
        assert_eq!(resolver.cache_stats().stale_serves, 1);

        // …while a name with nothing cached fails fast and typed.
        assert!(matches!(
            resolver.query(&name("fiji.cs.washington.edu"), RType::A),
            Err(RpcError::HostUnreachable { .. })
        ));

        // Healing the crash resumes real fetches (and stops stale serves).
        world.set_faults(None);
        let (result, _, delta) =
            world.measure(|| resolver.query(&name("short.cs.washington.edu"), RType::Txt));
        assert!(result.is_ok());
        assert_eq!(delta.remote_calls, 1, "healed query refetches");
        assert_eq!(resolver.cache_stats().stale_serves, 1, "no new stale serve");
    }

    #[test]
    fn clear_cache_forces_refetch() {
        let (world, net, client, dep) = setup();
        let resolver = StdResolver::new(net, client, dep.std_binding);
        resolver
            .query(&name("fiji.cs.washington.edu"), RType::A)
            .expect("warm");
        resolver.clear_cache();
        let (_, _, delta) =
            world.measure(|| resolver.query(&name("fiji.cs.washington.edu"), RType::A));
        assert_eq!(delta.remote_calls, 1);
    }
}
