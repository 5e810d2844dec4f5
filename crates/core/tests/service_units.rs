//! Unit-level tests of the HNS service and colocation machinery using a
//! minimal environment (no concrete NSM crate): a modified BIND as meta
//! store, a public BIND for addresses, and a stub host-address NSM.

use std::sync::Arc;

use bindns::name::DomainName;
use bindns::server::{deploy as deploy_bind, single_zone_server, BindDeployment};
use bindns::zone::Zone;
use hns_core::cache::CacheMode;
use hns_core::colocation::{
    AgentClient, AgentService, HnsClient, HnsHandle, HnsService, AGENT_PROGRAM, HNS_PROGRAM,
};
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::nsm::{Nsm, NsmRequest};
use hns_core::query::QueryClass;
use hns_core::service::{Hns, HnsConfig};
use hns_core::HnsError;
use hrpc::net::RpcNet;
use hrpc::server::{ProcServer, ReplySlot};
use hrpc::{ComponentSet, HrpcBinding, ProgramId, RpcError};
use simnet::time::SimDuration;
use simnet::topology::{HostId, NetAddr};
use simnet::world::World;
use wire::Value;

/// A stub host-address NSM answering from a fixed table — an untyped one:
/// it answers with a tree, which the HNS decodes where it reads it.
struct StubHostAddr {
    name: &'static str,
    table: Vec<(String, u32)>,
}

impl Nsm for StubHostAddr {
    fn nsm_name(&self) -> &str {
        self.name
    }
    fn query_class(&self) -> QueryClass {
        QueryClass::host_address()
    }
    fn handle(&self, request: &NsmRequest, reply: &mut ReplySlot<'_>) -> Result<(), RpcError> {
        let hns_name = &request.name;
        let (_, host) = (self.table.iter())
            .find(|(n, _)| *n == *hns_name.individual)
            .ok_or_else(|| RpcError::NotFound(hns_name.individual.to_string()))?;
        reply.put(Value::record(vec![
            ("host", Value::U32(*host)),
            ("ttl", Value::U32(600)),
        ]));
        Ok(())
    }
}

/// A stub query NSM for an arbitrary class.
struct StubEcho;

impl Nsm for StubEcho {
    fn nsm_name(&self) -> &str {
        "nsm-echo-stub"
    }
    fn query_class(&self) -> QueryClass {
        QueryClass::new("Echo")
    }
    fn handle(&self, request: &NsmRequest, reply: &mut ReplySlot<'_>) -> Result<(), RpcError> {
        reply.put(Value::str(format!("echo:{}", request.name.individual)));
        Ok(())
    }
}

struct Env {
    world: Arc<World>,
    net: Arc<RpcNet>,
    client: HostId,
    hns_host: HostId,
    nsm_host: HostId,
    meta: BindDeployment,
}

fn env() -> Env {
    let world = World::paper();
    let client = world.add_host("client");
    let hns_host = world.add_host("hns-server");
    let nsm_host = world.add_host("nsm-server");
    let meta_host = world.add_host("meta-bind");
    let net = RpcNet::new(Arc::clone(&world));
    let zone = Zone::new(DomainName::parse("hns").expect("origin"), 600);
    let meta = deploy_bind(&net, meta_host, single_zone_server("meta-bind", zone, true));
    Env {
        world,
        net,
        client,
        hns_host,
        nsm_host,
        meta,
    }
}

fn make_hns(env: &Env, host: HostId, config: impl Into<HnsConfig>) -> Arc<Hns> {
    let hns = Arc::new(Hns::new(
        Arc::clone(&env.net),
        host,
        env.meta.hrpc_binding,
        DomainName::parse("hns").expect("origin"),
        config,
    ));
    hns.link_nsm(Arc::new(StubHostAddr {
        name: "nsm-hostaddress-stub",
        table: vec![("nsm-server".to_string(), env.nsm_host.0)],
    }));
    hns
}

/// Registers the echo NSM end to end: context, host-address NSM name,
/// then the NSM itself, on `host`, through the one operation.
fn register_echo_on(hns: &Hns, host: HostId) -> u16 {
    let ctx = Context::new("stub-ctx").expect("ctx");
    hns.register_context(&ctx, "StubNS", &NameMapping::Identity)
        .expect("ctx");
    hns.register_nsm(
        "StubNS",
        &QueryClass::host_address(),
        "nsm-hostaddress-stub",
    )
    .expect("ha nsm");
    let binding = hns
        .deploy_nsm(
            "StubNS",
            Arc::new(StubEcho),
            host,
            ProgramId(999),
            &ctx,
            "test",
        )
        .expect("register the echo NSM");
    binding.port
}

fn register_echo(env: &Env, hns: &Hns) -> u16 {
    register_echo_on(hns, env.nsm_host)
}

fn echo_name() -> HnsName {
    HnsName::new(Context::new("stub-ctx").expect("ctx"), "any-entity").expect("name")
}

#[test]
fn linked_hns_resolves_via_stub_nsm() {
    let env = env();
    let hns = make_hns(&env, env.client, CacheMode::Demarshalled);
    let port = register_echo(&env, &hns);
    let binding = hns
        .find_nsm(&QueryClass::new("Echo"), &echo_name())
        .expect("find");
    assert_eq!(binding.host, env.nsm_host);
    assert_eq!(binding.port, port);
    // A host the topology cannot name has no mapping 3 to write.
    let nowhere = hns.deploy_nsm(
        "StubNS",
        Arc::new(StubEcho),
        HostId(9_999),
        ProgramId(998),
        &echo_name().context,
        "test",
    );
    assert!(matches!(nowhere, Err(HnsError::BadName(_))), "{nowhere:?}");
    // And the NSM is callable through the returned binding.
    let nsm_client = hns_core::nsm::NsmClient::new(Arc::clone(&env.net), env.client);
    let reply = nsm_client
        .call(&binding, &echo_name(), vec![])
        .expect("call");
    assert_eq!(reply, Value::str("echo:any-entity"));
}

/// A host-address NSM that links another NSM into its own HNS while it
/// answers.
struct RelinkingHostAddr {
    hns: std::sync::OnceLock<std::sync::Weak<Hns>>,
    answers: StubHostAddr,
}

impl Nsm for RelinkingHostAddr {
    fn nsm_name(&self) -> &str {
        self.answers.name
    }
    fn query_class(&self) -> QueryClass {
        QueryClass::host_address()
    }
    fn handle(&self, request: &NsmRequest, reply: &mut ReplySlot<'_>) -> Result<(), RpcError> {
        let hns = self.hns.get().and_then(std::sync::Weak::upgrade);
        hns.expect("set before the first query")
            .link_nsm(Arc::new(StubEcho));
        self.answers.handle(request, reply)
    }
}

/// Mapping 6 holds no lock on the linked-NSM table while the NSM runs: a
/// linked NSM that links another from inside `handle` completes.
#[test]
fn a_linked_nsm_may_link_another_from_inside_handle() {
    let env = env();
    let hns = make_hns(&env, env.client, CacheMode::Demarshalled);
    let relinking = Arc::new(RelinkingHostAddr {
        hns: std::sync::OnceLock::new(),
        answers: StubHostAddr {
            name: "nsm-hostaddress-stub",
            table: vec![("nsm-server".to_string(), env.nsm_host.0)],
        },
    });
    relinking
        .hns
        .set(Arc::downgrade(&hns))
        .expect("set exactly once");
    hns.link_nsm(relinking);
    register_echo(&env, &hns);
    let binding = hns
        .find_nsm(&QueryClass::new("Echo"), &echo_name())
        .expect("find");
    assert_eq!(binding.host, env.nsm_host);
}

/// A second context of the same name service shares mappings 2-6 with
/// the first, for exactly as long as the earliest of them is valid.
#[test]
fn service_level_entry_lapses_with_the_earliest_of_mappings_2_to_6() {
    let env = env();
    let cache = CacheMode::Demarshalled;
    let hns = make_hns(
        &env,
        env.client,
        HnsConfig {
            cache,
            composed: true,
        },
    );
    // Mapping 3 (the NSM-info record set) is the short-lived part.
    hns.meta().set_record_ttl(90);
    register_echo(&env, &hns);
    hns.meta().set_record_ttl(600);
    let sibling = Context::new("sibling-ctx").expect("ctx");
    hns.register_context(&sibling, "StubNS", &NameMapping::Identity)
        .expect("sibling");
    hns.register_nsm("StubNS", &QueryClass::new("Echo"), "nsm-echo-stub")
        .expect("nsm");
    hns.register_nsm(
        "StubNS",
        &QueryClass::host_address(),
        "nsm-hostaddress-stub",
    )
    .expect("ha nsm");
    // Only the info record keeps the 90 s TTL; `stub-ctx` (mappings 1
    // and 4) is re-registered at 600 s.
    hns.register_context(
        &Context::new("stub-ctx").expect("ctx"),
        "StubNS",
        &NameMapping::Identity,
    )
    .expect("ctx");
    let qc = QueryClass::new("Echo");
    let sibling_name = HnsName::new(sibling, "any-entity").expect("name");

    let first = hns.find_nsm(&qc, &echo_name()).expect("seeds both levels");
    env.world.wait(SimDuration::from_ms(60_000));
    // Live: the sibling costs its own mapping 1 and one composed probe.
    let (via_service, report) = hns.find_nsm_report(&qc, &sibling_name).expect("sibling");
    assert_eq!(via_service, first);
    assert_eq!(report.remote_round_trips, 1);
    assert_eq!(hns.binding_cache_service_stats().hits, 1);

    // Past mapping 3's TTL nothing composed from it may answer: not the
    // service entry, and neither context's entry made from it.
    env.world.wait(SimDuration::from_ms(31_000));
    for name in [&sibling_name, &echo_name()] {
        let hits = hns.binding_cache_stats().hits;
        let (binding, report) = hns.find_nsm_report(&qc, name).expect("re-walk");
        assert_eq!(binding, first);
        assert_eq!(hns.binding_cache_stats().hits, hits, "context entry lapsed");
        if name == &sibling_name {
            assert_eq!(report.remote_round_trips, 1, "mapping 3 refetched");
            assert_eq!(hns.binding_cache_service_stats().expired, 1);
        } else {
            assert_eq!(report.remote_round_trips, 0, "the refreshed service entry");
            assert_eq!(hns.binding_cache_service_stats().hits, 2);
        }
    }
}

#[test]
fn missing_linked_host_addr_nsm_is_reported() {
    let env = env();
    let hns = Arc::new(Hns::new(
        Arc::clone(&env.net),
        env.client,
        env.meta.hrpc_binding,
        DomainName::parse("hns").expect("origin"),
        CacheMode::Demarshalled,
    ));
    // Registrations done by a fully-linked instance...
    let registrar = make_hns(&env, env.client, CacheMode::Disabled);
    register_echo(&env, &registrar);
    // ...but this instance lacks the linked host-address NSM.
    let err = hns
        .find_nsm(&QueryClass::new("Echo"), &echo_name())
        .unwrap_err();
    assert!(matches!(err, HnsError::NoLinkedHostAddrNsm(_)), "{err}");
}

#[test]
fn remote_hns_service_and_client_roundtrip() {
    let env = env();
    let hns = make_hns(&env, env.hns_host, CacheMode::Demarshalled);
    register_echo(&env, &hns);
    let port = env
        .net
        .export(env.hns_host, HNS_PROGRAM, HnsService::new(Arc::clone(&hns)));
    let binding = HrpcBinding {
        host: env.hns_host,
        addr: NetAddr::of(env.hns_host),
        program: HNS_PROGRAM,
        port,
        components: ComponentSet::raw_tcp(port),
    };
    let client = HnsClient::new(Arc::clone(&env.net), env.client, HnsHandle::Remote(binding));
    let (found, ledger) = env
        .world
        .measure(|| client.find_nsm(&QueryClass::new("Echo"), &echo_name()));
    let took = ledger.total();
    let delta = ledger.counters();
    let found = found.expect("remote find");
    assert_eq!(found.host, env.nsm_host);
    // One client->HNS remote hop plus the HNS's cold meta mappings (the
    // stub environment shares the host context with the query context, so
    // mapping 4 hits the cache and the linked HA stub is local).
    assert!(
        delta.remote_calls >= 5,
        "remote calls {}",
        delta.remote_calls
    );
    assert!(took.as_ms_f64() > 50.0);

    // Remote errors propagate with meaning.
    let missing = HnsName::new(Context::new("ghost").expect("ctx"), "x").expect("name");
    let err = client
        .find_nsm(&QueryClass::new("Echo"), &missing)
        .unwrap_err();
    assert!(matches!(err, HnsError::Rpc(RpcError::NotFound(_))), "{err}");
}

#[test]
fn linked_handle_is_free_of_hop_costs() {
    let env = env();
    let hns = make_hns(&env, env.client, CacheMode::Demarshalled);
    register_echo(&env, &hns);
    let client = HnsClient::new(
        Arc::clone(&env.net),
        env.client,
        HnsHandle::Linked(Arc::clone(&hns)),
    );
    client
        .find_nsm(&QueryClass::new("Echo"), &echo_name())
        .expect("warm");
    let (r, ledger) = env
        .world
        .measure(|| client.find_nsm(&QueryClass::new("Echo"), &echo_name()));
    let took = ledger.total();
    let delta = ledger.counters();
    r.expect("warm find");
    assert_eq!(delta.remote_calls, 0);
    assert!(took.as_ms_f64() < 10.0, "took {took}");
}

#[test]
fn agent_service_performs_find_and_call_in_one_hop() {
    let env = env();
    let agent_host = env.world.add_host("agent");
    // Everything linked at the agent: HNS + (exported-on-agent) NSM.
    let hns = make_hns(&env, agent_host, CacheMode::Demarshalled);
    register_echo_on(&hns, agent_host);
    // The stub host-addr NSM names the agent's own host, so the NSM call
    // stays local to the agent.
    hns.link_nsm(Arc::new(StubHostAddr {
        name: "nsm-hostaddress-stub",
        table: vec![("agent".to_string(), agent_host.0)],
    }));

    let agent_port = env.net.export(
        agent_host,
        AGENT_PROGRAM,
        AgentService::new(Arc::clone(&hns), agent_host),
    );
    let agent_binding = HrpcBinding {
        host: agent_host,
        addr: NetAddr::of(agent_host),
        program: AGENT_PROGRAM,
        port: agent_port,
        components: ComponentSet::raw_tcp(agent_port),
    };
    let client = AgentClient::new(Arc::clone(&env.net), env.client, agent_binding);
    let (reply, ledger) = env
        .world
        .measure(|| client.query(&QueryClass::new("Echo"), &echo_name(), vec![]));
    let delta = ledger.counters();
    assert_eq!(reply.expect("agent query"), Value::str("echo:any-entity"));
    // One client-visible remote hop plus the agent's cold meta lookups;
    // the NSM call itself was local to the agent.
    assert!(
        delta.remote_calls >= 5,
        "remote calls {}",
        delta.remote_calls
    );
    // Warm: a single remote call end to end.
    let (_, ledger) = env
        .world
        .measure(|| client.query(&QueryClass::new("Echo"), &echo_name(), vec![]));
    let delta = ledger.counters();
    assert_eq!(delta.remote_calls, 1, "warm agent query is one hop");
}

#[test]
fn hns_service_rejects_unknown_procedures_and_bad_args() {
    let env = env();
    let hns = make_hns(&env, env.hns_host, CacheMode::Demarshalled);
    let port = env
        .net
        .export(env.hns_host, HNS_PROGRAM, HnsService::new(hns));
    let binding = HrpcBinding {
        host: env.hns_host,
        addr: NetAddr::of(env.hns_host),
        program: HNS_PROGRAM,
        port,
        components: ComponentSet::raw_tcp(port),
    };
    assert!(matches!(
        env.net.call(env.client, &binding, 42, &Value::Void),
        Err(RpcError::BadProcedure(42))
    ));
    assert!(env
        .net
        .call(
            env.client,
            &binding,
            1,
            &Value::record(vec![("nonsense", Value::U32(1))])
        )
        .is_err());
}

/// A `CacheMode::Disabled` instance walks sequentially and batched, and
/// preloads, keeping nothing: the preload files no entry and the cache
/// counts nothing.
#[test]
fn a_disabled_cache_walks_and_preloads_and_keeps_nothing() {
    let env = env();
    let cold = make_hns(&env, env.client, CacheMode::Disabled);
    register_echo(&env, &cold);
    let qc = QueryClass::new("Echo");
    cold.find_nsm(&qc, &echo_name()).expect("sequential walk");
    cold.set_batching(true);
    cold.find_nsm(&qc, &echo_name()).expect("batched walk");
    assert_eq!(cold.preload().expect("preload").entries, 0);
    assert_eq!(cold.cache_stats(), hns_core::HnsCacheStats::default());
}

#[test]
fn preload_from_minimal_meta_zone_works() {
    let env = env();
    let hns = make_hns(&env, env.client, CacheMode::Marshalled);
    register_echo(&env, &hns);
    let report = hns.preload().expect("preload");
    assert!(report.records >= 4, "records {}", report.records);
    assert_eq!(report.entries, 4, "ctx + 2 map entries + info");
    assert!(report.bytes > 0);
    // All meta mappings hit; only the stub host-addr result is computed.
    let (_, ledger) = env
        .world
        .measure(|| hns.find_nsm(&QueryClass::new("Echo"), &echo_name()));
    let delta = ledger.counters();
    assert_eq!(
        delta.remote_calls, 0,
        "stub HA NSM is local; all meta preloaded"
    );
}

/// A transferred set that is no mapping of the chain's is left out of
/// the cache and the count; it fails nothing. Before the cache held
/// typed records, such sets were cached as strings nothing could ask
/// for, and one non-UTF-8 payload anywhere failed the whole preload.
#[test]
fn preload_leaves_out_what_is_no_meta_mapping() {
    use bindns::rr::{RData, RType, ResourceRecord};
    let env = env();
    let hns = make_hns(&env, env.client, CacheMode::Demarshalled);
    register_echo(&env, &hns);
    let name = |s: &str| DomainName::parse(s).expect("name");
    let unspec = |owner: &str, payload: &[u8]| {
        bindns::UpdateOp::Add(ResourceRecord::unspec(name(owner), 600, payload.to_vec()))
    };
    let updater =
        bindns::HrpcResolver::new(Arc::clone(&env.net), env.client, env.meta.hrpc_binding);
    for foreign in [
        unspec("n7.cell0.hns", b"nsm=nsm-cell0-3;host=ns.cell0.hns"),
        unspec("ctx7.hns", b"ns=NS-cell0;map=id"),
        unspec("ctx.garbled.hns", &[0xff, 0xfe]),
        unspec("ctx.half.hns", b"ns=BIND"),
        bindns::UpdateOp::Add(ResourceRecord {
            name: name("ctx.stub-ctx.hns"),
            rtype: RType::Wks,
            ttl: 600,
            rdata: RData::Opaque(b"not asked for by an UNSPEC question".to_vec().into()),
        }),
    ] {
        updater.update(&foreign).expect("update");
    }
    let report = hns.preload().expect("preload");
    assert_eq!(
        report.entries, 4,
        "ctx + 2 map entries + info, as without them"
    );
    assert_eq!(report.records, 9 + 5, "every record was transferred");
    assert_eq!(hns.cache_stats().preloaded, 4);
    // The registered chain is preloaded, the `WKS` record beside its
    // context notwithstanding; the garbled context is the demand fetch's
    // to report.
    let (found, ledger) = env
        .world
        .measure(|| hns.find_nsm(&QueryClass::new("Echo"), &echo_name()));
    let delta = ledger.counters();
    found.expect("find");
    assert_eq!(delta.remote_calls, 0);
    let garbled = HnsName::new(Context::new("garbled").expect("ctx"), "x").expect("name");
    let (refused, ledger) = env
        .world
        .measure(|| hns.find_nsm(&QueryClass::new("Echo"), &garbled));
    let delta = ledger.counters();
    assert!(
        matches!(refused, Err(HnsError::BadMetaRecord(_))),
        "{refused:?}"
    );
    assert_eq!(delta.remote_calls, 1);
}

#[test]
fn warm_preload_ships_only_the_delta() {
    let env = env();
    let hns = make_hns(&env, env.client, CacheMode::Marshalled);
    register_echo(&env, &hns);
    let full = hns.preload().expect("cold preload");
    assert_eq!(full.mode, hns_core::PreloadMode::Full);
    assert!(full.bytes > 0);
    // Nothing changed since: the probe ships zero bytes.
    let probe = hns.preload().expect("unchanged probe");
    assert_eq!(probe.mode, hns_core::PreloadMode::Unchanged);
    assert_eq!(probe.bytes, 0);
    assert_eq!(probe.entries, 0);
    assert_eq!(probe.serial, full.serial);
    // One small meta update: the next preload is incremental and ships
    // strictly fewer bytes than the cold full transfer did.
    let ctx = Context::new("late-ctx").expect("ctx");
    hns.register_context(&ctx, "LateNS", &NameMapping::Identity)
        .expect("ctx");
    let incr = hns.preload().expect("incremental preload");
    assert_eq!(incr.mode, hns_core::PreloadMode::Incremental);
    assert!(incr.serial > full.serial);
    assert!(
        incr.bytes > 0 && incr.bytes < full.bytes,
        "incremental {} vs full {}",
        incr.bytes,
        full.bytes
    );
    assert_eq!(incr.entries, 1, "only the new context record re-seeds");
}

#[test]
fn unserved_meta_store_failure_propagates() {
    let env = env();
    let hns = make_hns(&env, env.client, CacheMode::Demarshalled);
    register_echo(&env, &hns);
    // The meta BIND goes down.
    env.net.unexport(env.meta.host, bindns::DNS_PORT);
    let err = hns
        .find_nsm(&QueryClass::new("Echo"), &echo_name())
        .unwrap_err();
    assert!(
        matches!(err, HnsError::Rpc(RpcError::NoSuchService { .. })),
        "{err}"
    );
}

#[test]
fn registration_is_visible_through_a_different_instance() {
    // "registering an NSM with the HNS extends the functionality of all
    // machines at once": instance B sees what instance A registered.
    let env = env();
    let a = make_hns(&env, env.client, CacheMode::Disabled);
    register_echo(&env, &a);
    let b = make_hns(&env, env.hns_host, CacheMode::Demarshalled);
    let binding = b
        .find_nsm(&QueryClass::new("Echo"), &echo_name())
        .expect("find via B");
    assert_eq!(binding.host, env.nsm_host);
}

#[test]
fn echo_proc_server_is_reusable_between_tests() {
    // Guard against accidental double-export panics in the environment.
    let env = env();
    let extra = Arc::new(ProcServer::new("spare").with_proc(1, |_c, a| Ok(a.clone())));
    let port = env.net.export(env.nsm_host, ProgramId(31_337), extra);
    assert!(port >= 1024);
}
