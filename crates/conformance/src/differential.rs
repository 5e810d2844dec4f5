//! Differential path pinning: every route to a binding must produce the
//! same bytes.
//!
//! The repository keeps growing faster `FindNSM` paths (MQUERY batching,
//! the composed `BindingCache`, serve-stale fallbacks, NSM and
//! Clearinghouse failover). The paper's correctness claim is that these
//! are *transparent* optimisations — a client cannot tell which path
//! answered. This module makes that claim executable: for a seeded
//! world, run the same query mix down every path and assert the
//! XDR-encoded results are byte-identical, per seed, across a seed
//! sweep. The seed perturbs query order and fault timing, so a path
//! that is only accidentally equivalent under one schedule gets caught.

use std::sync::Arc;

use clearinghouse::property::PROP_ADDRESS;
use clearinghouse::replication::ChCluster;
use clearinghouse::{deploy as deploy_ch, ChClient, ChDb, ChServer, ThreePartName};
use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::query::QueryClass;
use hns_core::service::HnsConfig;
use hrpc::HrpcBinding;
use nsms::harness::{Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, NS_BIND, NS_CH};
use nsms::nsm_cache::NsmCacheForm;
use nsms::Importer;
use simnet::faults::FaultPlan;
use simnet::rng::DetRng;
use simnet::time::SimDuration;

/// The canonical byte form of a binding for comparison: its XDR-encoded
/// wire value, the exact representation a remote client receives.
pub fn binding_bytes(binding: &HrpcBinding) -> Vec<u8> {
    wire::xdr::encode(&binding.to_value()).expect("binding encodes")
}

/// Summary of one seeded differential run (all assertions passed).
#[derive(Debug)]
pub struct SeedSummary {
    /// The seed.
    pub seed: u64,
    /// Targets compared across the three FindNSM paths.
    pub targets: usize,
    /// Fault scenarios pinned (serve-stale with the composed cache off
    /// and on, NSM failover, ChClient failover).
    pub fault_scenarios: usize,
}

/// One query every path must answer alike, and what to call it.
type Target = (QueryClass, HnsName, &'static str);

/// The query targets every path must agree on: the four remotely
/// deployed query classes, across both name services. (Host-address
/// NSMs are linked locally in the testbed and have no remote binding,
/// so `FindNSM` cannot designate them by design.)
fn targets(tb: &Testbed) -> Vec<Target> {
    let n = |ctx: Context, s: &str| HnsName::new(ctx, s).expect("target name");
    vec![
        (
            QueryClass::hrpc_binding(),
            n(tb.ctx_bind(), "fiji.cs.washington.edu"),
            "binding/bind",
        ),
        (
            QueryClass::hrpc_binding(),
            n(tb.ctx_ch(), "printserver:cs:uw"),
            "binding/ch",
        ),
        (
            QueryClass::mailbox_location(),
            n(tb.ctx_bind(), "alice.cs.washington.edu"),
            "mailbox/bind",
        ),
        (
            QueryClass::mailbox_location(),
            n(tb.ctx_ch(), "bob:cs:uw"),
            "mailbox/ch",
        ),
        (
            QueryClass::file_location(),
            n(tb.ctx_bind(), "sources.cs.washington.edu"),
            "file/bind",
        ),
        (
            QueryClass::file_location(),
            n(tb.ctx_ch(), "designs:cs:uw"),
            "file/ch",
        ),
        (
            QueryClass::user_info(),
            n(tb.ctx_bind(), "mfs.cs.washington.edu"),
            "user/bind",
        ),
        (
            QueryClass::user_info(),
            n(tb.ctx_ch(), "bob:cs:uw"),
            "user/ch",
        ),
    ]
}

fn shuffle<T>(rng: &mut DetRng, items: &mut [T]) {
    // Fisher–Yates; DetRng has no shuffle of its own.
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Record TTL of the alias contexts, seconds: far below `META_TTL`, so
/// their mapping 1 lapses while mappings 2–6 of their name service are
/// still live.
const ALIAS_TTL: u32 = 120;

/// The second context on `name_service`. A context and its alias share
/// mappings 2–6.
fn alias_context(name_service: &str) -> Context {
    Context::new(format!("alias-{}", name_service.to_ascii_lowercase())).expect("alias context")
}

/// Registers the alias context of each name service, with the short
/// record TTL.
fn register_alias_contexts(tb: &Testbed) {
    let registrar = tb.make_hns(tb.hosts.client, CacheMode::Disabled);
    registrar.meta().set_record_ttl(ALIAS_TTL);
    for name_service in [NS_BIND, NS_CH] {
        registrar
            .register_context(
                &alias_context(name_service),
                name_service,
                &NameMapping::Identity,
            )
            .expect("register alias context");
    }
}

/// Every target once more, under its context's alias.
fn alias_targets(tb: &Testbed, targets: &[Target]) -> Vec<Target> {
    targets
        .iter()
        .map(|(qc, name, label)| {
            let name_service = if name.context == tb.ctx_bind() {
                NS_BIND
            } else {
                NS_CH
            };
            let alias = HnsName::new(alias_context(name_service), Arc::clone(&name.individual))
                .expect("alias name");
            (qc.clone(), alias, *label)
        })
        .collect()
}

/// Part A: sequential vs MQUERY-batched vs composed-BindingCache
/// `FindNSM`, compared target by target in seed-shuffled order, over
/// rounds separated by seed-jittered clock advances so the composed
/// instance answers in each of its three shapes — a (query class,
/// context) hit, a (query class, name service) hit after the context's
/// own entry lapsed, and a full re-walk.
fn pin_findnsm_paths(tb: &Testbed, rng: &mut DetRng, seed: u64) -> usize {
    let sequential = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let batched = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    batched.set_batching(true);
    let cache = CacheMode::Demarshalled;
    let composed = tb.make_hns(
        tb.hosts.client,
        HnsConfig {
            cache,
            composed: true,
        },
    );
    composed.set_batching(true);

    let mut targets = targets(tb);
    let mut aliases = alias_targets(tb, &targets);
    // What the composed instance's two levels answered since last asked.
    let mut seen = (0, 0);
    let mut composed_hits = || {
        let now = (
            composed.binding_cache_stats().hits,
            composed.binding_cache_service_stats().hits,
        );
        let delta = (now.0 - seen.0, now.1 - seen.1);
        seen = now;
        delta
    };
    let compare = |rng: &mut DetRng, round: &str, set: &mut [Target]| {
        shuffle(rng, set);
        for (qc, name, label) in set.iter() {
            let seq = binding_bytes(&sequential.find_nsm(qc, name).expect("sequential FindNSM"));
            let bat = binding_bytes(&batched.find_nsm(qc, name).expect("batched FindNSM"));
            assert_eq!(
                seq, bat,
                "seed {seed}, {round}: batched FindNSM diverged from sequential on {label}"
            );
            let com = binding_bytes(&composed.find_nsm(qc, name).expect("composed FindNSM"));
            assert_eq!(
                seq, com,
                "seed {seed}, {round}: composed FindNSM diverged from sequential on {label}"
            );
        }
    };
    let n = targets.len() as u64;

    // Cold: every target walks all six mappings; its alias then finds
    // mappings 2-6 composed under the name service.
    compare(rng, "cold", &mut targets);
    assert_eq!(composed_hits(), (0, 0), "seed {seed}: cold walks");
    compare(rng, "cold alias", &mut aliases);
    assert_eq!(composed_hits(), (0, n), "seed {seed}: aliases share 2-6");
    // Warm: one probe each; the hit must be indistinguishable from the
    // miss that filled it.
    compare(rng, "warm", &mut targets);
    compare(rng, "warm alias", &mut aliases);
    assert_eq!(composed_hits(), (2 * n, 0), "seed {seed}: context hits");

    // Past the aliases' own record TTL, well inside everything else's:
    // the alias entries have lapsed, the name-service entries have not.
    tb.world.wait(SimDuration::from_ms(
        u64::from(ALIAS_TTL) * 1000 + rng.next_below(300_000),
    ));
    compare(rng, "alias lapsed", &mut aliases);
    assert_eq!(composed_hits(), (0, n), "seed {seed}: service-level hits");
    compare(rng, "alias lapsed, primary", &mut targets);
    assert_eq!(
        composed_hits(),
        (n, 0),
        "seed {seed}: primaries still whole"
    );

    // Past every TTL: full re-walks, then shared again.
    tb.world.wait(SimDuration::from_ms(
        u64::from(hns_core::META_TTL) * 1000 + rng.next_below(60_000),
    ));
    compare(rng, "all lapsed", &mut targets);
    assert_eq!(composed_hits(), (0, 0), "seed {seed}: full re-walks");
    compare(rng, "all lapsed, alias", &mut aliases);
    assert_eq!(composed_hits(), (0, n), "seed {seed}: shared again");
    targets.len()
}

/// Part B: serve-stale. A warm client during a meta-store crash must
/// return the same bytes it returned fresh, merely marked stale, and
/// must not remember the stale answer as a fresh one.
///
/// With the composed cache on, the query goes through the short-lived
/// alias context: when the crash begins only its mapping 1 has lapsed,
/// so the answer is a stale-served mapping 1 plus the live (query class,
/// name service) entry.
fn pin_serve_stale(tb: &Testbed, rng: &mut DetRng, seed: u64, composed: bool) {
    let cache = CacheMode::Demarshalled;
    let warm = tb.make_hns(tb.hosts.client, HnsConfig { cache, composed });
    let qc = QueryClass::hrpc_binding();
    let (context, lapse_secs) = if composed {
        (alias_context(NS_BIND), ALIAS_TTL)
    } else {
        (tb.ctx_bind(), hns_core::META_TTL)
    };
    let name = HnsName::new(context, "fiji.cs.washington.edu").expect("name");
    let fresh = binding_bytes(&warm.find_nsm(&qc, &name).expect("fresh FindNSM"));
    let composed_inserts = warm.binding_cache_stats().inserts;

    // Expire the cache with seed-jittered slack, then crash the meta
    // host for a seed-jittered window.
    tb.world.wait(SimDuration::from_ms(
        u64::from(lapse_secs) * 1000 + 1_000 + rng.next_below(5_000),
    ));
    let crash_start = tb.world.now();
    let heal = crash_start + SimDuration::from_ms(60_000 + rng.next_below(240_000));
    let mut plan = FaultPlan::new();
    plan.crash(tb.hosts.meta, crash_start, Some(heal));
    tb.world.set_faults(Some(plan));

    // Asked twice: had the first stale answer been cached, the second
    // would come back as a fresh composed hit.
    for _ in 0..2 {
        let (binding, report) = warm
            .find_nsm_report(&qc, &name)
            .expect("stale FindNSM during crash");
        assert!(
            report.stale_served,
            "seed {seed}: crash-window FindNSM must be marked stale"
        );
        assert_eq!(
            fresh,
            binding_bytes(&binding),
            "seed {seed}: serve-stale path diverged from the fresh path"
        );
    }
    assert_eq!(
        warm.binding_cache_stats().inserts,
        composed_inserts,
        "seed {seed}: a stale-served walk was cached"
    );
    assert_eq!(
        warm.binding_cache_service_stats().hits,
        if composed { 2 } else { 0 },
        "seed {seed}: mappings 2-6 come from the live service-level entry"
    );

    // Heal before the next scenario reuses the world.
    tb.world.set_faults(None);
    tb.world
        .wait(heal.since(tb.world.now()) + SimDuration::from_ms(1_000));
}

/// Part C: NSM failover. An `Import` answered by the replica binding
/// NSM must hand back the same binding bytes as the primary did.
fn pin_nsm_failover(tb: &Testbed, rng: &mut DetRng, seed: u64) {
    let replica = tb.deploy_binding_bind_replica(tb.hosts.agent, NsmCacheForm::Demarshalled);
    let warm = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let mut imp = Importer::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        HnsHandle::Linked(Arc::clone(&warm)),
    );
    imp.set_alternate_nsm(Some(replica));
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    let primary = binding_bytes(
        &imp.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
            .expect("pre-crash Import"),
    );

    let crash_start = tb.world.now();
    let heal = crash_start + SimDuration::from_ms(30_000 + rng.next_below(60_000));
    let mut plan = FaultPlan::new();
    plan.crash(tb.hosts.nsm, crash_start, Some(heal));
    tb.world.set_faults(Some(plan));

    let failover = binding_bytes(
        &imp.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
            .expect("failover Import"),
    );
    assert_eq!(
        primary, failover,
        "seed {seed}: replica-NSM failover diverged from the primary path"
    );

    tb.world.set_faults(None);
    tb.world
        .wait(heal.since(tb.world.now()) + SimDuration::from_ms(1_000));
}

/// Part D: Clearinghouse read failover. A lookup served by a propagated
/// replica during a primary crash must produce the same value bytes.
fn pin_ch_failover(tb: &Testbed, rng: &mut DetRng, seed: u64) {
    let replica_host = tb.world.add_host("backup-dlion.cs.washington.edu");
    let replica_server = ChServer::new(
        "clearinghouse-replica",
        ChDb::new(vec![("cs".into(), "uw".into())]),
    );
    replica_server.register_key(tb.creds.identity.clone(), tb.creds.key);
    let cluster = ChCluster::new(
        Arc::clone(&tb.world),
        Arc::clone(&tb.ch.server),
        tb.ch.host,
        vec![(Arc::clone(&replica_server), replica_host)],
    );
    cluster.propagate();
    let replica = deploy_ch(&tb.net, replica_host, replica_server);

    let mut client = ChClient::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        tb.ch.binding,
        tb.creds.clone(),
    );
    let name = ThreePartName::parse("printserver:cs:uw").expect("name");
    let primary = client
        .lookup_item(&name, PROP_ADDRESS)
        .expect("primary lookup");
    client.set_read_fallbacks(vec![replica.binding]);

    let crash_start = tb.world.now();
    let heal = crash_start + SimDuration::from_ms(30_000 + rng.next_below(60_000));
    let mut plan = FaultPlan::new();
    plan.crash(tb.hosts.ch, crash_start, Some(heal));
    tb.world.set_faults(Some(plan));

    let fallback = client
        .lookup_item(&name, PROP_ADDRESS)
        .expect("fallback lookup");
    assert_eq!(
        wire::xdr::encode(&primary).expect("value encodes"),
        wire::xdr::encode(&fallback).expect("value encodes"),
        "seed {seed}: ChClient read failover diverged from the primary"
    );

    tb.world.set_faults(None);
    tb.world
        .wait(heal.since(tb.world.now()) + SimDuration::from_ms(1_000));
}

/// Runs the full differential suite for one seed, panicking with the
/// seed and diverging path on any mismatch.
pub fn run_seed(seed: u64) -> SeedSummary {
    let mut rng = DetRng::new(seed ^ 0xD1FF_EE75);
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    tb.deploy_extension_nsms(tb.hosts.nsm);
    tb.deploy_user_nsms(tb.hosts.nsm);

    register_alias_contexts(&tb);

    let targets = pin_findnsm_paths(&tb, &mut rng, seed);
    pin_serve_stale(&tb, &mut rng, seed, false);
    pin_serve_stale(&tb, &mut rng, seed, true);
    pin_nsm_failover(&tb, &mut rng, seed);
    pin_ch_failover(&tb, &mut rng, seed);

    SeedSummary {
        seed,
        targets,
        fault_scenarios: 4,
    }
}

/// Typed and tree-only peers: whichever side of an exchange knows the
/// structs, the fabric must charge and the caller must read the same.
///
/// `bindns`'s resolvers and server exchange `Question`, `Answer`,
/// `MultiQuestion`, `MultiAnswer` and `UpdateOp` as themselves, and its
/// transfer clients their requests, `ZoneTransfer` and
/// `IncrementalTransfer`; the NSM
/// interface its `NsmRequest` and each query class's reply struct; the
/// Clearinghouse each procedure's request struct and `Property`; `regd`
/// its request structs and `Resolution`. Any other peer —
/// the benchmark's timing shim, a service that implements
/// `RpcService::dispatch` alone, a caller of `RpcNet::call` — exchanges
/// trees, and the two must be indistinguishable from outside. Not every
/// node on the net may be the subject under test, so the peers that are
/// not are stood in for here, at the servers' ports.
pub mod peers {
    use std::sync::Arc;

    use bindns::axfr::{read_serial, transfer_zone, transfer_zone_incremental};
    use bindns::message::{
        Answer, MultiAnswer, MultiQuestion, Question, PROC_MQUERY, PROC_QUERY, PROC_UPDATE,
    };
    use bindns::server::BIND_PROGRAM;
    use bindns::{
        deploy, single_zone_server, DomainName, HrpcResolver, RData, RType, Records,
        RecursiveResolver, ResourceRecord, StdResolver, UpdateOp, Zone, DNS_PORT,
    };
    use clearinghouse::property::{PROP_ADDRESS, PROP_MAILBOX, PROP_MEMBERS};
    use clearinghouse::server::CH_PROGRAM;
    use clearinghouse::ThreePartName;
    use hns_core::cache::CacheMode;
    use hns_core::colocation::HnsHandle;
    use hns_core::name::{HnsName, NameMapping};
    use hns_core::nsm::{Nsm, NsmClient, NsmService};
    use hns_core::query::QueryClass;
    use hrpc::error::RpcResult;
    use hrpc::server::{CallCtx, ReplySlot, RpcService};
    use hrpc::{ProgramId, RpcNet};
    use nsms::file_loc::{FileBindNsm, FileChNsm};
    use nsms::harness::{
        Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, NSM_EXPORT_PROGRAM, NS_BIND, NS_CH,
        PRINT_SERVICE, PRINT_SERVICE_PROGRAM,
    };
    use nsms::mail::{MailBindNsm, MailChNsm};
    use nsms::nsm_cache::NsmCacheForm;
    use nsms::Importer;
    use regd::{owner_key, owner_name, RegClient, RegServer, RegTestbed, REG_PROGRAM};
    use simnet::topology::{HostId, NetAddr};
    use simnet::world::World;
    use wire::{Message, Value};

    /// A server that knows no struct: it forwards `dispatch` alone, as
    /// the benchmark's timing shim does, so the fabric hands it the
    /// caller's tree and takes a tree back.
    struct TreeOnlyServer(Arc<dyn RpcService>);

    impl RpcService for TreeOnlyServer {
        fn service_name(&self) -> &str {
            self.0.service_name()
        }

        fn dispatch(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value> {
            self.0.dispatch(ctx, proc_id, args)
        }
    }

    /// Stands at a server's port for callers that know no struct: the
    /// server is handed the tree such a caller would have sent, and the
    /// caller the tree `RpcNet::call` would have made of the reply.
    struct TreeOnlyCallers(Arc<dyn RpcService>);

    impl RpcService for TreeOnlyCallers {
        fn service_name(&self) -> &str {
            self.0.service_name()
        }

        fn dispatch(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value> {
            self.0.dispatch(ctx, proc_id, args)
        }

        fn dispatch_msg(
            &self,
            ctx: &CallCtx<'_>,
            proc_id: u32,
            args: &dyn Message,
            reply: &mut ReplySlot<'_>,
        ) -> RpcResult<()> {
            let sent: Value = args.tree().into_owned();
            let tree = |tree: &mut ReplySlot<'_>| self.0.dispatch_msg(ctx, proc_id, &sent, tree);
            reply.put(ReplySlot::tree(tree)?);
            Ok(())
        }
    }

    /// Which side of every exchange knows the structs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Peers {
        /// The callers send and read structs.
        pub typed_callers: bool,
        /// The servers read and answer with structs.
        pub typed_servers: bool,
    }

    impl Peers {
        /// The four combinations, both sides typed first.
        pub const ALL: [Peers; 4] = [
            Peers {
                typed_callers: true,
                typed_servers: true,
            },
            Peers {
                typed_callers: true,
                typed_servers: false,
            },
            Peers {
                typed_callers: false,
                typed_servers: true,
            },
            Peers {
                typed_callers: false,
                typed_servers: false,
            },
        ];

        /// Puts `service` back on its host's `port` behind whatever stands
        /// for the untyped side.
        fn interpose(
            self,
            net: &RpcNet,
            (host, port, program): (HostId, u16, ProgramId),
            mut service: Arc<dyn RpcService>,
        ) {
            if !self.typed_servers {
                service = Arc::new(TreeOnlyServer(service));
            }
            if !self.typed_callers {
                service = Arc::new(TreeOnlyCallers(service));
            }
            net.unexport(host, port);
            net.export_at(host, port, program, service);
        }
    }

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).expect("static name")
    }

    /// Everything one run of the script let an observer see: each answer
    /// in order, then the world's counters, virtual clock and — caches
    /// exported — every metric in its registry.
    pub fn observe(peers: Peers) -> Vec<String> {
        let world = World::paper();
        let client = world.add_host("client");
        let root_host = world.add_host("a.root-servers.net");
        let cs_host = world.add_host("ns.cs.edu");
        let net = RpcNet::new(Arc::clone(&world));

        // A conventional parent that delegates `cs.edu` to a modified child.
        let mut root_zone = Zone::new(name("edu"), 86_400);
        root_zone
            .add(ResourceRecord {
                name: name("cs.edu"),
                rtype: RType::Ns,
                ttl: 86_400,
                rdata: RData::Domain(name("ns.cs.edu")),
            })
            .expect("delegation");
        root_zone
            .add(ResourceRecord::a(
                name("ns.cs.edu"),
                86_400,
                NetAddr::of(cs_host),
            ))
            .expect("glue");
        let mut cs_zone = Zone::new(name("cs.edu"), 3_600);
        for (leaf, host) in [("fiji.cs.edu", client), ("june.cs.edu", cs_host)] {
            cs_zone
                .add(ResourceRecord::a(name(leaf), 3_600, NetAddr::of(host)))
                .expect("leaf");
        }
        let root = deploy(
            &net,
            root_host,
            single_zone_server("root", root_zone, false),
        );
        let cs = deploy(&net, cs_host, single_zone_server("cs", cs_zone, true));
        for deployment in [&root, &cs] {
            let at = (deployment.host, DNS_PORT, BIND_PROGRAM);
            peers.interpose(&net, at, Arc::clone(&deployment.server) as _);
        }

        let mut seen = Vec::new();
        let mut see = |what: &str, outcome: String| seen.push(format!("{what}: {outcome}"));
        let fiji = name("fiji.cs.edu");
        let ghost = name("ghost.cs.edu");
        let meta = name("meta.cs.edu");
        let unspec =
            |owner: &DomainName, p: &[u8]| ResourceRecord::unspec(owner.clone(), 600, p.to_vec());

        // QUERY through each resolver: a miss, the hit it leaves, a NameError.
        // What the standard and recursive resolvers answer is seen whole.
        let whole = |found: RpcResult<Records>| {
            format!("{:?}", found.map(|r| r.whole().collect::<Vec<_>>()))
        };
        let std = StdResolver::new(Arc::clone(&net), client, cs.std_binding);
        see("std query", whole(std.resolve(&fiji, RType::A)));
        see("std query again", whole(std.resolve(&fiji, RType::A)));
        see("std NameError", whole(std.resolve(&ghost, RType::A)));
        let hrpc = HrpcResolver::new(Arc::clone(&net), client, cs.hrpc_binding);
        see("hrpc query", format!("{:?}", hrpc.query(&fiji, RType::A)));
        see(
            "hrpc NameError",
            format!("{:?}", hrpc.query(&ghost, RType::A)),
        );

        // The zone's serial, and the whole of it.
        let origin = name("cs.edu");
        let serial = read_serial(&net, client, &cs.hrpc_binding, &origin);
        see("serial", format!("{serial:?}"));
        let axfr = transfer_zone(&net, client, &cs.hrpc_binding, &origin);
        see("axfr", format!("{axfr:?}"));

        // UPDATE: accepted, refused by the zone, refused by the server.
        let replace = |records| UpdateOp::Replace {
            name: meta.clone(),
            rtype: RType::Unspec,
            records,
        };
        let accepted = replace(vec![unspec(&meta, b"ns=BIND"), unspec(&meta, b"v=2")]);
        see("update", format!("{:?}", hrpc.update(&accepted)));
        let mismatched = replace(vec![unspec(&ghost, b"ns=CH")]);
        see("refused update", format!("{:?}", hrpc.update(&mismatched)));
        let at_root = HrpcResolver::new(Arc::clone(&net), client, root.hrpc_binding);
        let add = UpdateOp::Add(ResourceRecord::txt(name("new.edu"), 60, "x"));
        see(
            "update a conventional server",
            format!("{:?}", at_root.update(&add)),
        );

        // What the accepted update changed, then nothing since.
        let ixfr = |from| transfer_zone_incremental(&net, client, &cs.hrpc_binding, &origin, from);
        let changed = ixfr(serial.expect("serial"));
        see("ixfr", format!("{changed:?}"));
        let unchanged = ixfr(changed.expect("ixfr").serial);
        see("ixfr at the new serial", format!("{unchanged:?}"));

        // MQUERY: the set just written, a name that is not there, a hint.
        let questions = [
            Question::new(meta.clone(), RType::Unspec),
            Question::new(ghost.clone(), RType::A),
        ];
        let hints = ["hrpcbinding".to_string()];
        see("mquery", format!("{:?}", hrpc.mquery(&questions, &hints)));

        // A referral walk from the root, a sibling from the cut it cached,
        // and a NameError from the cut's server.
        let walker = RecursiveResolver::new(Arc::clone(&net), client, root.std_binding);
        for target in [&fiji, &name("june.cs.edu"), &ghost] {
            see("walk", whole(walker.resolve(target, RType::A)));
        }

        // A caller of `RpcNet::call`, which has only ever exchanged trees.
        let call = |binding, proc_id, args: &Value| net.call(client, binding, proc_id, args);
        let asked = Question::new(meta.clone(), RType::Unspec);
        let reply = call(&cs.std_binding, PROC_QUERY, &asked.tree()).expect("QUERY");
        see("call QUERY", format!("{:?}", Answer::from_value(&reply)));
        let asked = MultiQuestion::new(questions.to_vec(), hints.to_vec());
        let reply = call(&cs.hrpc_binding, PROC_MQUERY, &asked.tree()).expect("MQUERY");
        see(
            "call MQUERY",
            format!("{:?}", MultiAnswer::from_value(&reply)),
        );
        let asked = mismatched.to_value().expect("marshals");
        let reply = call(&cs.hrpc_binding, PROC_UPDATE, &asked).expect("UPDATE");
        see("call UPDATE", format!("{:?}", Answer::from_value(&reply)));
        let referred = call(
            &root.std_binding,
            PROC_QUERY,
            &Question::new(fiji, RType::A).tree(),
        );
        see("call for a referral", format!("{referred:?}"));

        see("counters", format!("{:?}", world.counters()));
        see("virtual time", format!("{}", world.now()));
        see("metrics", world.metrics().snapshot().to_json());
        seen.extend(observe_nsms(peers));
        seen
    }

    /// The NSM interface and the Clearinghouse read, on the paper's
    /// testbed with every NSM and the Clearinghouse behind the stand-ins:
    /// `Import` over either name service (a miss, then the NSM cache's
    /// hit), the mail and file queries over both, `ChClient::lookup_item`
    /// — and what each refuses.
    fn observe_nsms(peers: Peers) -> Vec<String> {
        let tb = Testbed::build();
        let host = tb.hosts.nsm;
        let bound = tb.deploy_binding_nsms(host, NsmCacheForm::Demarshalled);
        tb.deploy_extension_nsms(host);
        // The harness keeps no handle to the extension NSMs: the stand-ins
        // wrap fresh ones built as it builds them, before any is asked.
        let identity = || NameMapping::Identity;
        let nsms: [Arc<dyn Nsm>; 6] = [
            bound.bind,
            bound.ch,
            MailBindNsm::new(tb.std_resolver(host), identity()),
            MailChNsm::new(tb.ch_client(host), identity()),
            FileBindNsm::new(tb.std_resolver(host), identity()),
            FileChNsm::new(tb.ch_client(host), identity()),
        ];
        for (offset, nsm) in (0..).zip(nsms) {
            let program = ProgramId(NSM_EXPORT_PROGRAM.0 + offset);
            let port = tb.net.portmap_getport(host, program).expect("NSM exported");
            peers.interpose(&tb.net, (host, port, program), NsmService::new(nsm));
        }
        let ch = (tb.ch.host, tb.ch.binding.port, CH_PROGRAM);
        peers.interpose(&tb.net, ch, Arc::clone(&tb.ch.server) as _);

        let mut seen = Vec::new();
        let mut see = |what: &str, outcome: String| seen.push(format!("{what}: {outcome}"));
        let client = tb.hosts.client;
        let hns = tb.make_hns(client, CacheMode::Demarshalled);
        let importer = Importer::new(
            Arc::clone(&tb.net),
            client,
            HnsHandle::Linked(Arc::clone(&hns)),
        );
        let (bind, ch) = (
            |s: &str| HnsName::new(tb.ctx_bind(), s).expect("name"),
            |s: &str| HnsName::new(tb.ctx_ch(), s).expect("name"),
        );
        let (fiji, printer) = (bind("fiji.cs.washington.edu"), ch("printserver:cs:uw"));
        for round in ["import", "import again"] {
            let sun = importer.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &fiji);
            see(round, format!("{sun:?}"));
            let courier = importer.import(PRINT_SERVICE, PRINT_SERVICE_PROGRAM, &printer);
            see(round, format!("{courier:?}"));
        }
        see(
            "import of a program not exported",
            format!("{:?}", importer.import("Nothing", ProgramId(42), &fiji)),
        );

        let nsm = NsmClient::new(Arc::clone(&tb.net), client);
        let mut query = |qc: QueryClass, name: HnsName, extra: Vec<(&'static str, Value)>| {
            let reply = hns
                .find_nsm(&qc, &name)
                .map_err(|e| e.to_string())
                .and_then(|binding| nsm.call(&binding, &name, extra).map_err(|e| e.to_string()));
            see(&format!("{qc} {name}"), format!("{reply:?}"));
        };
        let path = |p: &str| vec![("path", Value::str(p))];
        for name in [
            bind("alice.cs.washington.edu"),
            ch("bob:cs:uw"),
            ch("ghost:cs:uw"),
        ] {
            query(QueryClass::mailbox_location(), name, vec![]);
        }
        query(
            QueryClass::file_location(),
            bind("sources.cs.washington.edu"),
            path("hrpc/stubs.c"),
        );
        query(
            QueryClass::file_location(),
            ch("designs:cs:uw"),
            path("dlion/board.dwg"),
        );
        query(QueryClass::file_location(), ch("designs:cs:uw"), vec![]);

        let ch_client = tb.ch_client(client);
        let tpn = |s: &str| ThreePartName::parse(s).expect("name");
        for (name, prop) in [
            ("printserver:cs:uw", PROP_ADDRESS),
            ("bob:cs:uw", PROP_MAILBOX),
            ("ghost:cs:uw", PROP_MAILBOX),
            ("bob:cs:uw", PROP_ADDRESS),
        ] {
            let item = ch_client.lookup_item(&tpn(name), prop);
            see(
                &format!("lookup_item {name} {}", prop.0),
                format!("{item:?}"),
            );
        }

        see("nsm counters", format!("{:?}", tb.world.counters()));
        see("nsm virtual time", format!("{}", tb.world.now()));
        see("nsm metrics", tb.world.metrics().snapshot().to_json());
        seen.extend(observe_write_plane(peers));
        seen
    }

    /// The write plane, on the registration testbed with the primary
    /// Clearinghouse and an exported `regd` frontend behind the
    /// stand-ins: every Clearinghouse write and enumeration through
    /// `ChClient`, every `regd` procedure through `RegClient` — whose
    /// frontend reaches the Clearinghouse through the same stand-in — and
    /// what each refuses.
    fn observe_write_plane(peers: Peers) -> Vec<String> {
        let rt = RegTestbed::build(3);
        let tb = &rt.tb;
        let ch = (tb.ch.host, tb.ch.binding.port, CH_PROGRAM);
        peers.interpose(&tb.net, ch, Arc::clone(&tb.ch.server) as _);
        let frontend = RegServer::new(Arc::clone(&rt.registry));
        let reg_binding = regd::deploy(&tb.net, tb.hosts.agent, Arc::clone(&frontend));
        let reg = (tb.hosts.agent, reg_binding.port, REG_PROGRAM);
        peers.interpose(&tb.net, reg, frontend);

        let mut seen = Vec::new();
        let mut see = |what: &str, outcome: String| seen.push(format!("{what}: {outcome}"));
        let client = tb.hosts.client;
        let ch = tb.ch_client(client);
        let tpn = |s: &str| ThreePartName::parse(s).expect("name");
        let (temp, printer, staff, lp) = (
            tpn("temp:cs:uw"),
            tpn("printer1:cs:uw"),
            tpn("staff:cs:uw"),
            tpn("lp:cs:uw"),
        );
        see("add_entry", format!("{:?}", ch.add_entry(&temp)));
        see("add_entry again", format!("{:?}", ch.add_entry(&temp)));
        let set = ch.set_item(&printer, PROP_ADDRESS, Value::U32(9));
        see("set_item", format!("{set:?}"));
        let elsewhere = ch.set_item(&tpn("x:ee:uw"), PROP_ADDRESS, Value::U32(1));
        see("set_item elsewhere", format!("{elsewhere:?}"));
        let member = ch.add_member(&staff, PROP_MEMBERS, "alice:cs:uw");
        see("add_member", format!("{member:?}"));
        see("add_alias", format!("{:?}", ch.add_alias(&lp, &printer)));
        let shadow = ch.add_alias(&printer, &staff);
        see("add_alias over an entry", format!("{shadow:?}"));
        let via_alias = ch.lookup_item(&lp, PROP_ADDRESS);
        see("lookup_item via alias", format!("{via_alias:?}"));
        let group = ch.lookup_group(&staff, PROP_MEMBERS);
        see("lookup_group", format!("{group:?}"));
        see("list", format!("{:?}", ch.list("cs", "uw", "print*")));
        let run = ch.lookup_item_run(&[printer.clone(), tpn("ghost:cs:uw")], PROP_ADDRESS);
        see("lookup_item_run", format!("{run:?}"));
        see("delete", format!("{:?}", ch.delete(&temp)));
        see("delete again", format!("{:?}", ch.delete(&temp)));

        let regc = RegClient::new(Arc::clone(&tb.net), client, reg_binding);
        let owner = |i| (owner_name(i), owner_key(i));
        let ((o0, k0), (o1, k1), (o2, k2)) = (owner(0), owner(1), owner(2));
        see(
            "register",
            format!("{:?}", regc.register(&o0, k0, "relay", NS_BIND)),
        );
        let again = regc.register(&o0, k0, "relay", NS_BIND);
        see("register again", format!("{again:?}"));
        let forged = regc.register(&o0, k1, "other", NS_BIND);
        see("register with a wrong key", format!("{forged:?}"));
        see("resolve", format!("{:?}", regc.resolve("relay")));
        see(
            "update",
            format!("{:?}", regc.update(&o0, k0, "relay", NS_CH)),
        );
        let rebound = regc.transfer(&o0, k0, "relay", &o1, Some(NS_BIND));
        see("transfer, re-bound", format!("{rebound:?}"));
        let cycle = regc.transfer(&o1, k1, "relay", &o0, None);
        see("transfer back", format!("{cycle:?}"));
        see(
            "transfer",
            format!("{:?}", regc.transfer(&o1, k1, "relay", &o2, None)),
        );
        see("resolve after", format!("{:?}", regc.resolve("relay")));
        let naive = rt.registry.resolve_naive("relay");
        see("naive walk", format!("{naive:?}"));
        see("release", format!("{:?}", regc.release(&o2, k2, "relay")));
        see("resolve released", format!("{:?}", regc.resolve("relay")));
        see("resolve bad name", format!("{:?}", regc.resolve("my.svc")));

        see("write counters", format!("{:?}", tb.world.counters()));
        see("write virtual time", format!("{}", tb.world.now()));
        see("write metrics", tb.world.metrics().snapshot().to_json());
        seen
    }
}
