//! Probe metrics: one layer's public functions timed in isolation on
//! representative data. They do not depend on the workload; every
//! traced run takes them afresh, and the ledger multiplies them by the
//! traced counts to say how much of an op they explain.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bindns::cache::TtlCache;
use bindns::name::DomainName;
use bindns::rr::{RType, ResourceRecord};
use bindns::server::{deploy as deploy_bind, single_zone_server};
use bindns::update::UpdateOp;
use bindns::zone::Zone;
use bindns::{HrpcResolver, StdResolver};
use clearinghouse::name::ThreePartName;
use clearinghouse::property::PROP_MAILBOX;
use conformance::alloc::measure as measure_alloc;
use conformance::corpus::{self, Decoder};
use hns_core::binding_cache::BindingCache;
use hns_core::cache::{CacheMode, HnsCache, MetaKey};
use hns_core::colocation::HnsHandle;
use hns_core::name::HnsName;
use hns_core::query::QueryClass;
use hrpc::net::RpcNet;
use hrpc::server::ProcServer;
use hrpc::{ComponentSet, HrpcBinding, ProgramId};
use nsms::harness::{Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, NS_BIND};
use nsms::import::Importer;
use nsms::nsm_cache::{NsmCache, NsmCacheForm};
use obs::LocalHistogram;
use regd::harness::{owner_key, owner_name, RegTestbed};
use simnet::topology::NetAddr;
use simnet::world::World;
use wire::generated::Compiled;
use wire::{TypeDesc, Value};

use crate::runner::median;

/// Batches per probe; the reported cost is the median batch's mean.
const BATCHES: usize = 7;
/// Wall time one batch aims for at full effort.
const BATCH_NS: f64 = 1.5e6;
/// TTL that never lapses during a probe, seconds.
const FOREVER: u32 = 1 << 24;

/// How long a probe batch runs: 1.0 when measuring, less in a smoke
/// run.
#[derive(Clone, Copy)]
struct Effort(f64);

impl Effort {
    /// Mean nanoseconds per call of `f`.
    fn time<R>(self, mut f: impl FnMut() -> R) -> f64 {
        // Size a batch from a short trial (which also warms the path).
        let trial = Instant::now();
        for _ in 0..8 {
            black_box(f());
        }
        let per_call = (trial.elapsed().as_nanos() as f64 / 8.0).max(1.0);
        let iters = ((BATCH_NS * self.0 / per_call) as usize).clamp(4, 50_000);
        median((0..BATCHES).map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        }))
    }
}

/// Mean nanoseconds per call of `f` when every call needs a fresh
/// input (an insert of a new key, a cold resolve).
fn time_each<T, R>(inputs: Vec<T>, mut f: impl FnMut(T) -> R) -> f64 {
    let per_batch = (inputs.len() / BATCHES).max(1);
    let mut inputs = inputs.into_iter();
    let mut batches = Vec::with_capacity(BATCHES);
    loop {
        let batch: Vec<T> = inputs.by_ref().take(per_batch).collect();
        if batch.len() < per_batch {
            return median(batches);
        }
        let t = Instant::now();
        for input in batch {
            black_box(f(input));
        }
        batches.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
}

/// Bytes one call of `f` requests from the allocator (0 when the
/// counting allocator is not installed, i.e. outside the traced binary).
fn alloc_bytes<R>(f: impl FnOnce() -> R) -> f64 {
    measure_alloc(f).1.unwrap_or(0) as f64
}

pub type Probes = Vec<(&'static str, f64)>;

/// Runs every probe, spending `effort` (1.0 = a measurement) of the
/// usual time on each.
pub fn run_all(effort: f64) -> Probes {
    let e = Effort(effort);
    let mut out = Vec::new();
    own(e, &mut out);
    obs_simnet_intern(e, &mut out);
    wire_corpus(e, &mut out);
    hrpc_echo(e, &mut out);
    bindns_layer(e, &mut out);
    clearinghouse_layer(e, &mut out);
    hns_and_nsms(e, &mut out);
    regd_layer(e, &mut out);
    out
}

fn own(e: Effort, out: &mut Probes) {
    out.push((
        "gen.timer_overhead_ns",
        e.time(|| {
            let t = Instant::now();
            t.elapsed()
        }),
    ));
}

fn obs_simnet_intern(e: Effort, out: &mut Probes) {
    let world = World::paper();
    let counter = world.metrics().counter("probe", "counter");
    out.push(("obs.counter.inc_ns", e.time(|| counter.inc())));
    let mut hist = LocalHistogram::new();
    let mut v = 0u64;
    out.push((
        "obs.local_histogram.record_ns",
        e.time(|| {
            v = v.wrapping_add(7919) & 0xffff;
            hist.record(v)
        }),
    ));

    world.clock.set_batched(true);
    out.push((
        "simnet.clock.charge_batched_ns",
        e.time(|| world.charge_ms(0.25)),
    ));
    world.clock.set_batched(false);
    out.push((
        "simnet.clock.charge_unbatched_ns",
        e.time(|| world.charge_ms(0.25)),
    ));
    out.push(("simnet.world.now_ns", e.time(|| world.now())));

    let known = intern::intern("probe.known.cs.washington.edu");
    out.push((
        "intern.intern_hit_ns",
        e.time(|| intern::intern(black_box("probe.known.cs.washington.edu"))),
    ));
    out.push(("intern.resolve_ns", e.time(|| intern::resolve(known))));
    // Fresh strings every traced run would grow the process-global
    // table without bound, but one run makes only this many.
    static ROUND: AtomicUsize = AtomicUsize::new(0);
    let round = ROUND.fetch_add(1, Ordering::Relaxed);
    let fresh: Vec<String> = (0..7_000)
        .map(|i| format!("probe-new-{round}-{i}.cs.washington.edu"))
        .collect();
    out.push((
        "intern.intern_new_ns",
        time_each(fresh, |s| intern::intern(&s)),
    ));
}

fn wire_corpus(e: Effort, out: &mut Probes) {
    let entries = corpus::entries();
    let of = |format: &str| -> Vec<_> {
        entries
            .iter()
            .filter(|e| e.decoder.format() == format)
            .map(|e| {
                let decoded =
                    corpus::decode_message(e.decoder, &e.bytes).expect("corpus entries decode");
                (e.decoder, e.bytes.clone(), decoded)
            })
            .collect()
    };
    // Mean per corpus message: one call walks the format's whole set.
    for (format, enc, dec) in [
        ("xdr", "wire.xdr.encode_ns", "wire.xdr.decode_ns"),
        (
            "courier",
            "wire.courier.encode_ns",
            "wire.courier.decode_ns",
        ),
        ("fast", "wire.fast.encode_ns", "wire.fast.decode_ns"),
    ] {
        let set = of(format);
        let n = set.len() as f64;
        out.push((
            enc,
            e.time(|| {
                for (decoder, _, decoded) in &set {
                    black_box(corpus::reencode(*decoder, decoded).expect("re-encodes"));
                }
            }) / n,
        ));
        out.push((
            dec,
            e.time(|| {
                for (decoder, bytes, _) in &set {
                    black_box(corpus::decode_message(*decoder, bytes));
                }
            }) / n,
        ));
    }

    let xdr: Vec<(Vec<u8>, Value)> = of("xdr")
        .into_iter()
        .filter_map(|(decoder, bytes, decoded)| match (decoder, decoded) {
            (Decoder::XdrValue, corpus::Decoded::Value(v)) => Some((bytes, v)),
            _ => None,
        })
        .collect();
    let n = xdr.len() as f64;
    out.push((
        "wire.xdr.encoded_len_ns",
        e.time(|| {
            for (_, v) in &xdr {
                black_box(wire::WireFormat::Xdr.encoded_len(v).expect("sizes"));
            }
        }) / n,
    ));
    out.push((
        "wire.xdr.decode.alloc_bytes",
        alloc_bytes(|| {
            for (bytes, _) in &xdr {
                black_box(wire::xdr::decode(bytes).expect("decodes"));
            }
        }) / n,
    ));

    // The IDL-compiled ("generated stub") path over the same messages.
    let compiled: Vec<(Compiled, Vec<u8>, &Value)> = xdr
        .iter()
        .map(|(_, v)| {
            let stub = Compiled::new(TypeDesc::describe(v));
            let bytes = stub.marshal(v).expect("marshals");
            (stub, bytes, v)
        })
        .collect();
    out.push((
        "wire.generated.marshal_ns",
        e.time(|| {
            for (stub, _, v) in &compiled {
                black_box(stub.marshal(v).expect("marshals"));
            }
        }) / n,
    ));
    out.push((
        "wire.generated.unmarshal_ns",
        e.time(|| {
            for (stub, bytes, _) in &compiled {
                black_box(stub.unmarshal(bytes).expect("unmarshals"));
            }
        }) / n,
    ));
    out.push((
        "wire.generated.unmarshal.alloc_bytes",
        alloc_bytes(|| {
            for (stub, bytes, _) in &compiled {
                black_box(stub.unmarshal(bytes).expect("unmarshals"));
            }
        }) / n,
    ));
}

fn hrpc_echo(e: Effort, out: &mut Probes) {
    let world = World::paper();
    let client = world.add_host("client");
    let server = world.add_host("server");
    let net = RpcNet::new(Arc::clone(&world));
    world.clock.set_batched(true);
    let port = net.export(
        server,
        ProgramId(77),
        Arc::new(ProcServer::new("echo").with_proc(1, |_ctx, args| Ok(args.clone()))),
    );
    let binding = |components| HrpcBinding {
        host: server,
        addr: NetAddr::of(server),
        program: ProgramId(77),
        port,
        components,
    };
    // About 200 bytes, shaped like an NSM query.
    let args = Value::record(vec![
        ("context", Value::str("dept512-bind")),
        ("name", Value::str("fiji.cs.washington.edu")),
        ("service", Value::str(DESIRED_SERVICE)),
        ("program", Value::U32(DESIRED_SERVICE_PROGRAM.0)),
        (
            "path",
            Value::str("projects/hcs/hns/src/findnsm/mapping-walk/cache-probe.c"),
        ),
    ]);
    for (name, caller, components) in [
        ("hrpc.call_echo_sun_ns", client, ComponentSet::sun()),
        ("hrpc.call_echo_courier_ns", client, ComponentSet::courier()),
        ("hrpc.call_echo_raw_ns", client, ComponentSet::raw_tcp(port)),
        ("hrpc.call_echo_local_ns", server, ComponentSet::sun()),
    ] {
        let b = binding(components);
        out.push((
            name,
            e.time(|| net.call(caller, &b, 1, &args).expect("echo")),
        ));
    }
    let b = binding(ComponentSet::sun());
    out.push((
        "hrpc.call_echo_sun.alloc_bytes",
        alloc_bytes(|| net.call(client, &b, 1, &args).expect("echo")),
    ));
}

/// A zone the size of one `scale_zipf` cell.
const ZONE_NAMES: usize = 4096;

fn zone_name(i: usize) -> DomainName {
    DomainName::parse(&format!("n{i}.probe.hns")).expect("probe name")
}

fn bindns_layer(e: Effort, out: &mut Probes) {
    let world = World::paper();
    let client = world.add_host("client");
    let host = world.add_host("ns.probe.hns");
    let net = RpcNet::new(Arc::clone(&world));
    world.clock.set_batched(true);
    let origin = DomainName::parse("probe.hns").expect("origin");
    let mut zone = Zone::new(origin.clone(), FOREVER);
    for i in 0..ZONE_NAMES {
        zone.add(ResourceRecord::unspec(
            zone_name(i),
            FOREVER,
            format!("nsm=nsm-probe-{};host=ns.probe.hns;port=1024", i % 8).into_bytes(),
        ))
        .expect("seed zone");
    }
    let dep = deploy_bind(&net, host, single_zone_server("probe", zone, true));
    let names: Vec<DomainName> = (0..ZONE_NAMES).map(zone_name).collect();
    let mut next = 0usize;
    let mut pick = || {
        next = (next + 61) % ZONE_NAMES;
        &names[next]
    };

    out.push((
        "bindns.server.lookup_direct_ns",
        e.time(|| {
            dep.server
                .lookup_direct(pick(), RType::Unspec)
                .expect("found")
        }),
    ));

    let cache = TtlCache::new();
    let records: Arc<[ResourceRecord]> = vec![ResourceRecord::unspec(
        names[0].clone(),
        FOREVER,
        b"payload".to_vec(),
    )]
    .into();
    for name in &names {
        cache.insert(
            world.now(),
            name.clone(),
            RType::Unspec,
            Arc::clone(&records),
        );
    }
    out.push((
        "bindns.ttl_cache.get_hit_ns",
        e.time(|| cache.get(world.now(), pick(), RType::Unspec).expect("hit")),
    ));
    let absent = DomainName::parse("absent.probe.hns").expect("name");
    out.push((
        "bindns.ttl_cache.get_miss_ns",
        e.time(|| cache.get(world.now(), &absent, RType::Unspec)),
    ));
    let fresh: Vec<DomainName> = (0..7_000)
        .map(|i| DomainName::parse(&format!("fresh{i}.probe.hns")).expect("name"))
        .collect();
    out.push((
        "bindns.ttl_cache.insert_ns",
        time_each(fresh, |name| {
            cache.insert(world.now(), name, RType::Unspec, Arc::clone(&records))
        }),
    ));

    let resolver = StdResolver::new(Arc::clone(&net), client, dep.std_binding);
    for name in &names {
        resolver.query(name, RType::Unspec).expect("warm resolver");
    }
    out.push((
        "bindns.resolver.query_cached_ns",
        e.time(|| resolver.query(pick(), RType::Unspec).expect("cached")),
    ));
    out.push((
        "bindns.resolver.query_uncached_ns",
        e.time(|| {
            resolver
                .query_uncached(pick(), RType::Unspec)
                .expect("served")
        }),
    ));

    out.push((
        "bindns.axfr.full_ns",
        e.time(|| {
            bindns::axfr::transfer_zone(&net, client, &dep.hrpc_binding, &origin).expect("axfr")
        }),
    ));
    // One changed name since the serial the client holds.
    let serial =
        bindns::axfr::read_serial(&net, client, &dep.hrpc_binding, &origin).expect("serial");
    HrpcResolver::new(Arc::clone(&net), client, dep.hrpc_binding)
        .update(&UpdateOp::Replace {
            name: names[7].clone(),
            rtype: RType::Unspec,
            records: vec![ResourceRecord::unspec(
                names[7].clone(),
                FOREVER,
                b"rebound".to_vec(),
            )],
        })
        .expect("update");
    out.push((
        "bindns.ixfr.incremental_ns",
        e.time(|| {
            bindns::axfr::transfer_zone_incremental(
                &net,
                client,
                &dep.hrpc_binding,
                &origin,
                serial,
            )
            .expect("ixfr")
        }),
    ));
}

fn clearinghouse_layer(e: Effort, out: &mut Probes) {
    let tb = Testbed::build();
    tb.world.clock.set_batched(true);
    let ch = tb.ch_client(tb.hosts.client);
    let bob = ThreePartName::parse("bob:cs:uw").expect("name");
    out.push((
        "clearinghouse.lookup_item_ns",
        e.time(|| ch.lookup_item(&bob, PROP_MAILBOX).expect("lookup")),
    ));
    out.push((
        "clearinghouse.set_item_ns",
        e.time(|| {
            ch.set_item(&bob, PROP_MAILBOX, Value::str("printserver:cs:uw"))
                .expect("set")
        }),
    ));
}

fn hns_and_nsms(e: Effort, out: &mut Probes) {
    let world = World::paper();
    world.clock.set_batched(true);
    let nsm_host = world.add_host("nsm");
    let binding = HrpcBinding {
        host: nsm_host,
        addr: NetAddr::of(nsm_host),
        program: ProgramId(310_001),
        port: 1024,
        components: ComponentSet::sun(),
    };
    let contexts: Vec<String> = (0..1024).map(|i| format!("dept{i}-bind")).collect();
    let mut next = 0usize;
    let mut pick = || {
        next = (next + 61) % contexts.len();
        next
    };

    let composed = BindingCache::new();
    composed.set_enabled(true);
    for ctx in &contexts {
        composed.insert(&world, "hrpc_binding", ctx, binding, FOREVER);
    }
    out.push((
        "hns-core.binding_cache.lookup_hit_ns",
        e.time(|| {
            composed
                .lookup(&world, "hrpc_binding", &contexts[pick()])
                .expect("hit")
        }),
    ));
    let fresh: Vec<String> = (0..7_000).map(|i| format!("fresh{i}-bind")).collect();
    out.push((
        "hns-core.binding_cache.insert_ns",
        time_each(fresh, |ctx| {
            composed.insert(&world, "hrpc_binding", &ctx, binding, FOREVER)
        }),
    ));

    // A six-record mapping, the shape of an NSM-info entry.
    let entry = Value::List(
        (0..6)
            .map(|i| Value::str(format!("field{i}=value-{i}")))
            .collect(),
    );
    let keys: Vec<MetaKey> = contexts
        .iter()
        .map(|c| MetaKey::host_addr(NS_BIND, c))
        .collect();
    for (name, mode) in [
        (
            "hns-core.hns_cache.lookup_hit_demarshalled_ns",
            CacheMode::Demarshalled,
        ),
        (
            "hns-core.hns_cache.lookup_hit_marshalled_ns",
            CacheMode::Marshalled,
        ),
    ] {
        let cache = HnsCache::new(mode);
        for key in &keys {
            cache.insert(&world, *key, &entry, 6, FOREVER);
        }
        out.push((name, e.time(|| cache.lookup(&world, &keys[pick()]))));
    }
    let cache = HnsCache::new(CacheMode::Demarshalled);
    let absent = MetaKey::host_addr(NS_BIND, "absent");
    out.push((
        "hns-core.hns_cache.lookup_miss_ns",
        e.time(|| cache.lookup(&world, &absent)),
    ));
    let fresh: Vec<MetaKey> = (0..7_000)
        .map(|i| MetaKey::host_addr(NS_BIND, &format!("fresh{i}")))
        .collect();
    out.push((
        "hns-core.hns_cache.insert_ns",
        time_each(fresh, |key| cache.insert(&world, key, &entry, 6, FOREVER)),
    ));

    let nsm_cache = NsmCache::new(NsmCacheForm::Demarshalled);
    let reply = binding.to_value();
    for ctx in &contexts {
        nsm_cache.insert(&world, ctx.clone(), &reply, 1, FOREVER);
    }
    out.push((
        "nsms.nsm_cache.get_hit_ns",
        e.time(|| nsm_cache.get(&world, &contexts[pick()]).expect("hit")),
    ));
    let fresh: Vec<String> = (0..7_000).map(|i| format!("fresh{i}")).collect();
    out.push((
        "nsms.nsm_cache.insert_ns",
        time_each(fresh, |key| {
            nsm_cache.insert(&world, key, &reply, 1, FOREVER)
        }),
    ));

    // FindNSM and Import on the paper's testbed, NSMs on a remote host.
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    tb.world.clock.set_batched(true);
    let qc = QueryClass::hrpc_binding();
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");

    let warm = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    warm.find_nsm(&qc, &name).expect("warms the mapping cache");
    out.push((
        "hns-core.find_nsm.warm_walk_ns",
        e.time(|| warm.find_nsm(&qc, &name).expect("warm walk")),
    ));
    warm.set_binding_cache(true);
    warm.find_nsm(&qc, &name).expect("seeds the composed entry");
    out.push((
        "hns-core.find_nsm.warm_composed_ns",
        e.time(|| warm.find_nsm(&qc, &name).expect("composed")),
    ));
    out.push((
        "hns-core.find_nsm.warm_composed.alloc_bytes",
        alloc_bytes(|| warm.find_nsm(&qc, &name).expect("composed")),
    ));
    let importer = Importer::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        HnsHandle::Linked(Arc::clone(&warm)),
    );
    let import = || {
        importer
            .import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
            .expect("import")
    };
    import();
    out.push(("nsms.import.warm_ns", e.time(import)));

    let cold = tb.make_hns(tb.hosts.client, CacheMode::Disabled);
    out.push((
        "hns-core.find_nsm.cold_seq_ns",
        e.time(|| cold.find_nsm(&qc, &name).expect("cold walk")),
    ));
    out.push((
        "hns-core.find_nsm.cold_seq.alloc_bytes",
        alloc_bytes(|| cold.find_nsm(&qc, &name).expect("cold walk")),
    ));
    cold.set_batching(true);
    out.push((
        "hns-core.find_nsm.cold_batched_ns",
        e.time(|| cold.find_nsm(&qc, &name).expect("batched walk")),
    ));
}

fn regd_layer(e: Effort, out: &mut Probes) {
    const DEEP: usize = 64;
    let rt = RegTestbed::build(DEEP + 1);
    rt.tb.world.clock.set_batched(true);
    let reg = &rt.registry;
    for name in ["shallow", "deep"] {
        reg.register(&owner_name(0), owner_key(0), name, NS_BIND)
            .expect("register");
    }
    let hops = |name: &str, n: usize| {
        for i in 0..n {
            reg.transfer(&owner_name(i), owner_key(i), name, &owner_name(i + 1), None)
                .expect("transfer");
        }
    };
    hops("shallow", 1);
    hops("deep", DEEP);
    out.push((
        "regd.resolve.depth1_ns",
        e.time(|| reg.resolve("shallow").expect("resolve")),
    ));
    out.push((
        "regd.resolve.depth64_warm_ns",
        e.time(|| reg.resolve("deep").expect("resolve")),
    ));
    // A fresh frontend has nothing collapsed: its first resolve walks
    // all 64 links.
    let readers: Vec<_> = (0..BATCHES * 6)
        .map(|_| rt.reader(rt.tb.hosts.client, DEEP + 1))
        .collect();
    out.push((
        "regd.resolve.depth64_cold_ns",
        time_each(readers, |reader| {
            let r = reader.resolve("deep").expect("cold resolve");
            assert!(r.walked && r.depth == DEEP as u32);
        }),
    ));
}
