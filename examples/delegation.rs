//! The delegation tree beneath the federation.
//!
//! The HCS testbed needs only one flat public BIND, but the BIND substrate
//! here implements the real thing: parent zones delegate child zones with
//! `NS` records and glue addresses, servers answer referrals, and a
//! recursive resolver chases them. This example builds a three-level tree
//! (`edu` → `washington.edu` → `cs.washington.edu`), resolves a leaf name
//! from the root, and shows the referral chain plus the effect of the
//! resolver's two TTL caches: the answer comes back free the second time,
//! and a sibling name starts at the zone cut the first walk learnt.
//!
//! ```text
//! cargo run --example delegation
//! ```

use std::sync::Arc;

use hns_repro::bindns::name::DomainName;
use hns_repro::bindns::recursive::RecursiveResolver;
use hns_repro::bindns::rr::{RData, RType, ResourceRecord};
use hns_repro::bindns::server::{deploy, single_zone_server};
use hns_repro::bindns::zone::Zone;
use hns_repro::simnet::topology::NetAddr;
use hns_repro::simnet::world::World;

fn name(s: &str) -> DomainName {
    DomainName::parse(s).expect("valid name")
}

fn ns_record(cut: &str, server: &str) -> ResourceRecord {
    ResourceRecord {
        name: name(cut),
        rtype: RType::Ns,
        ttl: 86_400,
        rdata: RData::Domain(name(server)),
    }
}

fn main() {
    let world = World::paper();
    let client = world.add_host("client");
    let root_host = world.add_host("a.root-servers.net");
    let uw_host = world.add_host("ns.washington.edu");
    let cs_host = world.add_host("ns.cs.washington.edu");
    let fiji = world.add_host("fiji.cs.washington.edu");
    let net = hns_repro::hrpc::net::RpcNet::new(Arc::clone(&world));

    // Root server: the `edu` zone delegates washington.edu with glue.
    let mut root_zone = Zone::new(name("edu"), 86_400);
    root_zone
        .add(ns_record("washington.edu", "ns.washington.edu"))
        .expect("delegate uw");
    root_zone
        .add(ResourceRecord::a(
            name("ns.washington.edu"),
            86_400,
            NetAddr::of(uw_host),
        ))
        .expect("glue");
    let root = deploy(
        &net,
        root_host,
        single_zone_server("root", root_zone, false),
    );

    // washington.edu: delegates cs.washington.edu.
    let mut uw_zone = Zone::new(name("washington.edu"), 86_400);
    uw_zone
        .add(ns_record("cs.washington.edu", "ns.cs.washington.edu"))
        .expect("delegate cs");
    uw_zone
        .add(ResourceRecord::a(
            name("ns.cs.washington.edu"),
            86_400,
            NetAddr::of(cs_host),
        ))
        .expect("glue");
    deploy(&net, uw_host, single_zone_server("uw", uw_zone, false));

    // cs.washington.edu: the authoritative leaf data.
    let mut cs_zone = Zone::new(name("cs.washington.edu"), 86_400);
    for leaf in ["fiji.cs.washington.edu", "june.cs.washington.edu"] {
        cs_zone
            .add(ResourceRecord::a(name(leaf), 3600, NetAddr::of(fiji)))
            .expect("leaf");
    }
    deploy(&net, cs_host, single_zone_server("cs", cs_zone, false));

    // Resolve from the root, with tracing on so the referral chain shows.
    world.tracer.set_enabled(true);
    let resolver = RecursiveResolver::new(Arc::clone(&net), client, root.std_binding);
    let target = name("fiji.cs.washington.edu");
    let (records, cold, counters) = world.measure(|| resolver.resolve(&target, RType::A));
    let records = records.expect("resolved");
    world.tracer.set_enabled(false);

    println!("--- referral chain (three servers consulted) ---");
    print!("{}", world.tracer.render_tree());
    match &records.bodies()[0].rdata {
        RData::Addr(addr) => println!(
            "\nresolved {target} -> {} in {:.1} ms over {} remote queries",
            addr,
            cold.as_ms_f64(),
            counters.remote_calls
        ),
        other => panic!("unexpected rdata {other:?}"),
    }

    // The second resolution is answered from the resolver's TTL cache.
    let (r, warm, counters) = world.measure(|| resolver.resolve(&target, RType::A));
    r.expect("cached");
    println!(
        "second resolution: {:.2} ms, {} remote queries (TTL cache)",
        warm.as_ms_f64(),
        counters.remote_calls
    );
    assert_eq!(counters.remote_calls, 0);

    // A sibling is a miss there, but the walk need not start over: the
    // referrals were kept, and cs.washington.edu's names its server.
    let sibling = name("june.cs.washington.edu");
    let (r, took, counters) = world.measure(|| resolver.resolve(&sibling, RType::A));
    r.expect("resolved");
    println!(
        "sibling {sibling}: {:.1} ms, {} remote query (zone cut served from cache)",
        took.as_ms_f64(),
        counters.remote_calls
    );
    assert_eq!(counters.remote_calls, 1);
}
