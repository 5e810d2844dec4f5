//! An evolving system: a new subsystem joins the federation at runtime.
//!
//! The paper's core claim: "newly added system types can participate in
//! the larger system without modification, and systems that use the name
//! service can take advantage of the services provided by new systems
//! without modification."
//!
//! The EE department arrives with its own BIND server and its own
//! applications. Integration is exactly three steps, each one call —
//! register a context, register a binding NSM, register a host-address
//! NSM — and *nothing else changes*: the existing client binary binds EE
//! services immediately, and when an EE application later updates its
//! local name service through the native interface, global clients
//! observe the change with no reregistration.
//!
//! ```text
//! cargo run --example evolving_federation
//! ```

use std::sync::Arc;

use hns_repro::bindns::name::DomainName;
use hns_repro::bindns::rr::ResourceRecord;
use hns_repro::bindns::server::{deploy as deploy_bind, single_zone_server};
use hns_repro::bindns::zone::Zone;
use hns_repro::bindns::StdResolver;
use hns_repro::hns_core::cache::CacheMode;
use hns_repro::hns_core::colocation::HnsHandle;
use hns_repro::hns_core::name::{Context, HnsName, NameMapping};
use hns_repro::hns_core::nsm::NsmClient;
use hns_repro::hns_core::query::QueryClass;
use hns_repro::hrpc::server::ProcServer;
use hns_repro::hrpc::ProgramId;
use hns_repro::nsms::harness::Testbed;
use hns_repro::nsms::nsm_cache::NsmCacheForm;
use hns_repro::nsms::{BindingBindNsm, HostAddrBindNsm, Importer};
use hns_repro::simnet::topology::NetAddr;
use hns_repro::wire::Value;

fn main() {
    // Day 0: the established federation (BIND + Clearinghouse).
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let importer = Importer::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        HnsHandle::Linked(Arc::clone(&hns)),
    );
    println!("day 0: federation has BIND and Clearinghouse subsystems");

    // Day 1: EE arrives with its own hosts, BIND server, and a service.
    let ee_ns_host = tb.world.add_host("ns.ee.washington.edu");
    let ee_app_host = tb.world.add_host("turing.ee.washington.edu");
    let mut ee_zone = Zone::new(
        DomainName::parse("ee.washington.edu").expect("origin"),
        3600,
    );
    ee_zone
        .add(ResourceRecord::a(
            DomainName::parse("ns.ee.washington.edu").expect("name"),
            3600,
            NetAddr::of(ee_ns_host),
        ))
        .expect("seed");
    ee_zone
        .add(ResourceRecord::a(
            DomainName::parse("turing.ee.washington.edu").expect("name"),
            3600,
            NetAddr::of(ee_app_host),
        ))
        .expect("seed");
    let ee_bind = deploy_bind(
        &tb.net,
        ee_ns_host,
        single_zone_server("ee-bind", ee_zone, false),
    );
    let spice = Arc::new(
        ProcServer::new("SpiceFarm").with_proc(1, |_c, _a| Ok(Value::str("simulation queued"))),
    );
    tb.net.export(ee_app_host, ProgramId(100_099), spice);
    println!("day 1: EE brings up ns.ee.washington.edu and a SpiceFarm service");

    // Day 2: integration. The pair of NSMs EE's name service needs is the
    // existing BIND code under new names, run on the NSM host against
    // EE's server. No existing code is touched.
    let ee_resolver = || {
        Arc::new(StdResolver::new(
            Arc::clone(&tb.net),
            tb.hosts.nsm,
            ee_bind.std_binding,
        ))
    };
    let binding_nsm = BindingBindNsm::named(
        "nsm-hrpcbinding-ee",
        Arc::clone(&tb.net),
        tb.hosts.nsm,
        ee_resolver(),
        NameMapping::Identity,
        NsmCacheForm::Demarshalled,
    );
    let hostaddr_nsm =
        HostAddrBindNsm::named("nsm-hostaddress-ee", ee_resolver(), NameMapping::Identity);
    let (at, hosts_ctx) = (tb.hosts.nsm, tb.ctx_nsm_hosts());
    let (binding_program, hostaddr_program) = (ProgramId(320_001), ProgramId(320_002));
    let ee_ctx = Context::new("ee-uw").expect("ctx");
    // Step 1: a context for EE's names, served by a new name service.
    hns.register_context(&ee_ctx, "EE-BIND", &NameMapping::Identity)
        .expect("register context");
    // Steps 2 and 3: register each NSM with the HNS. The one operation
    // exports it and writes where (EE-BIND, its query class) now leads.
    hns.deploy_nsm(
        "EE-BIND",
        binding_nsm,
        at,
        binding_program,
        &hosts_ctx,
        "ee-dept",
    )
    .expect("register binding NSM");
    hns.deploy_nsm(
        "EE-BIND",
        hostaddr_nsm,
        at,
        hostaddr_program,
        &hosts_ctx,
        "ee-dept",
    )
    .expect("register host-address NSM");
    println!("day 2: EE registered: one context, two NSMs — no client was modified");

    // The unmodified client binds the new subsystem's service.
    let spice_name = HnsName::new(ee_ctx.clone(), "turing.ee.washington.edu").expect("name");
    let binding = importer
        .import("SpiceFarm", ProgramId(100_099), &spice_name)
        .expect("import via EE-BIND");
    let reply = tb
        .net
        .call(tb.hosts.client, &binding, 1, &Value::Void)
        .expect("call SpiceFarm");
    println!(
        "unmodified client bound SpiceFarm at {} -> {reply}",
        binding.host
    );
    // So does any other query class EE registered an NSM for.
    let designated = hns
        .find_nsm(&QueryClass::host_address(), &spice_name)
        .expect("FindNSM via EE-BIND");
    let address = NsmClient::new(Arc::clone(&tb.net), tb.hosts.client)
        .call(&designated, &spice_name, vec![])
        .expect("host-address query");
    println!("and asked EE's host-address NSM where turing is -> {address}");
    assert_eq!(designated.program, hostaddr_program);
    assert_eq!(address.u32_field("host").expect("host"), ee_app_host.0);

    // Day 30: an EE application moves the service and updates *its own*
    // name service through the native interface. Direct access means the
    // global name space reflects the change with no reregistration step.
    let new_home = tb.world.add_host("hopper.ee.washington.edu");
    let spice2 = Arc::new(
        ProcServer::new("SpiceFarm")
            .with_proc(1, |_c, _a| Ok(Value::str("simulation queued on hopper"))),
    );
    tb.net.export(new_home, ProgramId(100_099), spice2);
    ee_bind.server.with_db(|db| {
        let name = DomainName::parse("turing.ee.washington.edu").expect("name");
        let zone = db.find_zone_mut(&name).expect("zone");
        zone.replace(
            &name,
            hns_repro::bindns::rr::RType::A,
            vec![ResourceRecord::a(name.clone(), 3600, NetAddr::of(new_home))],
        )
        .expect("native update");
    });
    println!("day 30: EE app moved SpiceFarm via its native name service interface");

    // Let the TTLs of any cached copies lapse (the paper's consistency
    // model: "cached data is tagged with a time-to-live field").
    tb.world.charge_ms(28.0 * 24.0 * 3600.0 * 1000.0);

    let binding = importer
        .import("SpiceFarm", ProgramId(100_099), &spice_name)
        .expect("re-import");
    let reply = tb
        .net
        .call(tb.hosts.client, &binding, 1, &Value::Void)
        .expect("call moved SpiceFarm");
    println!(
        "global client follows automatically: {} -> {reply}",
        binding.host
    );
    assert_eq!(binding.host, new_home);
}
