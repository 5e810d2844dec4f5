//! Cross-crate integration: full binding flows under remote arrangements,
//! failure injection, and heterogeneous suite handling.

use std::sync::Arc;

use hns_repro::hns_bench::scenario::{deploy, Arrangement, CacheState};
use hns_repro::hns_core::cache::CacheMode;
use hns_repro::hns_core::colocation::{HnsHandle, HnsService, HNS_PROGRAM};
use hns_repro::hns_core::name::HnsName;
use hns_repro::hns_core::query::QueryClass;
use hns_repro::hrpc::{ComponentSet, HrpcBinding};
use hns_repro::nsms::harness::{Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM};
use hns_repro::nsms::nsm_cache::NsmCacheForm;
use hns_repro::nsms::Importer;
use hns_repro::simnet::faults::FaultPlan;
use hns_repro::simnet::topology::NetAddr;
use hns_repro::wire::Value;

#[test]
fn remote_hns_serves_many_clients() {
    // One HNS server process; three client hosts bind through it. The
    // shared server's cache warms across clients — the paper's argument
    // for why a remote HNS can see a higher hit fraction.
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let hns = tb.make_hns(tb.hosts.hns, CacheMode::Demarshalled);
    let port = tb
        .net
        .export(tb.hosts.hns, HNS_PROGRAM, HnsService::new(Arc::clone(&hns)));
    let binding = HrpcBinding {
        host: tb.hosts.hns,
        addr: NetAddr::of(tb.hosts.hns),
        program: HNS_PROGRAM,
        port,
        components: ComponentSet::raw_tcp(port),
    };
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");

    let mut times = Vec::new();
    for client in [tb.hosts.client, tb.hosts.agent, tb.hosts.meta] {
        let importer = Importer::new(Arc::clone(&tb.net), client, HnsHandle::Remote(binding));
        let (r, ledger) = tb
            .world
            .measure(|| importer.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name));
        let took = ledger.total();
        r.expect("import");
        times.push(took.as_ms_f64());
    }
    // The first client pays the cold meta lookups; later clients benefit
    // from the server-resident cache.
    assert!(times[1] < times[0] / 2.0, "{times:?}");
    assert!(times[2] < times[0] / 2.0, "{times:?}");
}

#[test]
fn agent_and_direct_arrangements_return_identical_bindings() {
    let direct = deploy(
        Arrangement::AllLinked,
        NsmCacheForm::Demarshalled,
        CacheMode::Demarshalled,
    );
    direct.run_import().expect("direct import");
    let agent = deploy(
        Arrangement::Agent,
        NsmCacheForm::Demarshalled,
        CacheMode::Demarshalled,
    );
    agent.run_import().expect("agent import");
    // Both resolve the same target service.
    let name = direct.target_name();
    let binding = direct
        .hns
        .find_nsm(&QueryClass::hrpc_binding(), &name)
        .expect("find");
    assert_eq!(
        binding.host, direct.testbed.hosts.client,
        "NSMs linked with client"
    );
}

#[test]
fn nsm_host_failure_surfaces_as_rpc_error() {
    let tb = Testbed::build();
    let nsms = tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let importer = Importer::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        HnsHandle::Linked(Arc::clone(&hns)),
    );
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    importer
        .import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
        .expect("healthy import");

    // The NSM's host goes down (its services vanish).
    let binding = hns
        .find_nsm(&QueryClass::hrpc_binding(), &name)
        .expect("cached find");
    tb.net.unexport(nsms.host, binding.port);

    let err = importer
        .import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
        .expect_err("NSM down must fail");
    assert!(err.to_string().contains("no service"), "{err}");
}

#[test]
fn datagram_loss_is_retried_transparently() {
    // 30% loss on datagram legs: the portmapper exchange (UDP) retries
    // under its control protocol and the import still succeeds.
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.client, NsmCacheForm::Disabled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let importer = Importer::new(Arc::clone(&tb.net), tb.hosts.client, HnsHandle::Linked(hns));
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");

    tb.world
        .set_faults(Some(FaultPlan::new().loss(0.2, 2026).clone()));
    let mut ok = 0;
    for _ in 0..20 {
        if importer
            .import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
            .is_ok()
        {
            ok += 1;
        }
    }
    // Each datagram leg (request and reply) may drop at 20%; the control
    // protocols' retransmission budgets keep end-to-end failures rare.
    assert!(ok >= 16, "only {ok}/20 imports succeeded under loss");
}

#[test]
fn all_five_arrangements_agree_on_results() {
    for arrangement in Arrangement::all() {
        let deployed = deploy(arrangement, NsmCacheForm::Marshalled, CacheMode::Marshalled);
        let ms = deployed.measure(CacheState::BothHit).total().as_ms_f64();
        assert!(
            (90.0..230.0).contains(&ms),
            "{}: cached import {ms} ms out of range",
            arrangement.label()
        );
    }
}

#[test]
fn bound_service_round_trips_data_through_native_representation() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let importer = Importer::new(Arc::clone(&tb.net), tb.hosts.client, HnsHandle::Linked(hns));
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    let binding = importer
        .import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
        .expect("import");
    // A structured payload survives the Sun suite's XDR representation.
    let payload = Value::record(vec![
        ("job", Value::str("nightly build")),
        ("priority", Value::U32(3)),
        (
            "flags",
            Value::List(vec![Value::Bool(true), Value::Bool(false)]),
        ),
    ]);
    let reply = tb
        .net
        .call(tb.hosts.client, &binding, 1, &payload)
        .expect("call");
    assert_eq!(reply, Value::record(vec![("echo", payload)]));
}
