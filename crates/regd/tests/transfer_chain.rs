//! End-to-end transfer-chain coverage over the replicated testbed:
//! the pinned 64-link collapse behaviour, FindNSM following a re-bound
//! name, replica staleness, and the typed write-path degradation.

use hns_core::cache::CacheMode;
use hns_core::name::{Context, HnsName};
use hns_core::query::QueryClass;
use nsms::harness::{NSM_EXPORT_PROGRAM, NS_BIND, NS_CH};
use nsms::nsm_cache::NsmCacheForm;
use regd::harness::{owner_key, owner_name, RegTestbed};
use regd::{RegClient, RegError, RegServer};
use simnet::faults::FaultPlan;

#[test]
fn a_64_link_chain_collapses_to_one_hop() {
    let rtb = RegTestbed::build(65);
    let reg = &rtb.registry;
    reg.register(&owner_name(0), owner_key(0), "relay", NS_BIND)
        .expect("register");
    for i in 0..64 {
        reg.transfer(
            &owner_name(i),
            owner_key(i),
            "relay",
            &owner_name(i + 1),
            None,
        )
        .expect("transfer");
    }

    // A different frontend with a cold collapse cache: the first
    // resolution walks the whole chain exactly once — the base record,
    // then the 64 links plus the trailing miss fetched in coalesced
    // runs of 16 links per Clearinghouse RPC.
    let reader = rtb.reader(rtb.tb.hosts.client, 65);
    let world = &rtb.tb.world;
    let walks_before = world
        .metrics()
        .snapshot()
        .counter("regd", "chain_walks")
        .unwrap_or(0);
    let before = world.counters().ns_lookups;
    let cold = reader.resolve("relay").expect("cold resolve");
    let cold_reads = world.counters().ns_lookups - before;
    let walks = world
        .metrics()
        .snapshot()
        .counter("regd", "chain_walks")
        .unwrap_or(0);
    assert_eq!(cold.owner, owner_name(64));
    assert_eq!(cold.depth, 64);
    assert!(cold.walked);
    assert_eq!(
        cold_reads, 6,
        "base + 5 coalesced runs (4 full runs of 16 + the short run that finds the miss)"
    );
    assert_eq!(walks - walks_before, 1);

    // Every subsequent resolution is a single-hop collapse hit,
    // however long the chain is.
    for round in 0..3 {
        let before = world.counters().ns_lookups;
        let hits_before = world
            .metrics()
            .snapshot()
            .counter("regd", "collapse_hits")
            .unwrap_or(0);
        let warm = reader.resolve("relay").expect("warm resolve");
        assert_eq!(
            world.counters().ns_lookups - before,
            1,
            "round {round}: one probe"
        );
        assert!(!warm.walked);
        assert_eq!(warm.owner, owner_name(64));
        assert_eq!(
            world.metrics().snapshot().counter("regd", "collapse_hits"),
            Some(hits_before + 1)
        );
    }
    assert_eq!(
        world.metrics().snapshot().counter("regd", "chain_walks"),
        Some(walks_before + 1),
        "no further full walks after the collapse"
    );

    // The collapsed view is exactly what a naive end-to-end walk sees.
    let naive = reader.resolve_naive("relay").expect("naive walk");
    assert_eq!(naive.owner, owner_name(64));
    assert_eq!(naive.depth, 64);
}

#[test]
fn find_nsm_follows_a_rebinding_transfer_transparently() {
    let rtb = RegTestbed::build(2);
    rtb.tb
        .deploy_binding_nsms(rtb.tb.hosts.nsm, NsmCacheForm::Disabled);
    let reg = &rtb.registry;

    // Register `relay` bound to BIND: the rebinder pushes the context
    // into the meta zone via dynamic update.
    reg.register(&owner_name(0), owner_key(0), "relay", NS_BIND)
        .expect("register");
    let hns = rtb.tb.make_hns(rtb.tb.hosts.client, CacheMode::Disabled);
    let qc = QueryClass::hrpc_binding();
    let name =
        HnsName::new(Context::new("relay").expect("ctx"), "printserver:cs:uw").expect("name");
    let before = hns.find_nsm(&qc, &name).expect("find nsm before transfer");
    assert_eq!(
        before.program, NSM_EXPORT_PROGRAM,
        "bound to BIND: the BIND-backed binding NSM serves it"
    );

    // Hand the name to another owner, re-binding it to the
    // Clearinghouse in the same operation.
    reg.transfer(
        &owner_name(0),
        owner_key(0),
        "relay",
        &owner_name(1),
        Some(NS_CH),
    )
    .expect("transfer with rebind");

    // The same FindNSM now lands on the Clearinghouse-backed NSM: the
    // client never sees the chain, only the re-bound meta mapping.
    let after = hns.find_nsm(&qc, &name).expect("find nsm after transfer");
    assert_eq!(after.program.0, NSM_EXPORT_PROGRAM.0 + 1);
    assert_eq!(reg.resolve("relay").expect("resolve").owner, owner_name(1));
}

#[test]
fn a_second_owners_name_cannot_rebind_the_firsts_context() {
    // `my.svc` once sanitised onto `my-svc`'s meta key: registering it
    // wrote a base record of its own, then rebound the other owner's
    // context. It is refused whole, before the first Clearinghouse write.
    let rtb = RegTestbed::build(2);
    rtb.tb
        .deploy_binding_nsms(rtb.tb.hosts.nsm, NsmCacheForm::Disabled);
    let reg = &rtb.registry;
    reg.register(&owner_name(0), owner_key(0), "my-svc", NS_BIND)
        .expect("register");
    let (refused, _, delta) = rtb
        .tb
        .world
        .measure(|| reg.register(&owner_name(1), owner_key(1), "my.svc", NS_CH));
    assert!(
        matches!(refused, Err(RegError::BadRecord(_))),
        "{refused:?}"
    );
    assert_eq!(delta.remote_calls, 0);
    let hns = rtb.tb.make_hns(rtb.tb.hosts.client, CacheMode::Disabled);
    let name = HnsName::new(Context::new("my-svc").expect("ctx"), "fiji").expect("name");
    let designated = hns.find_nsm(&QueryClass::hrpc_binding(), &name);
    assert_eq!(designated.expect("find nsm").program, NSM_EXPORT_PROGRAM);
}

#[test]
fn replica_reads_are_stale_until_propagation() {
    let rtb = RegTestbed::build(3);
    let reg = &rtb.registry;
    reg.register(&owner_name(0), owner_key(0), "relay", NS_BIND)
        .expect("register");
    reg.transfer(&owner_name(0), owner_key(0), "relay", &owner_name(1), None)
        .expect("transfer");

    // Partition the primary away from a *fresh* reader: its reads fail
    // over to the replica, which has not seen any write yet.
    let reader = rtb.reader(rtb.tb.hosts.client, 2);
    let now = rtb.tb.world.now();
    let mut plan = FaultPlan::new();
    plan.partition(rtb.tb.hosts.client, rtb.tb.hosts.ch, now, None);
    plan.partition(rtb.tb.hosts.agent, rtb.tb.hosts.ch, now, None);
    rtb.tb.world.set_faults(Some(plan));
    assert!(
        matches!(reader.resolve("relay"), Err(RegError::NotRegistered(_))),
        "replica is stale: the registration has not propagated"
    );

    // Propagate, and the failed-over read observes the full chain.
    rtb.cluster.propagate();
    let r = reader.resolve("relay").expect("failed-over resolve");
    assert_eq!(r.owner, owner_name(1));
    assert_eq!(r.depth, 1);

    // Writes never fail over: with the primary still partitioned the
    // transfer degrades to a typed unreachability error.
    let err = reg
        .transfer(&owner_name(1), owner_key(1), "relay", &owner_name(2), None)
        .unwrap_err();
    assert!(err.is_unreachable(), "typed fail-fast, got {err}");

    rtb.tb.world.set_faults(None);
    let healed = reg
        .release(&owner_name(1), owner_key(1), "relay")
        .map(|()| true)
        .expect("write path recovers after heal");
    assert!(healed);
}

#[test]
fn remote_clients_drive_the_frontend_over_the_wire() {
    let rtb = RegTestbed::build(3);
    let binding = regd::deploy(
        &rtb.tb.net,
        rtb.tb.hosts.agent,
        RegServer::new(std::sync::Arc::clone(&rtb.registry)),
    );
    let client = RegClient::new(
        std::sync::Arc::clone(&rtb.tb.net),
        rtb.tb.hosts.client,
        binding,
    );

    client
        .register(&owner_name(0), owner_key(0), "relay", NS_BIND)
        .expect("register over rpc");
    let r = client
        .transfer(
            &owner_name(0),
            owner_key(0),
            "relay",
            &owner_name(1),
            Some(NS_CH),
        )
        .expect("transfer over rpc");
    assert_eq!((r.owner.as_str(), r.depth), (owner_name(1).as_str(), 1));
    assert_eq!(r.service, NS_CH);
    client
        .update(&owner_name(1), owner_key(1), "relay", NS_BIND)
        .expect("update over rpc");
    assert_eq!(client.resolve("relay").expect("resolve").service, NS_BIND);

    // Application errors stay typed enough to act on...
    let err = client
        .transfer(&owner_name(1), owner_key(1), "relay", &owner_name(0), None)
        .unwrap_err();
    assert!(
        matches!(&err, RegError::Rpc(e) if e.to_string().contains("previous holder")),
        "{err}"
    );

    // ...and a partitioned Clearinghouse primary behind the frontend
    // surfaces as typed HostUnreachable at the remote client.
    let mut plan = FaultPlan::new();
    plan.partition(
        rtb.tb.hosts.agent,
        rtb.tb.hosts.ch,
        rtb.tb.world.now(),
        None,
    );
    rtb.tb.world.set_faults(Some(plan));
    let err = client
        .transfer(&owner_name(1), owner_key(1), "relay", &owner_name(2), None)
        .unwrap_err();
    assert!(err.is_unreachable(), "typed through two hops, got {err}");
    rtb.tb.world.set_faults(None);
    client
        .release(&owner_name(1), owner_key(1), "relay")
        .expect("release over rpc");
    assert!(matches!(
        client.resolve("relay").unwrap_err(),
        RegError::Rpc(hrpc::RpcError::NotFound(_))
    ));
}
