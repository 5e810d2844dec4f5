//! Chaos suite: graceful degradation of the full stack under injected
//! faults, and determinism of the fault-injection subsystem itself.
//!
//! The paper's availability argument (§4) is that a client with a warm
//! cache keeps working while the authoritative servers are down: "the
//! cached data remains available for use". These tests crash the
//! modified-BIND meta host mid-run and assert exactly that — warm
//! clients keep importing from (stale) cache, cold lookups fail fast
//! with a typed `HostUnreachable`, and everything recovers once the
//! crash heals.

use std::sync::Arc;

use hns_repro::hns_bench::experiments::chaos;
use hns_repro::hns_core::cache::CacheMode;
use hns_repro::hns_core::colocation::HnsHandle;
use hns_repro::hns_core::error::HnsError;
use hns_repro::hns_core::name::HnsName;
use hns_repro::hns_core::query::QueryClass;
use hns_repro::hns_core::service::Hns;
use hns_repro::hrpc::RpcError;
use hns_repro::nsms::harness::{Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM};
use hns_repro::nsms::nsm_cache::NsmCacheForm;
use hns_repro::nsms::Importer;
use hns_repro::simnet::faults::FaultPlan;
use hns_repro::simnet::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn importer(tb: &Testbed, hns: &Arc<Hns>) -> Importer {
    Importer::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        HnsHandle::Linked(Arc::clone(hns)),
    )
}

fn expect_unreachable(result: Result<impl std::fmt::Debug, HnsError>) -> (u32, u32) {
    match result {
        Err(HnsError::Rpc(RpcError::HostUnreachable { host, attempts })) => (host.0, attempts),
        other => panic!("expected HostUnreachable, got {other:?}"),
    }
}

/// The headline scenario: the meta BIND host crashes mid-run. Warm
/// clients keep importing from expired cache entries, cold lookups give
/// up after the attempt budget, and healing the crash restores both
/// paths with nothing permanently stuck.
#[test]
fn warm_clients_survive_a_meta_crash_and_recover() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let warm = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let cold = tb.make_hns(tb.hosts.client, CacheMode::Disabled);
    let imp = importer(&tb, &warm);
    let qc = QueryClass::hrpc_binding();
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");

    // Warm the cache, then let every entry expire.
    warm.find_nsm(&qc, &name).expect("pre-crash warm FindNSM");
    imp.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
        .expect("pre-crash Import");
    tb.world.wait(SimDuration::from_ms(
        u64::from(hns_repro::hns_core::META_TTL) * 1000 + 1_000,
    ));

    // Crash the meta host for five virtual minutes.
    let crash_start = tb.world.now();
    let heal = crash_start + SimDuration::from_ms(300_000);
    let mut plan = FaultPlan::new();
    plan.crash(tb.hosts.meta, crash_start, Some(heal));
    tb.world.set_faults(Some(plan));

    // Warm path: FindNSM succeeds from stale cache, marked as such, and
    // the whole Import (FindNSM + live NSM call) still completes.
    let (_, report) = warm
        .find_nsm_report(&qc, &name)
        .expect("warm FindNSM serves stale during the crash");
    assert!(report.stale_served, "the fallback must be marked");
    imp.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
        .expect("warm Import keeps working during the crash");

    // Cold path: a typed failure naming the crashed host, after the
    // control protocol's full attempt budget.
    let (host, attempts) = expect_unreachable(cold.find_nsm(&qc, &name));
    assert_eq!(host, tb.hosts.meta.0, "the error names the crashed host");
    assert_eq!(
        attempts,
        tb.meta_bind.hrpc_binding.components.control.max_attempts(),
        "gave up exactly at the control protocol's attempt budget"
    );
    let stale_before_heal = warm.cache_stats().stale_serves;
    assert!(stale_before_heal > 0, "stale serves were counted");

    // Heal and verify full recovery: the warm path refetches fresh data
    // (no new stale serves), the cold path answers again.
    tb.world
        .wait(heal.since(tb.world.now()) + SimDuration::from_ms(1_000));
    let (_, report) = warm
        .find_nsm_report(&qc, &name)
        .expect("warm FindNSM recovers");
    assert!(!report.stale_served, "fresh data once the server is back");
    cold.find_nsm(&qc, &name).expect("cold FindNSM recovers");
    imp.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
        .expect("Import recovers");
    assert_eq!(
        warm.cache_stats().stale_serves,
        stale_before_heal,
        "no stale serves after the heal"
    );
}

/// With the primary NSM host crashed, `Import` fails over to a linked
/// replica binding NSM on another host — and goes back to working
/// directly once the crash heals.
#[test]
fn import_fails_over_to_the_alternate_nsm() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let replica = tb.deploy_binding_bind_replica(tb.hosts.agent, NsmCacheForm::Demarshalled);
    let warm = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let mut imp = importer(&tb, &warm);
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    imp.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
        .expect("pre-crash Import");

    let crash_start = tb.world.now();
    let heal = crash_start + SimDuration::from_ms(60_000);
    let mut plan = FaultPlan::new();
    plan.crash(tb.hosts.nsm, crash_start, Some(heal));
    tb.world.set_faults(Some(plan));

    // Without an alternate the Import surfaces the unreachable NSM.
    let (host, _) = expect_unreachable(imp.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name));
    assert_eq!(host, tb.hosts.nsm.0);

    // With the replica linked it fails over and completes.
    imp.set_alternate_nsm(Some(replica));
    let binding = imp
        .import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
        .expect("failover Import succeeds");
    assert_eq!(binding.host, tb.hosts.fiji, "same service, via the replica");
    let failovers = tb
        .world
        .metrics()
        .snapshot()
        .counter("faults", "nsm_failovers");
    assert_eq!(failovers, Some(1));

    // Healed: served by the primary again, no further failovers.
    tb.world
        .wait(heal.since(tb.world.now()) + SimDuration::from_ms(1_000));
    imp.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
        .expect("post-heal Import");
    let failovers = tb
        .world
        .metrics()
        .snapshot()
        .counter("faults", "nsm_failovers");
    assert_eq!(failovers, Some(1), "no failover once the primary is back");
}

/// Two chaos-experiment runs with the same seed export byte-identical
/// reports and JSON documents.
#[test]
fn same_seed_chaos_experiment_is_byte_identical() {
    let config = chaos::ChaosConfig {
        seed: 1987,
        ..chaos::ChaosConfig::default()
    };
    let a = chaos::run(&config);
    let b = chaos::run(&config);
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.render(), b.render());
}

/// One deterministic workload under an optional fault plan and an
/// optional datagram loss (`(drop_prob, seed)`, added to the plan);
/// returns the full trace + metrics export the determinism properties
/// compare byte-for-byte.
fn traced_scenario(params: Option<&PlanParams>, loss: Option<(f64, u64)>) -> String {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let warm = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let cold = tb.make_hns(tb.hosts.client, CacheMode::Disabled);
    let imp = importer(&tb, &warm);
    let qc = QueryClass::hrpc_binding();
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    let mut plan = params.map(|p| plan_from(&tb, p));
    if let Some((drop_prob, seed)) = loss {
        plan.get_or_insert_default().loss(drop_prob, seed);
    }
    tb.world.set_faults(plan);
    tb.world.tracer.set_enabled(true);

    // A short mixed workload; outcomes (including failures) go into the
    // export so that *which* operations failed is part of the identity.
    let mut outcomes = String::new();
    for round in 0..3 {
        let warm_r = warm.find_nsm(&qc, &name);
        let cold_r = cold.find_nsm(&qc, &name);
        let imp_r = imp.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name);
        outcomes.push_str(&format!(
            "round {round}: warm={:?} cold={:?} import={:?} now={}us\n",
            warm_r.map(|b| b.host.0),
            cold_r.map(|b| b.host.0),
            imp_r.map(|b| b.host.0),
            tb.world.now().since(SimTime::ZERO).as_us(),
        ));
        tb.world.wait(SimDuration::from_ms(30_000));
    }
    tb.world.tracer.set_enabled(false);

    let mut out = outcomes;
    for t in tb.world.tracer.query_traces() {
        out.push_str(&t.render());
    }
    out.push_str(&tb.world.metrics().snapshot().render());
    out
}

/// Builds a `FaultPlan` over the testbed's hosts from arbitrary
/// parameters.
fn plan_from(tb: &Testbed, params: &PlanParams) -> FaultPlan {
    let t = |ms: u32| SimTime::ZERO + SimDuration::from_ms(u64::from(ms));
    let mut plan = FaultPlan::new();
    if let Some((from, len)) = params.crash_meta {
        plan.crash(tb.hosts.meta, t(from), Some(t(from.saturating_add(len))));
    }
    if let Some((from, len)) = params.crash_nsm {
        plan.crash(tb.hosts.nsm, t(from), Some(t(from.saturating_add(len))));
    }
    if let Some((from, len)) = params.partition {
        plan.partition(
            tb.hosts.client,
            tb.hosts.meta,
            t(from),
            Some(t(from.saturating_add(len))),
        );
    }
    if let Some((from, len, extra)) = params.spike {
        plan.latency_spike(
            tb.hosts.client,
            tb.hosts.nsm,
            t(from),
            Some(t(from.saturating_add(len))),
            f64::from(extra),
        );
    }
    plan
}

#[derive(Debug, Clone)]
struct PlanParams {
    crash_meta: Option<(u32, u32)>,
    crash_nsm: Option<(u32, u32)>,
    partition: Option<(u32, u32)>,
    spike: Option<(u32, u32, u16)>,
}

fn arb_window() -> impl Strategy<Value = (u32, u32)> {
    (0u32..120_000, 1u32..120_000)
}

proptest! {
    /// For any seeded fault plan (and any seeded loss plan), two runs of
    /// the same workload export byte-identical traces and metrics.
    /// (The vendored proptest has no `option::of`, so each fault is an
    /// independent on/off bool plus its window.)
    #[test]
    fn seeded_fault_plans_replay_byte_identically(
        crash_meta_on in any::<bool>(),
        crash_meta in arb_window(),
        crash_nsm_on in any::<bool>(),
        crash_nsm in arb_window(),
        partition_on in any::<bool>(),
        partition in arb_window(),
        spike_on in any::<bool>(),
        spike in (0u32..120_000, 1u32..120_000, 1u16..500),
        drop_pct in 0u32..50,
        loss_seed in any::<u64>(),
    ) {
        let params = PlanParams {
            crash_meta: crash_meta_on.then_some(crash_meta),
            crash_nsm: crash_nsm_on.then_some(crash_nsm),
            partition: partition_on.then_some(partition),
            spike: spike_on.then_some(spike),
        };
        let loss = (f64::from(drop_pct) / 100.0, loss_seed);
        let a = traced_scenario(Some(&params), Some(loss));
        let b = traced_scenario(Some(&params), Some(loss));
        prop_assert_eq!(a, b);
    }

    /// An empty plan and a zero-probability loss plan are *strict*
    /// no-ops: byte-identical to running with nothing installed at all.
    /// (This is what keeps the pinned goldens — table31 and friends —
    /// from moving when the fault subsystem is merely present.)
    #[test]
    fn empty_plan_and_zero_loss_are_strict_noops(loss_seed in any::<u64>()) {
        let empty = PlanParams {
            crash_meta: None,
            crash_nsm: None,
            partition: None,
            spike: None,
        };
        let with = traced_scenario(Some(&empty), Some((0.0, loss_seed)));
        let without = traced_scenario(None, None);
        prop_assert_eq!(with, without);
    }
}
