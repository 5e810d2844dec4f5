//! Scale behaviour: the HNS with hundreds of contexts and a large meta
//! zone. "In terms of accommodating the sheer size of the system ... our
//! design ... shares with most other name service designs the property of
//! being distributable" — here we check the single-instance mechanics stay
//! correct and the costs scale the way the design predicts.

use hns_repro::hns_core::cache::CacheMode;
use hns_repro::hns_core::name::{Context, HnsName, NameMapping};
use hns_repro::hns_core::query::QueryClass;
use hns_repro::nsms::harness::{Testbed, NS_BIND, NS_CH};
use hns_repro::nsms::nsm_cache::NsmCacheForm;
use hns_repro::simnet::Term;

const CONTEXTS: usize = 200;

fn big_testbed() -> (Testbed, Vec<HnsName>) {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let registrar = tb.make_hns(tb.hosts.meta, CacheMode::Disabled);
    let mut names = Vec::with_capacity(CONTEXTS);
    for i in 0..CONTEXTS {
        let (ns, individual) = if i % 2 == 0 {
            (NS_BIND, "fiji.cs.washington.edu")
        } else {
            (NS_CH, "printserver:cs:uw")
        };
        let ctx = Context::new(format!("scale-ctx-{i}")).expect("ctx");
        registrar
            .register_context(&ctx, ns, &NameMapping::Identity)
            .expect("register");
        names.push(HnsName::new(ctx, individual).expect("name"));
    }
    (tb, names)
}

#[test]
fn two_hundred_contexts_resolve_correctly() {
    let (tb, names) = big_testbed();
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let qc = QueryClass::hrpc_binding();
    for (i, name) in names.iter().enumerate() {
        let binding = hns.find_nsm(&qc, name).unwrap_or_else(|e| {
            panic!("context {i}: {e}");
        });
        assert_eq!(binding.host, tb.hosts.nsm);
    }
    // Every distinct context costs one meta fetch; shared entries (NSM
    // name, info, host address) hit after the first query of each service.
    let stats = hns.cache_stats();
    assert!(stats.inserts >= CONTEXTS as u64);
}

#[test]
fn warm_cost_is_independent_of_universe_size() {
    let (tb, names) = big_testbed();
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let qc = QueryClass::hrpc_binding();
    for name in &names {
        hns.find_nsm(&qc, name).expect("warm-up");
    }
    // Re-query a sample: cost must be flat cache work, not proportional to
    // the number of registered contexts.
    for name in names.iter().step_by(37) {
        let (r, ledger) = tb.world.measure(|| hns.find_nsm(&qc, name));
        let took = ledger.total();
        let delta = ledger.counters();
        r.expect("warm");
        assert_eq!(delta.remote_calls, 0);
        assert!(took.as_ms_f64() < 12.0, "warm find took {took}");
    }
}

#[test]
fn preload_of_a_large_zone_scales_with_size_and_still_wins() {
    let (tb, names) = big_testbed();
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let (report, ledger) = tb.world.measure(|| hns.preload());
    let preload_ms = ledger.total();
    let report = report.expect("preload");
    assert!(report.entries >= CONTEXTS, "entries {}", report.entries);
    assert!(report.bytes > 8_000, "zone bytes {}", report.bytes);
    // Cost follows the AXFR formula for the actual size: the call's round
    // trip, the transfer beyond it, and the server's service.
    let suite = tb.meta_bind.hrpc_binding.components.suite_kind();
    let expected = tb.world.price(Term::RemoteRequest { suite, bytes: 0 })
        + tb.world.price(Term::ZoneTransfer {
            suite,
            bytes: report.bytes,
        })
        + tb.world.price(Term::BindService);
    // Within ~3%: the fabric additionally charges per-byte cost for the
    // wire encoding of the transfer reply, which exceeds the stored size.
    assert!(
        (preload_ms.as_ms_f64() - expected).abs() / expected < 0.03,
        "preload {preload_ms} vs formula {expected}"
    );
    // Preloaded queries never touch the meta store.
    let qc = QueryClass::hrpc_binding();
    for name in names.iter().step_by(50) {
        let (_, ledger) = tb.world.measure(|| hns.find_nsm(&qc, name));
        let delta = ledger.counters();
        assert!(delta.remote_calls <= 1, "at most the public host lookup");
    }
    // And preloading the whole (now large) zone still beats cold-faulting
    // every context: ~200 cold meta fetches at ~66 ms dwarf one transfer.
    let cold_cost_all = CONTEXTS as f64 * 66.0;
    assert!(preload_ms.as_ms_f64() < cold_cost_all / 2.0);
}

#[test]
fn secondary_keeps_up_with_a_large_zone() {
    let (tb, _names) = big_testbed();
    let secondary_host = tb.world.add_host("hnsbind2");
    let secondary = hns_repro::bindns::axfr::Secondary::bootstrap(
        std::sync::Arc::clone(&tb.net),
        secondary_host,
        tb.meta_bind.hrpc_binding,
        tb.meta_origin.clone(),
        600,
    )
    .expect("bootstrap large zone");
    assert!(!secondary.refresh().expect("no-op"), "serials equal");
    // One more registration, one refresh.
    let registrar = tb.make_hns(tb.hosts.meta, CacheMode::Disabled);
    registrar
        .register_context(
            &Context::new("late-arrival").expect("ctx"),
            NS_BIND,
            &NameMapping::Identity,
        )
        .expect("register");
    assert!(secondary.refresh().expect("refresh"));
}
