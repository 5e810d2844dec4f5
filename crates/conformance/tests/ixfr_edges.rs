//! IXFR edge cases for the incremental preload path:
//! serial equality, the exact delta-log truncation boundary, and the
//! full-AXFR fallback — at both the preload-report and wire levels.

use bindns::axfr::{read_serial, transfer_zone_incremental, IxfrMode};
use bindns::name::DomainName;
use bindns::resolver::HrpcResolver;
use bindns::rr::{RType, ResourceRecord};
use bindns::update::UpdateOp;
use bindns::zone::DELTA_LOG_CAP;
use hns_core::cache::CacheMode;
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::query::QueryClass;
use hns_core::service::{HnsConfig, PreloadMode, PreloadReport};
use hns_core::HnsError;
use hns_core::META_TTL;
use hrpc::ProgramId;
use nsms::binding::BindingBindNsm;
use nsms::harness::{Testbed, CTX_BIND, CTX_CH, NSM_EXPORT_PROGRAM, NS_BIND, NS_CH};
use nsms::nsm_cache::NsmCacheForm;
use simnet::time::SimDuration;
use std::sync::Arc;

fn dn(s: &str) -> DomainName {
    DomainName::parse(s).expect("static name")
}

/// Drives `n` dynamic updates into the meta zone (distinct names, so
/// each bumps the serial and occupies one delta-log slot).
fn churn(resolver: &HrpcResolver, tag: &str, n: usize) {
    for i in 0..n {
        resolver
            .update(&UpdateOp::Add(ResourceRecord::unspec(
                dn(&format!("{tag}{i}.churn.hns")),
                600,
                format!("v{i}").into_bytes(),
            )))
            .expect("meta-zone update");
    }
}

/// The preload mode ladder: first preload is a full transfer, an
/// immediate repeat is `Unchanged` (same serial, zero bytes), a small
/// churn yields `Incremental`, and churning past the delta-log cap
/// falls back to `Full` — each mode reported exactly; and a deletion
/// shipped incrementally takes the preloaded entry with it.
#[test]
fn preload_reports_the_right_mode_at_each_edge() {
    let tb = Testbed::build();
    let resolver = HrpcResolver::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        tb.meta_bind.hrpc_binding,
    );
    let cache = CacheMode::Demarshalled;
    let hns = tb.make_hns(
        tb.hosts.client,
        HnsConfig {
            cache,
            composed: true,
        },
    );

    let first = hns.preload().expect("first preload");
    assert_eq!(first.mode, PreloadMode::Full, "first preload is an AXFR");
    assert!(first.bytes > 0 && first.records > 0);

    // Serial equality: nothing changed, nothing ships.
    let again = hns.preload().expect("repeat preload");
    assert_eq!(again.mode, PreloadMode::Unchanged);
    assert_eq!(again.serial, first.serial, "serial pinned");
    assert_eq!(again.bytes, 0, "unchanged preload ships zero bytes");

    // A small churn: strictly incremental, and only the delta ships.
    churn(&resolver, "small", 3);
    let incr = hns.preload().expect("incremental preload");
    assert_eq!(incr.mode, PreloadMode::Incremental);
    assert!(incr.serial > first.serial);
    assert!(
        incr.bytes < first.bytes,
        "delta ({} bytes) must be smaller than the full zone ({} bytes)",
        incr.bytes,
        first.bytes
    );

    // Churn past the cap: our serial falls off the log, and the
    // preload must come back as (and report) a full transfer.
    churn(&resolver, "big", DELTA_LOG_CAP + 1);
    let fallback = hns.preload().expect("fallback preload");
    assert_eq!(
        fallback.mode,
        PreloadMode::Full,
        "truncated delta log forces a full transfer"
    );
    assert!(
        fallback.bytes >= first.bytes,
        "the whole (grown) zone rode back"
    );

    // A deletion rides an incremental transfer as a removed name: the
    // preloaded instance must stop answering from it — from the record
    // set and from a binding composed over it — as a cold instance
    // would, rather than keep either until its TTL lapses.
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let doomed = Context::new("doomed").expect("context");
    let name = HnsName::new(doomed.clone(), "fiji.cs.washington.edu").expect("name");
    let qc = QueryClass::hrpc_binding();
    hns.register_context(&doomed, NS_BIND, &NameMapping::Identity)
        .expect("register");
    hns.preload().expect("preload with the context");
    assert!(hns.find_nsm(&qc, &name).is_ok());
    resolver
        .update(&UpdateOp::Delete {
            name: dn("ctx.doomed.hns"),
            rtype: RType::Unspec,
        })
        .expect("delete the context record");
    let after = hns.preload().expect("preload after the deletion");
    assert_eq!(after.mode, PreloadMode::Incremental);
    let (result, ledger) = tb.world.measure(|| hns.find_nsm(&qc, &name));
    let delta = ledger.counters();
    assert_eq!(result, Err(HnsError::NoSuchContext("doomed".into())));
    assert_eq!(delta.remote_calls, 0, "answered from the preloaded absence");
}

/// A context re-registered to another name service rides an incremental
/// transfer as a changed record set, not as a removal. The instance
/// composing its walks must then answer what the walking one does: the
/// Clearinghouse binding NSM, not the BIND one its composed entry
/// remembers until that entry's TTL lapses.
#[test]
fn a_preloaded_change_reaches_the_composed_cache() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let walking = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let cache = CacheMode::Demarshalled;
    let composed = tb.make_hns(
        tb.hosts.client,
        HnsConfig {
            cache,
            composed: true,
        },
    );
    let moving = Context::new("moving").expect("context");
    let name = HnsName::new(moving.clone(), "fiji.cs.washington.edu").expect("name");
    let qc = QueryClass::hrpc_binding();
    // The binding NSMs are exported BIND's first, the Clearinghouse's next.
    let (bind_nsm, ch_nsm) = (NSM_EXPORT_PROGRAM, ProgramId(NSM_EXPORT_PROGRAM.0 + 1));
    let preload_and_find = |expected: ProgramId, mode: PreloadMode| {
        for (label, hns) in [("walking", &walking), ("composed", &composed)] {
            assert_eq!(hns.preload().expect("preload").mode, mode, "{label}");
            let binding = hns.find_nsm(&qc, &name).expect("FindNSM");
            assert_eq!(binding.program, expected, "{label}");
        }
    };

    walking
        .register_context(&moving, NS_BIND, &NameMapping::Identity)
        .expect("register under BIND");
    preload_and_find(bind_nsm, PreloadMode::Full);
    walking
        .register_context(&moving, NS_CH, &NameMapping::Identity)
        .expect("re-register under the Clearinghouse");
    preload_and_find(ch_nsm, PreloadMode::Incremental);
}

/// A cleared cache forgets the serial it was current to, so the next
/// preload ships the whole zone again instead of an empty "unchanged"
/// delta, and the `FindNSM` after it is as warm as after the first.
#[test]
fn a_preload_after_clear_cache_warms_the_cache_again() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let name = HnsName::new(
        Context::new(CTX_BIND).expect("context"),
        "fiji.cs.washington.edu",
    )
    .expect("name");
    let qc = QueryClass::hrpc_binding();
    let calls_after = |report: PreloadReport| {
        let (result, ledger) = tb.world.measure(|| hns.find_nsm(&qc, &name));
        let delta = ledger.counters();
        assert!(result.is_ok(), "{result:?}");
        (report.mode, delta.remote_calls)
    };

    let first = calls_after(hns.preload().expect("first preload"));
    hns.clear_cache();
    let again = calls_after(hns.preload().expect("preload after clear_cache"));
    assert_eq!(first.0, PreloadMode::Full);
    assert_eq!(again, first, "the same full preload, the same warm FindNSM");
}

/// Wire-level pinning of the truncation boundary: with the log full,
/// `from = floor` is served incrementally while `from = floor - 1`
/// falls back to a full transfer and bumps the fallback metric.
#[test]
fn ixfr_boundary_serial_is_exact_on_the_wire() {
    let tb = Testbed::build();
    let resolver = HrpcResolver::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        tb.meta_bind.hrpc_binding,
    );
    churn(&resolver, "fill", DELTA_LOG_CAP + 10);

    let serial = read_serial(
        &tb.net,
        tb.hosts.client,
        &tb.meta_bind.hrpc_binding,
        &tb.meta_origin,
    )
    .expect("read serial");
    // The log retains the newest DELTA_LOG_CAP serials, so the oldest
    // still-incremental starting point is exactly serial - CAP.
    let floor = serial - DELTA_LOG_CAP as u32;

    let at_floor = transfer_zone_incremental(
        &tb.net,
        tb.hosts.client,
        &tb.meta_bind.hrpc_binding,
        &tb.meta_origin,
        floor,
    )
    .expect("IXFR at the floor");
    assert_eq!(
        at_floor.mode,
        IxfrMode::Incremental,
        "from = floor must still be incremental"
    );
    let fallbacks_before = tb
        .world
        .metrics()
        .snapshot()
        .counter("bindns", "ixfr_fallbacks")
        .unwrap_or(0);

    let past_floor = transfer_zone_incremental(
        &tb.net,
        tb.hosts.client,
        &tb.meta_bind.hrpc_binding,
        &tb.meta_origin,
        floor - 1,
    )
    .expect("IXFR past the floor");
    assert_eq!(
        past_floor.mode,
        IxfrMode::Full,
        "from = floor - 1 must fall back to full"
    );
    assert_eq!(past_floor.serial, serial);
    assert!(
        past_floor.size_bytes > at_floor.size_bytes,
        "the fallback ships the whole zone"
    );
    let fallbacks_after = tb
        .world
        .metrics()
        .snapshot()
        .counter("bindns", "ixfr_fallbacks")
        .unwrap_or(0);
    assert_eq!(
        fallbacks_after,
        fallbacks_before + 1,
        "exactly the past-floor request counted as a fallback"
    );

    // Current serial: unchanged, zero shipped.
    let current = transfer_zone_incremental(
        &tb.net,
        tb.hosts.client,
        &tb.meta_bind.hrpc_binding,
        &tb.meta_origin,
        serial,
    )
    .expect("IXFR at the current serial");
    assert_eq!(current.mode, IxfrMode::Unchanged);
    assert_eq!(current.size_bytes, 0);
}

/// Retiring an NSM (`Hns::retire_nsm`: unexport, delete mapping 3, then
/// mapping 2) is a deletion on the meta zone like any other. The next
/// incremental transfer ships both owner names as removed, and the
/// instance that preloads it stops designating the NSM at once. An
/// instance that walked before the retire still hands out the binding —
/// to an NSM that no longer answers — until its cached mappings lapse
/// (TESTING.md "Retiring a binding"), and then fails as a cold one would.
#[test]
fn a_retired_nsm_leaves_with_the_next_preload_or_when_its_ttl_lapses() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let preloaded = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let walking = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    let qc = QueryClass::hrpc_binding();
    let before = preloaded.preload().expect("preload");
    let binding = preloaded
        .find_nsm(&qc, &name)
        .expect("the BIND binding NSM");
    assert_eq!(walking.find_nsm(&qc, &name), Ok(binding));

    let registrar = tb.make_hns(tb.hosts.meta, CacheMode::Disabled);
    registrar
        .retire_nsm(NS_BIND, &qc, BindingBindNsm::NAME, &binding)
        .expect("retire");

    let xfer = transfer_zone_incremental(
        &tb.net,
        tb.hosts.client,
        &tb.meta_bind.hrpc_binding,
        &tb.meta_origin,
        before.serial,
    )
    .expect("IXFR after the retire");
    assert_eq!(
        xfer.mode,
        IxfrMode::Incremental,
        "two deletions ride an incremental transfer"
    );
    let (records, removed) = (xfer.records, xfer.removed);
    assert!(records.is_empty(), "{records:?}");
    let info = dn(&format!("info.{}.hns", BindingBindNsm::NAME));
    let pair = dn(&format!("map.{NS_BIND}--{qc}.hns"));
    assert_eq!(removed, [info, pair]);

    let no_nsm = Err(HnsError::NoSuchNsm {
        name_service: NS_BIND.into(),
        query_class: qc.as_str().into(),
    });
    assert_eq!(
        preloaded.preload().expect("preload").mode,
        PreloadMode::Incremental
    );
    let (result, ledger) = tb.world.measure(|| preloaded.find_nsm(&qc, &name));
    let delta = ledger.counters();
    assert_eq!((result, delta.remote_calls), (no_nsm.clone(), 0));

    assert_eq!(
        walking.find_nsm(&qc, &name),
        Ok(binding),
        "inside the window"
    );
    let unexported = tb
        .net
        .call(tb.hosts.client, &binding, 1, &wire::Value::Void);
    assert!(unexported.is_err(), "{unexported:?}");
    tb.world
        .wait(SimDuration::from_ms(u64::from(META_TTL) * 1000));
    assert_eq!(walking.find_nsm(&qc, &name), no_nsm, "after the window");
}

/// `Hns::unregister_context` deletes mapping 1: an incremental preload
/// ships the context's key as removed, and the context is then unknown.
#[test]
fn an_unregistered_context_leaves_with_the_next_preload() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let name = HnsName::new(tb.ctx_ch(), "printserver").expect("name");
    let qc = QueryClass::hrpc_binding();
    hns.preload().expect("preload");
    assert!(hns.find_nsm(&qc, &name).is_ok());
    let registrar = tb.make_hns(tb.hosts.meta, CacheMode::Disabled);
    registrar
        .unregister_context(&tb.ctx_ch())
        .expect("unregister");
    assert_eq!(
        hns.preload().expect("preload").mode,
        PreloadMode::Incremental
    );
    let (result, ledger) = tb.world.measure(|| hns.find_nsm(&qc, &name));
    let delta = ledger.counters();
    assert_eq!(result, Err(HnsError::NoSuchContext(CTX_CH.into())));
    assert_eq!(delta.remote_calls, 0, "answered from the preloaded absence");
}
