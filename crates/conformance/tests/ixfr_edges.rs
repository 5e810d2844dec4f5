//! IXFR edge cases for the incremental preload path (PR 8 follow-up):
//! serial equality, the exact delta-log truncation boundary, and the
//! full-AXFR fallback — at both the preload-report and wire levels.

use bindns::axfr::{read_serial, transfer_zone_incremental, IxfrContents};
use bindns::name::DomainName;
use bindns::resolver::HrpcResolver;
use bindns::rr::{RType, ResourceRecord};
use bindns::update::UpdateOp;
use bindns::zone::DELTA_LOG_CAP;
use hns_core::cache::CacheMode;
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::query::QueryClass;
use hns_core::service::PreloadMode;
use hns_core::HnsError;
use nsms::harness::{Testbed, NS_BIND};
use nsms::nsm_cache::NsmCacheForm;
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
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);

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
    hns.set_binding_cache(true);
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
    let (result, _, delta) = tb.world.measure(|| hns.find_nsm(&qc, &name));
    assert_eq!(result, Err(HnsError::NoSuchContext("doomed".into())));
    assert_eq!(delta.remote_calls, 0, "answered from the preloaded absence");
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
    assert!(
        matches!(at_floor.contents, IxfrContents::Incremental { .. }),
        "from = floor must still be incremental, got {:?}",
        at_floor.contents
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
    assert!(
        matches!(past_floor.contents, IxfrContents::Full { .. }),
        "from = floor - 1 must fall back to full, got a different mode"
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
    assert!(matches!(current.contents, IxfrContents::Unchanged));
    assert_eq!(current.size_bytes, 0);
}
