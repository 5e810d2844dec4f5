//! Allocation budget of the message path.
//!
//! Marshalling — building `Value` trees, names and record payloads — is
//! what a lookup costs its host (the paper's Table 3.2), and most of that
//! cost is the allocator. This pins how much one `FindNSM` and one
//! `Import` request from it, on the paper's testbed with the binding NSMs
//! on a remote host (the set-up of the benchmark's `hns-core.find_nsm.*`
//! probes), and what decoding a reply's record list costs, so the diet
//! cannot silently regress. Print the table with
//!
//! ```text
//! cargo test --release -p conformance --test alloc_budget -- --nocapture
//! ```

use std::sync::Arc;

use bindns::message::Answer;
use bindns::{DomainName, ResourceRecord};
use conformance::alloc::{measure_calls, CountingAlloc};
use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::query::QueryClass;
use nsms::harness::{Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, NS_BIND};
use nsms::import::Importer;
use nsms::nsm_cache::NsmCacheForm;
use simnet::topology::{HostId, NetAddr};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Cold sequential `FindNSM`: every cache off, six remote mappings.
/// Measured 10,229 B in 136 allocations (11,645 B in 142 while every
/// record of a reply parsed its owner name anew; 23,946 B in 585 before
/// names became shared strings and struct field names static).
const COLD_FIND_NSM_MAX_BYTES: u64 = 12_500;
/// Warm `Import`: a composed-cache `FindNSM` plus one remote NSM call.
/// Measured 1,040 B in 11 allocations (1,721 B in 37 before the same
/// change; 12 while each call built its own `QueryClass`).
const WARM_IMPORT_MAX_BYTES: u64 = 1_150;
/// Warm walk `FindNSM`: six per-mapping cache hits, no composed cache.
/// Measured 18 allocations — six meta keys, the parsed pieces of five
/// record sets — against 35 while every hit was first copied out of the
/// cache into a `Vec<String>`.
const WARM_WALK_MAX_ALLOCATIONS: u64 = 22;
/// Warm re-walk: the context's composed entry has lapsed, its mapping 1
/// and the (query class, name service) entry are live. Measured 108 B in
/// 3 allocations, all mapping 1's: its meta key (two) and the name
/// service parsed out of the context record.
const WARM_REWALK_MAX_ALLOCATIONS: u64 = 3;

/// Decoding a six-record answer of one owner. Measured 376 B in 2
/// allocations: the record vector, and the owner name — parsed once and
/// shared by all six records.
const ANSWER_DECODE_ALLOCATIONS: u64 = 2;

/// Prints one row and returns `(bytes, allocations)`.
fn row<R>(what: &str, f: impl FnOnce() -> R) -> (u64, u64) {
    let (_, used) = measure_calls(f);
    let (bytes, calls) = used.expect("counting allocator installed");
    println!("{what:<28} {calls:>6} allocations {bytes:>8} B");
    (bytes, calls)
}

#[test]
fn find_nsm_and_import_stay_within_their_allocation_budgets() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    tb.world.clock.set_batched(true);
    let qc = QueryClass::hrpc_binding();
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");

    let warm = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    warm.find_nsm(&qc, &name).expect("warms the mapping cache");
    warm.find_nsm(&qc, &name).expect("lazy handles resolved");
    let (_, warm_walk) = row("warm walk FindNSM", || {
        warm.find_nsm(&qc, &name).expect("walk")
    });
    assert!(
        warm_walk <= WARM_WALK_MAX_ALLOCATIONS,
        "warm walk FindNSM made {warm_walk} allocations, budget {WARM_WALK_MAX_ALLOCATIONS}"
    );

    warm.set_binding_cache(true);
    warm.find_nsm(&qc, &name).expect("seeds the composed entry");
    let (composed, _) = row("warm composed FindNSM", || {
        warm.find_nsm(&qc, &name).expect("composed")
    });
    assert_eq!(composed, 0, "a composed-cache hit allocates nothing");

    // A sibling context of the same name service, first asked about
    // half a TTL later: its composed entry inherits what mappings 2-6
    // had left and lapses with them, its own mapping 1 lives on. Once
    // the primary context's re-walk has refreshed mappings 2-6, the
    // sibling's next query is mapping 1 and one composed probe.
    let sibling = Context::new("bind-uw-sibling").expect("context");
    warm.register_context(&sibling, NS_BIND, &NameMapping::Identity)
        .expect("register sibling");
    let sibling = HnsName::new(sibling, "fiji.cs.washington.edu").expect("name");
    let half_ttl_ms = f64::from(hns_core::META_TTL) * 500.0;
    tb.world.charge_ms(half_ttl_ms);
    warm.find_nsm(&qc, &sibling)
        .expect("sibling, via the service entry");
    tb.world.charge_ms(half_ttl_ms + 1_000.0);
    warm.find_nsm(&qc, &name)
        .expect("re-walk refreshes mappings 2-6");
    let context_hits = warm.binding_cache_stats().hits;
    let service_hits = warm.binding_cache_service_stats().hits;
    let (_, rewalk) = row("warm re-walk FindNSM", || {
        warm.find_nsm(&qc, &sibling).expect("re-walk")
    });
    assert_eq!(
        (
            warm.binding_cache_stats().hits - context_hits,
            warm.binding_cache_service_stats().hits - service_hits
        ),
        (0, 1),
        "the row measured a service-level hit"
    );
    assert!(
        rewalk <= WARM_REWALK_MAX_ALLOCATIONS,
        "warm re-walk FindNSM made {rewalk} allocations, budget {WARM_REWALK_MAX_ALLOCATIONS}"
    );

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
    let (warm_import, _) = row("warm Import", import);
    assert!(
        warm_import <= WARM_IMPORT_MAX_BYTES,
        "warm Import allocated {warm_import} B, budget {WARM_IMPORT_MAX_BYTES}"
    );

    let cold = tb.make_hns(tb.hosts.client, CacheMode::Disabled);
    cold.find_nsm(&qc, &name).expect("lazy handles resolved");
    let (cold_walk, _) = row("cold sequential FindNSM", || {
        cold.find_nsm(&qc, &name).expect("cold walk")
    });
    assert!(
        cold_walk <= COLD_FIND_NSM_MAX_BYTES,
        "cold FindNSM allocated {cold_walk} B, budget {COLD_FIND_NSM_MAX_BYTES}"
    );

    let owner = DomainName::parse("fiji.cs.washington.edu").expect("name");
    let six = Answer::ok(
        (0..6)
            .map(|i| ResourceRecord::a(owner.clone(), 3600, NetAddr::of(HostId(i))))
            .collect(),
    )
    .to_value()
    .expect("marshals");
    let (_, decode) = row("6-record answer decode", || {
        Answer::from_value(&six).expect("decodes")
    });
    assert_eq!(
        decode, ANSWER_DECODE_ALLOCATIONS,
        "a record of the same owner as the one before it must share its name"
    );
}
