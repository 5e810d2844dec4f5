//! A flood of distinct negative `FindNSM`s holds memory flat and interns
//! nothing.
//!
//! Every name a `FindNSM` caches — a negative answer too — is bytes in
//! the HNS cache's arena, resident only while its entry is, and the cache
//! holds at most `simnet::ttl::CAPACITY` entries. So once the cache is
//! full, more distinct absent contexts cost nothing more: the live bytes
//! the counting allocator sees after 2×10^5 of them are within 2 % of
//! those after 10^5 (both past the 65,536 entries that fill it), and the
//! process-global interner, which never frees an entry, does not grow by
//! one. Each name is asked once, through the meta server, and remembered
//! negatively for `hns_core::cache::NEGATIVE_TTL`. Run with
//!
//! ```text
//! cargo test --release -p conformance --test negative_flood -- --nocapture
//! ```
//!
//! to print the readings.

use conformance::alloc::{measure_live, CountingAlloc};
use hns_core::cache::CacheMode;
use hns_core::error::HnsError;
use hns_core::name::{Context, HnsName};
use hns_core::query::QueryClass;
use nsms::harness::Testbed;
use simnet::ttl::CAPACITY;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Distinct absent contexts per checkpoint.
const BATCH: usize = 100_000;

#[test]
fn distinct_negative_find_nsms_hold_memory_flat_and_intern_nothing() {
    let interned = intern::global().len();
    let qc = QueryClass::hrpc_binding();
    // Every name has the same length, so a later one needs no more arena.
    let name = |i: usize| {
        let context = Context::new(format!("gone-{i:06}")).expect("a context");
        HnsName::new(context, "x").expect("a name")
    };
    let (hns, built) = measure_live(|| {
        let tb = Testbed::build();
        let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
        (tb, hns)
    });
    let (_tb, hns) = hns;
    let flood = |from: usize| {
        measure_live(|| {
            for i in from..from + BATCH {
                match hns.find_nsm(&qc, &name(i)) {
                    Err(HnsError::NoSuchContext(_)) => {}
                    other => panic!("context {i} answered {other:?}"),
                }
            }
        })
        .1
    };
    let (first, second) = (flood(0), flood(BATCH));
    let readings = built.zip(first).zip(second);
    let ((built, first), second) = readings.expect("the counting allocator is installed");
    let (at_half, at_end) = (built + first, built + first + second);
    let snapshot = hns.world().metrics().snapshot();
    let cache = |name| snapshot.counter("hns_cache", name).unwrap_or(0);
    println!(
        "live bytes: built {built}, after {BATCH} {at_half}, after {} {at_end} ({:+.2} %); \
         cache {} entries, {} evicted; interner {} -> {}",
        2 * BATCH,
        100.0 * second as f64 / at_half as f64,
        cache("entries"),
        cache("evictions"),
        interned,
        intern::global().len(),
    );
    assert!(cache("entries") <= CAPACITY as u64);
    assert!(
        cache("evictions") > 0,
        "the cache filled before the first reading"
    );
    assert!(
        second.abs() * 50 <= at_half,
        "live bytes moved {second:+} from {at_half} over the second {BATCH} names"
    );
    assert_eq!(
        intern::global().len(),
        interned,
        "the walk interned what it cached"
    );
}
