//! Allocation budget of the message path.
//!
//! Marshalling — building `Value` trees, names and record payloads — is
//! what a lookup costs its host (the paper's Table 3.2), and most of that
//! cost is the allocator. This pins how many bytes one `FindNSM` and one
//! `Import` request from it, on the paper's testbed with the binding NSMs
//! on a remote host (the set-up of the benchmark's `hns-core.find_nsm.*`
//! probes), so the diet cannot silently regress. Print the table with
//!
//! ```text
//! cargo test --release -p conformance --test alloc_budget -- --nocapture
//! ```

use std::sync::Arc;

use conformance::alloc::{measure_calls, CountingAlloc};
use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::HnsName;
use hns_core::query::QueryClass;
use nsms::harness::{Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM};
use nsms::import::Importer;
use nsms::nsm_cache::NsmCacheForm;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Cold sequential `FindNSM`: every cache off, six remote mappings.
/// Measured 11,656 B in 143 allocations (23,946 B in 585 before names
/// became shared strings and struct field names static).
const COLD_FIND_NSM_MAX_BYTES: u64 = 12_500;
/// Warm `Import`: a composed-cache `FindNSM` plus one remote NSM call.
/// Measured 1,051 B in 12 allocations (1,721 B in 37 before).
const WARM_IMPORT_MAX_BYTES: u64 = 1_150;

fn row<R>(what: &str, f: impl FnOnce() -> R) -> u64 {
    let (_, used) = measure_calls(f);
    let (bytes, calls) = used.expect("counting allocator installed");
    println!("{what:<28} {calls:>6} allocations {bytes:>8} B");
    bytes
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
    row("warm walk FindNSM", || {
        warm.find_nsm(&qc, &name).expect("walk")
    });

    warm.set_binding_cache(true);
    warm.find_nsm(&qc, &name).expect("seeds the composed entry");
    let composed = row("warm composed FindNSM", || {
        warm.find_nsm(&qc, &name).expect("composed")
    });
    assert_eq!(composed, 0, "a composed-cache hit allocates nothing");

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
    let warm_import = row("warm Import", import);
    assert!(
        warm_import <= WARM_IMPORT_MAX_BYTES,
        "warm Import allocated {warm_import} B, budget {WARM_IMPORT_MAX_BYTES}"
    );

    let cold = tb.make_hns(tb.hosts.client, CacheMode::Disabled);
    cold.find_nsm(&qc, &name).expect("lazy handles resolved");
    let cold_walk = row("cold sequential FindNSM", || {
        cold.find_nsm(&qc, &name).expect("cold walk")
    });
    assert!(
        cold_walk <= COLD_FIND_NSM_MAX_BYTES,
        "cold FindNSM allocated {cold_walk} B, budget {COLD_FIND_NSM_MAX_BYTES}"
    );
}
