//! What a cold query allocates, by the counting allocator: the
//! benchmark's cache-off mix (`query_mix`) — the HNS cache, the composed
//! binding cache and the NSMs' cache all off, as in `cold_walk` — so every
//! op walks the six mappings and every NSM call asks its name service.
//! Print the count with
//!
//! ```text
//! cargo test --release -p hns-bench --test cold_alloc -- --nocapture
//! ```

mod query_mix;

use conformance::alloc::CountingAlloc;
use hns_core::cache::CacheMode;
use nsms::nsm_cache::NsmCacheForm;
use query_mix::allocations_an_op;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const OPS: usize = 20_000;

/// At most 21 allocations a cold op. (20.40 while each Courier port
/// lookup built a `String` to probe the exchange table; 34.46 while every
/// answer was a vector of whole records, each naming its owner, and every
/// typed reply travelled in a box; 46.7 while every decoded meta record
/// was wrapped in an `Arc` nobody shared, six an op, and each
/// standard-resolver query built and dropped its answer's fast-codec
/// bytes to check they encode.)
#[test]
fn a_cold_query_allocates_at_most_twenty_one_blocks() {
    let (per_op, bytes_per_op) =
        allocations_an_op(CacheMode::Disabled, false, NsmCacheForm::Disabled, OPS);
    println!("{OPS} cold ops: {per_op:.2} allocations an op, {bytes_per_op:.0} B an op");
    assert!(per_op <= 21.0, "{per_op:.2} allocations a cold op");
}
