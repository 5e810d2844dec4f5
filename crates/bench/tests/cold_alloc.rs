//! What a cold query allocates, by the counting allocator: the
//! benchmark's cache-off mix (`hns_bench::mix`) — the HNS cache, the composed
//! binding cache and the NSMs' cache all off, as in `cold_walk` — so every
//! op walks the six mappings and every NSM call asks its name service.
//! Print the count with
//!
//! ```text
//! cargo test --release -p hns-bench --test cold_alloc -- --nocapture
//! ```

use conformance::alloc::CountingAlloc;
use hns_bench::mix::QueryMix;
use hns_core::cache::CacheMode;
use nsms::nsm_cache::NsmCacheForm;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const OPS: usize = 20_000;

/// At most 19 allocations a cold op. (20.25 while a BIND-backed NSM
/// parsed its local name into a domain name and the resolver rebuilt its
/// cached answer on it, and a reply copied its strings into the caller's
/// tree; 20.40 while each Courier port
/// lookup built a `String` to probe the exchange table; 34.46 while every
/// answer was a vector of whole records, each naming its owner, and every
/// typed reply travelled in a box; 46.7 while every decoded meta record
/// was wrapped in an `Arc` nobody shared, six an op, and each
/// standard-resolver query built and dropped its answer's fast-codec
/// bytes to check they encode.)
#[test]
fn a_cold_query_allocates_at_most_nineteen_blocks() {
    let mix = QueryMix::build(CacheMode::Disabled, false, NsmCacheForm::Disabled);
    let work = mix.run(OPS);
    let per_op = work.iter().map(|op| op.allocations).sum::<u64>() as f64 / OPS as f64;
    let bytes_per_op = work.iter().map(|op| op.bytes).sum::<u64>() as f64 / OPS as f64;
    println!("{OPS} cold ops: {per_op:.2} allocations an op, {bytes_per_op:.0} B an op");
    assert!(per_op <= 19.0, "{per_op:.2} allocations a cold op");
}
