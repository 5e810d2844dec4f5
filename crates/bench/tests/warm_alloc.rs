//! What a warm query allocates, by the counting allocator: the
//! benchmark's warm mix (`query_mix`), every cache on. Most ops are a
//! composed-cache hit and one NSM call; the rest re-walk a lapsed entry.
//! Print the count with
//!
//! ```text
//! cargo test --release -p hns-bench --test warm_alloc -- --nocapture
//! ```

mod query_mix;

use conformance::alloc::CountingAlloc;
use hns_core::cache::CacheMode;
use nsms::nsm_cache::NsmCacheForm;
use query_mix::allocations_an_op;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const OPS: usize = 60_000;

/// At most 6.8 allocations a warm op. (6.82 while each typed reply — the
/// NSM's struct, the Clearinghouse's `Property` — travelled in a box;
/// 10.70 while every probe of a
/// shared name copied its text: the context and individual name into
/// each request, the local name out of every NSM's mapping, the path out
/// of the caller's fields.)
#[test]
fn a_warm_query_allocates_at_most_six_point_eight_blocks() {
    let (per_op, bytes_per_op) = allocations_an_op(
        CacheMode::Demarshalled,
        true,
        NsmCacheForm::Demarshalled,
        OPS,
    );
    println!("{OPS} warm ops: {per_op:.2} allocations an op, {bytes_per_op:.0} B an op");
    assert!(per_op <= 6.8, "{per_op:.2} allocations a warm op");
}
