//! What standing up the scale world allocates, by the counting
//! allocator: each zone is sized once, each binding blob built once, and
//! each record handed to its zone as the zone stores it — its owner's
//! label, written on the stack, and its body — so a name costs no
//! allocation of its own. Print the count with
//!
//! ```text
//! cargo test --release -p hns-bench --test world_alloc -- --nocapture
//! ```

use conformance::alloc::{measure_calls, CountingAlloc};
use hns_bench::cells::CellPlan;
use hns_bench::scenario::build_cell_world;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One cell of 4,096 names, its 64 context directories, the root that
/// delegates to it, the world and both servers: at most a tenth of an
/// allocation a name — the zone's arrays, not its names. (1.05 while
/// every record's owner was a whole name, made and checked to be
/// stripped back to its label; ≈ 4 while every name was formatted and
/// parsed and every name's blob formatted again.)
#[test]
fn a_cell_world_allocates_at_most_a_tenth_of_a_block_a_name() {
    let names = 4096;
    let plan = CellPlan::for_names(names);
    let (world, used) = measure_calls(|| build_cell_world(&plan, 1987));
    let (bytes, calls) = used.expect("the counting allocator is installed");
    let per_name = calls as f64 / names as f64;
    println!("{names} names: {calls} allocations, {bytes} B ({per_name:.3} a name)");
    assert_eq!(world.records, names + 2 * plan.contexts_in_cell(0) + 2);
    assert!(per_name <= 0.1, "{per_name:.3} allocations a name");
}
