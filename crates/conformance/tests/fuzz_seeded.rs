//! Seeded mutation fuzzing under the counting allocator.
//!
//! This binary installs [`CountingAlloc`] as the global allocator, so
//! the fuzzer's allocation-budget property is actually enforced here
//! (the library's own smoke test runs without it and only checks the
//! panic and idempotence properties).

use conformance::alloc::{self, CountingAlloc};
use conformance::fuzz::{self, alloc_budget, FuzzConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The CI workhorse: 5000 iterations at seed 0, zero violations, with
/// allocation tracking live.
#[test]
fn five_thousand_iterations_seed_zero_are_clean() {
    let report = fuzz::run(FuzzConfig {
        iters: 5_000,
        seed: 0,
    });
    assert!(report.ok(), "{}", report.render());
    assert!(report.alloc_tracked, "budget must actually be enforced");
    assert_eq!(report.iters, 5_000);
    // The set of trees every decoder accepts, pinned: a decoder that comes
    // to accept or refuse one tree more moves a count here. The same in
    // debug and release; re-pin only for an intended change of that set.
    let counts = (
        report.decode_ok,
        report.decode_rejected,
        report.message_ok,
        report.message_rejected,
    );
    assert_eq!(counts, (1340, 3660, 2272, 39956));
}

/// A sweep of further seeds at lower iteration counts: mutation
/// coverage must not depend on one lucky stream.
#[test]
fn seed_sweep_is_clean() {
    for seed in [1u64, 2, 3, 7, 42, 1987] {
        let report = fuzz::run(FuzzConfig { iters: 800, seed });
        assert!(report.ok(), "seed {seed}: {}", report.render());
    }
}

/// Same seed, same counts: the fuzzer itself must be deterministic or
/// a violation report is unreproducible.
#[test]
fn fuzzer_is_deterministic_per_seed() {
    let a = fuzz::run(FuzzConfig {
        iters: 1_000,
        seed: 11,
    });
    let b = fuzz::run(FuzzConfig {
        iters: 1_000,
        seed: 11,
    });
    assert_eq!(a.decode_ok, b.decode_ok);
    assert_eq!(a.decode_rejected, b.decode_rejected);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.max_alloc, b.max_alloc);
}

/// Regression for the length-prefix bomb defence: a tiny input whose
/// list header claims 2^20 elements must be rejected within the
/// allocation budget for its actual length. Before the remaining-bytes
/// bound, `Vec::with_capacity(min(claim, 1024))` pre-allocated ~32 KB
/// for this 8-byte input — an order of magnitude over budget.
#[test]
fn list_count_bomb_stays_within_budget() {
    // XDR: tag LIST (7), count 0x00100000, no elements behind it.
    let bomb: Vec<u8> = vec![0, 0, 0, 7, 0, 0x10, 0, 0];
    let (result, used) = alloc::measure(|| wire::xdr::decode(&bomb));
    assert!(result.is_err(), "bomb must be rejected");
    let used = used.expect("counting allocator installed");
    assert!(
        used <= alloc_budget(bomb.len()),
        "rejecting an 8-byte bomb allocated {used} bytes (budget {})",
        alloc_budget(bomb.len())
    );

    // Fast batch: empty name, record count 0xFFFF, nothing behind it.
    let bomb = vec![0, 0, 0xFF, 0xFF];
    let (result, used) = alloc::measure(|| wire::fast::decode_rr_batch(&bomb));
    assert!(result.is_err(), "bomb must be rejected");
    let used = used.expect("counting allocator installed");
    assert!(
        used <= alloc_budget(bomb.len()),
        "fast bomb allocated {used}"
    );
}
