//! Differential path pinning across a seed sweep.
//!
//! Each seed builds a fresh seeded world and pins four path families to
//! byte-identical results: sequential vs batched vs composed-cache
//! `FindNSM` (in each of the composed cache's three shapes), serve-stale
//! (composed cache off and on), NSM failover, and ChClient read failover.
//! The seed shuffles query order and jitters clock advances and fault
//! timing, so the equivalence is checked across schedules, not just once.

use conformance::differential;

/// The required sweep: nine seeds (≥ 8 per the acceptance criteria),
/// including the repo's traditional 1987.
#[test]
fn all_paths_agree_across_the_seed_sweep() {
    for seed in [0u64, 1, 2, 3, 4, 5, 6, 7, 1987] {
        let summary = differential::run_seed(seed);
        assert_eq!(summary.targets, 8, "seed {seed}: full target mix ran");
        assert_eq!(summary.fault_scenarios, 4);
    }
}
