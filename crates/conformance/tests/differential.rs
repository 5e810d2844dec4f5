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

/// Typed or tree-only, caller or server: the same answers, `bytes_sent`,
/// remote calls, virtual time and every counter of every cache.
#[test]
fn typed_and_tree_only_peers_are_indistinguishable() {
    use differential::peers::{observe, Peers};

    let both_typed = observe(Peers::ALL[0]);
    let said = |what: &str| {
        let line = both_typed.iter().find(|line| line.starts_with(what));
        line.unwrap_or_else(|| panic!("nothing observed of `{what}`"))
    };
    // The script did what it says: answers, refusals, a walk.
    assert!(
        said("std query:").contains("Ok(["),
        "{}",
        said("std query:")
    );
    assert!(said("hrpc NameError:").contains("NotFound"));
    assert!(said("update:").ends_with("Ok(())"));
    assert!(said("refused update:").contains("FormErr"));
    assert!(said("update a conventional server:").contains("Refused"));
    assert!(said("call for a referral:").contains("ns.cs.edu"));
    assert!(
        said("counters:").contains("remote_calls: 16"),
        "{}",
        said("counters:")
    );
    // The NSM interface and the Clearinghouse read: both imports, mail
    // and file over either service, an item, and what each refuses.
    assert!(said("import again:").starts_with("import again: Ok(HrpcBinding"));
    assert!(said("import of a program not exported:").contains("NoSuchProgram"));
    assert!(said("mailboxlocation ch-uw!bob:cs:uw:").contains("printserver:cs:uw"));
    assert!(said("mailboxlocation ch-uw!ghost:cs:uw:").contains("not found"));
    assert!(said("filelocation bind-uw!sources").contains("/usr/src/hrpc/stubs.c"));
    assert!(said("lookup_item bob:cs:uw 31:").contains("Ok(Str(\"printserver:cs:uw\"))"));
    assert!(said("lookup_item ghost:cs:uw 31:").contains("NotFound"));
    assert!(said("nsm counters:").contains("remote_calls: 43"));
    for peers in &Peers::ALL[1..] {
        let observed = observe(*peers);
        for (typed, other) in both_typed.iter().zip(&observed) {
            assert_eq!(typed, other, "{peers:?}");
        }
        assert_eq!(both_typed.len(), observed.len(), "{peers:?}");
    }
}
