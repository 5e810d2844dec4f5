//! E4 — binding-mechanism comparison: HNS (104–547 ms depending on
//! colocation and caching) vs the interim replicated-file scheme (200 ms)
//! vs reregistered Clearinghouse (166 ms).

use std::sync::Arc;

use baselines::{InterimBinder, ReregisteredChBinder};
use hns_core::cache::CacheMode;
use nsms::harness::{Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM};
use nsms::nsm_cache::NsmCacheForm;

use crate::cells::{Cell, PaperTable};
use crate::scenario::{deploy, Arrangement, CacheState};

/// Runs the comparison and returns the table.
pub fn run() -> PaperTable {
    // HNS extremes from the colocation table.
    let best = deploy(
        Arrangement::AllLinked,
        NsmCacheForm::Marshalled,
        CacheMode::Marshalled,
    );
    let hns_min = best.measure(CacheState::BothHit).total().as_ms_f64();
    let worst = deploy(
        Arrangement::AllRemote,
        NsmCacheForm::Marshalled,
        CacheMode::Marshalled,
    );
    let hns_max = worst.measure(CacheState::Miss).total().as_ms_f64();

    // Interim replicated local files.
    let tb = Testbed::build();
    let interim = InterimBinder::new(Arc::clone(&tb.net));
    interim.register(DESIRED_SERVICE, tb.hosts.fiji, DESIRED_SERVICE_PROGRAM);
    interim.push_replica(tb.hosts.client);
    let (r, ledger) = tb
        .world
        .measure(|| interim.bind(tb.hosts.client, DESIRED_SERVICE));
    let interim_ms = ledger.total();
    r.expect("interim bind");

    // Reregistered Clearinghouse.
    let rereg = ReregisteredChBinder::new(
        Arc::clone(&tb.net),
        tb.ch_client(tb.hosts.client),
        "cs",
        "uw",
    );
    let port = tb
        .net
        .portmap_getport(tb.hosts.fiji, DESIRED_SERVICE_PROGRAM)
        .expect("target exported");
    rereg
        .reregister(
            DESIRED_SERVICE,
            tb.hosts.fiji,
            DESIRED_SERVICE_PROGRAM,
            port,
        )
        .expect("reregister");
    let (r, ledger) = tb.world.measure(|| rereg.bind(DESIRED_SERVICE));
    let rereg_ms = ledger.total();
    r.expect("rereg bind");

    let mut table = PaperTable::new("Binding mechanism comparison (ms)", vec!["one bind"]);
    table.push_row("HNS, best case (104)", vec![Cell::new(104.0, hns_min)]);
    table.push_row("HNS, worst case (547)", vec![Cell::new(547.0, hns_max)]);
    table.push_row(
        "interim replicated files (200)",
        vec![Cell::new(200.0, interim_ms.as_ms_f64())],
    );
    table.push_row(
        "reregistered Clearinghouse (166)",
        vec![Cell::new(166.0, rereg_ms.as_ms_f64())],
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_reproduces() {
        let table = run();
        assert!(
            table.worst_error_pct() < 10.0,
            "worst error {:.1}%\n{}",
            table.worst_error_pct(),
            table.render()
        );
    }

    #[test]
    fn tuned_hns_is_competitive_with_homogeneous_schemes() {
        // "the tuned HNS performance is reasonably close to that of
        // homogeneous name services": best-case HNS beats both baselines.
        let table = run();
        let hns_best = table.rows[0].1[0].measured;
        let interim = table.rows[2].1[0].measured;
        let rereg = table.rows[3].1[0].measured;
        assert!(hns_best < interim);
        assert!(hns_best < rereg);
    }
}
