//! E6 — equation (1): when is remote placement of the HNS or the NSMs
//! preferable to linking them locally?

use hns_core::analysis::Eq1Inputs;
use hns_core::cache::CacheMode;
use nsms::nsm_cache::NsmCacheForm;
use simnet::{Kind, Ledger};

use crate::cells::{Cell, PaperTable, PlainTable};
use crate::scenario::{deploy, Arrangement, CacheState};

/// Results of the equation-(1) experiment.
#[derive(Debug)]
pub struct Eq1Results {
    /// Thresholds computed from the paper's inputs and from our measured
    /// Table 3.1 cells; the last row takes C(remote call) off the cells'
    /// ledgers too.
    pub thresholds: PaperTable,
    /// A sweep over the additional remote hit fraction `q`.
    pub sweep: PlainTable,
}

/// Runs the analysis.
pub fn run() -> Eq1Results {
    // Paper inputs: HNS placement uses row 5's hit/miss (261/547), NSM
    // placement row 4's C/B (147/225); C(remote call) = 33.
    let paper_hns = Eq1Inputs {
        remote_call_ms: 33.0,
        hit_ms: 261.0,
        miss_ms: 547.0,
    };
    let paper_nsm = Eq1Inputs {
        remote_call_ms: 33.0,
        hit_ms: 147.0,
        miss_ms: 225.0,
    };

    // Our measured equivalents, from the same cells of our Table 3.1.
    let row5 = deploy(
        Arrangement::AllRemote,
        NsmCacheForm::Marshalled,
        CacheMode::Marshalled,
    );
    let row5_hit = row5.measure(CacheState::HnsHit);
    let measured_hns = Eq1Inputs {
        remote_call_ms: 33.0,
        hit_ms: row5_hit.total().as_ms_f64(),
        miss_ms: row5.measure(CacheState::Miss).total().as_ms_f64(),
    };
    let row4 = deploy(
        Arrangement::RemoteNsms,
        NsmCacheForm::Marshalled,
        CacheMode::Marshalled,
    );
    let row4_hit_both = row4.measure(CacheState::BothHit);
    let row4_hit = row4.measure(CacheState::HnsHit);
    let measured_nsm = Eq1Inputs {
        remote_call_ms: 33.0,
        hit_ms: row4_hit_both.total().as_ms_f64(),
        miss_ms: row4_hit.total().as_ms_f64(),
    };
    let ledger_hns = Eq1Inputs {
        remote_call_ms: hns_hop_ms(&row5_hit, &row4_hit),
        ..measured_hns
    };

    let mut thresholds = PaperTable::new(
        "Equation (1): required additional remote hit fraction q (percent)",
        vec!["threshold"],
    );
    thresholds.push_row(
        "remote HNS (paper: 11%)",
        vec![Cell::new(
            paper_hns.remote_threshold().unwrap_or(f64::NAN) * 100.0,
            measured_hns.remote_threshold().unwrap_or(f64::NAN) * 100.0,
        )],
    );
    thresholds.push_row(
        "remote NSMs (paper: 42%)",
        vec![Cell::new(
            paper_nsm.remote_threshold().unwrap_or(f64::NAN) * 100.0,
            measured_nsm.remote_threshold().unwrap_or(f64::NAN) * 100.0,
        )],
    );
    thresholds.push_row(
        "remote HNS (ledger hop)",
        vec![Cell::new(
            paper_hns.remote_threshold().unwrap_or(f64::NAN) * 100.0,
            ledger_hns.remote_threshold().unwrap_or(f64::NAN) * 100.0,
        )],
    );

    // Sweep q and report the preferred placement at base hit rate p = 0.3.
    let p = 0.3;
    let mut sweep = PlainTable::new(
        "Placement preference vs additional remote hit fraction q (p = 0.30)",
        vec![
            "q",
            "HNS: local (ms)",
            "HNS: remote (ms)",
            "HNS prefers",
            "NSM prefers",
        ],
    );
    for step in 0..=10 {
        let q = step as f64 * 0.05;
        let local = measured_hns.local_cost(p);
        let remote = measured_hns.remote_cost(p, q);
        let nsm_pref = if measured_nsm.remote_cost(p, q) < measured_nsm.local_cost(p) {
            "remote"
        } else {
            "local"
        };
        sweep.push_row(vec![
            format!("{q:.2}"),
            format!("{local:.0}"),
            format!("{remote:.0}"),
            if remote < local { "remote" } else { "local" }.to_string(),
            nsm_pref.to_string(),
        ]);
    }
    Eq1Results { thresholds, sweep }
}

/// C(remote call) for the HNS, off the ledgers of two HNS-hit cells: the
/// milliseconds of the client-to-HNS hop that row 5 (`[Client] [HNS]
/// [NSMs]`) adds to row 4 (`[NSMs] [Client, HNS]`) — the hop's request,
/// its reply's bytes and its `FindNSM` marshalling.
fn hns_hop_ms(row5: &Ledger, row4: &Ledger) -> f64 {
    let hop = [
        Kind::RemoteRequest,
        Kind::ReplyBytes,
        Kind::FindNsmArgMarshal,
    ];
    let us: i64 = (hop.iter())
        .map(|&kind| row5.row(kind).us as i64 - row4.row(kind).us as i64)
        .sum();
    us as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_thresholds_track_paper() {
        let results = run();
        // The HNS threshold is small (~11%), the NSM threshold large
        // (~42%): the paper's qualitative conclusion. Allow generous
        // headroom on the absolute numbers.
        let hns_q = results.thresholds.rows[0].1[0].measured;
        let nsm_q = results.thresholds.rows[1].1[0].measured;
        assert!((5.0..25.0).contains(&hns_q), "HNS threshold {hns_q}%");
        assert!((30.0..70.0).contains(&nsm_q), "NSM threshold {nsm_q}%");
        assert!(hns_q * 2.0 < nsm_q, "HNS must be easier to justify remote");
    }

    #[test]
    fn sweep_flips_preference_once() {
        let results = run();
        let prefs: Vec<&str> = results
            .sweep
            .rows
            .iter()
            .map(|row| row[3].as_str())
            .collect();
        let flips = prefs.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(flips <= 1, "preference should be monotone: {prefs:?}");
        assert_eq!(prefs.first(), Some(&"local"), "q=0 must prefer local");
    }
}
