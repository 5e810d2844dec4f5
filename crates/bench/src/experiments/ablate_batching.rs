//! A5 — ablation: sequential six-round-trip `FindNSM` versus the batched
//! meta pipeline (one `MQUERY` with server-side mapping chasing).
//!
//! The paper's Table 3.1/3.2 numbers assume FindNSM's six data mappings
//! are resolved one remote lookup at a time. The batched pipeline sends a
//! single multi-question query whose reply piggybacks mappings 2–5 as
//! additional record sets (see `hns_core::chaser::MetaChaser`), leaving
//! only the public-BIND host-address lookup as a second round trip. This
//! ablation measures both configurations cold and warm so the round-trip
//! elision is visible as its own column — the sequential numbers are the
//! paper's, untouched.

use hns_core::cache::CacheMode;
use hns_core::name::HnsName;
use hns_core::query::QueryClass;
use nsms::harness::Testbed;
use nsms::nsm_cache::NsmCacheForm;

use crate::cells::PlainTable;

/// One configuration's measurements.
struct Run {
    label: &'static str,
    remote_calls: u64,
    ns_lookups: u64,
    ms: f64,
}

fn measure(batching: bool) -> (Run, Run) {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Marshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Marshalled);
    hns.set_batching(batching);
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    let qc = QueryClass::hrpc_binding();

    let (r, ledger) = tb.world.measure(|| hns.find_nsm(&qc, &name));
    let cold_ms = ledger.total();
    let cold_delta = ledger.counters();
    r.expect("cold find_nsm");
    let cold = Run {
        label: if batching {
            "batched, cold"
        } else {
            "sequential, cold"
        },
        remote_calls: cold_delta.remote_calls,
        ns_lookups: cold_delta.ns_lookups,
        ms: cold_ms.as_ms_f64(),
    };

    let (r, ledger) = tb.world.measure(|| hns.find_nsm(&qc, &name));
    let warm_ms = ledger.total();
    let warm_delta = ledger.counters();
    r.expect("warm find_nsm");
    let warm = Run {
        label: if batching {
            "batched, warm"
        } else {
            "sequential, warm"
        },
        remote_calls: warm_delta.remote_calls,
        ns_lookups: warm_delta.ns_lookups,
        ms: warm_ms.as_ms_f64(),
    };
    (cold, warm)
}

/// Runs the ablation.
pub fn run() -> PlainTable {
    let (seq_cold, seq_warm) = measure(false);
    let (bat_cold, bat_warm) = measure(true);

    let mut table = PlainTable::new(
        "Ablation A5 — sequential FindNSM vs batched meta pipeline (MQUERY + chaser)",
        vec![
            "configuration",
            "remote round trips",
            "ns lookups",
            "time (ms)",
        ],
    );
    for run in [seq_cold, bat_cold, seq_warm, bat_warm] {
        table.push_row(vec![
            run.label.into(),
            run.remote_calls.to_string(),
            run.ns_lookups.to_string(),
            format!("{:.0}", run.ms),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_elides_four_round_trips_cold() {
        let table = run();
        let seq_cold_calls: u64 = table.rows[0][1].parse().expect("number");
        let bat_cold_calls: u64 = table.rows[1][1].parse().expect("number");
        assert_eq!(seq_cold_calls, 6, "sequential cold path is six calls");
        assert!(
            bat_cold_calls <= 2,
            "batched cold path made {bat_cold_calls} calls, want <= 2"
        );
        let seq_cold_ms: f64 = table.rows[0][3].parse().expect("number");
        let bat_cold_ms: f64 = table.rows[1][3].parse().expect("number");
        assert!(
            bat_cold_ms < seq_cold_ms,
            "batched cold {bat_cold_ms} must beat sequential {seq_cold_ms}"
        );
    }

    #[test]
    fn warm_paths_make_no_remote_calls_either_way() {
        let table = run();
        let seq_warm_calls: u64 = table.rows[2][1].parse().expect("number");
        let bat_warm_calls: u64 = table.rows[3][1].parse().expect("number");
        assert_eq!(seq_warm_calls, 0);
        assert_eq!(bat_warm_calls, 0);
    }
}
