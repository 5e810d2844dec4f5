//! A2 — ablation: sensitivity of the "simplistic" TTL invalidation.
//!
//! "Cached data is tagged with a time-to-live field for cache invalidation.
//! While this simplistic mechanism can cause cache consistency problems ...
//! Given our assumption that data changes slowly over time, we feel that
//! this mechanism will suffice." This ablation quantifies the tradeoff: a
//! longer TTL buys a higher hit rate and cheaper queries, at the price of a
//! wider staleness window after a registration changes.

use hns_core::cache::CacheMode;
use hns_core::name::HnsName;
use hns_core::nsm::{NsmBinding, NsmInfo, SuiteTag};
use hns_core::query::QueryClass;
use nsms::harness::Testbed;
use nsms::nsm_cache::NsmCacheForm;
use nsms::BindingBindNsm;
use simnet::SimDuration;

use crate::cells::PlainTable;

/// Result of one TTL setting.
#[derive(Debug, Clone, Copy)]
pub struct TtlPoint {
    /// Meta record TTL, seconds.
    pub ttl_secs: u32,
    /// Mean FindNSM time over the run, ms.
    pub mean_ms: f64,
    /// Fraction of queries that returned a stale NSM location.
    pub stale_fraction: f64,
}

/// Runs one TTL setting: the NSM's registration moves host every
/// `move_period_s`, clients query every `query_period_s` for `total_s`.
pub fn run_point(ttl_secs: u32, move_period_s: u64, query_period_s: u64, total_s: u64) -> TtlPoint {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Marshalled);
    // Registrar rewrites the NSM's location between two hosts.
    let registrar = tb.make_hns(tb.hosts.meta, CacheMode::Disabled);
    registrar.meta().set_record_ttl(ttl_secs);
    let hosts = [tb.hosts.nsm, tb.hosts.agent];
    let host_names: Vec<String> = hosts
        .iter()
        .map(|h| tb.world.topology.host_name(*h).expect("host"))
        .collect();
    let register_at = |idx: usize| {
        registrar
            .register_nsm_info(&NsmInfo {
                nsm_name: BindingBindNsm::NAME.into(),
                binding: NsmBinding {
                    host_name: host_names[idx].clone(),
                    host_context: tb.ctx_nsm_hosts(),
                    program: nsms::harness::NSM_EXPORT_PROGRAM,
                    port: 1024,
                    suite: SuiteTag::Sun,
                    version: 1,
                    owner: "hcs".into(),
                },
            })
            .expect("re-register");
    };
    register_at(0);

    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    let qc = QueryClass::hrpc_binding();

    let mut current = 0usize;
    let mut next_move_ms = move_period_s as f64 * 1000.0;
    let mut queries = 0u64;
    let mut stale = 0u64;
    let mut total_ms = 0.0;
    let end_ms = total_s as f64 * 1000.0;
    loop {
        let now_ms = tb.world.now().as_ms_f64();
        if now_ms >= end_ms {
            break;
        }
        if now_ms >= next_move_ms {
            current = 1 - current;
            register_at(current);
            next_move_ms += move_period_s as f64 * 1000.0;
        }
        let (binding, ledger) = tb.world.measure(|| hns.find_nsm(&qc, &name));
        let took = ledger.total();
        let binding = binding.expect("find");
        queries += 1;
        total_ms += took.as_ms_f64();
        if binding.host != hosts[current] {
            stale += 1;
        }
        // Idle until the next query.
        let spent = took.as_ms_f64();
        let idle = (query_period_s as f64 * 1000.0 - spent).max(0.0);
        tb.world.wait(SimDuration::from_ms_f64(idle));
    }
    TtlPoint {
        ttl_secs,
        mean_ms: total_ms / queries.max(1) as f64,
        stale_fraction: stale as f64 / queries.max(1) as f64,
    }
}

/// Runs the sweep.
pub fn run() -> PlainTable {
    let mut table = PlainTable::new(
        "Ablation A2 — TTL invalidation: hit economy vs staleness \
         (NSM moves every 30 min, one query per minute, 4 h)",
        vec!["ttl (s)", "mean FindNSM (ms)", "stale results"],
    );
    for ttl in [10u32, 60, 600, 3600] {
        let point = run_point(ttl, 1800, 60, 4 * 3600);
        table.push_row(vec![
            point.ttl_secs.to_string(),
            format!("{:.1}", point.mean_ms),
            format!("{:.1}%", point.stale_fraction * 100.0),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_ttl_is_faster_but_staler() {
        let short = run_point(10, 1800, 60, 2 * 3600);
        let long = run_point(3600, 1800, 60, 2 * 3600);
        assert!(
            long.mean_ms < short.mean_ms,
            "long TTL should amortize: {} vs {}",
            long.mean_ms,
            short.mean_ms
        );
        assert!(
            long.stale_fraction > short.stale_fraction,
            "long TTL should be staler: {} vs {}",
            long.stale_fraction,
            short.stale_fraction
        );
    }

    #[test]
    fn short_ttl_bounds_staleness() {
        let point = run_point(10, 1800, 60, 2 * 3600);
        // With a 10 s TTL and 60 s query period, every query refetches:
        // at most the query immediately straddling a move can be stale.
        assert!(
            point.stale_fraction < 0.03,
            "stale {}",
            point.stale_fraction
        );
    }
}
