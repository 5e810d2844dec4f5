//! E9 — the paper's stated future work: dynamic cache hit ratios.
//!
//! "Neither of these increments leads to a clear cut decision about the
//! most efficient location for the HNS or the NSMs. Further work on the
//! dynamic cache hit ratios achieved in practice will be required to make
//! this decision for any particular workload."
//!
//! This experiment does that work: it drives a Zipf-skewed `FindNSM`
//! workload from several short-lived client processes, measures the hit
//! fraction achieved by per-process *linked* HNS copies against one
//! long-lived shared *remote* HNS server, and feeds the measured `q` (the
//! remote server's additional hit fraction) back into equation (1) to make
//! the placement decision the paper left open.

use std::sync::Arc;

use hns_core::analysis::Eq1Inputs;
use hns_core::cache::CacheMode;
use hns_core::colocation::{HnsClient, HnsHandle, HnsService, HNS_PROGRAM};
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::query::QueryClass;
use hrpc::{ComponentSet, HrpcBinding};
use nsms::harness::{Testbed, NS_BIND, NS_CH};
use nsms::nsm_cache::NsmCacheForm;
use simnet::rng::DetRng;
use simnet::topology::NetAddr;

use crate::cells::PlainTable;

/// Number of distinct (context, query class) pairs in the universe.
const CONTEXTS: usize = 12;
/// Query classes exercised per context's name service.
const CLASSES: usize = 3;
/// Short-lived client processes per generation.
const CLIENTS: usize = 6;
/// FindNSM calls per client process lifetime.
const CALLS_PER_CLIENT: usize = 25;

/// Outcome of one placement run.
#[derive(Debug, Clone, Copy)]
pub struct PlacementRun {
    /// Mean FindNSM time per call, virtual ms.
    pub mean_ms: f64,
    /// Cache hit fraction achieved.
    pub hit_fraction: f64,
    /// Probes that found an entry whose TTL had lapsed (counted apart
    /// from plain misses).
    pub expired: u64,
}

/// The experiment's full result.
#[derive(Debug)]
pub struct HitRatioResults {
    /// Linked (per-process) placement.
    pub linked: PlacementRun,
    /// Remote (shared server) placement.
    pub remote: PlacementRun,
    /// The measured additional hit fraction of the remote server.
    pub q_measured: f64,
    /// Equation (1)'s threshold for this workload.
    pub q_threshold: f64,
    /// The rendered table.
    pub table: PlainTable,
}

fn setup() -> (Testbed, Vec<(QueryClass, HnsName)>) {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Marshalled);
    tb.deploy_extension_nsms(tb.hosts.nsm);
    // Additional contexts over the same two name services (departmental
    // subdivisions of the same universe).
    let registrar = tb.make_hns(tb.hosts.meta, CacheMode::Disabled);
    let mut pairs = Vec::new();
    let classes = [
        QueryClass::hrpc_binding(),
        QueryClass::mailbox_location(),
        QueryClass::file_location(),
    ];
    for i in 0..CONTEXTS {
        let (ns, individual) = if i % 2 == 0 {
            (NS_BIND, "fiji.cs.washington.edu")
        } else {
            (NS_CH, "printserver:cs:uw")
        };
        let ctx = Context::new(format!(
            "dept{i}-{}",
            if i % 2 == 0 { "bind" } else { "ch" }
        ))
        .expect("ctx");
        registrar
            .register_context(&ctx, ns, &NameMapping::Identity)
            .expect("register");
        for qc in classes.iter().take(CLASSES) {
            pairs.push((
                qc.clone(),
                HnsName::new(ctx.clone(), individual).expect("name"),
            ));
        }
    }
    (tb, pairs)
}

/// Zipf-ish rank weights over the pair universe.
fn pick_pair(rng: &mut DetRng, n: usize) -> usize {
    // Weight 1/(rank+1); sample by inverse CDF over precomputed sums.
    let total: f64 = (0..n).map(|r| 1.0 / (r + 1) as f64).sum();
    let mut x = rng.next_f64() * total;
    for r in 0..n {
        x -= 1.0 / (r + 1) as f64;
        if x <= 0.0 {
            return r;
        }
    }
    n - 1
}

fn run_linked(tb: &Testbed, pairs: &[(QueryClass, HnsName)]) -> PlacementRun {
    let mut rng = DetRng::new(1987);
    let mut total_ms = 0.0;
    let mut hits = 0u64;
    let mut lookups = 0u64;
    let mut expired = 0u64;
    for client_idx in 0..CLIENTS {
        // A fresh process: its linked HNS starts cold.
        let _ = client_idx;
        let hns = tb.make_hns(tb.hosts.client, CacheMode::Marshalled);
        let client = HnsClient::new(
            Arc::clone(&tb.net),
            tb.hosts.client,
            HnsHandle::Linked(Arc::clone(&hns)),
        );
        for _ in 0..CALLS_PER_CLIENT {
            let (qc, name) = &pairs[pick_pair(&mut rng, pairs.len())];
            let (r, ledger) = tb.world.measure(|| client.find_nsm(qc, name));
            let took = ledger.total();
            r.expect("linked find");
            total_ms += took.as_ms_f64();
        }
        let stats = hns.cache_stats();
        hits += stats.hits;
        lookups += stats.hits + stats.misses + stats.expired;
        expired += stats.expired;
    }
    PlacementRun {
        mean_ms: total_ms / (CLIENTS * CALLS_PER_CLIENT) as f64,
        hit_fraction: hits as f64 / lookups.max(1) as f64,
        expired,
    }
}

fn run_remote(tb: &Testbed, pairs: &[(QueryClass, HnsName)]) -> PlacementRun {
    // One long-lived server shared by every client generation.
    let hns = tb.make_hns(tb.hosts.hns, CacheMode::Marshalled);
    let port = tb
        .net
        .export(tb.hosts.hns, HNS_PROGRAM, HnsService::new(Arc::clone(&hns)));
    let binding = HrpcBinding {
        host: tb.hosts.hns,
        addr: NetAddr::of(tb.hosts.hns),
        program: HNS_PROGRAM,
        port,
        components: ComponentSet::raw_tcp(port),
    };
    let mut rng = DetRng::new(1987); // Same arrival sequence as linked.
    let mut total_ms = 0.0;
    for _ in 0..CLIENTS {
        let client = HnsClient::new(
            Arc::clone(&tb.net),
            tb.hosts.client,
            HnsHandle::Remote(binding),
        );
        for _ in 0..CALLS_PER_CLIENT {
            let (qc, name) = &pairs[pick_pair(&mut rng, pairs.len())];
            let (r, ledger) = tb.world.measure(|| client.find_nsm(qc, name));
            let took = ledger.total();
            r.expect("remote find");
            total_ms += took.as_ms_f64();
        }
    }
    let stats = hns.cache_stats();
    PlacementRun {
        mean_ms: total_ms / (CLIENTS * CALLS_PER_CLIENT) as f64,
        hit_fraction: stats.hits as f64 / (stats.hits + stats.misses + stats.expired).max(1) as f64,
        expired: stats.expired,
    }
}

/// Runs the experiment.
pub fn run() -> HitRatioResults {
    let (tb, pairs) = setup();
    let linked = run_linked(&tb, &pairs);
    let remote = run_remote(&tb, &pairs);
    let q_measured = (remote.hit_fraction - linked.hit_fraction).max(0.0);

    // Equation (1) with this workload's own hit/miss costs: approximate
    // C(hit)/C(miss) from the linked run's extremes — a warm FindNSM and a
    // cold one measured on the same testbed.
    let probe = tb.make_hns(tb.hosts.client, CacheMode::Marshalled);
    let (qc, name) = &pairs[0];
    let (r, ledger) = tb.world.measure(|| probe.find_nsm(qc, name));
    let cold = ledger.total();
    r.expect("cold");
    let (r, ledger) = tb.world.measure(|| probe.find_nsm(qc, name));
    let warm = ledger.total();
    r.expect("warm");
    let inputs = Eq1Inputs {
        remote_call_ms: 33.0,
        hit_ms: warm.as_ms_f64(),
        miss_ms: cold.as_ms_f64(),
    };
    let q_threshold = inputs.remote_threshold().unwrap_or(f64::INFINITY);

    let mut table = PlainTable::new(
        format!(
            "E9 — dynamic cache hit ratios (the paper's open question): \
             {CLIENTS} process lifetimes x {CALLS_PER_CLIENT} calls, Zipf over \
             {} context/query-class pairs",
            pairs.len()
        ),
        vec!["placement", "hit fraction", "expired", "mean FindNSM (ms)"],
    );
    table.push_row(vec![
        "linked per process (cold each lifetime)".into(),
        format!("{:.1}%", linked.hit_fraction * 100.0),
        linked.expired.to_string(),
        format!("{:.1}", linked.mean_ms),
    ]);
    table.push_row(vec![
        "remote shared server (long-lived)".into(),
        format!("{:.1}%", remote.hit_fraction * 100.0),
        remote.expired.to_string(),
        format!("{:.1}", remote.mean_ms),
    ]);
    table.push_row(vec![
        format!("measured q = {:.1}%", q_measured * 100.0),
        format!("eq(1) threshold = {:.1}%", q_threshold * 100.0),
        String::new(),
        if q_measured > q_threshold {
            "=> place HNS REMOTE"
        } else {
            "=> place HNS LOCAL"
        }
        .to_string(),
    ]);
    HitRatioResults {
        linked,
        remote,
        q_measured,
        q_threshold,
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_server_achieves_higher_hit_fraction() {
        let results = run();
        assert!(
            results.remote.hit_fraction > results.linked.hit_fraction + 0.1,
            "remote {:.2} vs linked {:.2}",
            results.remote.hit_fraction,
            results.linked.hit_fraction
        );
    }

    #[test]
    fn measured_q_exceeds_the_threshold_for_this_workload() {
        // Short-lived processes over a shared universe: exactly the regime
        // where the remote HNS pays off — the decision the paper could not
        // make without these measurements.
        let results = run();
        assert!(
            results.q_measured > results.q_threshold,
            "q {:.3} <= threshold {:.3}\n{}",
            results.q_measured,
            results.q_threshold,
            results.table.render()
        );
        // And the end-to-end means agree with the equation's verdict.
        assert!(
            results.remote.mean_ms < results.linked.mean_ms,
            "remote {} vs linked {}",
            results.remote.mean_ms,
            results.linked.mean_ms
        );
    }

    #[test]
    fn deterministic() {
        let a = run();
        let b = run();
        assert_eq!(a.linked.mean_ms.to_bits(), b.linked.mean_ms.to_bits());
        assert_eq!(
            a.remote.hit_fraction.to_bits(),
            b.remote.hit_fraction.to_bits()
        );
    }
}
