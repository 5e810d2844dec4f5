//! E-T — end-to-end traced queries: per-query span breakdowns plus the
//! unified metrics snapshot.
//!
//! Reruns the Table 3.1 "HNS at client (linked), NSMs remote, marshalled
//! caches" row with tracing enabled and walks one `Import` through its
//! three interesting cache states:
//!
//! 1. **cold, sequential** — batching off; `FindNSM` performs the six
//!    cached remote data mappings one round trip each.
//! 2. **warm** — everything answered from the HNS and NSM caches.
//! 3. **cold, batched** — caches cleared, `MQUERY` + server-side chaser
//!    on; the cold path collapses to at most two remote round trips.
//!
//! Each query renders as a flame-style span tree, and the whole run dumps
//! a [`MetricsSnapshot`] covering the HNS cache, the per-mapping meta
//! lookups, the NSM layer, and the RPC fabric.

use std::sync::Arc;

use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::HnsName;
use hns_core::obs::MetricsSnapshot;
use nsms::harness::{Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM};
use nsms::nsm_cache::NsmCacheForm;
use nsms::Importer;
use simnet::trace::TraceKind;

/// One traced query: its label, accounting, and rendered span tree.
#[derive(Debug, Clone)]
pub struct TracedQuery {
    /// What this query demonstrates.
    pub label: &'static str,
    /// Remote round trips the whole `Import` performed (FindNSM + the
    /// NSM call), from the world's remote-call counter delta.
    pub remote_round_trips: u64,
    /// Virtual duration of the query.
    pub duration_us: u64,
    /// Flame-style span breakdown.
    pub flame: String,
}

/// The full traced run: three queries plus the metrics snapshot.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The traced queries, in execution order.
    pub queries: Vec<TracedQuery>,
    /// The unified metrics snapshot taken after the last query.
    pub snapshot: MetricsSnapshot,
}

impl TracedRun {
    /// Human-readable report: per-query flame trees, then the metrics
    /// table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Traced Table 3.1 row — HNS linked at client, NSMs remote, marshalled caches\n",
        );
        for q in &self.queries {
            out.push_str(&format!(
                "\n--- {} ({:.3} ms, {} remote round trips) ---\n{}",
                q.label,
                q.duration_us as f64 / 1000.0,
                q.remote_round_trips,
                q.flame
            ));
        }
        out.push('\n');
        out.push_str(&self.snapshot.render());
        out
    }

    /// Machine-readable export: `{schema, queries, metrics}`.
    pub fn to_json(&self) -> String {
        use hns_core::obs::json::string;
        let mut out = String::from("{\"schema\": \"hns-trace-v1\", \"queries\": [");
        for (i, q) in self.queries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"label\": {}, \"remote_round_trips\": {}, \"duration_us\": {}, \"flame\": {}}}",
                string(q.label),
                q.remote_round_trips,
                q.duration_us,
                string(&q.flame)
            ));
        }
        out.push_str("], \"metrics\": ");
        out.push_str(&self.snapshot.to_json());
        out.push('}');
        out
    }
}

fn run_query(
    tb: &Testbed,
    importer: &Importer,
    name: &HnsName,
    label: &'static str,
) -> TracedQuery {
    let marker = tb.world.span(None, TraceKind::Info, label);
    let (result, took, delta) = tb
        .world
        .measure(|| importer.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, name));
    result.expect("traced import");
    drop(marker);
    TracedQuery {
        label,
        remote_round_trips: delta.remote_calls,
        duration_us: took.as_us(),
        flame: String::new(), // filled from the tracer after the run
    }
}

/// Runs the traced scenario.
pub fn run() -> TracedRun {
    let tb = Testbed::build();
    let nsms = tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Marshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Marshalled);
    let importer = Importer::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        HnsHandle::Linked(Arc::clone(&hns)),
    );
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");

    tb.world.tracer.set_enabled(true);
    hns.set_batching(false);
    let mut queries = vec![run_query(
        &tb,
        &importer,
        &name,
        "query 1: cold, sequential FindNSM",
    )];
    queries.push(run_query(&tb, &importer, &name, "query 2: warm caches"));
    hns.clear_cache();
    nsms.bind.clear_cache();
    hns.set_batching(true);
    queries.push(run_query(
        &tb,
        &importer,
        &name,
        "query 3: cold, batched FindNSM (MQUERY + chaser)",
    ));
    tb.world.tracer.set_enabled(false);

    // Attach each marker span's subtree as the query's flame rendering.
    let traces = tb.world.tracer.query_traces();
    for q in queries.iter_mut() {
        if let Some(t) = traces.iter().find(|t| t.root.name == q.label) {
            q.flame = t.render();
        }
    }

    // Snapshot-time exports from the caches that keep their own atomics
    // (hns_cache, nsm_cache, bindns_cache — all registered with the
    // world at construction).
    tb.world.export_all_caches();
    TracedRun {
        queries,
        snapshot: tb.world.metrics().snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_match_the_paper_model() {
        let run = run();
        // Import = FindNSM + one NSM call; the NSM's own backend lookup
        // adds one more remote call on the cold paths.
        assert_eq!(run.queries.len(), 3);
        let cold = &run.queries[0];
        let warm = &run.queries[1];
        let batched = &run.queries[2];
        assert_eq!(
            cold.remote_round_trips, 9,
            "cold sequential: 6 FindNSM + NSM call + BIND A lookup + portmapper"
        );
        assert_eq!(warm.remote_round_trips, 1, "warm: only the NSM call");
        assert!(
            batched.remote_trips_for_findnsm() <= 2,
            "batched FindNSM must collapse to ≤ 2 round trips ({} total)",
            batched.remote_round_trips
        );
    }

    impl TracedQuery {
        /// Round trips attributable to FindNSM alone (total minus the NSM
        /// call and the NSM's two backend lookups on a cold NSM cache).
        fn remote_trips_for_findnsm(&self) -> u64 {
            self.remote_round_trips.saturating_sub(3)
        }
    }

    #[test]
    fn flame_trees_show_the_span_hierarchy() {
        let run = run();
        let cold = &run.queries[0];
        assert!(
            cold.flame.contains("FindNSM(query class hrpcbinding"),
            "missing FindNSM root:\n{}",
            cold.flame
        );
        for mapping in 1..=6 {
            assert!(
                cold.flame.contains(&format!("mapping {mapping}:")),
                "missing mapping {mapping}:\n{}",
                cold.flame
            );
        }
        assert!(
            cold.flame.contains("rt="),
            "round trips not annotated:\n{}",
            cold.flame
        );
        let warm = &run.queries[1];
        assert!(
            warm.flame.contains("cache=hit"),
            "warm query should show a cache hit:\n{}",
            warm.flame
        );
        let batched = &run.queries[2];
        assert!(
            batched.flame.contains("MQUERY batch prefetch"),
            "batched query should show the prefetch span:\n{}",
            batched.flame
        );
    }

    #[test]
    fn snapshot_covers_every_required_component() {
        let run = run();
        let s = &run.snapshot;
        // HNS cache outcomes, including the negative row.
        for name in ["hits", "misses", "expired", "negative_hits"] {
            assert!(
                s.counter("hns_cache", name).is_some(),
                "missing hns_cache/{name}\n{}",
                s.render()
            );
        }
        // Per-mapping meta lookup latency histograms.
        for mapping in 1..=6 {
            let h = s
                .histogram("hns_meta", &format!("mapping{mapping}_us"))
                .unwrap_or_else(|| panic!("missing hns_meta/mapping{mapping}_us"));
            assert!(h.count >= 1);
        }
        // NSM call counts and the fabric's round-trip counter.
        assert!(s.counter("nsm", "queries").expect("nsm/queries") >= 3);
        assert!(s.counter("net", "remote_calls").expect("net/remote_calls") >= 10);
        // Round-trip distributions: sequential cold = 6, batched ≤ 2.
        let seq = s
            .histogram("hns", "find_nsm_round_trips_sequential")
            .expect("sequential histogram");
        assert_eq!(seq.max, 6, "sequential cold FindNSM is 6 round trips");
        let batched = s
            .histogram("hns", "find_nsm_round_trips_batched")
            .expect("batched histogram");
        assert!(
            batched.max <= 2,
            "batched FindNSM is at most 2 round trips, saw {}",
            batched.max
        );
    }

    #[test]
    fn json_export_parses_and_carries_the_metrics() {
        let run = run();
        let json = run.to_json();
        let v = hns_core::obs::json::parse(&json).expect("traced JSON parses");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("hns-trace-v1")
        );
        let queries = v
            .get("queries")
            .and_then(|q| q.as_array())
            .expect("queries");
        assert_eq!(queries.len(), 3);
        for q in queries {
            assert!(q
                .get("remote_round_trips")
                .and_then(|n| n.as_u64())
                .is_some());
        }
        assert!(v.get("metrics").is_some());
    }
}
