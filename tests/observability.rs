//! End-to-end observability: per-query span traces and the unified
//! metrics registry, exercised through the full testbed.

use std::sync::Arc;

use hns_repro::hns_core::cache::CacheMode;
use hns_repro::hns_core::name::HnsName;
use hns_repro::hns_core::query::QueryClass;
use hns_repro::hns_core::service::HnsConfig;
use hns_repro::nsms::harness::Testbed;
use hns_repro::nsms::nsm_cache::NsmCacheForm;
use hns_repro::simnet::time::SimDuration;
use hns_repro::simnet::trace::TraceKind;

/// The per-mapping cache demarshalled, the composed cache on top.
const COMPOSED: HnsConfig = HnsConfig {
    cache: CacheMode::Demarshalled,
    composed: true,
};

fn testbed_with_hns(
    config: impl Into<HnsConfig>,
) -> (Testbed, Arc<hns_repro::hns_core::Hns>, HnsName, QueryClass) {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let hns = tb.make_hns(tb.hosts.client, config);
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    (tb, hns, name, QueryClass::hrpc_binding())
}

#[test]
fn find_nsm_report_counts_round_trips() {
    let (_tb, hns, name, qc) = testbed_with_hns(CacheMode::Demarshalled);

    hns.set_batching(false);
    let (_, cold) = hns.find_nsm_report(&qc, &name).expect("cold");
    assert_eq!(
        cold.remote_round_trips, 6,
        "cold sequential FindNSM performs the six cached remote data mappings"
    );
    assert!(!cold.batched);

    let (_, warm) = hns.find_nsm_report(&qc, &name).expect("warm");
    assert_eq!(warm.remote_round_trips, 0, "warm FindNSM stays local");

    hns.clear_cache();
    hns.set_batching(true);
    let (_, batched) = hns.find_nsm_report(&qc, &name).expect("batched");
    assert!(
        batched.remote_round_trips <= 2,
        "batched cold FindNSM is at most two round trips, saw {}",
        batched.remote_round_trips
    );
    assert!(batched.batched);
    assert!(batched.took < cold.took, "batching must also save time");
}

#[test]
fn spans_nest_and_carry_cache_outcomes() {
    let (tb, hns, name, qc) = testbed_with_hns(CacheMode::Demarshalled);
    tb.world.tracer.set_enabled(true);
    hns.set_batching(false);
    hns.find_nsm(&qc, &name).expect("cold");
    hns.find_nsm(&qc, &name).expect("warm");
    tb.world.tracer.set_enabled(false);

    let traces = tb.world.tracer.query_traces();
    assert_eq!(traces.len(), 2, "one trace per FindNSM");
    let cold = &traces[0];
    assert!(cold
        .root
        .name
        .starts_with("FindNSM(query class hrpcbinding"));
    assert_eq!(cold.root.kind, TraceKind::Hns);
    assert_eq!(cold.root.round_trips, 6);
    assert!(
        cold.spans.len() >= 7,
        "root plus six mapping spans, got {}",
        cold.spans.len()
    );
    let mapping_spans = cold
        .spans
        .iter()
        .filter(|s| s.name.starts_with("mapping "))
        .count();
    assert_eq!(mapping_spans, 6);
    for s in &cold.spans {
        if let Some(end) = s.end_us {
            assert!(end >= s.start_us, "span {} ends before it starts", s.name);
        }
    }

    let warm = &traces[1];
    assert!(warm
        .spans
        .iter()
        .any(|s| s.cache == Some(hns_repro::simnet::trace::CacheOutcome::Hit)));
    assert!(warm.duration_us() < cold.duration_us());
}

/// With the composed cache on, the `FindNSM` span itself says how the
/// (query class, name service) probe after mapping 1 came out; with it
/// off the span carries nothing, as every golden trace expects.
#[test]
fn find_nsm_span_carries_the_service_level_outcome() {
    use hns_repro::hns_core::name::{Context, NameMapping};
    use hns_repro::nsms::harness::NS_BIND;
    use hns_repro::simnet::trace::CacheOutcome;

    let (tb, hns, name, qc) = testbed_with_hns(COMPOSED);
    let plain = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let sibling = Context::new("bind-uw-sibling").expect("context");
    hns.register_context(&sibling, NS_BIND, &NameMapping::Identity)
        .expect("register sibling");
    let sibling = HnsName::new(sibling, "fiji.cs.washington.edu").expect("name");

    tb.world.tracer.set_enabled(true);
    plain.find_nsm(&qc, &name).expect("composed cache off");
    hns.find_nsm(&qc, &name).expect("cold: nothing composed");
    hns.find_nsm(&qc, &sibling).expect("mappings 2-6 composed");
    tb.world.wait(SimDuration::from_ms(
        u64::from(hns_repro::hns_core::META_TTL) * 1000 + 1_000,
    ));
    hns.find_nsm(&qc, &sibling).expect("everything lapsed");
    tb.world.tracer.set_enabled(false);

    let traces = tb.world.tracer.query_traces();
    let outcomes: Vec<_> = traces.iter().map(|t| t.root.cache).collect();
    assert_eq!(
        outcomes,
        [
            None,
            Some(CacheOutcome::Miss),
            Some(CacheOutcome::Hit),
            Some(CacheOutcome::Expired)
        ]
    );
    let mapping_spans = |i: usize| {
        let spans = traces[i].spans.iter();
        spans.filter(|s| s.name.starts_with("mapping ")).count()
    };
    assert_eq!(mapping_spans(1), 6);
    assert_eq!(
        mapping_spans(2),
        1,
        "a service-level hit stops after mapping 1"
    );
    assert_eq!(traces[2].root.round_trips, 1);
}

#[test]
fn metrics_registry_reflects_the_run() {
    let (tb, hns, name, qc) = testbed_with_hns(CacheMode::Demarshalled);
    hns.set_batching(false);
    hns.find_nsm(&qc, &name).expect("cold");
    hns.find_nsm(&qc, &name).expect("warm");
    let snap = tb.world.metrics().snapshot();

    assert_eq!(snap.counter("hns", "find_nsm_calls"), Some(2));
    assert_eq!(snap.counter("hns", "find_nsm_errors"), Some(0));
    assert!(snap.counter("net", "remote_calls").expect("net") >= 6);
    assert!(snap.counter("hns_cache", "hits").expect("hits") > 0);
    assert_eq!(snap.counter("nsm", "linked_calls"), Some(1));

    let us = snap.histogram("hns", "find_nsm_us").expect("latency");
    assert_eq!(us.count, 2);
    assert!(us.p50 <= us.p95 && us.p95 <= us.p99);
    for mapping in 1..=6 {
        let h = snap
            .histogram("hns_meta", &format!("mapping{mapping}_us"))
            .unwrap_or_else(|| panic!("missing mapping{mapping}_us"));
        assert!(h.count >= 1, "mapping {mapping} never measured");
    }

    let rt = snap
        .histogram("hns", "find_nsm_round_trips_sequential")
        .expect("round trips");
    assert_eq!(rt.max, 6);
    assert_eq!(rt.min, 0, "warm query is zero round trips");

    // An HNS beside the meta server makes local calls too; what the world
    // counts is the `net` component, every count once.
    let local = tb.make_hns(tb.hosts.meta, CacheMode::Disabled);
    local.find_nsm(&qc, &name).expect("local walk");
    let (snap, counted) = (tb.world.metrics().snapshot(), tb.world.counters());
    let net = |name| snap.counter("net", name).expect("a net row");
    assert!(counted.local_calls > 0 && counted.ns_lookups > 0);
    assert_eq!(
        (counted.remote_calls, counted.local_calls),
        (net("remote_calls"), net("local_calls"))
    );
    assert_eq!(
        (counted.bytes_sent, counted.ns_lookups),
        (net("bytes_sent"), net("ns_lookups"))
    );
}

#[test]
fn snapshot_delta_isolates_one_query_from_a_warm_run() {
    let (tb, hns, name, qc) = testbed_with_hns(CacheMode::Demarshalled);
    hns.set_batching(false);
    hns.find_nsm(&qc, &name).expect("cold");
    let before = tb.world.metrics().snapshot();

    hns.find_nsm(&qc, &name).expect("warm");
    let after = tb.world.metrics().snapshot();

    let d = after.delta(&before);
    assert_eq!(d.counter("hns", "find_nsm_calls"), 1);
    assert_eq!(
        d.counter("net", "remote_calls"),
        0,
        "warm query must not leave the client"
    );
    assert!(d.counter("hns_cache", "hits") >= 1);
    let lat = d
        .histograms
        .iter()
        .find(|h| h.component == "hns" && h.name == "find_nsm_us")
        .expect("latency delta");
    assert_eq!(lat.count, 1, "exactly one sample in the bracket");
    // Zero-delta rows are dropped: the cold walk's mapping histograms
    // saw no new samples and must be absent.
    assert!(d
        .histograms
        .iter()
        .all(|h| h.component != "hns_meta" || h.count > 0));
}

#[test]
fn snapshot_json_parses_and_matches() {
    let (tb, hns, name, qc) = testbed_with_hns(CacheMode::Demarshalled);
    hns.find_nsm(&qc, &name).expect("query");
    let snap = tb.world.metrics().snapshot();
    let v = hns_repro::hns_core::obs::json::parse(&snap.to_json()).expect("snapshot JSON");
    let counters = v
        .get("counters")
        .and_then(|c| c.as_array())
        .expect("counters array");
    assert!(!counters.is_empty());
    let remote = counters
        .iter()
        .find(|c| {
            c.get("component").and_then(|s| s.as_str()) == Some("net")
                && c.get("name").and_then(|s| s.as_str()) == Some("remote_calls")
        })
        .expect("net/remote_calls in JSON");
    assert_eq!(
        remote.get("value").and_then(|n| n.as_u64()),
        Some(snap.counter("net", "remote_calls").expect("counter"))
    );
    assert!(v.get("histograms").and_then(|h| h.as_array()).is_some());
}

#[test]
fn tracing_disabled_records_nothing() {
    let (tb, hns, name, qc) = testbed_with_hns(CacheMode::Demarshalled);
    hns.find_nsm(&qc, &name).expect("query");
    assert!(
        tb.world.tracer.is_empty(),
        "disabled tracer must stay empty"
    );
    assert!(tb.world.tracer.spans().is_empty());
}

/// Two live composed instances on one world, A registered before B. A
/// walks the BIND context cold, preloads, and answers a walk of the
/// Clearinghouse context from its per-mapping cache: six hits. B walks the
/// BIND context cold: misses, no hit. Each `hns_cache` row is their sum —
/// `hits` 6 — whichever instance was built last.
#[test]
fn two_live_instances_sum_into_one_row() {
    let (tb, a, name, qc) = testbed_with_hns(COMPOSED);
    let b = tb.make_hns(tb.hosts.client, COMPOSED);
    let other = HnsName::new(tb.ctx_ch(), "fiji.cs.washington.edu").expect("name");
    a.find_nsm(&qc, &name).expect("cold");
    a.preload().expect("preload");
    a.find_nsm(&qc, &other).expect("a walk from the cache");
    b.find_nsm(&qc, &name).expect("cold");
    let (a_stats, b_stats) = (a.cache_stats(), b.cache_stats());
    assert_eq!((a_stats.hits, b_stats.hits), (6, 0));

    let snap = tb.world.metrics().snapshot();
    let row = |component, name| snap.counter(component, name);
    assert_eq!(row("hns_cache", "hits"), Some(6));
    assert_eq!(
        row("hns_cache", "misses"),
        Some(a_stats.misses + b_stats.misses)
    );
    let composed_misses = a.binding_cache_stats().misses + b.binding_cache_stats().misses;
    assert_eq!(row("hns_binding_cache", "misses"), Some(composed_misses));
}

/// A dropped instance's rows leave the snapshot: with A gone only B's
/// remain, and with both gone the cache components have no rows.
#[test]
fn a_dropped_instance_leaves_the_snapshot() {
    let (tb, a, name, qc) = testbed_with_hns(COMPOSED);
    let b = tb.make_hns(tb.hosts.client, COMPOSED);
    a.find_nsm(&qc, &name).expect("cold");
    a.find_nsm(&qc, &name).expect("composed hit");
    b.find_nsm(&qc, &name).expect("cold");
    let hits = |tb: &Testbed| {
        tb.world
            .metrics()
            .snapshot()
            .counter("hns_binding_cache", "hits")
    };
    assert_eq!(hits(&tb), Some(1));
    drop(a);
    assert_eq!(hits(&tb), Some(0));
    drop(b);
    let snap = tb.world.metrics().snapshot();
    let cached = |component| snap.counters.iter().any(|c| c.component == component);
    assert!(
        !cached("hns_cache") && !cached("hns_binding_cache"),
        "{snap:?}"
    );
}

/// The cache slice of "the catalogue cannot drift": a scenario touching
/// every TTL cache — the four of the HNS stack and the recursive
/// resolver's two; a serve-stale from each cache that has one, under a
/// `FaultPlan` — must leave exactly the `(component, counter)` names in
/// the registry that the Caches table of OBSERVABILITY.md lists.
#[test]
fn cache_counter_catalogue_matches_what_the_caches_emit() {
    use hns_repro::bindns::name::DomainName;
    use hns_repro::bindns::recursive::RecursiveResolver;
    use hns_repro::bindns::rr::RType;
    use hns_repro::hns_core::colocation::HnsHandle;
    use hns_repro::nsms::harness::{DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM};
    use hns_repro::nsms::Importer;
    use hns_repro::simnet::faults::FaultPlan;
    use std::collections::BTreeSet;

    const COMPONENTS: [&str; 6] = [
        "hns_cache",
        "hns_binding_cache",
        "nsm_cache",
        "bindns_cache",
        "bindns_recursive_cache",
        "bindns_cut_cache",
    ];

    let (tb, hns, name, qc) = testbed_with_hns(COMPOSED);
    let imp = Importer::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        HnsHandle::Linked(Arc::clone(&hns)),
    );
    let resolver = tb.std_resolver(tb.hosts.client);
    let host = DomainName::parse("fiji.cs.washington.edu").expect("name");

    // Warm every cache: the composed and per-mapping HNS caches and the
    // NSM's result cache through an Import, the resolver's directly.
    imp.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
        .expect("cold Import");
    imp.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
        .expect("warm Import");
    let records = resolver.resolve(&host, RType::A).expect("resolver warm-up");
    // The testbed's public BIND is a one-server tree: the recursive
    // resolver's answer is cached, its cut probes all miss.
    let recursive = RecursiveResolver::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        tb.public_bind.std_binding,
    );
    recursive.resolve(&host, RType::A).expect("recursive query");
    let record_ttl = records
        .iter()
        .map(|(_, body)| body.ttl)
        .max()
        .expect("records");

    // Let everything expire, take both BINDs down, and ask again: the HNS
    // and the resolver each answer from an expired entry.
    let longest = record_ttl.max(hns_repro::hns_core::META_TTL);
    tb.world
        .wait(SimDuration::from_ms(u64::from(longest) * 1000 + 1_000));
    let mut plan = FaultPlan::new();
    plan.crash(tb.hosts.meta, tb.world.now(), None);
    plan.crash(tb.public_bind.host, tb.world.now(), None);
    tb.world.set_faults(Some(plan));
    let (_, report) = hns.find_nsm_report(&qc, &name).expect("stale FindNSM");
    assert!(report.stale_served);
    resolver
        .resolve(&host, RType::A)
        .expect("stale resolver answer");

    let emitted: BTreeSet<(String, String)> = tb
        .world
        .metrics()
        .snapshot()
        .counters
        .into_iter()
        .filter(|c| COMPONENTS.contains(&c.component.as_str()))
        .map(|c| (c.component, c.name))
        .collect();

    // Rows of the table look like "| `component` | `published` | … |".
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/OBSERVABILITY.md"))
        .expect("OBSERVABILITY.md");
    let documented: BTreeSet<(String, String)> = doc
        .lines()
        .filter_map(|line| {
            let mut cells = line.split('|').map(|cell| cell.trim().trim_matches('`'));
            let (_, component, published) = (cells.next()?, cells.next()?, cells.next()?);
            let is_row = COMPONENTS.contains(&component) && !published.contains(' ');
            is_row.then(|| (component.to_string(), published.to_string()))
        })
        .collect();

    assert_eq!(
        emitted, documented,
        "OBSERVABILITY.md's Caches table and the emitted cache counters differ"
    );
    for component in COMPONENTS {
        assert!(
            emitted.iter().any(|(c, _)| c == component),
            "the scenario never touched {component}"
        );
    }
}

/// Every component and metric name the Metric names table of
/// OBSERVABILITY.md lists (its first two columns) is a string literal in
/// the non-test source under `crates/`: a renamed or deleted counter
/// leaves a row naming nothing, and fails here.
#[test]
fn metric_names_table_names_only_registered_metrics() {
    use std::path::Path;

    fn non_test_sources(dir: &Path, out: &mut String) {
        for entry in std::fs::read_dir(dir).expect("dir").flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "tests" && name != "target" {
                    non_test_sources(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("source");
                let end = text.find("#[cfg(test)]\nmod ").unwrap_or(text.len());
                out.push_str(&text[..end]);
            }
        }
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut source = String::new();
    non_test_sources(&root.join("crates"), &mut source);
    let doc = std::fs::read_to_string(root.join("OBSERVABILITY.md")).expect("OBSERVABILITY.md");
    let table = doc
        .split("## Metric names")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("a Metric names section");

    let mut checked = 0;
    let mut missing = Vec::new();
    for row in table.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.split('|').collect();
        for cell in &cells[1..3] {
            for name in cell.split('`').skip(1).step_by(2) {
                checked += 1;
                if !source.contains(&format!("\"{name}\"")) {
                    missing.push(name);
                }
            }
        }
    }
    assert!(checked >= 80, "only {checked} names read from the table");
    assert!(
        missing.is_empty(),
        "OBSERVABILITY.md's Metric names table lists names no code registers: {missing:?}"
    );
}

/// The reverse of the two table checks above: every metric the `traced`
/// and `chaos --seed 42` snapshots emit has a row in OBSERVABILITY.md —
/// its name in its component's row of the Metric names table, or, for a
/// cache, a row of the Caches table.
#[test]
fn every_metric_the_traced_and_chaos_runs_emit_has_a_row() {
    use hns_repro::hns_bench::experiments::{chaos, traced};
    use std::collections::BTreeSet;

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("OBSERVABILITY.md")).expect("OBSERVABILITY.md");
    let rows = |title: &str| -> Vec<Vec<String>> {
        let section = doc.split(title).nth(1).expect(title);
        let section = section.split("\n## ").next().unwrap_or(section);
        (section.lines())
            .filter(|line| line.starts_with("| `"))
            .map(|line| {
                line.split('|')
                    .map(|cell| cell.trim().to_string())
                    .collect()
            })
            .collect()
    };
    let mut documented = BTreeSet::new();
    for cells in rows("## Metric names") {
        let component = cells[1].trim_matches('`').to_string();
        for name in cells[2].split('`').skip(1).step_by(2) {
            documented.insert((component.clone(), name.to_string()));
        }
    }
    for cells in rows("## Caches") {
        documented.insert((
            cells[1].trim_matches('`').to_string(),
            cells[2].trim_matches('`').to_string(),
        ));
    }

    let traced = traced::run().snapshot;
    let chaos = chaos::run(&chaos::ChaosConfig::default()).snapshot;
    let mut emitted = BTreeSet::new();
    for snapshot in [traced, chaos] {
        let counters = snapshot.counters.into_iter().map(|c| (c.component, c.name));
        let histograms = snapshot
            .histograms
            .into_iter()
            .map(|h| (h.component, h.name));
        emitted.extend(counters.chain(histograms));
    }
    assert!(
        emitted.len() >= 40,
        "only {} metrics emitted",
        emitted.len()
    );
    let missing: Vec<_> = emitted.difference(&documented).collect();
    assert!(
        missing.is_empty(),
        "emitted, but OBSERVABILITY.md has no row for: {missing:?}"
    );
}
