//! The metric catalogue (the source `BENCHMARK.json` is generated from)
//! and how one run's measurements become named metrics.

use crate::counts::C;
use crate::probes::Probes;
use crate::runner::{median, midmean};
use crate::spans::{totals_by_kind, Kind, KindTotals, Span, KINDS};
use crate::workload::{peak_rss_mb, Measured, Workload};

/// Length of one measured run the driver asks for, seconds.
pub const RUN_SECONDS: u32 = 10;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the name service sees. Every workload reports all
/// four. The times are on the generator thread's on-CPU clock,
/// calibrated by the yardstick (`src/yardstick.rs`): what the wall clock
/// would show on the reference host with nothing else wanting the core.
/// `lat_mid_ns` is the time one operation takes inside the stack, the
/// mean over the middle half of the operations. The median, the 99th
/// percentile and the open-loop sojourn times do not repeat within any
/// bound the contract allows on this host and are per-layer metrics
/// (README, "Moved metrics").
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_mid_ns",
        unit: "ns",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub const WHY: [(Workload, &str); 5] = [
    (
        Workload::WarmQuery,
        "closed loop, 180k ops per run-second, Zipf(1.0) over 1024 contexts x 3 classes, all caches on: \
         Table 3.1 col C; cache probes and one NSM call are the work, servers only on TTL re-walks",
    ),
    (
        Workload::ColdWalk,
        "closed loop, 27k ops per run-second, same ops with every cache off: Table 3.1 col A; 8 remote \
         calls/op, so wire, hrpc, bindns and clearinghouse do the work and a cache change must not show",
    ),
    (
        Workload::WriteMix,
        "closed loop, 125k ops per run-second: 50% warm queries, 20% regd resolve+find_nsm, 30% regd \
         update/transfer; a read gain paid for in invalidation or writes shows here as a loss",
    ),
    (
        Workload::ScaleZipf,
        "closed loop, 135k ops per run-second on 10^6 names: 96% recursive queries Zipf(1.0), 4% updates, \
         preload every 50k; working set beyond any cache, the one where RSS and set-up dominate",
    ),
    (
        Workload::OpenMixed,
        "open loop, one thread, Poisson arrivals at fixed 30k/60k/90k ops/s (a third of the run each): \
         90% warm, 5% cache-off, 5% regd update; the one where waiting, not service time, sets latency",
    ),
];

/// `(name, unit)` of every per-layer metric, in print order. A unit
/// with a slash marks a trace metric that is zero on a workload that
/// never runs that layer; plain `ns` metrics are probes, taken afresh
/// in every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // hns-core
    ("hns-core.find_nsm.calls", "count"),
    ("hns-core.find_nsm.self_ns", "ns/call"),
    ("hns-core.find_nsm.total_ns", "ns/call"),
    ("hns-core.find_nsm.round_trips_per_call", "1/call"),
    ("hns-core.find_nsm.errors", "count"),
    ("hns-core.binding_cache.hit_ratio", "ratio"),
    ("hns-core.hns_cache.hit_ratio", "ratio"),
    ("hns-core.hns_cache.expired", "count"),
    ("hns-core.nsm_call.self_ns", "ns/call"),
    ("hns-core.preload.incremental_ns", "ns/call"),
    ("hns-core.preload.incremental_bytes", "B/call"),
    ("hns-core.binding_cache.lookup_hit_ns", "ns"),
    ("hns-core.binding_cache.insert_ns", "ns"),
    ("hns-core.hns_cache.lookup_hit_demarshalled_ns", "ns"),
    ("hns-core.hns_cache.lookup_hit_marshalled_ns", "ns"),
    ("hns-core.hns_cache.lookup_miss_ns", "ns"),
    ("hns-core.hns_cache.insert_ns", "ns"),
    ("hns-core.find_nsm.warm_composed_ns", "ns"),
    ("hns-core.find_nsm.warm_walk_ns", "ns"),
    ("hns-core.find_nsm.cold_seq_ns", "ns"),
    ("hns-core.find_nsm.cold_batched_ns", "ns"),
    ("hns-core.find_nsm.cold_seq.alloc_bytes", "B"),
    ("hns-core.find_nsm.warm_composed.alloc_bytes", "B"),
    // nsms
    ("nsms.import.calls", "count"),
    ("nsms.import.self_ns", "ns/call"),
    ("nsms.serve.calls_per_op", "1/op"),
    ("nsms.serve.self_ns", "ns/call"),
    ("nsms.nsm_cache.hit_ratio", "ratio"),
    ("nsms.query.errors", "count"),
    ("nsms.nsm_cache.get_hit_ns", "ns"),
    ("nsms.nsm_cache.insert_ns", "ns"),
    ("nsms.import.warm_ns", "ns"),
    // hrpc
    ("hrpc.remote_calls_per_op", "1/op"),
    ("hrpc.local_calls_per_op", "1/op"),
    ("hrpc.bytes_per_op", "B/op"),
    ("hrpc.call_echo_sun_ns", "ns"),
    ("hrpc.call_echo_courier_ns", "ns"),
    ("hrpc.call_echo_raw_ns", "ns"),
    ("hrpc.call_echo_local_ns", "ns"),
    ("hrpc.call_echo_sun.alloc_bytes", "B"),
    // wire
    ("wire.xdr.encode_ns", "ns"),
    ("wire.xdr.decode_ns", "ns"),
    ("wire.xdr.encoded_len_ns", "ns"),
    ("wire.courier.encode_ns", "ns"),
    ("wire.courier.decode_ns", "ns"),
    ("wire.fast.encode_ns", "ns"),
    ("wire.fast.decode_ns", "ns"),
    ("wire.generated.marshal_ns", "ns"),
    ("wire.generated.unmarshal_ns", "ns"),
    ("wire.xdr.decode.alloc_bytes", "B"),
    ("wire.generated.unmarshal.alloc_bytes", "B"),
    // bindns
    ("bindns.meta_serve.calls_per_op", "1/op"),
    ("bindns.meta_serve.self_ns", "ns/call"),
    ("bindns.public_serve.calls_per_op", "1/op"),
    ("bindns.public_serve.self_ns", "ns/call"),
    ("bindns.cell_serve.calls_per_op", "1/op"),
    ("bindns.cell_serve.self_ns", "ns/call"),
    ("bindns.update.calls", "count"),
    ("bindns.update.self_ns", "ns/call"),
    ("bindns.resolver_cache.hit_ratio", "ratio"),
    ("bindns.resolver_cache.entries", "count"),
    ("bindns.ttl_cache.get_hit_ns", "ns"),
    ("bindns.ttl_cache.get_miss_ns", "ns"),
    ("bindns.ttl_cache.insert_ns", "ns"),
    ("bindns.server.lookup_direct_ns", "ns"),
    ("bindns.resolver.query_cached_ns", "ns"),
    ("bindns.resolver.query_uncached_ns", "ns"),
    ("bindns.axfr.full_ns", "ns"),
    ("bindns.ixfr.incremental_ns", "ns"),
    // clearinghouse
    ("clearinghouse.serve.calls_per_op", "1/op"),
    ("clearinghouse.serve.self_ns", "ns/call"),
    ("clearinghouse.write.calls", "count"),
    ("clearinghouse.lookup_item_ns", "ns"),
    ("clearinghouse.set_item_ns", "ns"),
    // regd
    ("regd.resolve.self_ns", "ns/call"),
    ("regd.update.self_ns", "ns/call"),
    ("regd.transfer.self_ns", "ns/call"),
    ("regd.collapse_hit_ratio", "ratio"),
    ("regd.chain_walks", "count"),
    ("regd.write.errors", "count"),
    ("regd.resolve.depth1_ns", "ns"),
    ("regd.resolve.depth64_warm_ns", "ns"),
    ("regd.resolve.depth64_cold_ns", "ns"),
    // intern
    ("intern.strings", "count"),
    ("intern.resident_str_bytes", "B"),
    ("intern.intern_hit_ns", "ns"),
    ("intern.intern_new_ns", "ns"),
    ("intern.resolve_ns", "ns"),
    // simnet
    ("simnet.clock.charge_batched_ns", "ns"),
    ("simnet.clock.charge_unbatched_ns", "ns"),
    ("simnet.world.now_ns", "ns"),
    ("simnet.zone_resident_bytes_per_name", "B/name"),
    // obs
    ("obs.counter.inc_ns", "ns"),
    ("obs.local_histogram.record_ns", "ns"),
    // the benchmark's own
    ("gen.timer_overhead_ns", "ns"),
    ("gen.host_speed_factor", "ratio"),
    ("gen.late_start_ratio.lo", "ratio"),
    ("gen.late_start_ratio.mid", "ratio"),
    ("gen.late_start_ratio.hi", "ratio"),
    ("gen.backlog_max.lo", "count"),
    ("gen.backlog_max.mid", "count"),
    ("gen.backlog_max.hi", "count"),
    ("gen.slo_miss_ratio.lo", "ratio"),
    ("gen.slo_miss_ratio.mid", "ratio"),
    ("gen.slo_miss_ratio.hi", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("ledger.unexplained_share", "ratio"),
    // end-to-end in the issue, per-layer here (README: "Moved metrics")
    ("virt_ms_per_op", "virt_ms/op"),
    ("fail_ratio", "ratio"),
    ("lat_p50_ns", "ns/op"),
    ("lat_p99_ns", "ns/op"),
    ("sojourn_p50_ns.mid", "ns/op"),
    ("sojourn_p99_ns.lo", "ns/op"),
    ("sojourn_p99_ns.mid", "ns/op"),
    ("sojourn_p99_ns.hi", "ns/op"),
];

fn better(name: &str) -> &'static str {
    if name.ends_with("hit_ratio") || name == "trace.overhead_ratio" {
        "higher"
    } else {
        "lower"
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n");
    for (i, (w, why)) in WHY.iter().enumerate() {
        let sep = if i + 1 < WHY.len() { "," } else { "" };
        s += &format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name(),
            why
        );
    }
    s += "  ],\n  \"end_to_end\": [\n";
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s += &format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name, m.unit, m.better, m.bound
        );
    }
    s += "  ],\n  \"per_layer\": [\n";
    for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s += &format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{sep}\n",
            better(name)
        );
    }
    s += "  ]\n}\n";
    s
}

/// One named value ready to print.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics of one measured (untraced, full-length) run.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let w = &m.window;
    let slices: Vec<_> = w.slices.iter().map(|s| s.calibrated()).collect();
    let values = [
        // Open loop: goodput over the whole schedule, which the offered
        // rates set and the host's speed does not.
        if w.phases.is_empty() {
            midmean(slices.iter().map(|s| s.ops_per_s))
        } else {
            w.ops_per_s()
        },
        midmean(slices.iter().map(|s| s.mid_ns)),
        peak_rss_mb(),
        median(m.setups_s.iter().copied()),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| Metric {
            name: def.name,
            value,
            unit: def.unit,
        })
        .collect()
}

struct Layered {
    values: Vec<Option<f64>>,
}

impl Layered {
    fn set(&mut self, name: &str, value: f64) {
        let idx = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not in the per-layer catalogue"));
        assert!(
            self.values[idx].replace(value).is_none(),
            "`{name}` reported twice"
        );
    }
}

fn merged(a: KindTotals, b: KindTotals) -> KindTotals {
    KindTotals {
        calls: a.calls + b.calls,
        total_ns: a.total_ns + b.total_ns,
        self_ns: a.self_ns + b.self_ns,
    }
}

/// Server spans whose parent is not itself a server span: calls the
/// client made, as opposed to calls one server made to another (whose
/// fabric cost already sits in the calling server's self time).
fn client_made(spans: &[Span]) -> [u64; KINDS] {
    let mut out = [0u64; KINDS];
    for s in spans.iter().filter(|s| s.kind.is_server()) {
        let nested = spans
            .get(s.parent as usize)
            .is_some_and(|p| p.kind.is_server());
        if !nested {
            out[s.kind as usize] += 1;
        }
    }
    out
}

/// The per-layer metrics of one traced run: `probes` in isolation,
/// `plain` the workload at one-tenth length with tracing off, `traced`
/// the same with every server behind a shim and spans on.
pub fn per_layer(probes: &Probes, plain: &Measured, traced: &Measured) -> Vec<Metric> {
    let mut out = Layered {
        values: vec![None; PER_LAYER.len()],
    };
    for (name, value) in probes {
        out.set(name, *value);
    }
    let probe = |name: &str| {
        probes
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };

    let by = totals_by_kind(&traced.spans);
    let kind = |k: Kind| by[k as usize];
    let w = &traced.window;
    let c = &w.counts;
    let ops = w.ops.max(1) as f64;
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    out.set("hns-core.find_nsm.calls", c[C::FindNsmCalls] as f64);
    out.set(
        "hns-core.find_nsm.self_ns",
        kind(Kind::FindNsm).self_per_call(),
    );
    out.set(
        "hns-core.find_nsm.total_ns",
        kind(Kind::FindNsm).total_per_call(),
    );
    out.set(
        "hns-core.find_nsm.round_trips_per_call",
        per(c[C::FindNsmRoundTrips], c[C::FindNsmCalls]),
    );
    out.set("hns-core.find_nsm.errors", c[C::FindNsmErrors] as f64);
    out.set(
        "hns-core.binding_cache.hit_ratio",
        c.hit_ratio(C::BindingHits, &[C::BindingMisses, C::BindingExpired]),
    );
    out.set(
        "hns-core.hns_cache.hit_ratio",
        c.hit_ratio(C::HnsHits, &[C::HnsMisses, C::HnsExpired]),
    );
    out.set("hns-core.hns_cache.expired", c[C::HnsExpired] as f64);
    out.set(
        "hns-core.nsm_call.self_ns",
        kind(Kind::NsmCall).self_per_call(),
    );
    let preload = kind(Kind::Preload);
    out.set("hns-core.preload.incremental_ns", preload.total_per_call());
    out.set(
        "hns-core.preload.incremental_bytes",
        per(c[C::PreloadBytes], preload.calls),
    );

    out.set("nsms.import.calls", kind(Kind::Import).calls as f64);
    out.set("nsms.import.self_ns", kind(Kind::Import).self_per_call());
    out.set(
        "nsms.serve.calls_per_op",
        kind(Kind::NsmServe).calls as f64 / ops,
    );
    out.set("nsms.serve.self_ns", kind(Kind::NsmServe).self_per_call());
    out.set(
        "nsms.nsm_cache.hit_ratio",
        c.hit_ratio(C::NsmCacheHits, &[C::NsmCacheMisses]),
    );
    out.set("nsms.query.errors", c[C::QueryErrors] as f64);

    out.set("hrpc.remote_calls_per_op", c[C::RemoteCalls] as f64 / ops);
    out.set("hrpc.local_calls_per_op", c[C::LocalCalls] as f64 / ops);
    out.set("hrpc.bytes_per_op", c[C::BytesSent] as f64 / ops);

    for (prefix, k) in [
        ("bindns.meta_serve", Kind::MetaServe),
        ("bindns.public_serve", Kind::PublicServe),
        ("bindns.cell_serve", Kind::CellServe),
    ] {
        let t = kind(k);
        out.set(&format!("{prefix}.calls_per_op"), t.calls as f64 / ops);
        out.set(&format!("{prefix}.self_ns"), t.self_per_call());
    }
    out.set(
        "bindns.update.calls",
        kind(Kind::BindUpdateServe).calls as f64,
    );
    out.set(
        "bindns.update.self_ns",
        kind(Kind::BindUpdateServe).self_per_call(),
    );
    out.set(
        "bindns.resolver_cache.hit_ratio",
        c.hit_ratio(C::ResolverHits, &[C::ResolverMisses]),
    );
    // Every miss inserts an entry; an expired one is replaced in place.
    out.set(
        "bindns.resolver_cache.entries",
        (c[C::ResolverMisses] - c[C::ResolverExpirations]) as f64,
    );

    let ch = merged(kind(Kind::ChServe), kind(Kind::ChWriteServe));
    out.set("clearinghouse.serve.calls_per_op", ch.calls as f64 / ops);
    out.set("clearinghouse.serve.self_ns", ch.self_per_call());
    out.set(
        "clearinghouse.write.calls",
        kind(Kind::ChWriteServe).calls as f64,
    );

    out.set(
        "regd.resolve.self_ns",
        kind(Kind::RegResolve).self_per_call(),
    );
    out.set("regd.update.self_ns", kind(Kind::RegUpdate).self_per_call());
    out.set(
        "regd.transfer.self_ns",
        kind(Kind::RegTransfer).self_per_call(),
    );
    out.set(
        "regd.collapse_hit_ratio",
        per(c[C::RegCollapseHits], c[C::RegResolves]),
    );
    out.set("regd.chain_walks", c[C::RegChainWalks] as f64);
    out.set(
        "regd.write.errors",
        (c[C::RegWriteErrors] + c[C::RegWriteUnreachable]) as f64,
    );

    out.set("intern.strings", traced.gauges.intern_strings as f64);
    out.set(
        "intern.resident_str_bytes",
        traced.gauges.intern_resident_str_bytes as f64,
    );
    out.set(
        "simnet.zone_resident_bytes_per_name",
        traced.gauges.zone_resident_bytes_per_name,
    );

    // How the open-loop generator ran, from the untraced window.
    for label in ["lo", "mid", "hi"] {
        let phase = plain.window.phases.iter().find(|p| p.label == label);
        let share =
            |n: fn(&crate::runner::Phase) -> u64| phase.map_or(0.0, |p| per(n(p), p.scheduled));
        out.set(
            &format!("gen.late_start_ratio.{label}"),
            share(|p| p.late_starts),
        );
        out.set(
            &format!("gen.backlog_max.{label}"),
            phase.map_or(0.0, |p| p.backlog_max as f64),
        );
        out.set(
            &format!("gen.slo_miss_ratio.{label}"),
            share(|p| p.slo_misses),
        );
        out.set(
            &format!("sojourn_p99_ns.{label}"),
            phase.map_or(0.0, |p| p.p99_ns()),
        );
        if label == "mid" {
            out.set("sojourn_p50_ns.mid", phase.map_or(0.0, |p| p.p50_ns()));
        }
    }

    let untraced = &plain.window.slices;
    out.set(
        "gen.host_speed_factor",
        midmean(untraced.iter().map(|s| s.speed)),
    );
    out.set(
        "lat_p50_ns",
        midmean(untraced.iter().map(|s| s.calibrated().p50_ns)),
    );
    out.set(
        "lat_p99_ns",
        midmean(untraced.iter().map(|s| s.calibrated().p99_ns)),
    );
    out.set("virt_ms_per_op", c.virt_ms / ops);
    out.set(
        "fail_ratio",
        per(w.failed + plain.window.failed, w.ops + plain.window.ops),
    );
    out.set(
        "trace.overhead_ratio",
        plain.window.mean_service_ns() / w.mean_service_ns().max(1.0),
    );

    // The ledger: what share of a mean op the isolated costs explain.
    // Server time is measured (shim self times); client-side work is
    // modelled as probe cost x traced count.
    let server_self: u64 = by
        .iter()
        .enumerate()
        .filter(|(k, _)| *k >= Kind::MetaServe as usize)
        .map(|(_, t)| t.self_ns)
        .sum();
    let made = client_made(&traced.spans);
    let fabric: f64 = [
        (Kind::NsmServe, "hrpc.call_echo_sun_ns"),
        (Kind::MetaServe, "hrpc.call_echo_raw_ns"),
        (Kind::BindUpdateServe, "hrpc.call_echo_raw_ns"),
        (Kind::PublicServe, "hrpc.call_echo_raw_ns"),
        (Kind::CellServe, "hrpc.call_echo_raw_ns"),
        (Kind::ChServe, "hrpc.call_echo_courier_ns"),
        (Kind::ChWriteServe, "hrpc.call_echo_courier_ns"),
    ]
    .iter()
    .map(|(k, echo)| made[*k as usize] as f64 * probe(echo))
    .sum();
    let caches: f64 = [
        (C::BindingHits, "hns-core.binding_cache.lookup_hit_ns"),
        (C::BindingMisses, "hns-core.binding_cache.lookup_hit_ns"),
        (C::BindingExpired, "hns-core.binding_cache.lookup_hit_ns"),
        (C::BindingInserts, "hns-core.binding_cache.insert_ns"),
        (C::HnsHits, "hns-core.hns_cache.lookup_hit_demarshalled_ns"),
        (C::HnsMisses, "hns-core.hns_cache.lookup_miss_ns"),
        (C::HnsExpired, "hns-core.hns_cache.lookup_miss_ns"),
        (C::HnsInserts, "hns-core.hns_cache.insert_ns"),
        (C::ResolverHits, "bindns.ttl_cache.get_hit_ns"),
        (C::ResolverMisses, "bindns.ttl_cache.get_miss_ns"),
        (C::ResolverMisses, "bindns.ttl_cache.insert_ns"),
    ]
    .iter()
    .map(|(count, cost)| c[*count] as f64 * probe(cost))
    .sum();
    let explained_per_op = (server_self as f64 + fabric + caches) / ops;
    out.set(
        "ledger.unexplained_share",
        1.0 - explained_per_op / plain.window.mean_service_ns().max(1.0),
    );

    PER_LAYER
        .iter()
        .zip(out.values)
        .map(|((name, unit), value)| Metric {
            name,
            value: value.unwrap_or_else(|| panic!("`{name}` was never measured")),
            unit,
        })
        .collect()
}

/// The traced run's attribution of a mean op to span kinds, one line
/// per kind that ran: calls per op, self time per op and its share of
/// the traced op. The shares sum to one.
pub fn attribution(traced: &Measured) -> Vec<String> {
    const NAMES: [&str; KINDS] = [
        "generator.op",
        "hns-core.find_nsm",
        "hns-core.nsm_call",
        "nsms.import",
        "regd.resolve",
        "regd.update",
        "regd.transfer",
        "bindns.query",
        "bindns.update_client",
        "hns-core.preload",
        "bindns.meta_serve",
        "bindns.public_serve",
        "bindns.cell_serve",
        "bindns.update_serve",
        "clearinghouse.serve",
        "clearinghouse.write_serve",
        "nsms.serve",
        "target.serve",
    ];
    let by = totals_by_kind(&traced.spans);
    let ops = traced.window.ops.max(1) as f64;
    let root_ns = by[Kind::Op as usize].total_ns.max(1) as f64;
    NAMES
        .iter()
        .zip(by)
        .filter(|(_, t)| t.calls > 0)
        .map(|(name, t)| {
            format!(
                "{name} ({}) calls_per_op {:.4} self_ns_per_op {:.1} share {:.4}",
                if name.ends_with("serve") {
                    "server"
                } else {
                    "client"
                },
                t.calls as f64 / ops,
                t.self_ns as f64 / ops,
                t.self_ns as f64 / root_ns
            )
        })
        .collect()
}

/// A number as measured, with all its digits, in JSON's grammar.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The one-line result object the driver reads.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for n in names {
            assert!(ok_name(n), "{n}");
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|(_, u)| *u))
        {
            assert!(ok_unit(u), "{u}");
        }
        for (w, why) in WHY {
            assert!(
                ok_name(w.name()) && why.len() <= 200 && !why.contains('\n'),
                "{why}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            10,
            1,
            &[Metric {
                name: "lat_mid_ns",
                value: 1234.5678,
                unit: "ns",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"lat_mid_ns\": {\"value\": 1234.5678, \"unit\": \"ns\"}}}"
        );
    }
}
