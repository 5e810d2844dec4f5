//! E-S — the million-name scale-out experiment.
//!
//! Builds cell-sharded worlds ([`crate::scenario::build_cell_world`])
//! at growing name counts and measures, per scale point:
//!
//! - **QPS** — virtual-time queries per second through a recursive
//!   resolver chasing the root's zone-delegation referrals into the
//!   per-cell meta servers, over a seeded hot/cold name sample.
//! - **resident bytes per name** — what the compact zone store
//!   (interned owner keys, `Arc`-shared record bodies) actually holds,
//!   against the naive per-record-copy accounting a `String`-keyed
//!   store would pay.
//! - **cache hit ratio** — the resolver's TTL cache over the sample.
//! - **preload bytes shipped** — a cold client's full AXFR of one
//!   cell's meta zone versus the IXFR-style incremental preload the
//!   same (now warm) client performs after a handful of meta updates.
//!
//! Everything runs in virtual time under a seeded plan, so the
//! rendered report and the `hns-scale-v1` JSON export are
//! byte-identical across runs with the same configuration.

use std::sync::Arc;

use bindns::name::DomainName;
use bindns::rr::{RType, ResourceRecord};
use bindns::update::UpdateOp;
use bindns::{HrpcResolver, RecursiveResolver};
use hns_core::cache::CacheMode;
use hns_core::service::Hns;
use hns_core::PreloadMode;
use simnet::rng::DetRng;

use crate::cells::CellPlan;
use crate::scenario::{build_cell_world, cell_name, cell_origin};

/// Workload shape for `experiments scale`.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Name counts to sweep, in order.
    pub names: Vec<usize>,
    /// Queries issued per scale point.
    pub queries: usize,
    /// Distinct names drawn into the query sample.
    pub sample: usize,
    /// Hot subset of the sample that takes 70% of the queries.
    pub hot: usize,
    /// Meta updates applied between the full and incremental preloads.
    pub updates: usize,
    /// Seed for world payloads and the query sample.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            names: vec![10_000, 100_000, 1_000_000],
            queries: 4096,
            sample: 512,
            hot: 64,
            updates: 16,
            seed: 1987,
        }
    }
}

/// What one cold-then-warm preload pair against a cell's meta server
/// shipped.
#[derive(Debug, Clone, Copy)]
pub struct PreloadPair {
    /// Bytes the cold client's full AXFR shipped.
    pub full_bytes: usize,
    /// Records in the full transfer.
    pub full_records: usize,
    /// Zone serial after the full transfer.
    pub full_serial: u32,
    /// Meta updates applied before the second preload.
    pub updates: usize,
    /// Bytes the warm client's incremental preload shipped.
    pub incremental_bytes: usize,
    /// Records the incremental preload re-seeded.
    pub incremental_records: usize,
    /// Zone serial after the incremental transfer.
    pub incremental_serial: u32,
    /// Mode the warm preload ran in (must be `Incremental`).
    pub incremental_mode: PreloadMode,
}

/// Measurements at one name count.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Registered names in this world.
    pub names: usize,
    /// Administrative cells (per-cell meta servers).
    pub cells: usize,
    /// Context directories across the delegation tree.
    pub contexts: usize,
    /// Total resource records (names + contexts + NSM maps + glue).
    pub records: usize,
    /// Bytes resident in the compact zone stores.
    pub resident_bytes: usize,
    /// Bytes under naive per-record-copy accounting.
    pub naive_bytes: usize,
    /// Queries issued.
    pub queries: usize,
    /// Virtual seconds the query phase took.
    pub virtual_secs: f64,
    /// Queries per virtual second.
    pub qps: f64,
    /// Resolver cache hits over the query phase.
    pub cache_hits: u64,
    /// Resolver cache misses over the query phase.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`.
    pub hit_ratio: f64,
    /// The cold/warm preload comparison against cell 0.
    pub preload: PreloadPair,
}

impl ScalePoint {
    /// Resident bytes per registered name.
    pub fn resident_per_name(&self) -> f64 {
        self.resident_bytes as f64 / self.names as f64
    }

    /// Naive bytes per registered name.
    pub fn naive_per_name(&self) -> f64 {
        self.naive_bytes as f64 / self.names as f64
    }
}

/// The full scale sweep.
#[derive(Debug, Clone)]
pub struct ScaleRun {
    /// The workload it ran with.
    pub config: ScaleConfig,
    /// One point per configured name count, in order.
    pub points: Vec<ScalePoint>,
}

/// Runs the query phase: a seeded hot/cold sample resolved through the
/// delegation tree, measured in virtual time.
fn query_phase(
    cw: &crate::scenario::CellWorld,
    config: &ScaleConfig,
    rng: &mut DetRng,
) -> (f64, u64, u64) {
    let resolver = RecursiveResolver::new(Arc::clone(&cw.net), cw.client, cw.root.std_binding);
    let sample: Vec<DomainName> = (0..config.sample)
        .map(|_| {
            let (cell, index) = cw
                .plan
                .locate(rng.next_below(cw.plan.names as u64) as usize);
            cell_name(cell, index)
        })
        .collect();
    let hot = config.hot.min(sample.len());
    let (_, took, _) = cw.world.measure(|| {
        for _ in 0..config.queries {
            let name = if rng.chance(0.7) {
                &sample[rng.next_below(hot as u64) as usize]
            } else {
                &sample[rng.next_below(sample.len() as u64) as usize]
            };
            resolver.query(name, RType::Unspec).expect("scale query");
        }
    });
    let stats = resolver.cache_stats();
    (took.as_ms_f64() / 1000.0, stats.hits, stats.misses)
}

/// Runs the preload phase against cell 0: cold full AXFR, a few meta
/// updates, then the warm client's incremental preload.
fn preload_phase(
    cw: &crate::scenario::CellWorld,
    config: &ScaleConfig,
    rng: &mut DetRng,
) -> PreloadPair {
    let hns = Hns::new(
        Arc::clone(&cw.net),
        cw.client,
        cw.cells[0].hrpc_binding,
        cell_origin(0),
        CacheMode::Demarshalled,
    );
    let full = hns.preload().expect("cold preload");
    assert_eq!(full.mode, PreloadMode::Full, "cold client transfers fully");

    let updater = HrpcResolver::new(Arc::clone(&cw.net), cw.client, cw.cells[0].hrpc_binding);
    let cell0_names = cw.plan.names_in_cell(0);
    for u in 0..config.updates {
        let name = cell_name(0, rng.next_below(cell0_names as u64) as usize);
        updater
            .update(&UpdateOp::Replace {
                name: name.clone(),
                rtype: RType::Unspec,
                records: vec![ResourceRecord::unspec(
                    name,
                    600,
                    format!("rebound=generation-{u}").into_bytes(),
                )],
            })
            .expect("meta update");
    }
    let incr = hns.preload().expect("warm preload");

    PreloadPair {
        full_bytes: full.bytes,
        full_records: full.records,
        full_serial: full.serial,
        updates: config.updates,
        incremental_bytes: incr.bytes,
        incremental_records: incr.records,
        incremental_serial: incr.serial,
        incremental_mode: incr.mode,
    }
}

/// Runs the scale sweep.
pub fn run(config: &ScaleConfig) -> ScaleRun {
    let mut master = DetRng::new(config.seed);
    let mut points = Vec::with_capacity(config.names.len());
    for &names in &config.names {
        let mut rng = master.fork();
        let plan = CellPlan::for_names(names);
        let cw = build_cell_world(&plan, rng.next_u64());

        let resident_bytes = cw.resident_bytes();
        let naive_bytes = cw.naive_bytes();
        let metrics = cw.world.metrics();
        metrics.set_counter("zone_store", "resident_bytes", resident_bytes as u64);
        metrics.set_counter("zone_store", "naive_bytes", naive_bytes as u64);
        metrics.set_counter("interner", "strings", intern::global().len() as u64);
        metrics.set_counter(
            "interner",
            "resident_str_bytes",
            intern::global().resident_str_bytes() as u64,
        );

        let (virtual_secs, cache_hits, cache_misses) = query_phase(&cw, config, &mut rng);
        let preload = preload_phase(&cw, config, &mut rng);

        points.push(ScalePoint {
            names,
            cells: plan.cells,
            contexts: plan.total_contexts(),
            records: cw.records,
            resident_bytes,
            naive_bytes,
            queries: config.queries,
            virtual_secs,
            qps: config.queries as f64 / virtual_secs,
            cache_hits,
            cache_misses,
            hit_ratio: cache_hits as f64 / (cache_hits + cache_misses) as f64,
            preload,
        });
    }
    ScaleRun {
        config: config.clone(),
        points,
    }
}

impl ScaleRun {
    /// Human-readable report: one row per scale point plus the preload
    /// comparison.
    pub fn render(&self) -> String {
        let c = &self.config;
        let mut table = crate::cells::PlainTable::new(
            format!(
                "E-S — scale: names={:?} queries={} sample={} hot={} updates={} seed={}",
                c.names, c.queries, c.sample, c.hot, c.updates, c.seed
            ),
            vec![
                "names",
                "cells",
                "contexts",
                "records",
                "resident B/name",
                "naive B/name",
                "qps",
                "hit ratio",
                "preload full B",
                "preload incr B",
            ],
        );
        for p in &self.points {
            table.push_row(vec![
                p.names.to_string(),
                p.cells.to_string(),
                p.contexts.to_string(),
                p.records.to_string(),
                format!("{:.1}", p.resident_per_name()),
                format!("{:.1}", p.naive_per_name()),
                format!("{:.1}", p.qps),
                format!("{:.3}", p.hit_ratio),
                p.preload.full_bytes.to_string(),
                p.preload.incremental_bytes.to_string(),
            ]);
        }
        let mut out = table.render();
        for p in &self.points {
            out.push_str(&format!(
                "{} names: compact store holds {:.1} B/name vs {:.1} naive ({:.1}x); \
                 warm preload shipped {} B vs {} full after {} updates\n",
                p.names,
                p.resident_per_name(),
                p.naive_per_name(),
                p.naive_per_name() / p.resident_per_name(),
                p.preload.incremental_bytes,
                p.preload.full_bytes,
                p.preload.updates,
            ));
        }
        out
    }

    /// The `hns-scale-v1` JSON document for this run.
    pub fn to_json(&self) -> String {
        use hns_core::obs::json::number;
        let c = &self.config;
        let names: Vec<String> = c.names.iter().map(usize::to_string).collect();
        let mut out = format!(
            "{{\"schema\": \"hns-scale-v1\", \"config\": {{\"names\": [{}], \
             \"queries\": {}, \"sample\": {}, \"hot\": {}, \"updates\": {}, \
             \"seed\": {}}}, \"points\": [",
            names.join(", "),
            c.queries,
            c.sample,
            c.hot,
            c.updates,
            c.seed
        );
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let pre = &p.preload;
            out.push_str(&format!(
                "{{\"names\": {}, \"cells\": {}, \"contexts\": {}, \"records\": {}, \
                 \"resident_bytes\": {}, \"naive_bytes\": {}, \
                 \"resident_bytes_per_name\": {}, \"naive_bytes_per_name\": {}, \
                 \"queries\": {}, \"virtual_secs\": {}, \"qps\": {}, \
                 \"cache_hits\": {}, \"cache_misses\": {}, \"hit_ratio\": {}, \
                 \"preload\": {{\"full_bytes\": {}, \"full_records\": {}, \
                 \"full_serial\": {}, \"updates\": {}, \"incremental_bytes\": {}, \
                 \"incremental_records\": {}, \"incremental_serial\": {}, \
                 \"incremental_mode\": \"{}\"}}}}",
                p.names,
                p.cells,
                p.contexts,
                p.records,
                p.resident_bytes,
                p.naive_bytes,
                number(p.resident_per_name()),
                number(p.naive_per_name()),
                p.queries,
                number(p.virtual_secs),
                number(p.qps),
                p.cache_hits,
                p.cache_misses,
                number(p.hit_ratio),
                pre.full_bytes,
                pre.full_records,
                pre.full_serial,
                pre.updates,
                pre.incremental_bytes,
                pre.incremental_records,
                pre.incremental_serial,
                match pre.incremental_mode {
                    PreloadMode::Full => "full",
                    PreloadMode::Incremental => "incremental",
                    PreloadMode::Unchanged => "unchanged",
                },
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScaleConfig {
        ScaleConfig {
            names: vec![2000, 10_000],
            queries: 512,
            sample: 128,
            hot: 16,
            updates: 8,
            seed: 1987,
        }
    }

    #[test]
    fn small_sweep_reports_the_scale_out_claims() {
        let run = run(&small());
        assert_eq!(run.points.len(), 2);
        for p in &run.points {
            assert!(
                p.resident_per_name() < p.naive_per_name() / 2.0,
                "compact store should at least halve {} vs {}",
                p.resident_per_name(),
                p.naive_per_name()
            );
            assert!(p.qps > 0.0);
            assert!(p.hit_ratio > 0.5, "hot sample must hit: {}", p.hit_ratio);
            assert_eq!(p.preload.incremental_mode, PreloadMode::Incremental);
            assert!(p.preload.incremental_bytes < p.preload.full_bytes);
            assert!(p.preload.incremental_serial > p.preload.full_serial);
        }
        // More names, more cells — and the per-name cost stays flat-ish
        // instead of growing with the world.
        assert!(run.points[1].cells >= run.points[0].cells);
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let config = small();
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&small());
        let b = run(&ScaleConfig { seed: 7, ..small() });
        assert_ne!(a.to_json(), b.to_json());
    }
}
