//! E-L — the real-time load engine: open-loop (offered-load) arrivals
//! over sharded worker stacks.
//!
//! Everything else in this crate measures *virtual* time: one logical
//! thread walks the stack and the clock advances by calibrated costs.
//! This module runs the stack against the *wall* clock at a fixed
//! offered load, so what it reports is how the stack behaves when
//! arrivals do not wait for it: sojourn latency, dispatch lateness and
//! backlog, per fixed window, with faults ([`LoadConfig::faults`]) and
//! a write mix on request. How fast the stack can go — capacity — is
//! measured by `benchmark/` and nowhere else.
//!
//! # Sharded dispatch
//!
//! Each worker owns a complete private stack — its own simulated world
//! (clock, metrics, fault plan), public BIND, Clearinghouse, meta BIND,
//! NSMs, warm and cold HNS instances, importer, RNG, and latency
//! histogram. Nothing mutable is shared across threads on the measured
//! path. One per-worker switch is on, as in any fast configuration: the
//! **composed binding cache** (see `hns_core::binding_cache`), with
//! which a warm `FindNSM` collapses from six mapping probes with
//! re-parsing to one probe returning a `Copy` binding (or, once that
//! entry has lapsed, mapping 1 plus one probe for mappings 2–6).
//!
//! Per operation a worker draws a (context, query class) pair from the
//! Zipf sampler and issues, by configured mix: a **warm** `FindNSM`
//! (composed-cache path), a **cold** `FindNSM` against a cache-disabled
//! HNS (the full meta-walk-every-time path), or a full HRPC **bind**
//! (`Import` = `FindNSM` + a binding-NSM call).
//!
//! With `--write-frac` above zero the mix also drives the `regd`
//! registration frontend (E-R's write path): that fraction of
//! operations becomes Clearinghouse writes — ownership **transfers**
//! (`--transfer-frac` of the writes, each appending a signed chain
//! link, with a release + re-register reset before the owner pool
//! would force a cycle rejection) and re-bind **updates** (the rest).
//!
//! The arrival process, the clock and the overload signals are
//! [`open`]'s. Virtual-time numbers are unaffected by any of this:
//! concurrency changes how fast the simulation *executes*, never what
//! it *computes*.

pub mod open;
pub mod report;
pub mod zipf;

use std::sync::Arc;

use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::query::QueryClass;
use hns_core::service::Hns;
use hrpc::ProgramId;
use nsms::harness::{
    Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, NS_BIND, NS_CH, PRINT_SERVICE,
    PRINT_SERVICE_PROGRAM,
};
use nsms::import::Importer;
use nsms::nsm_cache::NsmCacheForm;
use parking_lot::Mutex;
use regd::harness::{owner_key, owner_name};
use regd::Registry;
use simnet::rng::DetRng;

use crate::cells::PlainTable;
pub use open::{OpenRunResult, OpenWindow};
use zipf::ZipfSampler;

/// Distinct departmental contexts in the universe (same shape as the
/// hit-ratio experiment: even ranks BIND-backed, odd Clearinghouse).
const CONTEXTS: usize = 12;

/// Names the write mix operates on, per worker.
const WRITE_NAMES: usize = 8;

/// Owner pool backing the write mix. Transfers step through the pool in
/// order and reset (release + re-register) before any revisit, so the
/// chain never trips the cycle rule.
const WRITE_OWNERS: usize = 12;

/// Load engine configuration (the `experiments -- loadgen` knobs).
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Zipf skew exponent over the context/class universe.
    pub zipf_s: f64,
    /// Fraction of operations issued cold (cache-disabled HNS).
    pub cold_frac: f64,
    /// Fraction of `hrpc_binding` operations that run a full `Import`.
    pub bind_frac: f64,
    /// Fraction of operations sent through the `regd` write path
    /// (0 disables the write mix entirely).
    pub write_frac: f64,
    /// Of the write operations, the fraction that are ownership
    /// transfers; the rest are re-bind updates.
    pub transfer_frac: f64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Crash the meta server for the whole measured run: cold operations
    /// fail fast with `HostUnreachable` while the pre-warmed paths keep
    /// serving, so throughput under faults is measurable.
    pub faults: bool,
    /// Offered-load levels (total QPS) to sweep, one run per entry.
    pub offered_qps: Vec<f64>,
    /// Worker threads for each run; the offered load is split evenly.
    pub open_threads: usize,
    /// Scheduled wall-clock duration of each run.
    pub open_duration_ms: u64,
    /// Window width for the per-window series (wall-clock
    /// milliseconds; operations bin by *scheduled* arrival).
    pub open_window_ms: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            zipf_s: 1.0,
            cold_frac: 0.05,
            bind_frac: 0.30,
            write_frac: 0.0,
            transfer_frac: 0.25,
            seed: 1987,
            faults: false,
            offered_qps: vec![50_000.0, 100_000.0, 200_000.0, 400_000.0],
            open_threads: 1,
            open_duration_ms: 500,
            open_window_ms: 100,
        }
    }
}

/// A full sweep plus its configuration.
#[derive(Debug)]
pub struct LoadReport {
    /// The configuration the sweep ran with.
    pub config: LoadConfig,
    /// Logical cores visible to this process (cgroup-limited
    /// `available_parallelism`, so a container reports its quota, not
    /// the physical machine).
    pub cores: usize,
    /// Operating system the run executed on.
    pub os: &'static str,
    /// CPU architecture the run executed on.
    pub arch: &'static str,
    /// One result per entry in `config.offered_qps`.
    pub open_runs: Vec<OpenRunResult>,
}

/// One sampled operation, precomputed at setup so the hot loop only
/// indexes and draws.
struct Op {
    qc: QueryClass,
    name: HnsName,
    /// `Some` for `hrpc_binding` pairs: the service to import.
    bind: Option<(&'static str, ProgramId)>,
}

/// One worker's private stack: its own simulated world, HNS instances,
/// importer, and operation universe. Nothing here is shared across
/// threads.
struct WorkerStack {
    tb: Testbed,
    warm: Arc<Hns>,
    cold: Arc<Hns>,
    importer: Importer,
    ops: Vec<Op>,
    /// Present only when the configured mix has writes.
    write: Option<WriteState>,
}

/// The worker's private slice of the `regd` write path: a registration
/// frontend over the shard's Clearinghouse plus the per-name holder
/// positions the transfer traffic advances.
struct WriteState {
    reg: Registry,
    names: Vec<String>,
    /// Current holder index (into the owner pool) per name. One thread
    /// owns each stack; the lock only satisfies the scoped-thread
    /// borrow, it is never contended.
    holders: Mutex<Vec<usize>>,
}

impl WriteState {
    /// Executes one write operation; returns (kind, failed) with kind
    /// indexing write=3 / transfer=4.
    fn run_write(&self, rng: &mut DetRng, config: &LoadConfig) -> (u8, bool) {
        let ni = rng.next_below(self.names.len() as u64) as usize;
        let name = &self.names[ni];
        let mut holders = self.holders.lock();
        let h = holders[ni];
        if rng.chance(config.transfer_frac) {
            let failed = if h + 1 < WRITE_OWNERS {
                let failed = self
                    .reg
                    .transfer(&owner_name(h), owner_key(h), name, &owner_name(h + 1), None)
                    .is_err();
                if !failed {
                    holders[ni] = h + 1;
                }
                failed
            } else {
                // The pool is exhausted: release and re-register, which
                // starts a fresh chain epoch the cycle rule accepts.
                let failed = self
                    .reg
                    .release(&owner_name(h), owner_key(h), name)
                    .is_err()
                    || self
                        .reg
                        .register(&owner_name(0), owner_key(0), name, NS_BIND)
                        .is_err();
                if !failed {
                    holders[ni] = 0;
                }
                failed
            };
            (4, failed)
        } else {
            let service = if rng.chance(0.5) { NS_CH } else { NS_BIND };
            (
                3,
                self.reg
                    .update(&owner_name(h), owner_key(h), name, service)
                    .is_err(),
            )
        }
    }
}

fn build_worker_stack(config: &LoadConfig) -> WorkerStack {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    tb.deploy_extension_nsms(tb.hosts.nsm);

    let registrar = tb.make_hns(tb.hosts.meta, CacheMode::Disabled);
    let classes = [
        QueryClass::hrpc_binding(),
        QueryClass::mailbox_location(),
        QueryClass::file_location(),
    ];
    let mut ops = Vec::new();
    for i in 0..CONTEXTS {
        let (ns, individual, bind) = if i % 2 == 0 {
            (
                NS_BIND,
                "fiji.cs.washington.edu",
                (DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM),
            )
        } else {
            (
                NS_CH,
                "printserver:cs:uw",
                (PRINT_SERVICE, PRINT_SERVICE_PROGRAM),
            )
        };
        let ctx = Context::new(format!(
            "dept{i}-{}",
            if i % 2 == 0 { "bind" } else { "ch" }
        ))
        .expect("ctx");
        registrar
            .register_context(&ctx, ns, &NameMapping::Identity)
            .expect("register");
        for (ci, qc) in classes.iter().enumerate() {
            ops.push(Op {
                qc: qc.clone(),
                name: HnsName::new(ctx.clone(), individual).expect("name"),
                // classes[0] is hrpc_binding — the importable pairs.
                bind: (ci == 0).then_some(bind),
            });
        }
    }

    let warm = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let cold = tb.make_hns(tb.hosts.client, CacheMode::Disabled);
    // The warm instance is the composed-cache throughput path; the
    // pre-warm walk below both fills its per-mapping cache and seeds
    // the composed entries.
    warm.set_binding_cache(true);

    // Pre-warm: one FindNSM per pair fills the warm caches; one Import
    // per binding pair warms the binding NSMs' own caches.
    let importer = Importer::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        HnsHandle::Linked(Arc::clone(&warm)),
    );
    for op in &ops {
        warm.find_nsm(&op.qc, &op.name).expect("pre-warm FindNSM");
        if let Some((service, program)) = op.bind {
            importer
                .import(service, program, &op.name)
                .expect("pre-warm Import");
        }
    }

    let write = (config.write_frac > 0.0).then(|| {
        let reg = Registry::new(
            Arc::clone(&tb.net),
            tb.hosts.client,
            tb.ch.binding,
            tb.creds.clone(),
            "cs",
            "uw",
        );
        for i in 0..WRITE_OWNERS {
            reg.register_owner(owner_name(i), owner_key(i));
        }
        let names: Vec<String> = (0..WRITE_NAMES).map(|i| format!("wsvc{i}")).collect();
        for name in &names {
            reg.register(&owner_name(0), owner_key(0), name, NS_BIND)
                .expect("register write name");
        }
        WriteState {
            reg,
            names,
            holders: Mutex::new(vec![0; WRITE_NAMES]),
        }
    });

    WorkerStack {
        tb,
        warm,
        cold,
        importer,
        ops,
        write,
    }
}

/// Builds one private stack per worker, optionally crashing each
/// shard's meta server for the measured run.
fn build_shards(threads: usize, config: &LoadConfig) -> Vec<WorkerStack> {
    (0..threads)
        .map(|_| {
            let stack = build_worker_stack(config);
            if config.faults {
                // Crash the meta server for the whole measured run (the
                // caches are already warm). Cold operations walk into
                // the crash and fail fast; warm and bind traffic keeps
                // flowing, answering from the caches — stale once their
                // TTL passes mid-run.
                let mut plan = simnet::faults::FaultPlan::new();
                plan.crash(stack.tb.hosts.meta, stack.tb.world.now(), None);
                stack.tb.world.set_faults(Some(plan));
            }
            stack
        })
        .collect()
}

impl WorkerStack {
    /// Executes one drawn operation; returns (kind, failed) where kind
    /// indexes warm=0 / cold=1 / bind=2 / write=3 / transfer=4.
    fn run_op(&self, rng: &mut DetRng, sampler: &ZipfSampler, config: &LoadConfig) -> (u8, bool) {
        if let Some(write) = &self.write {
            if rng.chance(config.write_frac) {
                return write.run_write(rng, config);
            }
        }
        let op = &self.ops[sampler.sample(rng)];
        let cold = rng.chance(config.cold_frac);
        let bind = !cold && op.bind.is_some() && rng.chance(config.bind_frac);
        if cold {
            (1, self.cold.find_nsm(&op.qc, &op.name).is_err())
        } else if bind {
            let (service, program) = op.bind.expect("bind op");
            (2, self.importer.import(service, program, &op.name).is_err())
        } else {
            (0, self.warm.find_nsm(&op.qc, &op.name).is_err())
        }
    }
}

/// Runs the sweep: one open-loop run per offered-load level.
pub fn run(config: &LoadConfig) -> LoadReport {
    let open_runs = config
        .offered_qps
        .iter()
        .map(|&q| open::run_open(config, q))
        .collect();
    LoadReport {
        config: config.clone(),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        os: std::env::consts::OS,
        arch: std::env::consts::ARCH,
        open_runs,
    }
}

impl LoadReport {
    /// Renders the sweep: one row per offered-load level, then each
    /// level's per-window overload shape.
    pub fn render(&self) -> String {
        let mut table = PlainTable::new(
            format!(
                "E-L — open-loop offered load: Poisson arrivals over {} \
                 thread(s), {} ms per level; Zipf(s={}) over {} pairs, \
                 {:.0}% cold / {:.0}% bind / {:.0}% write ({} cores)",
                self.config.open_threads,
                self.config.open_duration_ms,
                self.config.zipf_s,
                CONTEXTS * 3,
                self.config.cold_frac * 100.0,
                self.config.bind_frac * 100.0,
                self.config.write_frac * 100.0,
                self.cores,
            ),
            vec![
                "offered QPS",
                "achieved QPS",
                "ops",
                "errors",
                "writes",
                "transfers",
                "p50 (ns)",
                "p99 (ns)",
                "late ops",
                "max backlog",
            ],
        );
        for r in &self.open_runs {
            table.push_row(vec![
                format!("{:.0}", r.offered_qps),
                format!("{:.0}", r.achieved_qps),
                r.ops.to_string(),
                r.errors.to_string(),
                r.write_ops.to_string(),
                r.transfer_ops.to_string(),
                r.latency_ns.p50.to_string(),
                r.latency_ns.p99.to_string(),
                r.late_ops.to_string(),
                r.backlog_max.to_string(),
            ]);
        }
        let mut out = table.render();
        // Per-window overload shape: backlog and mean lateness over the
        // scheduled horizon, one sparkline pair per level.
        for r in &self.open_runs {
            let backlog: Vec<f64> = r.windows.iter().map(|w| w.backlog_max as f64).collect();
            let lateness: Vec<f64> = r.windows.iter().map(|w| w.lateness_mean_ns()).collect();
            out.push_str(&format!(
                "  {:>7.0} QPS windows ({} ms): backlog |{}| max={}  \
                 lateness |{}| mean max={:.0} ns\n",
                r.offered_qps,
                r.window_ms,
                hns_core::obs::timeline::sparkline(&backlog),
                r.backlog_max,
                hns_core::obs::timeline::sparkline(&lateness),
                lateness.iter().cloned().fold(0.0f64, f64::max),
            ));
        }
        out
    }

    /// The `hns-load-v3` JSON document for this sweep.
    pub fn to_json(&self) -> String {
        report::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One low-rate level on two threads: far below capacity, so the
    /// assertions are about accounting, not about the host's speed.
    fn low_rate(config: LoadConfig) -> (LoadReport, OpenRunResult) {
        let rep = run(&LoadConfig {
            offered_qps: vec![2_000.0],
            open_threads: 2,
            open_duration_ms: 150,
            ..config
        });
        crate::export::check(&rep.to_json()).expect("export validates");
        assert_eq!(rep.open_runs.len(), 1);
        let r = rep.open_runs[0].clone();
        assert_eq!(r.warm_ops + r.cold_ops + r.bind_ops + r.write_ops, r.ops);
        assert_eq!(r.ops, r.scheduled, "every scheduled arrival completed");
        assert_eq!(
            r.latency_ns.count, r.ops,
            "merged worker histograms account for every op"
        );
        (rep, r)
    }

    #[test]
    fn smoke_two_threads_accounting_is_exact() {
        let (rep, r) = low_rate(LoadConfig::default());
        assert_eq!(r.threads, 2);
        assert!(r.ops > 0, "Poisson schedule generated arrivals");
        assert_eq!(r.errors, 0, "no operation fails on the testbed");
        assert_eq!(r.write_ops, 0, "write mix is off by default");
        assert!(r.wall_secs > 0.0 && r.achieved_qps > 0.0);
        assert!(r.warm_ops > 0, "warm path dominates the mix");
        assert!(r.latency_ns.p50 > 0, "ns resolution: no op takes 0");
        let rendered = rep.render();
        assert!(rendered.contains("offered QPS"), "{rendered}");
    }

    #[test]
    fn faults_fail_the_cold_path_and_only_the_cold_path() {
        let (_, r) = low_rate(LoadConfig {
            faults: true,
            ..LoadConfig::default()
        });
        assert_eq!(
            r.errors, r.cold_ops,
            "with the meta server crashed, exactly the cold operations fail"
        );
        assert!(r.cold_ops > 0, "the mix must exercise the cold path");
        assert!(r.warm_ops > 0);
    }

    #[test]
    fn write_mix_drives_the_registration_frontend() {
        let (rep, r) = low_rate(LoadConfig {
            write_frac: 0.4,
            transfer_frac: 0.5,
            ..LoadConfig::default()
        });
        assert_eq!(r.errors, 0, "no write fails on the healthy testbed");
        assert!(r.write_ops > 0, "the mix must exercise the write path");
        assert!(r.transfer_ops > 0, "the mix must exercise transfers");
        assert!(r.transfer_ops < r.write_ops, "updates ride along too");
        let rendered = rep.render();
        assert!(rendered.contains("transfers"), "{rendered}");
    }

    #[test]
    fn every_offered_level_produces_a_run() {
        let config = LoadConfig {
            offered_qps: vec![500.0, 2_000.0],
            open_threads: 2,
            open_duration_ms: 120,
            ..LoadConfig::default()
        };
        let rep = run(&config);
        assert_eq!(rep.open_runs.len(), 2);
        for (r, &offered) in rep.open_runs.iter().zip(&config.offered_qps) {
            assert_eq!(r.offered_qps, offered);
            assert!(r.scheduled > 0, "Poisson schedule generated arrivals");
            assert_eq!(r.ops, r.scheduled);
            assert_eq!(r.errors, 0);
        }
        crate::export::check(&rep.to_json()).expect("export validates");
    }
}
