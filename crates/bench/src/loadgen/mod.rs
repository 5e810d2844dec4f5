//! E-L — the real-time load engine: sharded closed-loop dispatch plus
//! an open-loop (offered-load) arrival mode.
//!
//! Everything else in this crate measures *virtual* time: one logical
//! thread walks the stack and the clock advances by calibrated costs.
//! This module measures the other axis — how many operations per second
//! of *wall-clock* time the reproduction's stack sustains when many
//! client threads drive it concurrently — which is what the hot-path
//! contention work (sharded TTL cache, striped clock, snapshot-read
//! tables, composed binding cache, batched virtual-time charging)
//! exists to improve.
//!
//! # Sharded dispatch
//!
//! Each worker owns a complete private stack — its own simulated world
//! (clock, metrics, fault plan), public BIND, Clearinghouse, meta BIND,
//! NSMs, warm and cold HNS instances, importer, RNG, and latency
//! histogram. Nothing mutable is shared across threads on the measured
//! path, so the engine scales with cores instead of serializing on a
//! shared clock and registry. Two per-worker switches buy the warm-path
//! throughput:
//!
//! * the **composed binding cache** (see `hns_core::binding_cache`): a
//!   warm `FindNSM` collapses from six mapping probes with re-parsing
//!   to one probe returning a `Copy` binding (or, once that entry has
//!   lapsed, mapping 1 plus one probe for mappings 2–6), and
//! * **batched virtual-time charging** (`VirtualClock::set_batched`):
//!   cost charges accumulate thread-locally and flush on read, so hot
//!   loops skip shared-cache-line traffic.
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
//! # Closed vs. open loop
//!
//! Closed-loop runs issue the next operation the moment the previous
//! one returns: they measure *capacity* but, under overload, latency is
//! bounded by the loop itself (coordinated omission). Open-loop runs
//! ([`open`]) draw Poisson arrival schedules at a configured offered
//! QPS and charge each operation's latency from its *scheduled* arrival
//! (sojourn time), so queueing delay under overload is visible, along
//! with lateness and backlog accounting.
//!
//! Virtual-time numbers are unaffected by any of this: concurrency
//! changes how fast the simulation *executes*, never what it
//! *computes*.

pub mod open;
pub mod report;
pub mod zipf;

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use hns_core::binding_cache::BindingCacheStats;
use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::obs::metrics::HistogramStats;
use hns_core::obs::LocalHistogram;
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
    /// Thread counts to sweep, one closed-loop run per entry.
    pub threads: Vec<usize>,
    /// Closed-loop operations per thread per run.
    pub ops_per_thread: u64,
    /// Optional wall-clock cap per closed-loop run; whichever of
    /// ops/duration is reached first ends a thread's loop.
    pub duration_ms: Option<u64>,
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
    /// Offered-load levels (total QPS) to sweep open-loop, one run per
    /// entry. Empty = closed-loop only.
    pub offered_qps: Vec<f64>,
    /// Worker threads for each open-loop run.
    pub open_threads: usize,
    /// Wall-clock duration of each open-loop run.
    pub open_duration_ms: u64,
    /// Window width for the open-loop per-window series (wall-clock
    /// milliseconds; operations bin by *scheduled* arrival).
    pub open_window_ms: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            threads: vec![1, 2, 4, 8],
            ops_per_thread: 2_000,
            duration_ms: None,
            zipf_s: 1.0,
            cold_frac: 0.05,
            bind_frac: 0.30,
            write_frac: 0.0,
            transfer_frac: 0.25,
            seed: 1987,
            faults: false,
            offered_qps: Vec::new(),
            open_threads: 4,
            open_duration_ms: 500,
            open_window_ms: 100,
        }
    }
}

/// Result of one closed-loop run (one thread count).
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Client threads driven.
    pub threads: usize,
    /// Operations completed across all threads.
    pub ops: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Warm `FindNSM` operations.
    pub warm_ops: u64,
    /// Cold `FindNSM` operations.
    pub cold_ops: u64,
    /// Full `Import` operations.
    pub bind_ops: u64,
    /// `regd` write operations (re-bind updates plus transfers).
    pub write_ops: u64,
    /// Ownership transfers (a subset of `write_ops`).
    pub transfer_ops: u64,
    /// Wall-clock seconds from barrier release to last worker done.
    pub wall_secs: f64,
    /// Operations per wall-clock second.
    pub qps: f64,
    /// Real per-operation latency distribution (microseconds), merged
    /// exactly from the per-worker histograms.
    pub latency_us: HistogramStats,
    /// Warm-instance per-mapping cache hits over the measured run,
    /// summed across workers. With the composed binding cache enabled
    /// the warm path only reaches this cache when a composed entry has
    /// expired — for mapping 1 alone unless the (query class, name
    /// service) entry has lapsed too — so small numbers here are
    /// expected. Cold operations run
    /// a deliberately cache-disabled instance and are *not* counted as
    /// misses anywhere — see `cold_ops` for their volume.
    pub hns_hits: u64,
    /// Warm-instance per-mapping cache misses (see `hns_hits`).
    pub hns_misses: u64,
    /// Warm-instance per-mapping cache TTL expirations.
    pub hns_expired: u64,
    /// Composed binding-cache hits across workers (the warm fast path).
    pub binding_hits: u64,
    /// Composed binding-cache misses across workers.
    pub binding_misses: u64,
    /// Composed binding-cache entries inserted across workers.
    pub binding_inserts: u64,
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
    /// One closed-loop result per entry in `config.threads`.
    pub runs: Vec<RunResult>,
    /// One open-loop result per entry in `config.offered_qps`.
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

/// What one worker hands back after its run.
struct WorkerOut {
    ops: u64,
    errors: u64,
    warm_ops: u64,
    cold_ops: u64,
    bind_ops: u64,
    write_ops: u64,
    transfer_ops: u64,
    latency: LocalHistogram,
    hns_hits: u64,
    hns_misses: u64,
    hns_expired: u64,
    binding: BindingCacheStats,
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
/// shard's meta server, and switches each world to batched charging for
/// the measured run.
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
            stack.tb.world.clock.set_batched(true);
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

    /// Snapshot of the warm instance's cache counters.
    fn warm_stats(&self) -> (u64, u64, u64) {
        let s = self.warm.cache_stats();
        (s.hits, s.misses, s.expired)
    }
}

/// Runs one closed-loop thread count, one private stack per worker.
fn run_once(config: &LoadConfig, threads: usize) -> RunResult {
    let sampler = ZipfSampler::new(CONTEXTS * 3, config.zipf_s);
    let stacks = build_shards(threads, config);
    let barrier = Barrier::new(threads + 1);
    let mut master = DetRng::new(config.seed ^ ((threads as u64) << 32));
    let ops_per_thread = config.ops_per_thread;
    let duration_ms = config.duration_ms;

    // Workers spawn and park on the barrier, which releases the moment
    // the main thread (the final waiter) arrives — so the timestamp
    // taken just *before* main waits marks the release to within the
    // barrier's own overhead. (Stamping after `wait` returns is racy:
    // on a loaded machine the workers can drain the whole run before
    // main is rescheduled.) `scope` returning means every worker has
    // finished, so `started.elapsed()` is the run's wall time.
    let mut started = Instant::now();
    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = stacks
            .iter()
            .map(|stack| {
                let mut rng = master.fork();
                let sampler = &sampler;
                let barrier = &barrier;
                scope.spawn(move || {
                    let warm0 = stack.warm_stats();
                    barrier.wait();
                    let deadline = duration_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
                    let mut latency = LocalHistogram::new();
                    let mut counts = [0u64; 5];
                    let mut errors = 0u64;
                    for _ in 0..ops_per_thread {
                        if let Some(deadline) = deadline {
                            if Instant::now() >= deadline {
                                break;
                            }
                        }
                        let t0 = Instant::now();
                        let (kind, failed) = stack.run_op(&mut rng, sampler, config);
                        latency.record(t0.elapsed().as_micros() as u64);
                        counts[kind as usize] += 1;
                        errors += u64::from(failed);
                    }
                    // Batched charges would die with this thread
                    // otherwise; flush so post-run stat reads see them.
                    stack.tb.world.clock.flush_local();
                    let warm1 = stack.warm_stats();
                    WorkerOut {
                        ops: counts.iter().sum(),
                        errors,
                        warm_ops: counts[0],
                        cold_ops: counts[1],
                        bind_ops: counts[2],
                        write_ops: counts[3] + counts[4],
                        transfer_ops: counts[4],
                        latency,
                        hns_hits: warm1.0 - warm0.0,
                        hns_misses: warm1.1 - warm0.1,
                        hns_expired: warm1.2 - warm0.2,
                        binding: stack.warm.binding_cache_stats(),
                    }
                })
            })
            .collect();
        started = Instant::now();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let wall_secs = started.elapsed().as_secs_f64();

    let mut latency = LocalHistogram::new();
    let mut r = RunResult {
        threads,
        ops: 0,
        errors: 0,
        warm_ops: 0,
        cold_ops: 0,
        bind_ops: 0,
        write_ops: 0,
        transfer_ops: 0,
        wall_secs,
        qps: 0.0,
        latency_us: HistogramStats::default(),
        hns_hits: 0,
        hns_misses: 0,
        hns_expired: 0,
        binding_hits: 0,
        binding_misses: 0,
        binding_inserts: 0,
    };
    for out in &outs {
        r.ops += out.ops;
        r.errors += out.errors;
        r.warm_ops += out.warm_ops;
        r.cold_ops += out.cold_ops;
        r.bind_ops += out.bind_ops;
        r.write_ops += out.write_ops;
        r.transfer_ops += out.transfer_ops;
        r.hns_hits += out.hns_hits;
        r.hns_misses += out.hns_misses;
        r.hns_expired += out.hns_expired;
        r.binding_hits += out.binding.hits;
        r.binding_misses += out.binding.misses;
        r.binding_inserts += out.binding.inserts;
        latency.merge(&out.latency);
    }
    r.latency_us = latency.stats();
    if wall_secs > 0.0 {
        r.qps = r.ops as f64 / wall_secs;
    }
    r
}

/// Runs the full sweep: the closed-loop thread sweep, then one
/// open-loop run per offered-load level.
pub fn run(config: &LoadConfig) -> LoadReport {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let runs = config
        .threads
        .iter()
        .map(|&t| run_once(config, t))
        .collect();
    let open_runs = config
        .offered_qps
        .iter()
        .map(|&q| open::run_open(config, q))
        .collect();
    LoadReport {
        config: config.clone(),
        cores,
        os: std::env::consts::OS,
        arch: std::env::consts::ARCH,
        runs,
        open_runs,
    }
}

impl LoadReport {
    /// Renders the sweep as one table (closed-loop) or two (plus the
    /// open-loop offered-load sweep).
    pub fn render(&self) -> String {
        let mut table = PlainTable::new(
            format!(
                "E-L — sharded load engine: closed-loop FindNSM + bind \
                 traffic, Zipf(s={}) over {} pairs, {:.0}% cold / {:.0}% bind, \
                 {:.0}% write, {} ops/thread ({} cores)",
                self.config.zipf_s,
                CONTEXTS * 3,
                self.config.cold_frac * 100.0,
                self.config.bind_frac * 100.0,
                self.config.write_frac * 100.0,
                self.config.ops_per_thread,
                self.cores
            ),
            vec![
                "threads",
                "ops",
                "errors",
                "writes",
                "transfers",
                "wall (s)",
                "QPS",
                "p50 (us)",
                "p95 (us)",
                "p99 (us)",
            ],
        );
        for r in &self.runs {
            table.push_row(vec![
                r.threads.to_string(),
                r.ops.to_string(),
                r.errors.to_string(),
                r.write_ops.to_string(),
                r.transfer_ops.to_string(),
                format!("{:.3}", r.wall_secs),
                format!("{:.0}", r.qps),
                r.latency_us.p50.to_string(),
                r.latency_us.p95.to_string(),
                r.latency_us.p99.to_string(),
            ]);
        }
        let mut out = table.render();
        if !self.open_runs.is_empty() {
            let mut open_table = PlainTable::new(
                format!(
                    "E-L — open-loop offered load: Poisson arrivals over {} \
                     threads, {} ms per level (sojourn latency from scheduled \
                     arrival)",
                    self.config.open_threads, self.config.open_duration_ms
                ),
                vec![
                    "offered QPS",
                    "achieved QPS",
                    "ops",
                    "errors",
                    "p50 (us)",
                    "p99 (us)",
                    "late ops",
                    "max backlog",
                ],
            );
            for r in &self.open_runs {
                open_table.push_row(vec![
                    format!("{:.0}", r.offered_qps),
                    format!("{:.0}", r.achieved_qps),
                    r.ops.to_string(),
                    r.errors.to_string(),
                    r.latency_us.p50.to_string(),
                    r.latency_us.p99.to_string(),
                    r.late_ops.to_string(),
                    r.backlog_max.to_string(),
                ]);
            }
            out.push('\n');
            out.push_str(&open_table.render());
            // Per-window overload shape: backlog and mean lateness over
            // the scheduled horizon, one sparkline pair per level.
            for r in &self.open_runs {
                let backlog: Vec<f64> = r.windows.iter().map(|w| w.backlog_max as f64).collect();
                let lateness: Vec<f64> = r.windows.iter().map(|w| w.lateness_mean_us()).collect();
                out.push_str(&format!(
                    "  {:>7.0} QPS windows ({} ms): backlog |{}| max={}  \
                     lateness |{}| mean max={:.0} us\n",
                    r.offered_qps,
                    r.window_ms,
                    hns_core::obs::timeline::sparkline(&backlog),
                    r.backlog_max,
                    hns_core::obs::timeline::sparkline(&lateness),
                    lateness.iter().cloned().fold(0.0f64, f64::max),
                ));
            }
        }
        out
    }

    /// The `hns-load-v2` JSON document for this sweep.
    pub fn to_json(&self) -> String {
        report::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_two_threads_accounting_is_exact() {
        let config = LoadConfig {
            threads: vec![2],
            ops_per_thread: 150,
            ..LoadConfig::default()
        };
        let rep = run(&config);
        assert_eq!(rep.runs.len(), 1);
        let r = &rep.runs[0];
        assert_eq!(r.threads, 2);
        assert_eq!(r.ops, 300, "closed loop completes every op");
        assert_eq!(r.errors, 0, "no operation fails on the testbed");
        assert_eq!(r.warm_ops + r.cold_ops + r.bind_ops + r.write_ops, r.ops);
        assert_eq!(r.write_ops, 0, "write mix is off by default");
        assert_eq!(
            r.latency_us.count, r.ops,
            "merged worker histograms account for every op"
        );
        assert!(r.wall_secs > 0.0 && r.qps > 0.0);
        assert!(r.warm_ops > 0, "warm path dominates the mix");
        assert!(
            r.binding_hits > 0,
            "pre-seeded composed cache serves the warm path"
        );
        crate::export::check(&rep.to_json()).expect("export validates");
        let rendered = rep.render();
        assert!(rendered.contains("QPS"), "{rendered}");
    }

    #[test]
    fn faults_fail_the_cold_path_and_only_the_cold_path() {
        let config = LoadConfig {
            threads: vec![2],
            ops_per_thread: 150,
            faults: true,
            ..LoadConfig::default()
        };
        let rep = run(&config);
        let r = &rep.runs[0];
        assert_eq!(r.ops, 300);
        assert_eq!(
            r.errors, r.cold_ops,
            "with the meta server crashed, exactly the cold operations fail"
        );
        assert!(r.cold_ops > 0, "the mix must exercise the cold path");
        assert!(r.warm_ops > 0);
        crate::export::check(&rep.to_json()).expect("export validates");
    }

    #[test]
    fn write_mix_drives_the_registration_frontend() {
        let config = LoadConfig {
            threads: vec![2],
            ops_per_thread: 200,
            write_frac: 0.4,
            transfer_frac: 0.5,
            ..LoadConfig::default()
        };
        let rep = run(&config);
        let r = &rep.runs[0];
        assert_eq!(r.ops, 400);
        assert_eq!(r.errors, 0, "no write fails on the healthy testbed");
        assert_eq!(r.warm_ops + r.cold_ops + r.bind_ops + r.write_ops, r.ops);
        assert!(r.write_ops > 0, "the mix must exercise the write path");
        assert!(r.transfer_ops > 0, "the mix must exercise transfers");
        assert!(r.transfer_ops < r.write_ops, "updates ride along too");
        crate::export::check(&rep.to_json()).expect("export validates");
        let rendered = rep.render();
        assert!(rendered.contains("transfers"), "{rendered}");
    }

    #[test]
    fn duration_cap_stops_early() {
        let config = LoadConfig {
            threads: vec![1],
            ops_per_thread: u64::MAX,
            duration_ms: Some(50),
            ..LoadConfig::default()
        };
        let rep = run(&config);
        let r = &rep.runs[0];
        assert!(r.ops > 0);
        assert!(r.wall_secs < 30.0, "cap bounded the run");
    }

    #[test]
    fn open_loop_levels_produce_runs() {
        let config = LoadConfig {
            threads: vec![],
            offered_qps: vec![500.0, 2_000.0],
            open_threads: 2,
            open_duration_ms: 120,
            ..LoadConfig::default()
        };
        let rep = run(&config);
        assert!(rep.runs.is_empty());
        assert_eq!(rep.open_runs.len(), 2);
        for (r, &offered) in rep.open_runs.iter().zip(&config.offered_qps) {
            assert_eq!(r.offered_qps, offered);
            assert!(r.scheduled > 0, "Poisson schedule generated arrivals");
            assert_eq!(r.ops, r.scheduled, "every scheduled arrival completed");
            assert_eq!(r.errors, 0);
            assert_eq!(r.latency_us.count, r.ops);
            assert!(r.achieved_qps > 0.0);
        }
        crate::export::check(&rep.to_json()).expect("export validates");
        let rendered = rep.render();
        assert!(rendered.contains("offered QPS"), "{rendered}");
    }
}
