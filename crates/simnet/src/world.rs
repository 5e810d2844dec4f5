//! The shared simulation environment.
//!
//! A [`World`] bundles the virtual clock, the host topology, the calibrated
//! [`CostModel`], a [`Tracer`], and global operation counters. Every
//! simulated component (RPC suites, name services, the HNS, NSMs) holds an
//! `Arc<World>` and charges its costs against it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::clock::VirtualClock;
use crate::costs::{CostModel, Ms};
use crate::faults::FaultPlan;
use crate::time::{SimDuration, SimTime};
use crate::topology::{HostId, Topology};
use crate::trace::{CacheOutcome, SpanId, TraceKind, Tracer};
use obs::{LazyCounter, MetricsRegistry, Sampler, Timeline};

/// Global counters, useful for asserting the *structure* of operations
/// (e.g. "a cold `FindNSM` makes exactly six remote data mappings").
#[derive(Debug, Default)]
pub struct Counters {
    remote_calls: AtomicU64,
    local_calls: AtomicU64,
    bytes_sent: AtomicU64,
    ns_lookups: AtomicU64,
}

/// A point-in-time snapshot of [`Counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Remote (cross-host) calls made.
    pub remote_calls: u64,
    /// Local (same-host) calls made.
    pub local_calls: u64,
    /// Total bytes carried by the network.
    pub bytes_sent: u64,
    /// Lookups served by underlying name services.
    pub ns_lookups: u64,
}

impl CounterSnapshot {
    /// Componentwise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            remote_calls: self.remote_calls.saturating_sub(earlier.remote_calls),
            local_calls: self.local_calls.saturating_sub(earlier.local_calls),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            ns_lookups: self.ns_lookups.saturating_sub(earlier.ns_lookups),
        }
    }
}

/// The simulation environment shared by all components.
#[derive(Debug)]
pub struct World {
    /// The virtual clock all costs are charged against.
    pub clock: VirtualClock,
    /// Hosts on the simulated LAN.
    pub topology: Topology,
    /// The calibrated cost constants.
    pub costs: CostModel,
    /// Optional event and span recorder.
    pub tracer: Tracer,
    counters: Counters,
    metrics: MetricsRegistry,
    net_handles: NetHandles,
    faults: RwLock<Option<Arc<FaultPlan>>>,
    /// Mirrors `faults.is_some()` so the per-call fault query on the RPC
    /// hot path is one relaxed load in the (overwhelmingly common)
    /// fault-free case instead of a read-lock plus `Arc` clone — the
    /// lock word was a measurable serialization point under
    /// multi-threaded load.
    faults_installed: AtomicBool,
    sampler: Mutex<Option<Sampler>>,
    /// Mirrors `sampler.is_some()` (the same pattern as
    /// `faults_installed`): every `charge` checks it with one relaxed
    /// load, so runs without sampling pay nothing on the hot path.
    sampler_installed: AtomicBool,
    /// Mirrors the sampler's `next_due_us`, so an installed sampler
    /// costs a clock read plus one relaxed load per charge between
    /// window boundaries instead of a mutex acquisition.
    sampler_next_due: AtomicU64,
    cache_exporters: CacheExporters,
}

/// A registered snapshot-time exporter: flushes one cache's private
/// atomics into the shared registry.
pub type CacheExporter = Box<dyn Fn(&MetricsRegistry) + Send + Sync>;

/// Snapshot-time cache exporters registered by components whose caches
/// keep private atomics (`hns_cache`, `hns_binding_cache`, `nsm_cache`,
/// `bindns_cache`). [`World::export_all_caches`] runs them all, so a
/// mid-run sample sees current totals instead of stale zeros.
#[derive(Default)]
struct CacheExporters(RwLock<Vec<CacheExporter>>);

impl std::fmt::Debug for CacheExporters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let len = self.0.read().map(|v| v.len()).unwrap_or(0);
        f.debug_tuple("CacheExporters").field(&len).finish()
    }
}

/// Cached registry handles for the `net` mirror counters, so the
/// per-call accounting in [`World::count_remote_call`] and friends costs
/// one atomic add instead of a registry lookup (two `String`
/// allocations plus a read lock) per call.
#[derive(Debug, Default)]
struct NetHandles {
    remote_calls: LazyCounter,
    bytes_sent: LazyCounter,
    local_calls: LazyCounter,
    ns_lookups: LazyCounter,
}

impl World {
    /// Creates a world with the given cost model.
    pub fn new(costs: CostModel) -> Arc<Self> {
        Arc::new(World {
            clock: VirtualClock::new(),
            topology: Topology::new(),
            costs,
            tracer: Tracer::new(),
            counters: Counters::default(),
            metrics: MetricsRegistry::new(),
            net_handles: NetHandles::default(),
            faults: RwLock::new(None),
            faults_installed: AtomicBool::new(false),
            sampler: Mutex::new(None),
            sampler_installed: AtomicBool::new(false),
            sampler_next_due: AtomicU64::new(u64::MAX),
            cache_exporters: CacheExporters::default(),
        })
    }

    /// Creates a world with the paper-calibrated cost model.
    pub fn paper() -> Arc<Self> {
        Self::new(CostModel::paper_calibrated())
    }

    /// Adds a host to the topology.
    pub fn add_host(&self, name: impl Into<String>) -> HostId {
        self.topology.add_host(name)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Charges `ms` virtual milliseconds.
    pub fn charge_ms(&self, ms: Ms) {
        self.clock.advance(SimDuration::from_ms_f64(ms));
        self.sample_tick();
    }

    /// Charges a duration.
    pub fn charge(&self, d: SimDuration) {
        self.clock.advance(d);
        self.sample_tick();
    }

    /// The sampler hook on the charge path: one relaxed load when no
    /// sampler is installed.
    #[inline]
    fn sample_tick(&self) {
        if self.sampler_installed.load(Ordering::Relaxed) {
            self.sample_tick_slow();
        }
    }

    fn sample_tick_slow(&self) {
        let now = self.clock.now().as_us();
        if now < self.sampler_next_due.load(Ordering::Relaxed) {
            return;
        }
        // Flush snapshot-time cache exports before sampling, so the
        // window delta reads current cache totals, not stale zeros.
        self.export_all_caches();
        let mut guard = self.sampler.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(sampler) = guard.as_mut() {
            sampler.tick(&self.metrics, now);
            self.sampler_next_due
                .store(sampler.next_due_us(), Ordering::Relaxed);
        }
    }

    /// Starts windowed metrics sampling with the given window width.
    /// Caches are flushed first so window 0's delta starts from current
    /// totals. Replaces any sampler already running.
    pub fn start_sampling(&self, interval: SimDuration) {
        self.export_all_caches();
        let sampler = Sampler::new(&self.metrics, self.clock.now().as_us(), interval.as_us());
        self.sampler_next_due
            .store(sampler.next_due_us(), Ordering::Relaxed);
        *self.sampler.lock().unwrap_or_else(|e| e.into_inner()) = Some(sampler);
        self.sampler_installed.store(true, Ordering::Release);
    }

    /// Stops sampling and returns the accumulated [`Timeline`] (caches
    /// flushed, residual partial window captured). `None` if no sampler
    /// was running.
    pub fn finish_sampling(&self) -> Option<Timeline> {
        self.sampler_installed.store(false, Ordering::Release);
        self.sampler_next_due.store(u64::MAX, Ordering::Relaxed);
        let sampler = self
            .sampler
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()?;
        self.export_all_caches();
        Some(sampler.finish(&self.metrics, self.clock.now().as_us()))
    }

    /// Places a labeled mark on the running timeline (no-op without a
    /// sampler).
    pub fn sample_mark(&self, label: &str) {
        if !self.sampler_installed.load(Ordering::Relaxed) {
            return;
        }
        let now = self.clock.now().as_us();
        if let Some(sampler) = self
            .sampler
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
        {
            sampler.mark(now, label);
        }
    }

    /// Registers a snapshot-time cache exporter (see
    /// [`World::export_all_caches`]). Components register once at
    /// construction, capturing `Weak` handles so dropped instances go
    /// inert rather than re-publishing stale totals.
    pub fn register_cache_exporter(&self, exporter: CacheExporter) {
        self.cache_exporters
            .0
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .push(exporter);
    }

    /// Runs every registered cache exporter, publishing current cache
    /// totals into the metrics registry. Called automatically before
    /// each sample and at `finish_sampling`; end-of-run snapshot takers
    /// call it directly instead of hand-listing `export_metrics` sites.
    pub fn export_all_caches(&self) {
        for exporter in self
            .cache_exporters
            .0
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            exporter(&self.metrics);
        }
    }

    /// Records a trace event at the current instant, attached to the
    /// calling thread's current span (if any). With the tracer disabled
    /// `message` is not run and the clock is not read, so call sites on
    /// hot paths pay one load for their walkthrough text.
    pub fn trace(&self, host: Option<HostId>, kind: TraceKind, message: impl FnOnce() -> String) {
        if self.tracer.is_enabled() {
            self.tracer
                .record(self.now().as_us(), host.map(|h| h.0), kind, message());
        }
    }

    /// The unified metrics registry shared by every component in this
    /// world.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Opens a per-query span ending (at the then-current virtual
    /// instant) when the returned guard drops. A no-op with no
    /// allocation beyond `name` when the tracer is disabled — use
    /// [`World::span_lazy`] on hot paths to avoid even that.
    pub fn span(
        &self,
        host: Option<HostId>,
        kind: TraceKind,
        name: impl Into<String>,
    ) -> WorldSpan<'_> {
        let id = self
            .tracer
            .begin_span(self.now().as_us(), host.map(|h| h.0), kind, name.into());
        WorldSpan { world: self, id }
    }

    /// Like [`World::span`], but builds the name only when tracing is
    /// enabled (hot paths call this so a disabled tracer costs nothing).
    pub fn span_lazy(
        &self,
        host: Option<HostId>,
        kind: TraceKind,
        name: impl FnOnce() -> String,
    ) -> WorldSpan<'_> {
        if self.tracer.is_enabled() {
            self.span(host, kind, name())
        } else {
            WorldSpan {
                world: self,
                id: None,
            }
        }
    }

    /// Annotates the calling thread's current span with a cache
    /// outcome (no-op outside a span or with tracing disabled).
    pub fn cache_outcome(&self, outcome: CacheOutcome) {
        self.tracer.annotate_cache(outcome);
    }

    /// Notes one remote (cross-host) call carrying `bytes` in total,
    /// mirrored into the `net` metrics component.
    pub fn count_remote_call(&self, bytes: u64) {
        self.counters.remote_calls.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        self.net_handles
            .remote_calls
            .get(&self.metrics, "net", "remote_calls")
            .inc();
        self.net_handles
            .bytes_sent
            .get(&self.metrics, "net", "bytes_sent")
            .add(bytes);
    }

    /// Notes one local (same-host) call.
    pub fn count_local_call(&self) {
        self.counters.local_calls.fetch_add(1, Ordering::Relaxed);
        self.net_handles
            .local_calls
            .get(&self.metrics, "net", "local_calls")
            .inc();
    }

    /// Notes one lookup served by an underlying name service.
    pub fn count_ns_lookup(&self) {
        self.counters.ns_lookups.fetch_add(1, Ordering::Relaxed);
        self.net_handles
            .ns_lookups
            .get(&self.metrics, "net", "ns_lookups")
            .inc();
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> CounterSnapshot {
        CounterSnapshot {
            remote_calls: self.counters.remote_calls.load(Ordering::Relaxed),
            local_calls: self.counters.local_calls.load(Ordering::Relaxed),
            bytes_sent: self.counters.bytes_sent.load(Ordering::Relaxed),
            ns_lookups: self.counters.ns_lookups.load(Ordering::Relaxed),
        }
    }

    /// Installs (or, with `None`, clears) the fault plan. With no plan
    /// installed every fault query is a strict no-op — nothing is
    /// charged, registered, or traced — so fault-free runs stay
    /// byte-identical.
    pub fn set_faults(&self, plan: Option<FaultPlan>) {
        let installed = plan.is_some();
        // Installing: plan first, flag second, so a racing reader never
        // sees the flag set with no plan behind it. Clearing: flag
        // first, so a reader at worst stops observing a plan that is
        // about to be removed anyway. (Fault plans are installed at
        // quiesced points in practice; this just keeps the flag
        // conservative in both directions.)
        if !installed {
            self.faults_installed.store(false, Ordering::Release);
        }
        *self.faults.write().unwrap_or_else(|e| e.into_inner()) = plan.map(Arc::new);
        if installed {
            self.faults_installed.store(true, Ordering::Release);
        }
    }

    /// The currently installed fault plan, if any. One relaxed load when
    /// no plan is installed — hot paths may call this per RPC attempt.
    pub fn faults(&self) -> Option<Arc<FaultPlan>> {
        if !self.faults_installed.load(Ordering::Acquire) {
            return None;
        }
        self.faults
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Measures virtual time and counter deltas over `f`.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (R, SimDuration, CounterSnapshot) {
        let t0 = self.now();
        let c0 = self.counters();
        let r = f();
        let took = self.now().since(t0);
        let delta = self.counters().since(&c0);
        (r, took, delta)
    }
}

/// RAII guard for a per-query span opened by [`World::span`].
///
/// The span closes (at the virtual instant current *then*) when the
/// guard drops, so early returns and `?` still produce well-formed
/// spans. When tracing is disabled the guard is inert.
#[derive(Debug)]
pub struct WorldSpan<'w> {
    world: &'w World,
    id: Option<SpanId>,
}

impl WorldSpan<'_> {
    /// The underlying span id, if tracing was enabled at open time.
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }

    /// Attributes `n` remote round trips to this span.
    pub fn add_round_trips(&self, n: u64) {
        if let Some(id) = self.id {
            self.world.tracer.add_round_trips(id, n);
        }
    }
}

impl Drop for WorldSpan<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.world.tracer.end_span(id, self.world.now().as_us());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_advances_clock() {
        let w = World::paper();
        w.charge_ms(27.0);
        assert_eq!(w.now().as_us(), 27_000);
    }

    #[test]
    fn counters_track_calls() {
        let w = World::paper();
        w.count_remote_call(128);
        w.count_remote_call(64);
        w.count_local_call();
        w.count_ns_lookup();
        let c = w.counters();
        assert_eq!(c.remote_calls, 2);
        assert_eq!(c.local_calls, 1);
        assert_eq!(c.bytes_sent, 192);
        assert_eq!(c.ns_lookups, 1);
    }

    #[test]
    fn measure_reports_deltas_only() {
        let w = World::paper();
        w.charge_ms(10.0);
        w.count_remote_call(10);
        let (val, took, delta) = w.measure(|| {
            w.charge_ms(5.0);
            w.count_remote_call(7);
            "ok"
        });
        assert_eq!(val, "ok");
        assert_eq!(took, SimDuration::from_ms(5));
        assert_eq!(delta.remote_calls, 1);
        assert_eq!(delta.bytes_sent, 7);
    }

    #[test]
    fn trace_goes_through_tracer() {
        let w = World::paper();
        w.tracer.set_enabled(true);
        w.trace(None, TraceKind::Info, || "hello".into());
        assert_eq!(w.tracer.len(), 1);
    }

    #[test]
    fn trace_skips_message_construction_when_disabled() {
        let w = World::paper();
        w.trace(None, TraceKind::Info, || {
            panic!("message built with tracing disabled")
        });
        assert!(w.tracer.is_empty());
    }

    #[test]
    fn span_guard_closes_at_drop_time() {
        let w = World::paper();
        w.tracer.set_enabled(true);
        {
            let span = w.span(Some(HostId(1)), TraceKind::Hns, "query");
            span.add_round_trips(2);
            w.charge_ms(5.0);
            w.trace(None, TraceKind::Info, || "inside".into());
        }
        let spans = w.tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "query");
        assert_eq!(spans[0].host, Some(1));
        assert_eq!(spans[0].round_trips, 2);
        assert_eq!(spans[0].duration_us(), 5_000);
        assert_eq!(w.tracer.snapshot()[0].span, Some(spans[0].id));
    }

    #[test]
    fn span_lazy_skips_name_construction_when_disabled() {
        let w = World::paper();
        let span = w.span_lazy(None, TraceKind::Hns, || {
            panic!("name built with tracing disabled")
        });
        assert!(span.id().is_none());
        drop(span);
        assert!(w.tracer.spans().is_empty());
    }

    #[test]
    fn counters_mirror_into_metrics_registry() {
        let w = World::paper();
        w.count_remote_call(128);
        w.count_remote_call(64);
        w.count_local_call();
        let snap = w.metrics().snapshot();
        assert_eq!(snap.counter("net", "remote_calls"), Some(2));
        assert_eq!(snap.counter("net", "bytes_sent"), Some(192));
        assert_eq!(snap.counter("net", "local_calls"), Some(1));
    }

    #[test]
    fn fault_plan_installs_and_clears() {
        let w = World::paper();
        assert!(w.faults().is_none());
        let mut plan = FaultPlan::new();
        plan.crash(HostId(1), w.now(), None);
        w.set_faults(Some(plan));
        assert!(w.faults().expect("installed").host_down(HostId(1), w.now()));
        w.set_faults(None);
        assert!(w.faults().is_none());
    }

    #[test]
    fn sampler_windows_follow_the_virtual_clock() {
        let w = World::paper();
        w.start_sampling(SimDuration::from_ms(10));
        w.count_remote_call(100);
        w.charge_ms(10.0); // closes window 0
        w.count_remote_call(50);
        w.sample_mark("mid");
        w.charge_ms(25.0); // closes windows 1 and 2
        let t = w.finish_sampling().expect("timeline");
        assert!(w.finish_sampling().is_none(), "sampler consumed");
        assert_eq!(t.interval_us, 10_000);
        assert_eq!(t.windows.len(), 3);
        assert_eq!(t.counter_series("net", "remote_calls"), vec![1, 1, 0]);
        assert_eq!(t.counter_series("net", "bytes_sent"), vec![100, 50, 0]);
        assert_eq!(t.marks[0].label, "mid");
        assert_eq!(t.marks[0].window, 1);
    }

    #[test]
    fn window_deltas_conserve_counters_under_threaded_load() {
        const THREADS: u64 = 8;
        const OPS: u64 = 200;
        let w = World::paper();
        w.start_sampling(SimDuration::from_ms(5));
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..OPS {
                        w.count_remote_call(1);
                        w.metrics().add("load", "ops", 1);
                        w.charge_ms(0.25);
                    }
                });
            }
        });
        let t = w.finish_sampling().expect("timeline");
        // Interleaving decides which window each delta lands in, but the
        // telescoping sum must conserve every counter exactly.
        let last = w.metrics().snapshot();
        let keys = t.counter_keys();
        assert!(!keys.is_empty());
        for (component, name) in &keys {
            let windowed: u64 = t.counter_series(component, name).iter().sum();
            assert_eq!(
                Some(windowed),
                last.counter(component, name),
                "counter {component}/{name} leaked across windows"
            );
        }
        assert!(keys.contains(&("load".to_string(), "ops".to_string())));
        let ops: u64 = t.counter_series("load", "ops").iter().sum();
        assert_eq!(ops, THREADS * OPS);
        assert!(t.windows.len() >= 2, "threads advanced virtual time");
    }

    #[test]
    fn cache_exporters_flush_on_every_sample() {
        use std::sync::atomic::AtomicU64;
        let w = World::paper();
        let stat = Arc::new(AtomicU64::new(0));
        let weak = Arc::downgrade(&stat);
        w.register_cache_exporter(Box::new(move |m| {
            if let Some(stat) = weak.upgrade() {
                m.set_counter("hns_cache", "hits", stat.load(Ordering::Relaxed));
            }
        }));
        w.start_sampling(SimDuration::from_ms(10));
        stat.store(7, Ordering::Relaxed);
        w.charge_ms(10.0);
        stat.store(12, Ordering::Relaxed);
        let t = w.finish_sampling().expect("timeline");
        // Window 0 saw the mid-run export (7), the residual the rest.
        assert_eq!(t.windows[0].counter("hns_cache", "hits"), 7);
        assert_eq!(t.windows[1].counter("hns_cache", "hits"), 5);
        // A dropped owner leaves the exporter inert instead of
        // publishing stale totals.
        drop(stat);
        w.metrics().set_counter("hns_cache", "hits", 99);
        w.export_all_caches();
        assert_eq!(
            w.metrics().snapshot().counter("hns_cache", "hits"),
            Some(99)
        );
    }

    #[test]
    fn snapshot_since_subtracts() {
        let a = CounterSnapshot {
            remote_calls: 5,
            local_calls: 2,
            bytes_sent: 100,
            ns_lookups: 3,
        };
        let b = CounterSnapshot {
            remote_calls: 7,
            local_calls: 2,
            bytes_sent: 150,
            ns_lookups: 4,
        };
        let d = b.since(&a);
        assert_eq!(d.remote_calls, 2);
        assert_eq!(d.local_calls, 0);
        assert_eq!(d.bytes_sent, 50);
        assert_eq!(d.ns_lookups, 1);
    }
}
