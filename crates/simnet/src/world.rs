//! The shared simulation environment.
//!
//! A [`World`] bundles the virtual clock, the host topology, the calibrated
//! [`CostModel`], a [`Tracer`], the metrics registry with global operation
//! counters, and the installed [`FaultPlan`]. Every simulated component
//! (RPC suites, name services, the HNS, NSMs) holds an `Arc<World>` and
//! charges its costs against it. Charging only advances the clock: a
//! caller that wants a time series over the registry drives its own
//! [`obs::Sampler`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use crate::clock::VirtualClock;
use crate::costs::{CostModel, Ms, Term};
use crate::faults::FaultPlan;
use crate::time::{SimDuration, SimTime};
use crate::topology::{HostId, Topology};
use obs::trace::{CacheOutcome, SpanId, TraceKind, Tracer};
use obs::{LazyCounter, MetricsRegistry};

/// A point-in-time snapshot of a world's structural counters, useful for
/// asserting the *structure* of operations (e.g. "a cold `FindNSM` makes
/// exactly six remote data mappings"): the `net` component's counters,
/// read from the registry handles the calls count into.
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
    /// The calibrated cost constants, read only through [`World::charge`]
    /// and [`World::price`].
    costs: CostModel,
    /// Optional event and span recorder.
    pub tracer: Tracer,
    metrics: MetricsRegistry,
    net: NetCounters,
    faults: RwLock<Option<Arc<FaultPlan>>>,
    /// Mirrors `faults.is_some()` so the per-call fault query on the RPC
    /// hot path is one relaxed load in the (overwhelmingly common)
    /// fault-free case instead of a read-lock plus `Arc` clone — the
    /// lock word was a measurable serialization point under
    /// multi-threaded load.
    faults_installed: AtomicBool,
}

/// The `net` component's counters, each kept once, in the registry: the
/// per-call accounting in [`World::count_remote_call`] and friends is one
/// add through a cached handle, not a registry lookup (two
/// `String` allocations plus a read lock) per call, and
/// [`World::counters`] reads the same handles. A handle registers its
/// counter on first use, so a world that made no call publishes no `net`
/// row.
#[derive(Debug, Default)]
struct NetCounters {
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
            metrics: MetricsRegistry::new(),
            net: NetCounters::default(),
            faults: RwLock::new(None),
            faults_installed: AtomicBool::new(false),
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
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Charges `term`: advances the clock by its price, rounded once to
    /// the microsecond.
    #[inline]
    pub fn charge(&self, term: Term<'_>) {
        self.clock
            .advance(SimDuration::from_ms_f64(self.costs.price(term)));
    }

    /// What `term` costs in this world, in milliseconds, as
    /// [`World::charge`] would charge it before rounding.
    #[inline]
    pub fn price(&self, term: Term<'_>) -> Ms {
        self.costs.price(term)
    }

    /// Lets `d` pass with nothing done: an idle, a TTL's lapse, the wait
    /// for a fault to heal.
    #[inline]
    pub fn wait(&self, d: SimDuration) {
        self.clock.advance(d);
    }

    /// Charges `ms` virtual milliseconds.
    ///
    /// Pinned by `benchmark/`; goes in ROADMAP item 1(c).
    #[inline]
    pub fn charge_ms(&self, ms: Ms) {
        self.clock.advance(SimDuration::from_ms_f64(ms));
    }

    /// Records a trace event at the current instant, attached to the
    /// calling thread's current span (if any). With the tracer disabled
    /// `message` is not run and the clock is not read, so call sites on
    /// hot paths pay one load for their walkthrough text.
    #[inline]
    pub fn trace(&self, host: Option<HostId>, kind: TraceKind, message: impl FnOnce() -> String) {
        if self.tracer.is_enabled() {
            self.record(host, kind, message());
        }
    }

    #[cold]
    fn record(&self, host: Option<HostId>, kind: TraceKind, message: String) {
        self.tracer
            .record(self.now().as_us(), host.map(|h| h.0), kind, message);
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
    #[inline]
    pub fn span_lazy(
        &self,
        host: Option<HostId>,
        kind: TraceKind,
        name: impl FnOnce() -> String,
    ) -> WorldSpan<'_> {
        if self.tracer.is_enabled() {
            self.open_span(host, kind, name())
        } else {
            WorldSpan {
                world: self,
                id: None,
            }
        }
    }

    #[cold]
    fn open_span(&self, host: Option<HostId>, kind: TraceKind, name: String) -> WorldSpan<'_> {
        self.span(host, kind, name)
    }

    /// Annotates the calling thread's current span with a cache
    /// outcome (no-op outside a span or with tracing disabled).
    #[inline]
    pub fn cache_outcome(&self, outcome: CacheOutcome) {
        self.tracer.annotate_cache(outcome);
    }

    /// Notes one remote (cross-host) call carrying `bytes` in total.
    #[inline]
    pub fn count_remote_call(&self, bytes: u64) {
        let (net, metrics) = (&self.net, &self.metrics);
        net.remote_calls.get(metrics, "net", "remote_calls").inc();
        net.bytes_sent.get(metrics, "net", "bytes_sent").add(bytes);
    }

    /// Notes one local (same-host) call.
    #[inline]
    pub fn count_local_call(&self) {
        let (net, metrics) = (&self.net, &self.metrics);
        net.local_calls.get(metrics, "net", "local_calls").inc();
    }

    /// Notes one lookup served by an underlying name service.
    #[inline]
    pub fn count_ns_lookup(&self) {
        let (net, metrics) = (&self.net, &self.metrics);
        net.ns_lookups.get(metrics, "net", "ns_lookups").inc();
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> CounterSnapshot {
        CounterSnapshot {
            remote_calls: self.net.remote_calls.value(),
            local_calls: self.net.local_calls.value(),
            bytes_sent: self.net.bytes_sent.value(),
            ns_lookups: self.net.ns_lookups.value(),
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
    #[inline]
    pub fn faults(&self) -> Option<Arc<FaultPlan>> {
        if !self.faults_installed.load(Ordering::Acquire) {
            return None;
        }
        self.installed_faults()
    }

    #[cold]
    fn installed_faults(&self) -> Option<Arc<FaultPlan>> {
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
    #[inline]
    pub fn add_round_trips(&self, n: u64) {
        if let Some(id) = self.id {
            self.world.tracer.add_round_trips(id, n);
        }
    }
}

impl Drop for WorldSpan<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.world.tracer.end_span(id, self.world.now().as_us());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::{CacheForm, RpcSuiteKind};

    #[test]
    fn charge_advances_clock_by_the_price() {
        let w = World::paper();
        w.charge(Term::BindService);
        assert_eq!(w.now().as_us(), 8_000);
        w.wait(SimDuration::from_ms(19));
        assert_eq!(w.now().as_us(), 27_000);
    }

    /// Every term with a count: bytes, records or reads.
    fn counted<'a>(
        suite: RpcSuiteKind,
        bytes: usize,
        rrs: usize,
        sets: &'a mut dyn Iterator<Item = usize>,
    ) -> [Term<'a>; 11] {
        let (marshalled, demarshalled) = (CacheForm::Marshalled, CacheForm::Demarshalled);
        [
            Term::RemoteRequest { suite, bytes },
            Term::ReplyBytes { bytes },
            Term::ZoneTransfer { suite, bytes },
            Term::ChDiskReads { n: rrs },
            Term::CacheHit {
                form: marshalled,
                rrs,
            },
            Term::CacheHit {
                form: demarshalled,
                rrs,
            },
            Term::GeneratedMiss { rrs },
            Term::ResolverQuery { rrs },
            Term::FastMarshal { rrs },
            Term::BindingAssembly { rrs },
            Term::ResolverBatch { sets },
        ]
    }

    proptest::proptest! {
        /// A counted term advances the clock by its price rounded once, at
        /// every count a run makes: up to 64 KiB on the wire, 64 records
        /// in a message, 64 Clearinghouse reads.
        #[test]
        fn a_charge_advances_by_its_price_rounded_once(
            bytes in 0usize..=65_536,
            rrs in 0usize..=64,
            sets in proptest::collection::vec(0usize..=64, 0..8),
            suite in 0usize..5,
        ) {
            let suite = [
                RpcSuiteKind::Sun,
                RpcSuiteKind::Courier,
                RpcSuiteKind::RawTcp,
                RpcSuiteKind::RawUdp,
                RpcSuiteKind::DnsUdp,
            ][suite];
            let w = World::paper();
            let (mut priced, mut charged) = (sets.iter().copied(), sets.iter().copied());
            let prices = counted(suite, bytes, rrs, &mut priced).map(|term| w.price(term));
            for (term, price) in counted(suite, bytes, rrs, &mut charged).into_iter().zip(prices) {
                let before = w.now();
                w.charge(term);
                proptest::prop_assert_eq!(w.now().since(before).as_us(), obs::ms_to_us(price));
            }
        }
    }

    /// Each call is counted once, in the registry's `net` component, which
    /// `counters` reads; a world that made no call has no `net` row.
    #[test]
    fn counters_track_calls() {
        let w = World::paper();
        assert_eq!(w.counters(), CounterSnapshot::default());
        assert!(w.metrics().snapshot().counters.is_empty());
        w.count_remote_call(128);
        w.count_remote_call(64);
        w.count_local_call();
        w.count_ns_lookup();
        let c = w.counters();
        assert_eq!(c.remote_calls, 2);
        assert_eq!(c.local_calls, 1);
        assert_eq!(c.bytes_sent, 192);
        assert_eq!(c.ns_lookups, 1);
        let snap = w.metrics().snapshot();
        assert_eq!(snap.counter("net", "remote_calls"), Some(2));
        assert_eq!(snap.counter("net", "bytes_sent"), Some(192));
        assert_eq!(snap.counter("net", "local_calls"), Some(1));
        assert_eq!(snap.counter("net", "ns_lookups"), Some(1));
    }

    #[test]
    fn measure_reports_deltas_only() {
        let w = World::paper();
        w.wait(SimDuration::from_ms(10));
        w.count_remote_call(10);
        let (val, took, delta) = w.measure(|| {
            w.wait(SimDuration::from_ms(5));
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
            w.wait(SimDuration::from_ms(5));
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
