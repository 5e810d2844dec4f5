//! The shared simulation environment.
//!
//! A [`World`] bundles the virtual clock and its ledger, the host
//! topology, the calibrated [`CostModel`], a [`Tracer`], the metrics
//! registry, and the installed [`FaultPlan`]. Every simulated component
//! (RPC suites, name services, the HNS, NSMs) holds an `Arc<World>` and
//! charges its costs against it. A charge advances the clock and files
//! the time in the ledger's row of its term, which is the one record of
//! what an op did: the `net` counters are read off it. A caller that
//! wants a time series over the registry drives its own
//! [`obs::Sampler`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use crate::clock::{Ledger, VirtualClock};
use crate::costs::{Charge, CostModel, Kind, Ms, Term};
use crate::faults::FaultPlan;
use crate::time::{SimDuration, SimTime};
use crate::topology::{HostId, Topology};
use obs::trace::{CacheOutcome, SpanId, TraceKind, Tracer};
use obs::{CounterSource, MetricsRegistry};

/// A world's structural counters, useful for asserting the *structure* of
/// operations (e.g. "a cold `FindNSM` makes exactly six remote data
/// mappings"): the `net` component's counters, read off the ledger
/// ([`Ledger::counters`]).
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

/// The simulation environment shared by all components.
#[derive(Debug)]
pub struct World {
    /// The virtual clock all costs are charged against, and its ledger.
    pub clock: VirtualClock,
    /// Hosts on the simulated LAN.
    pub topology: Topology,
    /// The calibrated cost constants, read only through [`World::charge`]
    /// and [`World::price`].
    costs: CostModel,
    /// Optional event and span recorder.
    pub tracer: Tracer,
    metrics: MetricsRegistry,
    faults: RwLock<Option<Arc<FaultPlan>>>,
    /// Mirrors `faults.is_some()` so the per-call fault query on the RPC
    /// hot path is one relaxed load in the (overwhelmingly common)
    /// fault-free case instead of a read-lock plus `Arc` clone — the
    /// lock word was a measurable serialization point under
    /// multi-threaded load.
    faults_installed: AtomicBool,
}

impl World {
    /// Creates a world with the given cost model. Its registry reads the
    /// `net` rows off its ledger.
    pub fn new(costs: CostModel) -> Arc<Self> {
        let world = Arc::new(World {
            clock: VirtualClock::new(),
            topology: Topology::new(),
            costs,
            tracer: Tracer::new(),
            metrics: MetricsRegistry::new(),
            faults: RwLock::new(None),
            faults_installed: AtomicBool::new(false),
        });
        world.metrics.register("net", &world);
        world
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
    /// the microsecond, and files the same microseconds, with the term's
    /// units, in the ledger's row of its kind. `#[inline(always)]`, as
    /// `CostModel::price` is: with the hint alone the inliner costs the
    /// whole `match` the price brings in, before the caller's term folds
    /// it to one arm, and calls the charge out of line.
    #[inline(always)]
    pub fn charge(&self, term: Term<'_>) {
        let Charge { kind, units, ms } = self.costs.price(term);
        self.clock.charge(kind, units, obs::ms_to_us(ms));
    }

    /// What `term` costs in this world, in milliseconds, as
    /// [`World::charge`] would charge it before rounding.
    #[inline]
    pub fn price(&self, term: Term<'_>) -> Ms {
        self.costs.price(term).ms
    }

    /// Lets `d` pass with nothing done: an idle, a TTL's lapse, the wait
    /// for a fault to heal. The ledger files it as a [`Kind::Wait`].
    #[inline]
    pub fn wait(&self, d: SimDuration) {
        self.clock.charge(Kind::Wait, 0, d.as_us());
    }

    /// Charges `ms` virtual milliseconds, filed as a [`Kind::Wait`].
    ///
    /// Pinned by `benchmark/`; goes in ROADMAP item 1(c).
    #[inline]
    pub fn charge_ms(&self, ms: Ms) {
        self.clock.charge(Kind::Wait, 0, obs::ms_to_us(ms));
    }

    /// A reading of the ledger: per kind, what was charged so far.
    pub fn ledger(&self) -> Ledger {
        self.clock.ledger()
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

    /// The `net` counters so far, read off the ledger.
    pub fn counters(&self) -> CounterSnapshot {
        self.ledger().counters()
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

    /// Measures `f`: what it charged, as the ledger's delta over it.
    /// The delta's [`Ledger::total`] is its duration, and
    /// [`Ledger::counters`] its calls and lookups. A debug build checks
    /// that every charge the calling thread made was filed in a row, so
    /// that the delta's rows sum to its total.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (R, Ledger) {
        let mut op = self.ledger();
        let r = f();
        self.clock.since(&mut op);
        debug_assert!(
            self.clock.owner_balanced(),
            "a charge moved the clock without filing its row"
        );
        (r, op)
    }
}

/// The `net` rows a world's registry publishes: each of its counters,
/// read off the ledger, once the world has made a call or a lookup of
/// its kind — a world that made none has no `net` row, and a remote
/// call's bytes row comes with its call row.
impl CounterSource for World {
    fn rows(&self, row: &mut dyn FnMut(&'static str, u64)) {
        let net = self.counters();
        if net.remote_calls != 0 {
            row("remote_calls", net.remote_calls);
            row("bytes_sent", net.bytes_sent);
        }
        if net.local_calls != 0 {
            row("local_calls", net.local_calls);
        }
        if net.ns_lookups != 0 {
            row("ns_lookups", net.ns_lookups);
        }
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
    use crate::clock::Row;
    use crate::costs::{CacheForm, RpcSuiteKind};

    #[test]
    fn charge_advances_clock_by_the_price() {
        let w = World::paper();
        w.charge(Term::BindService);
        assert_eq!(w.now().as_us(), 8_000);
        w.wait(SimDuration::from_ms(19));
        assert_eq!(w.now().as_us(), 27_000);
    }

    /// One step of a random run: a term of the variant `which` names,
    /// carrying the step's counts, or (past the last variant) a wait or a
    /// `charge_ms`.
    #[derive(Debug, Clone)]
    struct Step {
        which: usize,
        suite: usize,
        bytes: usize,
        rrs: usize,
        sets: Vec<usize>,
        ms: Ms,
    }

    const WAIT: usize = 29;
    const CHARGE_MS: usize = 30;

    /// `step`'s term, fed `sets`, with the kind the ledger must file it
    /// under and the units it carries; `None` for a wait.
    fn term<'a>(
        step: &Step,
        sets: &'a mut dyn Iterator<Item = usize>,
    ) -> Option<(Term<'a>, Kind, u64)> {
        let suite = [
            RpcSuiteKind::Sun,
            RpcSuiteKind::Courier,
            RpcSuiteKind::RawTcp,
            RpcSuiteKind::RawUdp,
            RpcSuiteKind::DnsUdp,
        ][step.suite];
        let (bytes, rrs, ms) = (step.bytes, step.rrs, step.ms);
        let (b, r) = (bytes as u64, rrs as u64);
        let (marshalled, demarshalled) = (CacheForm::Marshalled, CacheForm::Demarshalled);
        Some(match step.which {
            0 => (Term::LocalCall, Kind::LocalCall, 0),
            1 => (Term::RemoteRequest { suite, bytes }, Kind::RemoteRequest, b),
            2 => (Term::ReplicaPush { suite, bytes }, Kind::ReplicaPush, b),
            3 => (Term::ReplyBytes { bytes }, Kind::ReplyBytes, b),
            4 => (Term::RetryBackoff { ms }, Kind::RetryBackoff, 0),
            5 => (Term::LatencySpike { ms }, Kind::LatencySpike, 0),
            6 => (Term::PortmapService, Kind::PortmapService, 0),
            7 => (Term::ZoneTransfer { suite, bytes }, Kind::ZoneTransfer, b),
            8 => (Term::BindLookup, Kind::BindLookup, 0),
            9 => (Term::BindService, Kind::BindService, 0),
            10 => (Term::ChAuth, Kind::ChAuth, 0),
            11 => (Term::ChRead, Kind::ChRead, 0),
            12 => (Term::ChDiskReads { n: rrs }, Kind::ChDiskReads, r),
            13 => (Term::CacheProbe, Kind::CacheProbe, 0),
            14 => (
                Term::CacheHit {
                    form: marshalled,
                    rrs,
                },
                Kind::CacheHit,
                r,
            ),
            15 => (
                Term::CacheHit {
                    form: demarshalled,
                    rrs,
                },
                Kind::CacheHit,
                r,
            ),
            16 => (Term::GeneratedMiss { rrs }, Kind::GeneratedMiss, r),
            17 => (Term::ResolverQuery { rrs }, Kind::ResolverQuery, r),
            18 => {
                let records = step.sets.iter().sum::<usize>() as u64;
                (Term::ResolverBatch { sets }, Kind::ResolverBatch, records)
            }
            19 => (Term::FastMarshal { rrs }, Kind::FastMarshal, r),
            20 => (Term::HnsBookkeeping, Kind::HnsBookkeeping, 0),
            21 => (Term::FindNsmArgMarshal, Kind::FindNsmArgMarshal, 0),
            22 => (Term::NsmArgMarshal, Kind::NsmArgMarshal, 0),
            23 => (Term::AgentArgMarshal, Kind::AgentArgMarshal, 0),
            24 => (Term::NsmAssemble, Kind::NsmAssemble, 0),
            25 => (Term::BindingAssembly { rrs }, Kind::BindingAssembly, r),
            26 => (Term::InterimFileBind, Kind::InterimFileBind, 0),
            27 => (Term::ReregAssemble, Kind::ReregAssemble, 0),
            28 => (Term::ReregPerName, Kind::ReregPerName, 0),
            _ => return None,
        })
    }

    fn step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        (
            0usize..=CHARGE_MS,
            0usize..5,
            0usize..=65_536,
            0usize..=64,
            proptest::collection::vec(0usize..=64, 0..8),
            0.0..500.0f64,
        )
            .prop_map(|(which, suite, bytes, rrs, sets, ms)| Step {
                which,
                suite,
                bytes,
                rrs,
                sets,
                ms,
            })
    }

    proptest::proptest! {
        /// A random run of terms and waits, at every count a run makes
        /// (up to 64 KiB on the wire, 64 records in a message, 64
        /// Clearinghouse reads): each charge advances the clock by its
        /// price rounded once and files those microseconds in its kind's
        /// row; after each step the rows are what was charged, they sum
        /// to the clock's delta, and `counters` — and the registry's
        /// `net` rows — are the four sums read off them.
        #[test]
        fn the_ledger_files_every_charge_and_sums_to_the_clock(
            steps in proptest::collection::vec(step(), 0..48),
        ) {
            use proptest::prop_assert_eq;
            let w = World::paper();
            w.wait(SimDuration::from_us(7));
            let (start, before) = (w.now(), w.ledger());
            let mut model = [Row::default(); Kind::COUNT];
            for step in &steps {
                let (mut priced, mut charged) = (step.sets.iter().copied(), step.sets.iter().copied());
                let at = w.now();
                let (kind, units, us) = match (term(step, &mut priced), term(step, &mut charged)) {
                    (Some((priced, kind, units)), Some((charged, _, _))) => {
                        let us = obs::ms_to_us(w.price(priced));
                        w.charge(charged);
                        (kind, units, us)
                    }
                    _ if step.which == WAIT => {
                        w.wait(SimDuration::from_us(step.bytes as u64));
                        (Kind::Wait, 0, step.bytes as u64)
                    }
                    _ => {
                        w.charge_ms(step.ms);
                        (Kind::Wait, 0, obs::ms_to_us(step.ms))
                    }
                };
                prop_assert_eq!(w.now().since(at).as_us(), us);
                let row = &mut model[kind as usize];
                (row.count, row.units, row.us) = (row.count + 1, row.units + units, row.us + us);

                let mut delta = before;
                w.clock.since(&mut delta);
                let rows: Vec<Row> = delta.rows().map(|(_, row)| row).collect();
                prop_assert_eq!(&rows[..], &model[..]);
                prop_assert_eq!(delta.total(), w.now().since(start));
                prop_assert_eq!(rows.iter().map(|row| row.us).sum::<u64>(), delta.total().as_us());
                let row = |kind: Kind| model[kind as usize];
                let net = CounterSnapshot {
                    remote_calls: row(Kind::RemoteRequest).count,
                    local_calls: row(Kind::LocalCall).count,
                    bytes_sent: row(Kind::RemoteRequest).units,
                    ns_lookups: row(Kind::BindLookup).count + row(Kind::ChRead).count,
                };
                prop_assert_eq!(w.counters(), net);
                let snap = w.metrics().snapshot();
                let published = |name| snap.counter("net", name).unwrap_or(0);
                prop_assert_eq!(published("remote_calls"), net.remote_calls);
                prop_assert_eq!(published("bytes_sent"), net.bytes_sent);
                prop_assert_eq!(published("local_calls"), net.local_calls);
                prop_assert_eq!(published("ns_lookups"), net.ns_lookups);
            }
        }
    }

    /// A world that made no call has no `net` row; its first call of each
    /// kind brings that kind's rows, read off the ledger.
    #[test]
    fn net_rows_appear_with_their_first_call() {
        let w = World::paper();
        assert_eq!(w.counters(), CounterSnapshot::default());
        w.charge(Term::CacheProbe);
        w.charge(Term::BindService);
        w.charge(Term::ReplicaPush {
            suite: RpcSuiteKind::Courier,
            bytes: 512,
        });
        assert!(w.metrics().snapshot().counters.is_empty());
        let suite = RpcSuiteKind::Sun;
        w.charge(Term::RemoteRequest { suite, bytes: 0 });
        let snap = w.metrics().snapshot();
        assert_eq!(snap.counter("net", "remote_calls"), Some(1));
        assert_eq!(snap.counter("net", "bytes_sent"), Some(0));
        assert_eq!(snap.counter("net", "local_calls"), None);
        w.charge(Term::LocalCall);
        w.charge(Term::ChRead);
        w.charge(Term::BindLookup);
        let snap = w.metrics().snapshot();
        assert_eq!(snap.counter("net", "local_calls"), Some(1));
        assert_eq!(snap.counter("net", "ns_lookups"), Some(2));
    }

    #[test]
    fn measure_reports_deltas_only() {
        let w = World::paper();
        w.wait(SimDuration::from_ms(10));
        let suite = RpcSuiteKind::Sun;
        w.charge(Term::RemoteRequest { suite, bytes: 10 });
        let (val, op) = w.measure(|| {
            w.wait(SimDuration::from_ms(5));
            w.charge(Term::RemoteRequest { suite, bytes: 7 });
            "ok"
        });
        assert_eq!(val, "ok");
        let request = w.price(Term::RemoteRequest { suite, bytes: 7 });
        assert_eq!(op.total().as_us(), 5_000 + obs::ms_to_us(request));
        assert_eq!(op.row(Kind::Wait).us, 5_000);
        assert_eq!(op.counters().remote_calls, 1);
        assert_eq!(op.counters().bytes_sent, 7);
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
}
