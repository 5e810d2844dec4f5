//! Unified metrics registry: counters and fixed-bucket latency
//! histograms keyed by `(component, name)`.
//!
//! Components register metrics lazily through [`MetricsRegistry`]; the
//! handles ([`Counter`], [`Histogram`]) are cheap `Arc`s that hot paths
//! cache. Both are single-writer structures ([`crate::word`]): the first
//! thread to write one owns it and writes with plain loads and stores,
//! any other thread atomically into a shared half, and a reader merges
//! the two — so concurrent `inc`s and `record`s are never lost (asserted
//! by the concurrency tests below).
//!
//! A structure that keeps its own counters — every cache does —
//! registers itself once as a [`CounterSource`] instead, and each
//! snapshot reads it then, summing the rows of every live source.
//!
//! Histogram buckets are fixed at construction: exact buckets for
//! values `0..64` (so small counts — round trips, record counts — are
//! reported exactly), then 16 sub-buckets per power of two above that
//! (≤ ~6% relative error for latencies). Percentiles report the upper
//! bound of the bucket containing the target rank, which makes
//! `percentile(p)` monotone in `p` by construction (proptested).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::RwLock;

use crate::word::{OwnedWord, Owner};

/// Number of exact (width-1) buckets at the bottom of every histogram.
const LINEAR_BUCKETS: usize = 64;
/// Sub-buckets per power-of-two octave above the linear range.
const SUB_BUCKETS: usize = 16;
/// Octaves covered: values with a top bit in positions 6..=63.
const OCTAVES: usize = 58;
/// Total bucket count.
const BUCKETS: usize = LINEAR_BUCKETS + OCTAVES * SUB_BUCKETS;

#[inline]
fn bucket_of(v: u64) -> usize {
    if v < LINEAR_BUCKETS as u64 {
        v as usize
    } else {
        let k = 63 - v.leading_zeros() as usize; // top bit position, >= 6
        let sub = ((v >> (k - 4)) & 15) as usize;
        LINEAR_BUCKETS + (k - 6) * SUB_BUCKETS + sub
    }
}

pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i < LINEAR_BUCKETS {
        i as u64
    } else {
        let j = i - LINEAR_BUCKETS;
        let k = j / SUB_BUCKETS + 6;
        let sub = (j % SUB_BUCKETS) as u64;
        let next_lower = ((16 + sub + 1) as u128) << (k - 4);
        if next_lower > u64::MAX as u128 {
            u64::MAX // topmost bucket
        } else {
            (next_lower - 1) as u64
        }
    }
}

/// `ms` milliseconds as whole microseconds: `(ms * 1000.0).round()`,
/// halves away from zero, saturating — 0 for a negative or NaN duration,
/// `u64::MAX` from 2^64 µs up — with no call into libm. Every charge of
/// virtual time in milliseconds converts through it; a `_us` histogram is
/// handed whole microseconds (`SimDuration::as_us`).
#[inline]
pub fn ms_to_us(ms: f64) -> u64 {
    let us = ms * 1000.0;
    // `as` truncates toward zero and saturates, NaN to 0; below 2^64 the
    // fraction `us - whole` is exact.
    let whole = us as u64;
    whole.saturating_add(u64::from(us - whole as f64 >= 0.5))
}

/// A monotone counter: one [`OwnedWord`], which its first adder — in a
/// run, the thread driving it — adds to without a lock-prefixed
/// instruction.
pub struct Counter(OwnedWord);

impl Counter {
    fn new() -> Self {
        Counter(OwnedWord::new())
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`; adding zero touches nothing.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.add(n);
        }
    }

    /// Current total.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0.get()
    }
}

/// Something that keeps its own counters — a cache — read at every
/// [`MetricsRegistry::snapshot`] once [`MetricsRegistry::register`] has
/// filed it under a component.
pub trait CounterSource: Send + Sync {
    /// Hands `row` each `(name, value)` the source publishes now; a name
    /// it leaves out is no row of its.
    fn rows(&self, row: &mut dyn FnMut(&'static str, u64));
}

/// A counter handle resolved against a registry on first use.
///
/// Hot paths that call [`MetricsRegistry::inc`] pay two `String`
/// allocations and a registry read-lock per increment. A component that
/// owns a `LazyCounter` field pays that once — the first increment
/// registers the metric (so snapshots look exactly as if the component
/// had called `inc` directly: a never-touched metric never appears) and
/// later increments are one add to its word.
#[derive(Default)]
pub struct LazyCounter {
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    /// Creates an unresolved handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying counter, registering `component/name` in
    /// `registry` on first use. Always pass the same registry.
    #[inline]
    pub fn get(&self, registry: &MetricsRegistry, component: &str, name: &str) -> &Counter {
        match self.cell.get() {
            Some(counter) => counter,
            None => self.register(registry, component, name),
        }
    }

    #[cold]
    fn register(&self, registry: &MetricsRegistry, component: &str, name: &str) -> &Counter {
        self.cell.get_or_init(|| registry.counter(component, name))
    }

    /// The counter's total, 0 while unresolved. Registers nothing.
    #[inline]
    pub fn value(&self) -> u64 {
        self.cell.get().map_or(0, |counter| counter.value())
    }
}

impl std::fmt::Debug for LazyCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyCounter")
            .field("resolved", &self.cell.get().is_some())
            .finish()
    }
}

/// A histogram handle resolved against a registry on first use; the
/// histogram twin of [`LazyCounter`].
#[derive(Default)]
pub struct LazyHistogram {
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    /// Creates an unresolved handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying histogram, registering `component/name` in
    /// `registry` on first use. Always pass the same registry.
    #[inline]
    pub fn get(&self, registry: &MetricsRegistry, component: &str, name: &str) -> &Histogram {
        match self.cell.get() {
            Some(histogram) => histogram,
            None => self.register(registry, component, name),
        }
    }

    #[cold]
    fn register(&self, registry: &MetricsRegistry, component: &str, name: &str) -> &Histogram {
        self.cell
            .get_or_init(|| registry.histogram(component, name))
    }
}

impl std::fmt::Debug for LazyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyHistogram")
            .field("resolved", &self.cell.get().is_some())
            .finish()
    }
}

/// A fixed-bucket histogram of `u64` samples. A sample is counted once,
/// in its bucket: the total is their sum.
///
/// A single-writer structure, as [`OwnedWord`] is: the first thread to
/// record owns the histogram's own buckets, sum and extremes, and writes
/// them with plain loads and stores. Any other thread records atomically
/// into a shared half of the same shape, allocated on the first such
/// record — so a histogram only one thread writes costs one half. Every
/// reading merges the halves.
pub struct Histogram {
    owner: Owner,
    own: Cells,
    shared: OnceLock<Box<Cells>>,
}

/// One half of a [`Histogram`].
struct Cells {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Cells {
    fn new() -> Self {
        Cells {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The owner's record: no other thread writes these cells, so each is
    /// a relaxed load and store.
    #[inline]
    fn record_owned(&self, v: u64) {
        let bucket = &self.buckets[bucket_of(v)];
        bucket.store(bucket.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        if v != 0 {
            let sum = self.sum.load(Ordering::Relaxed);
            self.sum.store(sum.wrapping_add(v), Ordering::Relaxed);
        }
        if v < self.min.load(Ordering::Relaxed) {
            self.min.store(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.store(v, Ordering::Relaxed);
        }
    }

    /// A foreign thread's record. The extremes are written only when a
    /// load says the sample is a new one: the minimum only ever falls and
    /// the maximum only rises, so a sample the load finds inside them
    /// stays inside them, and skipping its read-modify-write is exact.
    #[cold]
    fn record_shared(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        if v != 0 {
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            owner: Owner::default(),
            own: Cells::new(),
            shared: OnceLock::new(),
        }
    }

    /// Records one sample. A zero sample leaves the sum alone.
    #[inline]
    pub fn record(&self, v: u64) {
        if self.owner.is_mine() {
            self.own.record_owned(v);
        } else {
            self.shared
                .get_or_init(|| Box::new(Cells::new()))
                .record_shared(v);
        }
    }

    /// The halves written so far: the own one, and the shared one once a
    /// foreign thread has recorded.
    fn halves(&self) -> impl Iterator<Item = &Cells> {
        std::iter::once(&self.own).chain(self.shared.get().map(|cells| &**cells))
    }

    /// Total recorded samples: the buckets' sum.
    pub fn count(&self) -> u64 {
        self.halves()
            .flat_map(|cells| cells.buckets.iter())
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.halves()
            .map(|cells| cells.sum.load(Ordering::Relaxed))
            .fold(0, u64::wrapping_add)
    }

    /// The value at quantile `p` in `[0, 1]`: the upper bound of the
    /// bucket holding the sample of rank `ceil(p * count)`. Returns 0
    /// for an empty histogram. Monotone in `p`.
    pub fn percentile(&self, p: f64) -> u64 {
        percentile_from_buckets(&self.bucket_counts(), p)
    }

    /// One reading: the statistics and the merged bucket counts they were
    /// computed from, so `count` is exactly the buckets' sum.
    fn sample(&self) -> (HistogramStats, Vec<u64>) {
        let buckets = self.bucket_counts();
        let count = buckets.iter().sum();
        let (mut min, mut max) = (u64::MAX, 0);
        for cells in self.halves() {
            min = min.min(cells.min.load(Ordering::Relaxed));
            max = max.max(cells.max.load(Ordering::Relaxed));
        }
        let stats = HistogramStats {
            count,
            sum: self.sum(),
            min: if count == 0 { 0 } else { min },
            max,
            p50: percentile_from_buckets(&buckets, 0.50),
            p95: percentile_from_buckets(&buckets, 0.95),
            p99: percentile_from_buckets(&buckets, 0.99),
        };
        (stats, buckets)
    }

    /// A copy of the raw per-bucket counts, both halves merged.
    pub fn bucket_counts(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self
            .own
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        if let Some(shared) = self.shared.get() {
            for (count, b) in counts.iter_mut().zip(shared.buckets.iter()) {
                *count += b.load(Ordering::Relaxed);
            }
        }
        counts
    }
}

/// The value at quantile `p` over a raw bucket-count slice (as returned
/// by [`Histogram::bucket_counts`], or the bucketwise difference of two
/// such slices that [`MetricsSnapshot::delta`] reads): the upper bound
/// of the bucket holding the sample of rank `ceil(p * count)`. Returns 0
/// when the buckets are empty.
pub fn percentile_from_buckets(buckets: &[u64], p: f64) -> u64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0;
    }
    let p = p.clamp(0.0, 1.0);
    let target = ((p * count as f64).ceil() as u64).max(1);
    let mut cumulative = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        cumulative += b;
        if cumulative >= target {
            return bucket_upper(i);
        }
    }
    bucket_upper(buckets.len().saturating_sub(1))
}

/// A single-owner histogram with the exact bucket layout of
/// [`Histogram`] but plain (non-atomic) cells: a record is two array
/// writes and four scalar updates with no shared cache-line traffic.
#[derive(Clone)]
pub struct LocalHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LocalHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at quantile `p` in `[0, 1]`, as [`Histogram::percentile`].
    pub fn percentile(&self, p: f64) -> u64 {
        percentile_from_buckets(&self.buckets, p)
    }

    /// Point-in-time statistics, shaped like [`Histogram`]'s.
    pub fn stats(&self) -> HistogramStats {
        HistogramStats {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }
}

impl std::fmt::Debug for LocalHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalHistogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .finish()
    }
}

/// Point-in-time statistics of one histogram. The all-zero `Default`
/// matches the stats of an empty histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramStats {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl HistogramStats {
    /// Arithmetic mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A counter's identity and value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    pub component: String,
    pub name: String,
    pub value: u64,
}

/// A histogram's identity and statistics inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    pub component: String,
    pub name: String,
    pub stats: HistogramStats,
    /// The merged per-bucket counts `stats` was read from, in the same
    /// reading. [`MetricsSnapshot::delta`] differences two of these.
    pub(crate) buckets: Vec<u64>,
}

/// Registry of all counters and histograms, keyed by `(component, name)`,
/// and of the [`CounterSource`]s each snapshot reads.
///
/// Metric names carry their unit as a suffix by convention: `*_us` for
/// microsecond histograms, bare names for counts.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<HashMap<(String, String), Arc<Counter>>>,
    histograms: RwLock<HashMap<(String, String), Arc<Histogram>>>,
    sources: RwLock<Vec<(&'static str, Weak<dyn CounterSource>)>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.counters.read().len())
            .field("histograms", &self.histograms.read().len())
            .finish()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (registering if needed) the counter `component/name`.
    pub fn counter(&self, component: &str, name: &str) -> Arc<Counter> {
        if let Some(c) = self
            .counters
            .read()
            .get(&(component.to_string(), name.to_string()))
        {
            return Arc::clone(c);
        }
        let mut w = self.counters.write();
        Arc::clone(
            w.entry((component.to_string(), name.to_string()))
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Returns (registering if needed) the histogram `component/name`.
    pub fn histogram(&self, component: &str, name: &str) -> Arc<Histogram> {
        if let Some(h) = self
            .histograms
            .read()
            .get(&(component.to_string(), name.to_string()))
        {
            return Arc::clone(h);
        }
        let mut w = self.histograms.write();
        Arc::clone(
            w.entry((component.to_string(), name.to_string()))
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Adds one to the counter `component/name`.
    #[cold]
    pub fn inc(&self, component: &str, name: &str) {
        self.counter(component, name).inc();
    }

    /// Adds `n` to the counter `component/name`.
    #[cold]
    pub fn add(&self, component: &str, name: &str, n: u64) {
        self.counter(component, name).add(n);
    }

    /// Files `source` under `component`: every snapshot from now on reads
    /// its rows, until it is dropped — the registry holds it weakly, so a
    /// dropped source contributes nothing.
    pub fn register<S: CounterSource + 'static>(&self, component: &'static str, source: &Arc<S>) {
        let source = Arc::downgrade(source) as Weak<dyn CounterSource>;
        let mut sources = self.sources.write();
        if sources.len() == sources.capacity() {
            sources.retain(|(_, source)| source.strong_count() > 0);
        }
        sources.push((component, source));
    }

    /// Records a raw sample into the histogram `component/name`.
    #[cold]
    pub fn record(&self, component: &str, name: &str, v: u64) {
        self.histogram(component, name).record(v);
    }

    /// A deterministic point-in-time snapshot of every metric, sorted
    /// by `(component, name)`. It reads every live source: the rows of one
    /// `(component, name)` are summed over the sources filed under that
    /// component, and with the counter of that name, if there is one.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let live: Vec<_> = (self.sources.read().iter())
            .filter_map(|(component, source)| Some((*component, source.upgrade()?)))
            .collect();
        let registered = self.counters.read();
        let mut rows: BTreeMap<(&str, &str), u64> = (registered.iter())
            .map(|((component, name), c)| ((component.as_str(), name.as_str()), c.value()))
            .collect();
        for (component, source) in &live {
            source.rows(&mut |name, value| {
                let sum = rows.entry((*component, name)).or_default();
                *sum = sum.wrapping_add(value);
            });
        }
        let counters = (rows.into_iter())
            .map(|((component, name), value)| CounterSample {
                component: component.to_string(),
                name: name.to_string(),
                value,
            })
            .collect();
        let mut histograms: Vec<HistogramSample> = self
            .histograms
            .read()
            .iter()
            .map(|((component, name), h)| {
                let (stats, buckets) = h.sample();
                HistogramSample {
                    component: component.clone(),
                    name: name.clone(),
                    stats,
                    buckets,
                }
            })
            .collect();
        histograms.sort_by(|a, b| (&a.component, &a.name).cmp(&(&b.component, &b.name)));
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// Point-in-time view of the whole registry, renderable as text or JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSample>,
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// The componentwise difference `self - earlier`.
    ///
    /// Counters subtract saturating (a source's row can legitimately move
    /// backwards — a gauge such as `entries`, or a sum one of whose
    /// sources was dropped; the delta clamps at zero rather than
    /// wrapping). A histogram differences its buckets, each saturating:
    /// since buckets only grow, the difference is exactly the samples
    /// recorded in between, and the delta's `count` and percentiles are
    /// read off it; its `sum` subtracts saturating. Metrics with a zero
    /// delta — and metrics present only in `earlier` — are omitted, so
    /// the delta of two identical snapshots is empty.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsDelta {
        let counters = self
            .counters
            .iter()
            .filter_map(|c| {
                let before = earlier.counter(&c.component, &c.name).unwrap_or(0);
                let delta = c.value.saturating_sub(before);
                (delta != 0).then(|| CounterDelta {
                    component: c.component.clone(),
                    name: c.name.clone(),
                    delta,
                })
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|h| {
                let before = (earlier.histograms.iter())
                    .find(|e| e.component == h.component && e.name == h.name);
                let (sum, buckets) = match before {
                    Some(before) => (
                        h.stats.sum.saturating_sub(before.stats.sum),
                        (h.buckets.iter().zip(&before.buckets))
                            .map(|(now, then)| now.saturating_sub(*then))
                            .collect(),
                    ),
                    None => (h.stats.sum, h.buckets.clone()),
                };
                let count = buckets.iter().sum();
                (count != 0 || sum != 0).then(|| HistogramDelta {
                    component: h.component.clone(),
                    name: h.name.clone(),
                    count,
                    sum,
                    p50: percentile_from_buckets(&buckets, 0.50),
                    p95: percentile_from_buckets(&buckets, 0.95),
                    p99: percentile_from_buckets(&buckets, 0.99),
                })
            })
            .collect();
        MetricsDelta {
            counters,
            histograms,
        }
    }

    /// Looks up a counter's value by `component/name`.
    pub fn counter(&self, component: &str, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.component == component && c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a histogram's stats by `component/name`.
    pub fn histogram(&self, component: &str, name: &str) -> Option<&HistogramStats> {
        self.histograms
            .iter()
            .find(|h| h.component == component && h.name == name)
            .map(|h| &h.stats)
    }

    /// Human-readable table: one line per metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("metrics snapshot\n");
        if !self.counters.is_empty() {
            out.push_str("  counters:\n");
            for c in &self.counters {
                out.push_str(&format!("    {}/{} = {}\n", c.component, c.name, c.value));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("  histograms:\n");
            for h in &self.histograms {
                let s = &h.stats;
                out.push_str(&format!(
                    "    {}/{}: n={} mean={:.1} p50={} p95={} p99={} max={}\n",
                    h.component,
                    h.name,
                    s.count,
                    s.mean(),
                    s.p50,
                    s.p95,
                    s.p99,
                    s.max
                ));
            }
        }
        out
    }

    /// JSON export (`BENCH_*.json`-compatible object with `counters`
    /// and `histograms` arrays).
    pub fn to_json(&self) -> String {
        use crate::json::{number, string};
        let mut out = String::from("{\n  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"component\": {}, \"name\": {}, \"value\": {}}}",
                string(&c.component),
                string(&c.name),
                c.value
            ));
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = &h.stats;
            out.push_str(&format!(
                "\n    {{\"component\": {}, \"name\": {}, \"count\": {}, \"sum\": {}, \
                 \"mean\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                string(&h.component),
                string(&h.name),
                s.count,
                s.sum,
                number(s.mean()),
                s.min,
                s.max,
                s.p50,
                s.p95,
                s.p99
            ));
        }
        out.push_str("\n  ]\n}");
        out
    }
}

/// One counter's change between two snapshots (omitted when zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDelta {
    pub component: String,
    pub name: String,
    /// `later - earlier`, saturating at zero.
    pub delta: u64,
}

/// One histogram's change between two snapshots (omitted when `count`
/// and `sum` are both zero): the statistics of only the samples recorded
/// in between, read off the bucketwise difference of the bucket counts
/// each snapshot's [`HistogramSample`] keeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramDelta {
    pub component: String,
    pub name: String,
    /// Samples recorded between the snapshots: the difference's sum.
    pub count: u64,
    /// Sum recorded between the snapshots.
    pub sum: u64,
    /// Percentiles of the samples recorded between the snapshots.
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl HistogramDelta {
    /// Arithmetic mean of the samples in the delta (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The difference between two [`MetricsSnapshot`]s, as produced by
/// [`MetricsSnapshot::delta`]. Entries keep snapshot order (sorted by
/// `(component, name)`); zero-delta entries are omitted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsDelta {
    pub counters: Vec<CounterDelta>,
    pub histograms: Vec<HistogramDelta>,
}

impl MetricsDelta {
    /// A counter's change, 0 if absent from the delta.
    pub fn counter(&self, component: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.component == component && c.name == name)
            .map(|c| c.delta)
            .unwrap_or(0)
    }

    /// A histogram's change, if it recorded anything in the interval.
    pub fn histogram(&self, component: &str, name: &str) -> Option<&HistogramDelta> {
        self.histograms
            .iter()
            .find(|h| h.component == component && h.name == name)
    }

    /// True when nothing changed between the snapshots.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_mapping_is_exact_below_linear_range() {
        for v in 0..LINEAR_BUCKETS as u64 {
            assert_eq!(bucket_upper(bucket_of(v)), v);
        }
    }

    #[test]
    fn bucket_upper_bounds_are_tight() {
        for v in [64u64, 100, 1_000, 65_700, 1 << 32, u64::MAX] {
            let i = bucket_of(v);
            let upper = bucket_upper(i);
            assert!(upper >= v, "upper {upper} < value {v}");
            // ≤ ~6.7% relative error above the linear range.
            assert!(
                (upper - v) as f64 <= v as f64 / 15.0,
                "bucket too wide for {v}: upper {upper}"
            );
        }
    }

    #[test]
    fn bucket_uppers_are_strictly_increasing() {
        for i in 1..BUCKETS {
            assert!(bucket_upper(i) > bucket_upper(i - 1), "bucket {i}");
        }
    }

    #[test]
    fn histogram_percentiles_on_known_distribution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.percentile(0.50), 50);
        // 95 and 99 fall above the linear range boundary? No: < 64 is
        // exact, 95 and 99 land in octave buckets.
        assert!(h.percentile(0.95) >= 95);
        assert!(h.percentile(0.99) >= 99);
        assert!(h.percentile(1.0) >= h.percentile(0.99));
    }

    #[test]
    fn registry_reuses_handles_and_snapshots_deterministically() {
        let m = MetricsRegistry::new();
        let a = m.counter("hns_cache", "hits");
        let b = m.counter("hns_cache", "hits");
        assert!(Arc::ptr_eq(&a, &b));
        a.add(3);
        m.inc("hns_cache", "hits");
        m.record("hns_meta", "mapping1_us", 32_900);
        let snap = m.snapshot();
        assert_eq!(snap.counter("hns_cache", "hits"), Some(4));
        let hist = snap.histogram("hns_meta", "mapping1_us").expect("hist");
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum, 32_900);
        // Deterministic ordering.
        let snap2 = m.snapshot();
        assert_eq!(snap, snap2);
    }

    #[test]
    fn snapshot_json_parses_and_round_trips_values() {
        let m = MetricsRegistry::new();
        m.add("net", "remote_calls", 6);
        m.record("hns", "find_nsm_round_trips_sequential", 6);
        let json = m.snapshot().to_json();
        let v = crate::json::parse(&json).expect("valid JSON");
        let counters = v.get("counters").unwrap().as_array().unwrap();
        assert_eq!(counters.len(), 1);
        assert_eq!(counters[0].get("value").unwrap().as_u64(), Some(6));
        let hists = v.get("histograms").unwrap().as_array().unwrap();
        assert_eq!(hists[0].get("p50").unwrap().as_u64(), Some(6));
    }

    #[test]
    fn lazy_handles_register_on_first_use_only() {
        let m = MetricsRegistry::new();
        let c = LazyCounter::new();
        let h = LazyHistogram::new();
        // Unused handles leave the registry untouched — snapshots look
        // exactly as if the component had never reported.
        assert!(m.snapshot().counters.is_empty());
        assert!(m.snapshot().histograms.is_empty());
        c.get(&m, "net", "remote_calls").add(3);
        c.get(&m, "net", "remote_calls").inc();
        h.get(&m, "hns", "find_nsm_us").record(1_500);
        let snap = m.snapshot();
        assert_eq!(snap.counter("net", "remote_calls"), Some(4));
        assert_eq!(snap.histogram("hns", "find_nsm_us").unwrap().sum, 1_500);
        // The resolved handle is the registry's own Arc.
        assert!(Arc::ptr_eq(
            &m.counter("net", "remote_calls"),
            &m.counter("net", "remote_calls")
        ));
    }

    /// The reference: libm's `round`, clamped at zero.
    fn libm_ms_to_us(ms: f64) -> u64 {
        (ms * 1000.0).round().max(0.0) as u64
    }

    #[test]
    fn ms_to_us_rounds_as_libm_did() {
        // The half-microsecond grid, where rounding is decided, on both
        // sides of zero and at magnitudes where the fraction thins out.
        for base in [0.0, 1e3, 1e9, 2f64.powi(40), 2f64.powi(51)] {
            for i in -4_000i32..4_000 {
                let us = base + f64::from(i) * 0.5;
                for ms in [
                    us / 1000.0,
                    (us / 1000.0).next_up(),
                    (us / 1000.0).next_down(),
                ] {
                    assert_eq!(ms_to_us(ms), libm_ms_to_us(ms), "{ms:e} ms");
                }
            }
        }
        let specials = [
            0.0,
            -0.0,
            -0.0004,
            -0.0005,
            -1.0,
            -1e300,
            f64::NAN,
            -f64::NAN,
        ];
        let huge = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        for ms in specials.into_iter().chain(huge) {
            assert_eq!(ms_to_us(ms), libm_ms_to_us(ms), "{ms:e} ms");
        }
        // From 2^64 µs up `whole` saturates, and an unsaturated `+ 1`
        // would wrap to 0.
        for us in [
            2f64.powi(64),
            2f64.powi(64).next_up(),
            1.5 * 2f64.powi(64),
            2f64.powi(70),
        ] {
            assert_eq!(ms_to_us(us / 1000.0), u64::MAX, "{us:e} µs");
            assert_eq!(libm_ms_to_us(us / 1000.0), u64::MAX);
        }
        assert_eq!(
            ms_to_us(2f64.powi(64).next_down() / 1000.0),
            libm_ms_to_us(2f64.powi(64).next_down() / 1000.0)
        );
    }

    /// A zero sample is counted in its bucket and adds nothing to the sum.
    #[test]
    fn a_zero_sample_counts_and_leaves_the_sum_alone() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!((h.count(), h.sum(), h.percentile(1.0)), (2, 0, 0));
        h.record(7);
        let (stats, _) = h.sample();
        assert_eq!((stats.count, stats.sum, stats.min, stats.max), (3, 7, 0, 7));
    }

    #[test]
    fn local_histogram_matches_atomic_histogram() {
        let atomic = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in [0u64, 1, 63, 64, 100, 5_000, 1 << 30] {
            atomic.record(v);
            local.record(v);
        }
        assert_eq!(local.stats(), atomic.sample().0);
    }

    #[test]
    fn local_histogram_empty_stats() {
        let a = LocalHistogram::new();
        assert!(a.is_empty());
        let s = a.stats();
        assert_eq!((s.count, s.min, s.max, s.p50), (0, 0, 0, 0));
    }

    /// Satellite: N threads recording into one histogram yield exact
    /// total counts — no lost updates.
    #[test]
    fn concurrent_histogram_records_are_exact() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t as u64 * 1_000 + (i % 97));
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().expect("join");
        }
        assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
        let bucket_total: u64 = h.bucket_counts().iter().sum();
        assert_eq!(bucket_total, THREADS as u64 * PER_THREAD);
    }

    /// Eight threads released together record interleaved rising and
    /// falling runs, each thread's extremes its own: the skipped
    /// compare-and-swaps lose no minimum and no maximum.
    #[test]
    fn concurrent_extremes_are_exact() {
        const THREADS: u64 = 8;
        const RUN: u64 = 2_000;
        let h = Arc::new(Histogram::new());
        let start = Arc::new(std::sync::Barrier::new(THREADS as usize));
        // Thread `t` records `base..base + RUN` rising, then falling, then
        // rising again, with `base = 1_000 + t * 100`.
        let samples = |t: u64| {
            let base = 1_000 + t * 100;
            let rising = base..base + RUN;
            rising.clone().chain(rising.clone().rev()).chain(rising)
        };
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (h, start) = (Arc::clone(&h), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    samples(t).for_each(|v| h.record(v));
                })
            })
            .collect();
        for j in handles {
            j.join().expect("join");
        }
        let all = (0..THREADS).flat_map(samples);
        let (stats, _) = h.sample();
        assert_eq!(stats.count, THREADS * 3 * RUN);
        assert_eq!(stats.sum, all.clone().sum::<u64>());
        assert_eq!(stats.min, all.clone().min().expect("samples"));
        assert_eq!(stats.max, all.max().expect("samples"));
    }

    /// Samples recorded by the owner and by a foreign thread merge into
    /// one histogram: buckets, sum, minimum and maximum are those of every
    /// sample recorded in one place — whichever half holds each extreme.
    #[test]
    fn owner_and_shared_halves_merge() {
        let owned = [5u64, 64, 900, 70_000];
        let foreign = [0u64, 3, 64, 1 << 40];
        for (first, second) in [(&owned, &foreign), (&foreign, &owned)] {
            let h = Histogram::new();
            let mut reference = LocalHistogram::new();
            first.iter().for_each(|&v| h.record(v));
            std::thread::scope(|s| {
                s.spawn(|| second.iter().for_each(|&v| h.record(v)));
            });
            first
                .iter()
                .chain(second)
                .for_each(|&v| reference.record(v));
            assert!(h.shared.get().is_some(), "the foreign records went shared");
            assert_eq!(h.sample(), (reference.stats(), reference.buckets.clone()));
            assert_eq!((h.count(), h.sum()), (8, reference.sum));
        }
    }

    /// A histogram only its owner records into allocates no shared half.
    #[test]
    fn a_single_writer_histogram_has_one_half() {
        let h = Histogram::new();
        (0..1_000).for_each(|v| h.record(v));
        assert!(h.shared.get().is_none());
        assert_eq!(h.count(), 1_000);
    }

    /// Satellite: concurrent counter increments across threads are exact.
    #[test]
    fn concurrent_counter_increments_are_exact() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50_000;
        let m = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let c = m.counter("net", "remote_calls");
                    for _ in 0..PER_THREAD {
                        c.inc();
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().expect("join");
        }
        assert_eq!(
            m.snapshot().counter("net", "remote_calls"),
            Some(THREADS as u64 * PER_THREAD)
        );
    }

    /// Satellite: snapshot deltas carry counter differences and
    /// histogram count/sum differences, omitting unchanged metrics.
    #[test]
    fn snapshot_delta_subtracts_and_omits_unchanged() {
        let m = MetricsRegistry::new();
        m.add("net", "remote_calls", 6);
        m.add("net", "local_calls", 2);
        m.record("hns", "find_nsm_us", 1_000);
        let before = m.snapshot();
        m.add("net", "remote_calls", 3);
        m.record("hns", "find_nsm_us", 500);
        m.record("hns", "find_nsm_us", 250);
        m.inc("hns", "find_nsm_calls"); // new counter mid-interval
        let after = m.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.counter("net", "remote_calls"), 3);
        assert_eq!(d.counter("hns", "find_nsm_calls"), 1);
        // Unchanged counter is omitted entirely.
        assert!(!d
            .counters
            .iter()
            .any(|c| c.component == "net" && c.name == "local_calls"));
        let h = d.histogram("hns", "find_nsm_us").expect("hist delta");
        assert_eq!((h.count, h.sum), (2, 750));
        assert!((h.mean() - 375.0).abs() < 1e-9);
        // Identical snapshots produce an empty delta.
        assert!(after.delta(&after).is_empty());
    }

    /// A source publishing fixed rows.
    struct Fixed(&'static [(&'static str, u64)]);

    impl CounterSource for Fixed {
        fn rows(&self, row: &mut dyn FnMut(&'static str, u64)) {
            self.0.iter().for_each(|&(name, value)| row(name, value));
        }
    }

    /// Every live source is read at the snapshot, and the rows of one
    /// `(component, name)` are summed: over the sources of a component,
    /// and with a counter of the same name. A name one source leaves out
    /// is the others' sum; a dropped source leaves the snapshot.
    #[test]
    fn snapshots_sum_the_rows_of_every_live_source() {
        let m = MetricsRegistry::new();
        let a = Arc::new(Fixed(&[("hits", 6), ("misses", 1)]));
        let b = Arc::new(Fixed(&[("hits", 0), ("misses", 2), ("stale_serves", 3)]));
        let other = Arc::new(Fixed(&[("hits", 40)]));
        m.register("hns_cache", &a);
        m.register("hns_cache", &b);
        m.register("nsm_cache", &other);
        m.add("nsm_cache", "hits", 2);
        let snap = m.snapshot();
        let row = |component, name| snap.counter(component, name);
        assert_eq!(row("hns_cache", "hits"), Some(6));
        assert_eq!(row("hns_cache", "misses"), Some(3));
        assert_eq!(row("hns_cache", "stale_serves"), Some(3));
        assert_eq!(row("nsm_cache", "hits"), Some(42));
        assert_eq!(snap.counters.len(), 4, "{snap:?}");

        drop(b);
        let snap = m.snapshot();
        assert_eq!(snap.counter("hns_cache", "misses"), Some(1));
        assert_eq!(snap.counter("hns_cache", "stale_serves"), None);
        drop((a, other));
        let snap = m.snapshot();
        assert_eq!(snap.counter("hns_cache", "hits"), None);
        assert_eq!(snap.counter("nsm_cache", "hits"), Some(2));
    }

    /// Registering past the list's room first lets go of dropped sources,
    /// so a registry outliving many short-lived caches does not grow.
    #[test]
    fn registering_forgets_dropped_sources() {
        let m = MetricsRegistry::new();
        let kept = Arc::new(Fixed(&[("hits", 1)]));
        m.register("c", &kept);
        for _ in 0..1_000 {
            m.register("c", &Arc::new(Fixed(&[("hits", 5)])));
        }
        assert!(m.sources.read().len() < 8, "{}", m.sources.read().len());
        assert_eq!(m.snapshot().counter("c", "hits"), Some(1));
    }

    /// A row that moves backwards — its source dropped — clamps the delta
    /// at zero instead of wrapping.
    #[test]
    fn snapshot_delta_saturates_on_backwards_counters() {
        let m = MetricsRegistry::new();
        let (a, b) = (
            Arc::new(Fixed(&[("hits", 4)])),
            Arc::new(Fixed(&[("hits", 6)])),
        );
        m.register("hns_cache", &a);
        m.register("hns_cache", &b);
        let before = m.snapshot();
        drop(b);
        let d = m.snapshot().delta(&before);
        assert_eq!(d.counter("hns_cache", "hits"), 0);
        assert!(d.is_empty());
    }

    /// A delta's histogram statistics — read off the bucketwise
    /// difference — match a histogram recording only the samples between
    /// the two snapshots.
    #[test]
    fn delta_statistics_match_a_fresh_histogram() {
        let m = MetricsRegistry::new();
        for v in 0..500u64 {
            m.record("hns", "find_nsm_us", v * 3);
        }
        let before = m.snapshot();
        let mut fresh = LocalHistogram::new();
        for v in 500..1000u64 {
            m.record("hns", "find_nsm_us", v * 7);
            fresh.record(v * 7);
        }
        let d = m.snapshot().delta(&before);
        let h = d.histogram("hns", "find_nsm_us").expect("hist delta");
        let want = fresh.stats();
        assert_eq!(
            (h.count, h.sum, h.p50, h.p95, h.p99),
            (want.count, want.sum, want.p50, want.p95, want.p99)
        );
        assert_eq!(percentile_from_buckets(&[], 0.5), 0);
        assert_eq!(percentile_from_buckets(&[0, 0, 0], 0.99), 0);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any bit pattern converts as libm's `round` did.
            #[test]
            fn ms_to_us_matches_libm_on_any_bits(bits in any::<u64>()) {
                let ms = f64::from_bits(bits);
                prop_assert_eq!(ms_to_us(ms), libm_ms_to_us(ms));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Satellite: snapshot percentiles are monotone in p for
            /// arbitrary sample sets.
            #[test]
            fn percentiles_are_monotone(samples in proptest::collection::vec(0u64..1_000_000, 1..200)) {
                let h = Histogram::new();
                for s in &samples {
                    h.record(*s);
                }
                let ps = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
                let values: Vec<u64> = ps.iter().map(|p| h.percentile(*p)).collect();
                for w in values.windows(2) {
                    prop_assert!(w[0] <= w[1], "percentiles not monotone: {values:?}");
                }
                // p100 upper bound must cover the true max.
                let max = *samples.iter().max().unwrap();
                prop_assert!(values[ps.len() - 1] >= max);
            }

            /// Bucket upper bounds always cover the recorded value.
            #[test]
            fn bucket_upper_covers_value(v in any::<u64>()) {
                prop_assert!(bucket_upper(bucket_of(v)) >= v);
            }
        }
    }
}
