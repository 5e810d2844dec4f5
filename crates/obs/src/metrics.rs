//! Unified metrics registry: atomic counters and fixed-bucket latency
//! histograms keyed by `(component, name)`.
//!
//! Components register metrics lazily through [`MetricsRegistry`]; the
//! handles ([`Counter`], [`Histogram`]) are cheap `Arc`s that hot paths
//! cache. A counter is one atomic word and a histogram atomic per-bucket
//! counts, so concurrent `inc`s and `record`s are never lost (asserted by
//! the concurrency tests below).
//!
//! Histogram buckets are fixed at construction: exact buckets for
//! values `0..64` (so small counts — round trips, record counts — are
//! reported exactly), then 16 sub-buckets per power of two above that
//! (≤ ~6% relative error for latencies). Percentiles report the upper
//! bound of the bucket containing the target rank, which makes
//! `percentile(p)` monotone in `p` by construction (proptested).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

/// Number of exact (width-1) buckets at the bottom of every histogram.
const LINEAR_BUCKETS: usize = 64;
/// Sub-buckets per power-of-two octave above the linear range.
const SUB_BUCKETS: usize = 16;
/// Octaves covered: values with a top bit in positions 6..=63.
const OCTAVES: usize = 58;
/// Total bucket count.
const BUCKETS: usize = LINEAR_BUCKETS + OCTAVES * SUB_BUCKETS;

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

/// A monotone counter: one atomic word that any thread may add to.
pub struct Counter(AtomicU64);

impl Counter {
    fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the total.
    ///
    /// Used to export externally-maintained counters (for example
    /// `HnsCacheStats`) into the registry at snapshot time; an `add`
    /// racing it is either kept or overwritten.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// A counter handle resolved against a registry on first use.
///
/// Hot paths that call [`MetricsRegistry::inc`] pay two `String`
/// allocations and a registry read-lock per increment. A component that
/// owns a `LazyCounter` field pays that once — the first increment
/// registers the metric (so snapshots look exactly as if the component
/// had called `inc` directly: a never-touched metric never appears) and
/// later increments are a single atomic add.
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
    pub fn get(&self, registry: &MetricsRegistry, component: &str, name: &str) -> &Counter {
        self.cell.get_or_init(|| registry.counter(component, name))
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
    pub fn get(&self, registry: &MetricsRegistry, component: &str, name: &str) -> &Histogram {
        self.cell
            .get_or_init(|| registry.histogram(component, name))
    }

    /// Records a millisecond duration (converted to whole microseconds),
    /// mirroring [`MetricsRegistry::record_ms`].
    pub fn record_ms(&self, registry: &MetricsRegistry, component: &str, name: &str, ms: f64) {
        let us = (ms * 1000.0).round().max(0.0) as u64;
        self.get(registry, component, name).record(us);
    }
}

impl std::fmt::Debug for LazyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyHistogram")
            .field("resolved", &self.cell.get().is_some())
            .finish()
    }
}

/// A fixed-bucket histogram of `u64` samples with atomic buckets.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The value at quantile `p` in `[0, 1]`: the upper bound of the
    /// bucket holding the sample of rank `ceil(p * count)`. Returns 0
    /// for an empty histogram. Monotone in `p`.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let target = ((p * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b.load(Ordering::Relaxed);
            if cumulative >= target {
                return bucket_upper(i);
            }
        }
        // Writers may have bumped `count` after our bucket pass; fall
        // back to the highest non-empty bucket.
        self.max.load(Ordering::Relaxed)
    }

    fn sample(&self) -> HistogramStats {
        let count = self.count();
        HistogramStats {
            count,
            sum: self.sum(),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }

    /// A copy of the raw per-bucket counts. The sampling layer diffs two
    /// of these to compute *windowed* percentiles (the per-window
    /// distribution is exactly the bucketwise difference, since buckets
    /// only grow).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// The value at quantile `p` over a raw bucket-count slice (as returned
/// by [`Histogram::bucket_counts`], or a bucketwise difference of two
/// such slices): the upper bound of the bucket holding the sample of
/// rank `ceil(p * count)`. Returns 0 when the buckets are empty.
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
/// [`Histogram`] but plain (non-atomic) cells.
///
/// The sharded load engine gives each worker one of these: the per-op
/// record is two array writes and four scalar updates with no shared
/// cache-line traffic at all, and the per-worker histograms merge into
/// one global distribution after the run. [`LocalHistogram::merge`] is
/// exact — merging K workers' histograms yields bucket-for-bucket the
/// same distribution as recording every sample into one histogram
/// (proptested in the bench crate).
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

    /// Folds `other` into `self`, bucket by bucket.
    pub fn merge(&mut self, other: &LocalHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `p` in `[0, 1]`, as [`Histogram::percentile`].
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let target = ((p * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b;
            if cumulative >= target {
                return bucket_upper(i);
            }
        }
        self.max
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
}

/// Registry of all counters and histograms, keyed by `(component, name)`.
///
/// Metric names carry their unit as a suffix by convention: `*_us` for
/// microsecond histograms, bare names for counts.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<HashMap<(String, String), Arc<Counter>>>,
    histograms: RwLock<HashMap<(String, String), Arc<Histogram>>>,
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
    pub fn inc(&self, component: &str, name: &str) {
        self.counter(component, name).inc();
    }

    /// Adds `n` to the counter `component/name`.
    pub fn add(&self, component: &str, name: &str, n: u64) {
        self.counter(component, name).add(n);
    }

    /// Overwrites the counter `component/name` (see [`Counter::set`]).
    pub fn set_counter(&self, component: &str, name: &str, v: u64) {
        self.counter(component, name).set(v);
    }

    /// Records a raw sample into the histogram `component/name`.
    pub fn record(&self, component: &str, name: &str, v: u64) {
        self.histogram(component, name).record(v);
    }

    /// Records a millisecond duration into the `_us` histogram
    /// `component/name` (converted to whole microseconds).
    pub fn record_ms(&self, component: &str, name: &str, ms: f64) {
        let us = (ms * 1000.0).round().max(0.0) as u64;
        self.histogram(component, name).record(us);
    }

    /// A deterministic point-in-time snapshot of every metric, sorted
    /// by `(component, name)`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<CounterSample> = self
            .counters
            .read()
            .iter()
            .map(|((component, name), c)| CounterSample {
                component: component.clone(),
                name: name.clone(),
                value: c.value(),
            })
            .collect();
        counters.sort_by(|a, b| (&a.component, &a.name).cmp(&(&b.component, &b.name)));
        let mut histograms: Vec<HistogramSample> = self
            .histograms
            .read()
            .iter()
            .map(|((component, name), h)| HistogramSample {
                component: component.clone(),
                name: name.clone(),
                stats: h.sample(),
            })
            .collect();
        histograms.sort_by(|a, b| (&a.component, &a.name).cmp(&(&b.component, &b.name)));
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// Raw per-bucket counts of every histogram, sorted by
    /// `(component, name)` — the bucket-level companion of
    /// [`MetricsRegistry::snapshot`], used by the sampling layer to
    /// compute windowed percentiles from bucketwise differences.
    pub fn histogram_buckets(&self) -> Vec<((String, String), Vec<u64>)> {
        let mut out: Vec<((String, String), Vec<u64>)> = self
            .histograms
            .read()
            .iter()
            .map(|(key, h)| (key.clone(), h.bucket_counts()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
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
    /// Counters subtract saturating (a snapshot-time `set_counter`
    /// export can legitimately move a value backwards; the delta clamps
    /// at zero rather than wrapping). Histograms difference their
    /// `count` and `sum`, also saturating. Metrics with a zero delta —
    /// and metrics present only in `earlier` — are omitted, so the
    /// delta of two identical snapshots is empty.
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
                let before = earlier
                    .histogram(&h.component, &h.name)
                    .copied()
                    .unwrap_or_default();
                let count = h.stats.count.saturating_sub(before.count);
                let sum = h.stats.sum.saturating_sub(before.sum);
                (count != 0 || sum != 0).then(|| HistogramDelta {
                    component: h.component.clone(),
                    name: h.name.clone(),
                    count,
                    sum,
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

/// One histogram's change between two snapshots (omitted when both
/// fields are zero). Carries only the additive statistics — windowed
/// percentiles need bucket-level data, which snapshots don't keep (see
/// [`MetricsRegistry::histogram_buckets`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramDelta {
    pub component: String,
    pub name: String,
    /// Samples recorded between the snapshots.
    pub count: u64,
    /// Sum recorded between the snapshots.
    pub sum: u64,
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
    fn counter_set_overwrites_total() {
        let c = Counter::new();
        c.add(41);
        c.inc();
        assert_eq!(c.value(), 42);
        c.set(7);
        assert_eq!(c.value(), 7);
    }

    #[test]
    fn registry_reuses_handles_and_snapshots_deterministically() {
        let m = MetricsRegistry::new();
        let a = m.counter("hns_cache", "hits");
        let b = m.counter("hns_cache", "hits");
        assert!(Arc::ptr_eq(&a, &b));
        a.add(3);
        m.inc("hns_cache", "hits");
        m.record_ms("hns_meta", "mapping1_ms", 32.9);
        let snap = m.snapshot();
        assert_eq!(snap.counter("hns_cache", "hits"), Some(4));
        let hist = snap.histogram("hns_meta", "mapping1_ms").expect("hist");
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
        h.record_ms(&m, "hns", "find_nsm_us", 1.5);
        let snap = m.snapshot();
        assert_eq!(snap.counter("net", "remote_calls"), Some(4));
        assert_eq!(snap.histogram("hns", "find_nsm_us").unwrap().sum, 1_500);
        // The resolved handle is the registry's own Arc.
        assert!(Arc::ptr_eq(
            &m.counter("net", "remote_calls"),
            &m.counter("net", "remote_calls")
        ));
    }

    #[test]
    fn local_histogram_matches_atomic_histogram() {
        let atomic = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in [0u64, 1, 63, 64, 100, 5_000, 1 << 30] {
            atomic.record(v);
            local.record(v);
        }
        assert_eq!(local.stats(), atomic.sample());
    }

    #[test]
    fn local_histogram_merge_is_exact() {
        let mut a = LocalHistogram::new();
        let mut b = LocalHistogram::new();
        let mut all = LocalHistogram::new();
        for v in 0..1000u64 {
            if v % 3 == 0 {
                a.record(v * 17);
            } else {
                b.record(v * 17);
            }
            all.record(v * 17);
        }
        a.merge(&b);
        assert_eq!(a.stats(), all.stats());
        assert_eq!(a.buckets, all.buckets);
    }

    #[test]
    fn local_histogram_empty_merge_and_stats() {
        let mut a = LocalHistogram::new();
        let b = LocalHistogram::new();
        a.merge(&b);
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
        let bucket_total: u64 = h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        assert_eq!(bucket_total, THREADS as u64 * PER_THREAD);
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

    /// Satellite: a snapshot-time `set_counter` that moves a value
    /// backwards clamps the delta at zero instead of wrapping.
    #[test]
    fn snapshot_delta_saturates_on_backwards_counters() {
        let m = MetricsRegistry::new();
        m.set_counter("hns_cache", "hits", 10);
        let before = m.snapshot();
        m.set_counter("hns_cache", "hits", 4);
        let d = m.snapshot().delta(&before);
        assert_eq!(d.counter("hns_cache", "hits"), 0);
        assert!(d.is_empty());
    }

    /// Windowed percentiles from bucketwise differences match a
    /// histogram recording only the window's samples.
    #[test]
    fn bucket_difference_percentiles_match_fresh_histogram() {
        let h = Histogram::new();
        for v in 0..500u64 {
            h.record(v * 3);
        }
        let base = h.bucket_counts();
        let fresh = Histogram::new();
        for v in 500..1000u64 {
            h.record(v * 7);
            fresh.record(v * 7);
        }
        let now = h.bucket_counts();
        let diff: Vec<u64> = now
            .iter()
            .zip(&base)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        for p in [0.5, 0.95, 0.99] {
            assert_eq!(percentile_from_buckets(&diff, p), fresh.percentile(p));
        }
        assert_eq!(percentile_from_buckets(&[], 0.5), 0);
        assert_eq!(percentile_from_buckets(&[0, 0, 0], 0.99), 0);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

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
