//! Windowed metrics sampling: time-series [`Timeline`]s over a
//! [`MetricsRegistry`].
//!
//! A [`Sampler`] closes fixed-width windows over a monotone timestamp
//! stream (virtual microseconds in the simulation; the sampler only sees
//! `u64`s). A capture is one [`MetricsSnapshot`], and a window holds the
//! [`MetricsDelta`] since the previous capture: counter deltas, plus each
//! histogram's count/sum/p50/p95/p99 over only the window's samples,
//! which [`MetricsSnapshot::delta`] reads off the bucketwise difference
//! of the two snapshots (exact, since buckets only grow).
//!
//! Window semantics: window `i` covers
//! `[origin + i·interval, origin + (i+1)·interval)`. Ticks are driven by
//! the caller, with whatever clock it runs on; a single tick
//! may cross several boundaries at once (e.g. a TTL-expiry jump), in
//! which case the whole delta is attributed to the first crossed window
//! and the remaining crossed windows are emitted empty — the windows
//! vector is always contiguous in `index`. Summing every window's
//! counter deltas (plus the residual partial window [`Sampler::finish`]
//! emits) telescopes exactly to `final − base`, which is what makes the
//! conservation property testable under concurrency.
//!
//! Everything here is deterministic: snapshots are sorted by
//! `(component, name)`, so same-seed virtual-time runs produce
//! byte-identical timeline JSON (golden-tested in the bench crate).

use crate::json::string;
use crate::metrics::{MetricsDelta, MetricsRegistry, MetricsSnapshot};

/// One closed window of the timeline. Zero-delta metrics are omitted
/// from its delta, so a quiet window's delta is empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineWindow {
    /// Position in the timeline (contiguous from 0).
    pub index: u64,
    /// Window start, inclusive (sampler timestamp units).
    pub start_us: u64,
    /// Window end, exclusive. Equals `start_us + interval` except for
    /// the residual partial window [`Sampler::finish`] may emit.
    pub end_us: u64,
    /// What changed inside the window.
    pub delta: MetricsDelta,
}

/// A labeled instant on the timeline (phase transitions, fault edges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineMark {
    /// When the mark was placed (sampler timestamp units).
    pub at_us: u64,
    /// The window index the instant falls in.
    pub window: u64,
    /// Caller-supplied label, e.g. `fault-start`.
    pub label: String,
}

/// The accumulated time series: contiguous windows plus marks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// Nominal window width (sampler timestamp units).
    pub interval_us: u64,
    /// Timestamp of window 0's start.
    pub origin_us: u64,
    /// Closed windows, contiguous in `index`.
    pub windows: Vec<TimelineWindow>,
    /// Labeled instants, in placement order.
    pub marks: Vec<TimelineMark>,
}

impl Timeline {
    /// Per-window series of one counter's deltas.
    pub fn counter_series(&self, component: &str, name: &str) -> Vec<u64> {
        self.windows
            .iter()
            .map(|w| w.delta.counter(component, name))
            .collect()
    }

    /// Per-window series computed by `f`.
    pub fn series(&self, f: impl Fn(&TimelineWindow) -> f64) -> Vec<f64> {
        self.windows.iter().map(f).collect()
    }

    /// Every counter key that moved in any window, sorted.
    pub fn counter_keys(&self) -> Vec<(String, String)> {
        let mut keys: Vec<(String, String)> = Vec::new();
        for w in &self.windows {
            for c in &w.delta.counters {
                let key = (c.component.clone(), c.name.clone());
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        keys.sort();
        keys
    }

    /// Sparkline rows for the given `(label, series)` pairs, with window
    /// labels in virtual milliseconds and the marks listed below. Rows
    /// whose series never rises above zero render as a flat baseline
    /// (`max=0`) — scaling clamps, it never divides by zero.
    pub fn render_series(&self, rows: &[(String, Vec<f64>)]) -> String {
        let span_ms = self
            .windows
            .last()
            .map(|w| w.end_us / 1000)
            .unwrap_or(self.origin_us / 1000);
        let mut out = format!(
            "timeline: {} windows x {} ms (virtual {} ms .. {} ms)\n",
            self.windows.len(),
            self.interval_us / 1000,
            self.origin_us / 1000,
            span_ms
        );
        let label_width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (label, series) in rows {
            out.push_str(&format!(
                "  {label:label_width$} |{}| max={}\n",
                sparkline(series),
                render_max(series)
            ));
        }
        for m in &self.marks {
            out.push_str(&format!(
                "  mark [{:>3}] {} @ {} ms\n",
                m.window,
                m.label,
                m.at_us / 1000
            ));
        }
        out
    }

    /// Default rendering: one sparkline row per counter that moved
    /// anywhere in the timeline.
    pub fn render(&self) -> String {
        let rows: Vec<(String, Vec<f64>)> = self
            .counter_keys()
            .into_iter()
            .map(|(component, name)| {
                let series = self
                    .counter_series(&component, &name)
                    .into_iter()
                    .map(|v| v as f64)
                    .collect();
                (format!("{component}/{name}"), series)
            })
            .collect();
        self.render_series(&rows)
    }

    /// The timeline's JSON fields (no surrounding object), so exporters
    /// embedding a timeline in a larger document and
    /// [`Timeline::to_json`] emit identical bytes for the shared part.
    pub fn json_fields(&self) -> String {
        let mut out = format!(
            "\"interval_us\": {}, \"origin_us\": {},\n  \"windows\": [",
            self.interval_us, self.origin_us
        );
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"index\": {}, \"start_us\": {}, \"end_us\": {}, \"counters\": [",
                w.index, w.start_us, w.end_us
            ));
            for (j, c) in w.delta.counters.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"component\": {}, \"name\": {}, \"delta\": {}}}",
                    string(&c.component),
                    string(&c.name),
                    c.delta
                ));
            }
            out.push_str("], \"histograms\": [");
            for (j, h) in w.delta.histograms.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"component\": {}, \"name\": {}, \"count\": {}, \"sum\": {}, \
                     \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                    string(&h.component),
                    string(&h.name),
                    h.count,
                    h.sum,
                    h.p50,
                    h.p95,
                    h.p99
                ));
            }
            out.push_str("]}");
        }
        out.push_str("\n  ],\n  \"marks\": [");
        for (i, m) in self.marks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"at_us\": {}, \"window\": {}, \"label\": {}}}",
                m.at_us,
                m.window,
                string(&m.label)
            ));
        }
        out.push(']');
        out
    }

    /// Standalone `hns-timeline-v1` JSON document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\": \"hns-timeline-v1\",\n  {}\n}}",
            self.json_fields()
        )
    }
}

/// Renders a series as one character per window on a 8-level ASCII ramp
/// scaled to the series maximum. An all-zero (or empty/NaN) series
/// renders as spaces — the scale clamps instead of dividing by zero.
pub fn sparkline(series: &[f64]) -> String {
    const RAMP: &[u8] = b" .:-=+*#@";
    let max = series
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(0.0_f64, f64::max);
    series
        .iter()
        .map(|&v| {
            if !(v.is_finite() && v > 0.0) || max <= 0.0 {
                RAMP[0] as char
            } else {
                let level = ((v / max) * (RAMP.len() - 1) as f64).ceil() as usize;
                RAMP[level.clamp(1, RAMP.len() - 1)] as char
            }
        })
        .collect()
}

fn render_max(series: &[f64]) -> String {
    let max = series
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(0.0_f64, f64::max);
    if (max - max.round()).abs() < 1e-9 {
        format!("{}", max.round() as u64)
    } else {
        format!("{max:.3}")
    }
}

/// Accumulates a [`Timeline`] by differencing successive registry
/// snapshots at fixed-width window boundaries. See the module docs for
/// the window and attribution semantics.
pub struct Sampler {
    interval_us: u64,
    origin_us: u64,
    prev: MetricsSnapshot,
    windows: Vec<TimelineWindow>,
    marks: Vec<TimelineMark>,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("interval_us", &self.interval_us)
            .field("origin_us", &self.origin_us)
            .field("windows", &self.windows.len())
            .finish()
    }
}

impl Sampler {
    /// Starts sampling at `now_us` with the given window width
    /// (`interval_us > 0`), capturing the base snapshot.
    pub fn new(registry: &MetricsRegistry, now_us: u64, interval_us: u64) -> Self {
        assert!(interval_us > 0, "sampler interval must be positive");
        Sampler {
            interval_us,
            origin_us: now_us,
            prev: registry.snapshot(),
            windows: Vec::new(),
            marks: Vec::new(),
        }
    }

    fn window_start(&self, index: usize) -> u64 {
        self.origin_us + index as u64 * self.interval_us
    }

    /// The end of the window open now.
    fn next_due_us(&self) -> u64 {
        self.window_start(self.windows.len()) + self.interval_us
    }

    /// Captures `snap`: closes every window whose end `now_us` has
    /// passed, the first of them holding the delta since the previous
    /// capture and the rest quiet. Returns the delta if no window closed.
    fn capture(&mut self, snap: MetricsSnapshot, now_us: u64) -> Option<MetricsDelta> {
        let mut delta = Some(snap.delta(&self.prev));
        self.prev = snap;
        while now_us >= self.next_due_us() {
            let index = self.windows.len();
            self.windows.push(TimelineWindow {
                index: index as u64,
                start_us: self.window_start(index),
                end_us: self.next_due_us(),
                delta: delta.take().unwrap_or_default(),
            });
        }
        delta
    }

    /// Advances the sampler to `now_us`, closing every window whose end
    /// has passed. A tick that crosses several boundaries at once
    /// snapshots only once: the whole delta lands in the first crossed
    /// window and the rest are emitted quiet. Cheap no-op until the
    /// current window's end.
    pub fn tick(&mut self, registry: &MetricsRegistry, now_us: u64) {
        if now_us >= self.next_due_us() {
            self.capture(registry.snapshot(), now_us);
        }
    }

    /// Places a labeled mark at `now_us`.
    pub fn mark(&mut self, now_us: u64, label: impl Into<String>) {
        let window = now_us.saturating_sub(self.origin_us) / self.interval_us;
        self.marks.push(TimelineMark {
            at_us: now_us,
            window,
            label: label.into(),
        });
    }

    /// Captures one last snapshot at `now_us`: it closes any due windows,
    /// or else lands as a residual partial window from the last boundary
    /// to `now_us` (emitted only if something moved). Returns the
    /// finished [`Timeline`].
    pub fn finish(mut self, registry: &MetricsRegistry, now_us: u64) -> Timeline {
        let residual = self.capture(registry.snapshot(), now_us);
        if let Some(delta) = residual.filter(|delta| !delta.is_empty()) {
            let index = self.windows.len();
            self.windows.push(TimelineWindow {
                index: index as u64,
                start_us: self.window_start(index),
                end_us: now_us.max(self.window_start(index)),
                delta,
            });
        }
        Timeline {
            interval_us: self.interval_us,
            origin_us: self.origin_us,
            windows: self.windows,
            marks: self.marks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LocalHistogram;

    #[test]
    fn windows_carry_deltas_not_totals() {
        let m = MetricsRegistry::new();
        let mut s = Sampler::new(&m, 0, 1_000);
        m.add("net", "remote_calls", 5);
        s.tick(&m, 1_000);
        m.add("net", "remote_calls", 2);
        s.tick(&m, 2_500);
        let t = s.finish(&m, 2_500);
        assert_eq!(t.windows.len(), 2);
        assert_eq!(t.counter_series("net", "remote_calls"), vec![5, 2]);
        assert_eq!(t.windows[0].start_us, 0);
        assert_eq!(t.windows[0].end_us, 1_000);
        assert_eq!(t.windows[1].end_us, 2_000);
    }

    #[test]
    fn multi_boundary_jump_attributes_once_and_fills_quiet_windows() {
        let m = MetricsRegistry::new();
        let mut s = Sampler::new(&m, 0, 1_000);
        m.add("hns", "find_nsm_calls", 3);
        // One tick lands 4.2 windows later (a TTL-expiry jump).
        s.tick(&m, 4_200);
        let t = s.finish(&m, 4_200);
        assert_eq!(t.windows.len(), 4, "no residual: nothing after boundary");
        assert_eq!(t.counter_series("hns", "find_nsm_calls"), vec![3, 0, 0, 0]);
        assert!(t.windows[1].delta.is_empty() && t.windows[3].delta.is_empty());
        let indices: Vec<u64> = t.windows.iter().map(|w| w.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3], "windows stay contiguous");
    }

    #[test]
    fn finish_emits_residual_partial_window_only_when_active() {
        let m = MetricsRegistry::new();
        let s = Sampler::new(&m, 0, 1_000);
        // Nothing happened: no windows at all.
        assert!(s.finish(&m, 500).windows.is_empty());

        let mut s = Sampler::new(&m, 0, 1_000);
        m.inc("net", "remote_calls");
        s.tick(&m, 1_000);
        m.inc("net", "remote_calls");
        let t = s.finish(&m, 1_400);
        assert_eq!(t.windows.len(), 2);
        assert_eq!(t.windows[1].start_us, 1_000);
        assert_eq!(t.windows[1].end_us, 1_400, "partial window ends at now");
        assert_eq!(t.windows[1].delta.counter("net", "remote_calls"), 1);
    }

    #[test]
    fn windowed_percentiles_see_only_the_window() {
        let m = MetricsRegistry::new();
        let mut s = Sampler::new(&m, 0, 1_000);
        for _ in 0..100 {
            m.record("hns", "find_nsm_us", 10);
        }
        s.tick(&m, 1_000);
        for _ in 0..100 {
            m.record("hns", "find_nsm_us", 40_000);
        }
        s.tick(&m, 2_000);
        let t = s.finish(&m, 2_000);
        let w0 = t.windows[0].delta.histogram("hns", "find_nsm_us").unwrap();
        let w1 = t.windows[1].delta.histogram("hns", "find_nsm_us").unwrap();
        assert_eq!((w0.count, w0.p50, w0.p99), (100, 10, 10));
        assert_eq!(w1.count, 100);
        // Cumulative p50 would be 10; the windowed one must be ~40000.
        assert!(w1.p50 >= 40_000, "windowed p50 {}", w1.p50);
        assert!(w1.p99 >= 40_000 && w1.p99 <= 42_700);
    }

    #[test]
    fn window_deltas_telescope_to_final_totals() {
        let m = MetricsRegistry::new();
        let mut s = Sampler::new(&m, 0, 500);
        let mut expect = 0u64;
        for step in 1..=13u64 {
            m.add("net", "bytes_sent", step * 7);
            expect += step * 7;
            s.tick(&m, step * 333);
        }
        let t = s.finish(&m, 13 * 333);
        let total: u64 = t.counter_series("net", "bytes_sent").iter().sum();
        assert_eq!(total, expect);
        assert_eq!(m.snapshot().counter("net", "bytes_sent"), Some(expect));
    }

    #[test]
    fn marks_land_in_their_windows() {
        let m = MetricsRegistry::new();
        let mut s = Sampler::new(&m, 1_000, 1_000);
        s.mark(1_100, "start");
        s.mark(3_700, "fault");
        m.inc("x", "y");
        s.tick(&m, 4_000);
        let t = s.finish(&m, 4_000);
        assert_eq!(t.marks.len(), 2);
        assert_eq!((t.marks[0].window, t.marks[0].at_us), (0, 1_100));
        assert_eq!(t.marks[1].window, 2);
    }

    #[test]
    fn sparkline_clamps_zero_activity() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0, 0.0]), "   ");
        let s = sparkline(&[0.0, 1.0, 4.0, 8.0, f64::NAN]);
        assert_eq!(s.len(), 5);
        assert!(s.starts_with(' ') && s.ends_with(' '));
        assert!(s.contains('@'), "max maps to top glyph: {s:?}");
    }

    #[test]
    fn render_labels_windows_in_ms() {
        let m = MetricsRegistry::new();
        let mut s = Sampler::new(&m, 0, 10_000);
        s.mark(15_000, "fault");
        m.add("faults", "stale_served", 4);
        s.tick(&m, 20_000);
        let t = s.finish(&m, 20_000);
        let r = t.render();
        assert!(r.contains("2 windows x 10 ms"), "{r}");
        assert!(r.contains("faults/stale_served"), "{r}");
        assert!(r.contains("fault @ 15 ms"), "{r}");
        assert!(!r.contains("NaN"), "{r}");
    }

    #[test]
    fn json_round_trips_through_parser() {
        let m = MetricsRegistry::new();
        let mut s = Sampler::new(&m, 0, 1_000);
        m.inc("a", "b");
        m.record("c", "d_us", 123);
        s.mark(500, "m");
        s.tick(&m, 2_000);
        let t = s.finish(&m, 2_000);
        let v = crate::json::parse(&t.to_json()).expect("timeline JSON parses");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("hns-timeline-v1")
        );
        let windows = v.get("windows").unwrap().as_array().unwrap();
        assert_eq!(windows.len(), 2);
        let w0 = &windows[0];
        assert_eq!(w0.get("index").unwrap().as_u64(), Some(0));
        let counters = w0.get("counters").unwrap().as_array().unwrap();
        assert_eq!(counters[0].get("delta").unwrap().as_u64(), Some(1));
        let hists = w0.get("histograms").unwrap().as_array().unwrap();
        assert_eq!(hists[0].get("p50").unwrap().as_u64(), Some(123));
        assert_eq!(
            v.get("marks").unwrap().as_array().unwrap()[0]
                .get("label")
                .and_then(|l| l.as_str()),
            Some("m")
        );
    }

    #[test]
    fn same_input_stream_is_byte_identical() {
        let run = || {
            let m = MetricsRegistry::new();
            let mut s = Sampler::new(&m, 0, 1_000);
            for i in 0..50u64 {
                m.add("net", "remote_calls", i % 3);
                m.record("hns", "find_nsm_us", 100 + i * 13);
                s.tick(&m, (i + 1) * 137);
            }
            s.finish(&m, 7_000).to_json()
        };
        assert_eq!(run(), run());
    }

    /// A tiny xorshift64* so the synthetic workload is seed-reproducible
    /// without pulling in simnet's RNG.
    struct Xs(u64);

    impl Xs {
        fn next(&mut self) -> u64 {
            let mut x = self.0.max(1);
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    const COMPONENTS: [&str; 3] = ["hns", "net", "hns_cache"];
    const COUNTERS: [&str; 3] = ["find_nsm_calls", "remote_calls", "hits"];

    /// Drives a seeded mixed workload (adds, histogram records, time
    /// advances with irregular tick spacing) and returns the finished
    /// timeline plus the base and final snapshots that bracket it.
    fn synth_run(seed: u64) -> (Timeline, MetricsSnapshot, MetricsSnapshot) {
        let m = MetricsRegistry::new();
        let mut rng = Xs(seed);
        // Pre-charge some counters so the base snapshot is non-zero and
        // the telescoping check exercises `final - base`, not `final - 0`.
        for _ in 0..(rng.next() % 8) {
            let c = COMPONENTS[(rng.next() % 3) as usize];
            let n = COUNTERS[(rng.next() % 3) as usize];
            m.add(c, n, rng.next() % 5);
        }
        let base = m.snapshot();
        let mut s = Sampler::new(&m, 0, 1_000);
        let mut now = 0u64;
        for _ in 0..64 {
            match rng.next() % 4 {
                0 | 1 => {
                    let c = COMPONENTS[(rng.next() % 3) as usize];
                    let n = COUNTERS[(rng.next() % 3) as usize];
                    m.add(c, n, rng.next() % 7);
                }
                2 => m.record("hns", "find_nsm_us", 50 + rng.next() % 400_000),
                _ => {
                    // Jumps of up to ~3.5 windows exercise quiet-window
                    // fill and multi-boundary attribution.
                    now += rng.next() % 3_500;
                    s.tick(&m, now);
                }
            }
        }
        now += 1 + rng.next() % 2_000;
        let t = s.finish(&m, now);
        (t, base, m.snapshot())
    }

    /// One step of a generated run.
    #[derive(Debug, Clone)]
    enum Step {
        /// Adds to the counter `net/COUNTERS[i]`.
        Add(usize, u64),
        /// Records a `hns/find_nsm_us` sample.
        Record(u64),
        /// Advances the clock by this many µs, then ticks.
        Advance(u64),
    }

    fn step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        prop_oneof![
            (0..COUNTERS.len(), 0..7u64).prop_map(|(i, n)| Step::Add(i, n)),
            (0..1_000_000u64).prop_map(Step::Record),
            // Jumps of up to ~3.5 windows cross several boundaries at once.
            (0..3_500u64).prop_map(Step::Advance),
        ]
    }

    proptest::proptest! {
        /// Each window's `count`, `sum` and percentiles are those of a
        /// fresh histogram fed only the samples recorded since the capture
        /// before it — the whole of a multi-boundary jump's delta lands in
        /// the first crossed window — and the counter deltas still
        /// telescope to `final − base`.
        #[test]
        fn windowed_statistics_equal_a_fresh_histograms(
            steps in proptest::collection::vec(step(), 0..128),
            tail in 1..2_000u64,
        ) {
            let m = MetricsRegistry::new();
            // A non-empty base: the windows' statistics must leave it out.
            m.record("hns", "find_nsm_us", 77);
            m.add("net", COUNTERS[0], 3);
            let base = m.snapshot();
            let mut s = Sampler::new(&m, 0, 1_000);
            let (mut now, mut closed) = (0u64, 0u64);
            let mut open = LocalHistogram::new();
            let mut fresh: Vec<(u64, LocalHistogram)> = Vec::new();
            for step in steps {
                match step {
                    Step::Add(i, n) => m.add("net", COUNTERS[i], n),
                    Step::Record(v) => {
                        m.record("hns", "find_nsm_us", v);
                        open.record(v);
                    }
                    Step::Advance(dt) => {
                        now += dt;
                        s.tick(&m, now);
                        if now / 1_000 > closed {
                            fresh.push((closed, std::mem::take(&mut open)));
                            closed = now / 1_000;
                        }
                    }
                }
            }
            // `finish`'s capture lands in window `closed`, due or residual.
            fresh.push((closed, open));
            let t = s.finish(&m, now + tail);

            for w in &t.windows {
                let got = w.delta.histogram("hns", "find_nsm_us");
                let got = got.map(|h| (h.count, h.sum, h.p50, h.p95, h.p99));
                let want = (fresh.iter())
                    .find(|(index, h)| *index == w.index && !h.is_empty())
                    .map(|(_, h)| h.stats())
                    .map(|h| (h.count, h.sum, h.p50, h.p95, h.p99));
                proptest::prop_assert_eq!(got, want, "window {}", w.index);
            }
            for (index, h) in &fresh {
                proptest::prop_assert!(
                    h.is_empty() || *index < t.windows.len() as u64,
                    "window {} recorded samples but was not emitted",
                    index
                );
            }
            let moved = m.snapshot().delta(&base);
            for name in COUNTERS {
                let windowed: u64 = t.counter_series("net", name).iter().sum();
                proptest::prop_assert_eq!(windowed, moved.counter("net", name));
            }
        }

        #[test]
        fn same_seed_yields_byte_identical_timeline_json(seed in proptest::prelude::any::<u64>()) {
            let (a, _, _) = synth_run(seed);
            let (b, _, _) = synth_run(seed);
            proptest::prop_assert_eq!(a.to_json(), b.to_json());
        }

        #[test]
        fn window_deltas_telescope_to_final_minus_base(seed in proptest::prelude::any::<u64>()) {
            let (t, base, last) = synth_run(seed);
            let moved = last.delta(&base);
            // Every counter that the timeline saw move must telescope
            // exactly: the per-window deltas sum to the bracketed total.
            for (component, name) in t.counter_keys() {
                let windowed: u64 = t.counter_series(&component, &name).iter().sum();
                proptest::prop_assert_eq!(
                    windowed,
                    moved.counter(&component, &name),
                    "counter {}/{} leaked across windows",
                    component,
                    name
                );
            }
            // And nothing that moved escaped the timeline.
            for c in &moved.counters {
                proptest::prop_assert!(
                    t.counter_keys().contains(&(c.component.clone(), c.name.clone())),
                    "counter {}/{} moved but never appeared in a window",
                    c.component,
                    c.name
                );
            }
        }
    }
}
