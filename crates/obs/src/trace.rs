//! Per-query spans and flat trace events.
//!
//! A [`Tracer`] records two co-ordinated streams:
//!
//! * **Spans** ([`SpanRecord`]) — nested, timed intervals. A `FindNSM`
//!   query opens a root span; each meta mapping (or the batched MQUERY
//!   prefetch), NSM call, and remote RPC opens a child span. Spans
//!   carry remote round-trip counts and a [`CacheOutcome`].
//! * **Events** ([`TraceEvent`]) — the original walkthrough lines
//!   (Figure 2.1). Each event is attached to whatever span was current
//!   on the recording thread, so the walkthrough and the flame
//!   breakdown render from the same data.
//!
//! Span nesting is tracked per thread: `begin_span` pushes onto the
//! calling thread's stack, `end_span` pops it. The simulation driver
//! (`simnet::World::span`) wraps this in an RAII guard so spans close
//! even on early returns.
//!
//! Timestamps are plain `u64` microseconds of virtual time and hosts
//! are plain `u32` ids — `simnet` layers its `SimTime`/`HostId` types
//! on top.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::ThreadId;

use parking_lot::Mutex;

/// Identifier of a span within one [`Tracer`] (monotone from 1).
pub type SpanId = u64;

/// Classification of a trace event or span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// An RPC call departed or a reply arrived.
    Rpc,
    /// Cache hit/miss/insert/evict.
    Cache,
    /// An underlying name service performed work.
    NameService,
    /// A Naming Semantics Manager performed work.
    Nsm,
    /// HNS meta-naming work.
    Hns,
    /// Anything else.
    Info,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceKind::Rpc => "rpc",
            TraceKind::Cache => "cache",
            TraceKind::NameService => "ns",
            TraceKind::Nsm => "nsm",
            TraceKind::Hns => "hns",
            TraceKind::Info => "info",
        };
        f.write_str(s)
    }
}

/// How a cache participated in the operation a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheOutcome {
    /// Served from a live cached entry.
    Hit,
    /// Not cached; a fetch was required.
    Miss,
    /// A cached entry existed but its TTL had lapsed.
    Expired,
    /// Served from a cached negative (known-absent) entry.
    NegativeHit,
    /// Served from a batch-prefetch overlay before touching the cache.
    Overlay,
    /// Served from an *expired* entry because the authoritative server
    /// was unreachable (serve-stale degradation).
    Stale,
}

impl fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Expired => "expired",
            CacheOutcome::NegativeHit => "negative",
            CacheOutcome::Overlay => "overlay",
            CacheOutcome::Stale => "stale",
        };
        f.write_str(s)
    }
}

fn fmt_ms(us: u64) -> String {
    format!("{:.3}ms", us as f64 / 1000.0)
}

/// One recorded walkthrough event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Virtual instant of the event, in microseconds.
    pub at_us: u64,
    /// Host where the event occurred, if host-local.
    pub host: Option<u32>,
    /// Classification.
    pub kind: TraceKind,
    /// The span current on the recording thread, if any.
    pub span: Option<SpanId>,
    /// Global record order within the tracer.
    pub seq: u64,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.host {
            Some(h) => write!(
                f,
                "[{:>10} {:>5} host{}] {}",
                fmt_ms(self.at_us),
                self.kind,
                h,
                self.message
            ),
            None => write!(
                f,
                "[{:>10} {:>5}      ] {}",
                fmt_ms(self.at_us),
                self.kind,
                self.message
            ),
        }
    }
}

/// One timed, possibly-nested interval of work.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// This span's id (monotone from 1 within a tracer).
    pub id: SpanId,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<SpanId>,
    /// Classification.
    pub kind: TraceKind,
    /// Host where the work ran, if host-local.
    pub host: Option<u32>,
    /// What the span covers, e.g. `FindNSM(query class hrpcbinding, …)`.
    pub name: String,
    /// Virtual start instant, microseconds.
    pub start_us: u64,
    /// Virtual end instant; `None` if the span never closed.
    pub end_us: Option<u64>,
    /// Remote round trips attributed to this span (not descendants).
    pub round_trips: u64,
    /// Cache outcome of the covered operation, if one was recorded.
    pub cache: Option<CacheOutcome>,
    /// Global record order within the tracer.
    pub seq: u64,
}

impl SpanRecord {
    /// Elapsed virtual microseconds (0 if the span never closed).
    pub fn duration_us(&self) -> u64 {
        self.end_us
            .map(|e| e.saturating_sub(self.start_us))
            .unwrap_or(0)
    }

    /// One JSON object describing this span (flat; `parent` links the tree).
    pub fn to_json(&self) -> String {
        use crate::json::string;
        let mut out = format!(
            "{{\"id\": {}, \"parent\": {}, \"kind\": {}, \"host\": {}, \"name\": {}, \
             \"start_us\": {}, \"end_us\": {}, \"duration_us\": {}, \"round_trips\": {}",
            self.id,
            self.parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".into()),
            string(&self.kind.to_string()),
            self.host
                .map(|h| h.to_string())
                .unwrap_or_else(|| "null".into()),
            string(&self.name),
            self.start_us,
            self.end_us
                .map(|e| e.to_string())
                .unwrap_or_else(|| "null".into()),
            self.duration_us(),
            self.round_trips,
        );
        match self.cache {
            Some(c) => out.push_str(&format!(", \"cache\": {}}}", string(&c.to_string()))),
            None => out.push_str(", \"cache\": null}"),
        }
        out
    }

    fn render_line(&self, indent: usize) -> String {
        let mut line = format!(
            "{}- {}  @{} +{}",
            "  ".repeat(indent),
            self.name,
            fmt_ms(self.start_us),
            fmt_ms(self.duration_us()),
        );
        if self.round_trips > 0 {
            line.push_str(&format!("  rt={}", self.round_trips));
        }
        if let Some(c) = self.cache {
            line.push_str(&format!("  cache={c}"));
        }
        if let Some(h) = self.host {
            line.push_str(&format!("  (host{h})"));
        }
        line.push('\n');
        line
    }
}

/// A shared, optionally-enabled span and event recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: AtomicBool,
    seq: AtomicU64,
    next_span: AtomicU64,
    events: Mutex<Vec<TraceEvent>>,
    spans: Mutex<Vec<SpanRecord>>,
    /// Per-thread stacks of open spans (keyed by thread, not
    /// thread-local, so two worlds on one thread stay independent).
    stacks: Mutex<HashMap<ThreadId, Vec<SpanId>>>,
}

impl Tracer {
    /// Creates a disabled tracer (recording is opt-in; experiments that
    /// iterate thousands of operations leave it off).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables recording.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Returns whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Records an event if enabled, attaching it to the calling
    /// thread's current span.
    pub fn record(&self, at_us: u64, host: Option<u32>, kind: TraceKind, message: String) {
        if !self.is_enabled() {
            return;
        }
        let span = self.current_span();
        let seq = self.next_seq();
        self.events.lock().push(TraceEvent {
            at_us,
            host,
            kind,
            span,
            seq,
            message,
        });
    }

    /// Opens a span as a child of the calling thread's current span.
    /// Returns `None` (and records nothing) when disabled.
    pub fn begin_span(
        &self,
        at_us: u64,
        host: Option<u32>,
        kind: TraceKind,
        name: String,
    ) -> Option<SpanId> {
        if !self.is_enabled() {
            return None;
        }
        let id = self.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        let seq = self.next_seq();
        let tid = std::thread::current().id();
        let parent = {
            let mut stacks = self.stacks.lock();
            let stack = stacks.entry(tid).or_default();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        };
        self.spans.lock().push(SpanRecord {
            id,
            parent,
            kind,
            host,
            name,
            start_us: at_us,
            end_us: None,
            round_trips: 0,
            cache: None,
            seq,
        });
        Some(id)
    }

    /// Closes span `id` at `at_us` and pops it from the calling
    /// thread's stack.
    pub fn end_span(&self, id: SpanId, at_us: u64) {
        {
            let mut spans = self.spans.lock();
            if let Some(s) = Self::find_mut(&mut spans, id) {
                s.end_us = Some(at_us);
            }
        }
        let tid = std::thread::current().id();
        let mut stacks = self.stacks.lock();
        if let Some(stack) = stacks.get_mut(&tid) {
            if let Some(pos) = stack.iter().rposition(|s| *s == id) {
                stack.truncate(pos);
            }
        }
    }

    /// Adds `n` remote round trips to span `id`.
    pub fn add_round_trips(&self, id: SpanId, n: u64) {
        let mut spans = self.spans.lock();
        if let Some(s) = Self::find_mut(&mut spans, id) {
            s.round_trips += n;
        }
    }

    /// Records the cache outcome on the calling thread's current span
    /// (no-op when disabled or outside any span). Later annotations
    /// overwrite earlier ones, so a miss that ends served stale reports
    /// the final outcome.
    pub fn annotate_cache(&self, outcome: CacheOutcome) {
        if !self.is_enabled() {
            return;
        }
        let Some(id) = self.current_span() else {
            return;
        };
        let mut spans = self.spans.lock();
        if let Some(s) = Self::find_mut(&mut spans, id) {
            s.cache = Some(outcome);
        }
    }

    /// The calling thread's innermost open span, if any.
    pub fn current_span(&self) -> Option<SpanId> {
        let tid = std::thread::current().id();
        self.stacks.lock().get(&tid).and_then(|s| s.last().copied())
    }

    /// Ids are monotone in push order, so binary search locates a span.
    fn find_mut(spans: &mut [SpanRecord], id: SpanId) -> Option<&mut SpanRecord> {
        spans
            .binary_search_by_key(&id, |s| s.id)
            .ok()
            .map(|i| &mut spans[i])
    }

    /// Returns a copy of all recorded events.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Returns a copy of all recorded spans, in open order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().clone()
    }

    /// Discards all recorded events and spans. Span ids keep counting
    /// up so guards that outlive a `clear` cannot corrupt new spans.
    pub fn clear(&self) {
        self.events.lock().clear();
        self.spans.lock().clear();
        self.stacks.lock().clear();
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Returns true if no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Renders all flat events, one per line (the original walkthrough
    /// format; span structure is ignored).
    pub fn render(&self) -> String {
        let events = self.events.lock();
        let mut out = String::new();
        for e in events.iter() {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// Renders spans and events as one chronological tree: root spans
    /// and span-less events interleave at top level, child spans and
    /// attached events nest below their parents.
    pub fn render_tree(&self) -> String {
        let spans = self.spans.lock().clone();
        let events = self.events.lock().clone();
        render_forest(&spans, &events)
    }

    /// Groups spans into per-query traces: one [`QueryTrace`] per root
    /// span, carrying its whole subtree and the events attached to it.
    pub fn query_traces(&self) -> Vec<QueryTrace> {
        let spans = self.spans.lock().clone();
        let events = self.events.lock().clone();
        build_query_traces(spans, events)
    }
}

/// All spans and events of one root span (one query).
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// The root span (e.g. the `FindNSM` call).
    pub root: SpanRecord,
    /// Every span in the subtree, root included, in open order.
    pub spans: Vec<SpanRecord>,
    /// Events attached to any span in the subtree, in record order.
    pub events: Vec<TraceEvent>,
}

impl QueryTrace {
    /// Total virtual duration of the root span.
    pub fn duration_us(&self) -> u64 {
        self.root.duration_us()
    }

    /// Remote round trips summed over the whole subtree.
    pub fn total_round_trips(&self) -> u64 {
        self.spans.iter().map(|s| s.round_trips).sum()
    }

    /// Flame-style text: the root with every child span indented below
    /// it, each line showing start offset, duration, round trips, and
    /// cache outcome.
    pub fn render(&self) -> String {
        render_forest(&self.spans, &self.events)
    }

    /// JSON object: root summary plus the flat span list.
    pub fn to_json(&self) -> String {
        use crate::json::string;
        let mut out = format!(
            "{{\"name\": {}, \"start_us\": {}, \"duration_us\": {}, \"round_trips\": {}, \"spans\": [",
            string(&self.root.name),
            self.root.start_us,
            self.duration_us(),
            self.total_round_trips(),
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&s.to_json());
        }
        out.push_str("]}");
        out
    }
}

fn build_query_traces(spans: Vec<SpanRecord>, events: Vec<TraceEvent>) -> Vec<QueryTrace> {
    let mut children: HashMap<Option<SpanId>, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        children.entry(s.parent).or_default().push(i);
    }
    let mut traces = Vec::new();
    for root_idx in children.get(&None).cloned().unwrap_or_default() {
        // Collect the subtree depth-first.
        let mut subtree = Vec::new();
        let mut stack = vec![root_idx];
        let mut member_ids: Vec<SpanId> = Vec::new();
        while let Some(i) = stack.pop() {
            subtree.push(spans[i].clone());
            member_ids.push(spans[i].id);
            if let Some(kids) = children.get(&Some(spans[i].id)) {
                for k in kids.iter().rev() {
                    stack.push(*k);
                }
            }
        }
        subtree.sort_by_key(|s| s.seq);
        member_ids.sort_unstable();
        let trace_events: Vec<TraceEvent> = events
            .iter()
            .filter(|e| {
                e.span
                    .map(|s| member_ids.binary_search(&s).is_ok())
                    .unwrap_or(false)
            })
            .cloned()
            .collect();
        traces.push(QueryTrace {
            root: spans[root_idx].clone(),
            spans: subtree,
            events: trace_events,
        });
    }
    traces.sort_by_key(|t| t.root.seq);
    traces
}

/// Renders spans + events as a chronological forest. Items at each
/// level (root spans and span-less events at the top; child spans and
/// attached events below each parent) are ordered by record sequence.
fn render_forest(spans: &[SpanRecord], events: &[TraceEvent]) -> String {
    enum Item<'a> {
        Span(&'a SpanRecord),
        Event(&'a TraceEvent),
    }
    let mut by_parent: HashMap<Option<SpanId>, Vec<Item<'_>>> = HashMap::new();
    let known: Vec<SpanId> = {
        let mut ids: Vec<SpanId> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids
    };
    for s in spans {
        // A child whose parent is outside this span set renders at top
        // level (happens when rendering one query's subtree).
        let parent = s
            .parent
            .filter(|p| known.binary_search(p).is_ok() && *p != s.id);
        by_parent.entry(parent).or_default().push(Item::Span(s));
    }
    for e in events {
        let parent = e.span.filter(|p| known.binary_search(p).is_ok());
        by_parent.entry(parent).or_default().push(Item::Event(e));
    }
    for items in by_parent.values_mut() {
        items.sort_by_key(|i| match i {
            Item::Span(s) => s.seq,
            Item::Event(e) => e.seq,
        });
    }
    fn walk(
        out: &mut String,
        by_parent: &HashMap<Option<SpanId>, Vec<Item<'_>>>,
        parent: Option<SpanId>,
        depth: usize,
    ) {
        let Some(items) = by_parent.get(&parent) else {
            return;
        };
        for item in items {
            match item {
                Item::Span(s) => {
                    out.push_str(&s.render_line(depth));
                    walk(out, by_parent, Some(s.id), depth + 1);
                }
                Item::Event(e) => {
                    out.push_str(&"  ".repeat(depth));
                    out.push_str(&e.to_string());
                    out.push('\n');
                }
            }
        }
    }
    let mut out = String::new();
    walk(&mut out, &by_parent, None, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.record(0, None, TraceKind::Info, "x".into());
        assert!(t.begin_span(0, None, TraceKind::Hns, "q".into()).is_none());
        assert!(t.is_empty());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_records_in_order() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.record(1_000, None, TraceKind::Rpc, "call".into());
        t.record(2_000, Some(3), TraceKind::Cache, "hit".into());
        let events = t.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].message, "call");
        assert_eq!(events[1].host, Some(3));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn spans_nest_and_attach_events() {
        let t = Tracer::new();
        t.set_enabled(true);
        let root = t
            .begin_span(0, Some(0), TraceKind::Hns, "FindNSM".into())
            .expect("root");
        let child = t
            .begin_span(100, Some(0), TraceKind::Hns, "mapping 1".into())
            .expect("child");
        t.record(150, Some(1), TraceKind::Rpc, "query".into());
        t.annotate_cache(CacheOutcome::Miss);
        t.add_round_trips(child, 1);
        t.end_span(child, 33_000);
        t.record(33_100, Some(0), TraceKind::Hns, "done".into());
        t.end_span(root, 40_000);

        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].cache, Some(CacheOutcome::Miss));
        assert_eq!(spans[1].round_trips, 1);
        assert_eq!(spans[1].duration_us(), 32_900);

        let events = t.snapshot();
        assert_eq!(events[0].span, Some(child));
        assert_eq!(events[1].span, Some(root));
    }

    #[test]
    fn query_traces_split_by_root_span() {
        let t = Tracer::new();
        t.set_enabled(true);
        let q1 = t.begin_span(0, None, TraceKind::Hns, "q1".into()).unwrap();
        let c1 = t
            .begin_span(10, None, TraceKind::Hns, "q1-child".into())
            .unwrap();
        t.record(20, None, TraceKind::Info, "inside q1".into());
        t.end_span(c1, 30);
        t.end_span(q1, 40);
        let q2 = t.begin_span(50, None, TraceKind::Hns, "q2".into()).unwrap();
        t.end_span(q2, 60);

        let traces = t.query_traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].root.name, "q1");
        assert_eq!(traces[0].spans.len(), 2);
        assert_eq!(traces[0].events.len(), 1);
        assert_eq!(traces[1].root.name, "q2");
        assert!(traces[1].events.is_empty());
    }

    #[test]
    fn render_tree_nests_children_under_parents() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.record(0, None, TraceKind::Info, "before".into());
        let root = t
            .begin_span(10, Some(0), TraceKind::Hns, "FindNSM(x)".into())
            .unwrap();
        let child = t
            .begin_span(20, Some(0), TraceKind::Hns, "mapping 1".into())
            .unwrap();
        t.end_span(child, 30);
        t.end_span(root, 40);
        let tree = t.render_tree();
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("before"));
        assert!(lines[1].starts_with("- FindNSM(x)"));
        assert!(lines[2].starts_with("  - mapping 1"));
    }

    #[test]
    fn clear_discards_events_and_spans() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.record(0, None, TraceKind::Hns, "m".into());
        let s = t.begin_span(0, None, TraceKind::Hns, "q".into()).unwrap();
        t.clear();
        assert!(t.is_empty());
        assert!(t.spans().is_empty());
        // A stale guard ending after clear is harmless.
        t.end_span(s, 10);
        assert!(t.spans().is_empty());
        // New spans keep monotone ids.
        let s2 = t.begin_span(0, None, TraceKind::Hns, "q2".into()).unwrap();
        assert!(s2 > s);
    }

    #[test]
    fn span_json_parses() {
        let t = Tracer::new();
        t.set_enabled(true);
        let id = t
            .begin_span(0, Some(2), TraceKind::Hns, "q \"quoted\"".into())
            .unwrap();
        t.annotate_cache(CacheOutcome::NegativeHit);
        t.add_round_trips(id, 6);
        t.end_span(id, 500);
        let traces = t.query_traces();
        let json = traces[0].to_json();
        let v = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("round_trips").unwrap().as_u64(), Some(6));
        let spans = v.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans[0].get("cache").unwrap().as_str(), Some("negative"));
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("q \"quoted\""));
    }

    #[test]
    fn render_is_one_line_per_event() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.record(5_000, Some(0), TraceKind::Nsm, "lookup".into());
        let rendered = t.render();
        assert_eq!(rendered.lines().count(), 1);
        assert!(rendered.contains("lookup"));
        assert!(rendered.contains("nsm"));
    }
}
