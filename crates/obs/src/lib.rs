//! Observability layer for the HNS reproduction: per-query spans plus a
//! unified metrics registry, shared by every crate in the workspace.
//!
//! The crate is deliberately dependency-light (only `parking_lot`) and
//! knows nothing about the simulation: timestamps are plain `u64`
//! microsecond values and hosts are plain `u32` ids, so `simnet` can
//! depend on `obs` (not the other way round) and re-export it for the
//! rest of the workspace.
//!
//! Two halves:
//!
//! * [`trace`] — a span-capable [`Tracer`]: every `FindNSM` query opens
//!   a root span, each of the six meta mappings (or the batched MQUERY
//!   prefetch) opens a child span, and NSM / BIND / Clearinghouse hops
//!   nest below those. Spans record sim-time latency, remote round
//!   trips, and cache outcome; flat walkthrough events (the Figure 2.1
//!   rendering) ride along inside whatever span is current.
//! * [`metrics`] — a [`MetricsRegistry`] of [`Counter`]s and
//!   fixed-bucket [`Histogram`]s keyed by `(component, name)`, with a
//!   deterministic [`MetricsSnapshot`] that renders as text or JSON and
//!   sums in the rows of every live [`CounterSource`] — a cache keeps its
//!   own counters, and each snapshot reads them. Counters and histograms
//!   are built on [`word`]'s single-writer word: the thread that writes
//!   first owns it and writes without a lock-prefixed instruction, any
//!   other thread atomically into a second word, merged on read.
//!
//! [`timeline`] layers windowed sampling on top of [`metrics`]: a
//! [`Sampler`] differences successive registry snapshots at fixed window
//! boundaries into a deterministic [`Timeline`], each window one
//! [`MetricsDelta`] (counter deltas plus windowed histogram percentiles
//! from bucketwise differences), with an ASCII-sparkline `render()` and
//! an `hns-timeline-v1` JSON export.
//!
//! [`json`] is a minimal JSON writer/parser used for the exports (the
//! workspace builds offline, so no serde).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod json;
pub mod metrics;
pub mod timeline;
pub mod trace;
pub mod word;

pub use metrics::{
    ms_to_us, Counter, CounterDelta, CounterSample, CounterSource, Histogram, HistogramDelta,
    HistogramSample, LazyCounter, LazyHistogram, LocalHistogram, MetricsDelta, MetricsRegistry,
    MetricsSnapshot,
};
pub use timeline::{Sampler, Timeline, TimelineMark, TimelineWindow};
pub use trace::{CacheOutcome, QueryTrace, SpanId, SpanRecord, TraceEvent, TraceKind, Tracer};
