//! In-memory spans recorded by the benchmark around its own calls and,
//! through [`crate::shim`], around every server. Nothing here is
//! compiled into the stack: the tower is traced from outside.

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span brackets. Client kinds wrap a public call the generator
/// makes; server kinds wrap one `RpcService::dispatch` behind a shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// One whole generated operation (the root of every tree).
    Op,
    FindNsm,
    NsmCall,
    Import,
    RegResolve,
    RegUpdate,
    RegTransfer,
    Query,
    Update,
    Preload,
    MetaServe,
    PublicServe,
    CellServe,
    BindUpdateServe,
    ChServe,
    ChWriteServe,
    NsmServe,
    TargetServe,
}

pub const KINDS: usize = Kind::TargetServe as usize + 1;

impl Kind {
    pub fn is_server(self) -> bool {
        self as u8 >= Kind::MetaServe as u8
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Operation the span belongs to.
    pub op: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// A cheaply cloneable handle; the generator and every shim share one.
/// All recording happens on the single generator thread (servers run
/// synchronously inside `RpcNet::call`), so the lock is never contended;
/// it exists because `RpcService` must be `Sync`.
#[derive(Clone)]
pub struct Tracer {
    origin: Instant,
    state: Arc<Mutex<State>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Arc::new(Mutex::new(State {
                spans: Vec::new(),
                open: Vec::new(),
                op: 0,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("tracer lock poisoned by a panic")
    }

    /// Opens a span; it closes when the guard drops.
    pub fn enter(&self, kind: Kind) -> SpanGuard<'_> {
        let mut st = self.lock();
        let idx = st.spans.len() as u32;
        let parent = st.open.last().copied().unwrap_or(NO_PARENT);
        let op = st.op;
        st.open.push(idx);
        st.spans.push(Span {
            kind,
            start: 0,
            end: 0,
            parent,
            op,
        });
        drop(st);
        // Stamp after the bookkeeping so it lands in the parent's self
        // time, not in this span's.
        let start = self.origin.elapsed().as_nanos() as u64;
        SpanGuard {
            tracer: self,
            idx,
            start,
        }
    }

    /// Opens the root span of operation `op`.
    pub fn enter_op(&self, op: u64) -> SpanGuard<'_> {
        self.lock().op = op as u32;
        self.enter(Kind::Op)
    }

    /// Takes every closed span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        let mut st = self.lock();
        assert!(st.open.is_empty(), "drain with a span still open");
        std::mem::take(&mut st.spans)
    }
}

/// Opens a span when tracing is on; the untraced run passes `None`.
pub fn enter(tracer: &Option<Tracer>, kind: Kind) -> Option<SpanGuard<'_>> {
    tracer.as_ref().map(|t| t.enter(kind))
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: u32,
    start: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.origin.elapsed().as_nanos() as u64;
        // A poisoned lock means a panic is already unwinding: skip.
        if let Ok(mut st) = self.tracer.state.lock() {
            let span = &mut st.spans[self.idx as usize];
            span.start = self.start;
            span.end = end.max(self.start);
            st.open.pop();
        }
    }
}

/// Per-kind totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindTotals {
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl KindTotals {
    /// Mean self time per call (0 when the kind never ran).
    pub fn self_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }

    pub fn total_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize] += s.dur();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.dur().saturating_sub(c))
        .collect()
}

pub fn totals_by_kind(spans: &[Span]) -> [KindTotals; KINDS] {
    let mut out = [KindTotals::default(); KINDS];
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = &mut out[s.kind as usize];
        t.calls += 1;
        t.total_ns += s.dur();
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_partition_the_root() {
        let tr = Tracer::new();
        for op in 0..50 {
            let _root = tr.enter_op(op);
            busy(2_000);
            {
                let _f = tr.enter(Kind::FindNsm);
                busy(1_000);
                for _ in 0..3 {
                    let _m = tr.enter(Kind::MetaServe);
                    busy(500);
                }
            }
            let _c = tr.enter(Kind::NsmCall);
            let _s = tr.enter(Kind::NsmServe);
            busy(700);
        }
        let spans = tr.drain();
        assert_eq!(spans.len(), 50 * 7);
        let selfs = self_times(&spans);

        // Children never exceed their parent, nest inside it, and share
        // its op id.
        let mut child_sum = vec![0u64; spans.len()];
        for s in &spans {
            if s.parent != NO_PARENT {
                let p = &spans[s.parent as usize];
                assert!(p.start <= s.start && s.end <= p.end, "{s:?} outside {p:?}");
                assert_eq!(p.op, s.op);
                child_sum[s.parent as usize] += s.dur();
            }
        }
        for (s, c) in spans.iter().zip(&child_sum) {
            assert!(*c <= s.dur(), "children {c} > parent {}", s.dur());
        }

        // Self times sum exactly to the root durations.
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(Span::dur)
            .sum();
        assert_eq!(selfs.iter().sum::<u64>(), roots);

        let by = totals_by_kind(&spans);
        assert_eq!(by[Kind::Op as usize].calls, 50);
        assert_eq!(by[Kind::MetaServe as usize].calls, 150);
        assert_eq!(by.iter().map(|t| t.self_ns).sum::<u64>(), roots);
        // Leaves keep all their time; FindNsm keeps only its own ~1 us.
        let meta = by[Kind::MetaServe as usize];
        assert_eq!(meta.self_ns, meta.total_ns);
        let find = by[Kind::FindNsm as usize];
        assert!(find.self_per_call() >= 1_000.0 && find.self_per_call() < find.total_per_call());
        assert!(find.total_per_call() >= 2_500.0);
    }

    #[test]
    fn unused_kinds_read_zero() {
        let by = totals_by_kind(&[]);
        assert_eq!(by[Kind::Preload as usize].self_per_call(), 0.0);
        assert!(Kind::ChServe.is_server() && !Kind::Import.is_server());
    }
}
