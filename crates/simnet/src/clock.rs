//! Clocks that components charge virtual time against.
//!
//! The paper's methodology measures the *elapsed time of one operation at
//! light load*: a single logical thread of control moves through the client,
//! the HNS, the NSMs, and the underlying name services. We reproduce that by
//! letting every component advance a shared [`VirtualClock`] by its
//! calibrated cost as the (real, synchronous) call proceeds. The total
//! virtual time elapsed across an operation is exactly the paper's elapsed
//! time, computed deterministically.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::time::{SimDuration, SimTime};

/// A source of virtual time that can be advanced by costs.
pub trait Clock: Send + Sync {
    /// Returns the current virtual instant.
    fn now(&self) -> SimTime;

    /// Advances virtual time by `d`.
    fn advance(&self, d: SimDuration);
}

/// Process-unique ids for clocks, so batched thread-local charges can
/// never be mis-attributed to a different clock that happens to reuse
/// a freed clock's address.
static NEXT_CLOCK_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread unflushed charges, keyed by clock id. Almost always
    /// holds at most one entry (a thread drives one world at a time),
    /// so a linear scan beats any map.
    static PENDING: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The standard monotonically-advancing virtual clock.
///
/// Cheap to share (`Arc<VirtualClock>`), safe to advance from any thread:
/// the elapsed time is one atomic word of microseconds that every advance
/// adds to and every read loads. The word only grows, so a reader's
/// successive `now()` calls are monotone even with `Relaxed` ordering.
///
/// # Batched charging
///
/// [`VirtualClock::set_batched`] turns per-charge shared-atomic updates
/// into thread-local accumulation: `advance` adds to a thread-local
/// pending cell and the pending total is flushed to the shared word
/// whenever the same thread calls `now()` (or
/// [`VirtualClock::flush_local`]). Because every read flushes first,
/// a single-threaded run observes *exactly* the same sequence of
/// instants as unbatched charging — golden outputs stay byte-identical.
/// Cross-thread visibility of
/// another thread's still-pending charges lags until that thread reads
/// or flushes; a thread that stops using a batched clock must call
/// `flush_local` or its tail charges are dropped with the thread.
///
/// # Examples
///
/// ```
/// use simnet::clock::{Clock, VirtualClock};
/// use simnet::time::SimDuration;
///
/// let clock = VirtualClock::new();
/// clock.advance(SimDuration::from_ms(27));
/// assert_eq!(clock.now().as_us(), 27_000);
/// ```
#[derive(Debug)]
pub struct VirtualClock {
    id: u64,
    batched: AtomicBool,
    elapsed_us: AtomicU64,
}

impl Default for VirtualClock {
    fn default() -> Self {
        VirtualClock {
            id: NEXT_CLOCK_ID.fetch_add(1, Ordering::Relaxed),
            batched: AtomicBool::new(false),
            elapsed_us: AtomicU64::new(0),
        }
    }
}

impl VirtualClock {
    /// Creates a clock at the origin of virtual time.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables batched charging (see the type docs). When
    /// disabling, the calling thread's pending charges are flushed;
    /// other threads flush on their own next read.
    pub fn set_batched(&self, enabled: bool) {
        self.batched.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.flush_local();
        }
    }

    /// Whether batched charging is enabled.
    pub fn batched(&self) -> bool {
        self.batched.load(Ordering::Relaxed)
    }

    /// Flushes the calling thread's pending batched charges into the
    /// clock. A no-op when nothing is pending.
    pub fn flush_local(&self) {
        let pending =
            PENDING.with_borrow_mut(|v| match v.iter().position(|&(id, _)| id == self.id) {
                Some(i) => v.swap_remove(i).1,
                None => 0,
            });
        if pending > 0 {
            self.elapsed_us.fetch_add(pending, Ordering::Relaxed);
        }
    }

    /// Resets the clock to the origin. Intended for experiment harnesses
    /// that reuse one world across trials. The calling thread's pending
    /// batched charges are discarded with the elapsed time.
    pub fn reset(&self) {
        PENDING.with_borrow_mut(|v| v.retain(|&(id, _)| id != self.id));
        self.elapsed_us.store(0, Ordering::Relaxed);
    }

    /// Measures the virtual time consumed by `f`.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, SimDuration) {
        let start = self.now();
        let r = f();
        (r, self.now().since(start))
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> SimTime {
        if self.batched() {
            self.flush_local();
        }
        SimTime::from_us(self.elapsed_us.load(Ordering::Relaxed))
    }

    fn advance(&self, d: SimDuration) {
        let us = d.as_us();
        if self.batched() {
            PENDING.with_borrow_mut(|v| match v.iter_mut().find(|(id, _)| *id == self.id) {
                Some((_, pending)) => *pending += us,
                None => v.push((self.id, us)),
            });
        } else {
            self.elapsed_us.fetch_add(us, Ordering::Relaxed);
        }
    }
}

/// A stopwatch over a [`Clock`], for measuring phases of an operation.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: SimTime,
}

impl Stopwatch {
    /// Starts a stopwatch at the clock's current instant.
    pub fn start(clock: &dyn Clock) -> Self {
        Stopwatch { start: clock.now() }
    }

    /// Returns the virtual time elapsed since the stopwatch started.
    pub fn elapsed(&self, clock: &dyn Clock) -> SimDuration {
        clock.now().since(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_and_reads() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(SimDuration::from_ms(5));
        c.advance(SimDuration::from_us(250));
        assert_eq!(c.now().as_us(), 5250);
    }

    #[test]
    fn reset_returns_to_origin() {
        let c = VirtualClock::new();
        c.advance(SimDuration::from_ms(100));
        c.reset();
        assert_eq!(c.now(), SimTime::ZERO);
    }

    #[test]
    fn time_measures_closure_cost() {
        let c = VirtualClock::new();
        let (value, took) = c.time(|| {
            c.advance(SimDuration::from_ms(33));
            42
        });
        assert_eq!(value, 42);
        assert_eq!(took, SimDuration::from_ms(33));
    }

    #[test]
    fn stopwatch_tracks_elapsed() {
        let c = VirtualClock::new();
        c.advance(SimDuration::from_ms(10));
        let sw = Stopwatch::start(&c);
        c.advance(SimDuration::from_ms(7));
        assert_eq!(sw.elapsed(&c), SimDuration::from_ms(7));
    }

    /// Batched charging must be observationally identical to unbatched
    /// charging for a single thread: every read flushes first, so the
    /// sequence of instants (the input to every golden output) matches.
    #[test]
    fn batched_single_thread_reads_identical_instants() {
        let plain = VirtualClock::new();
        let batched = VirtualClock::new();
        batched.set_batched(true);
        let mut seen = Vec::new();
        for i in 0..50u64 {
            plain.advance(SimDuration::from_us(i * 7 + 1));
            batched.advance(SimDuration::from_us(i * 7 + 1));
            if i % 3 == 0 {
                seen.push((plain.now(), batched.now()));
            }
        }
        for (p, b) in seen {
            assert_eq!(p, b);
        }
        assert_eq!(plain.now(), batched.now());
    }

    #[test]
    fn batched_charges_flush_on_demand_and_on_disable() {
        let c = VirtualClock::new();
        c.set_batched(true);
        c.advance(SimDuration::from_ms(5));
        c.flush_local();
        c.advance(SimDuration::from_ms(2));
        // Disabling flushes the caller's pending charges.
        c.set_batched(false);
        assert_eq!(c.now().as_us(), 7_000);
    }

    #[test]
    fn batched_pending_is_per_clock() {
        let a = VirtualClock::new();
        let b = VirtualClock::new();
        a.set_batched(true);
        b.set_batched(true);
        a.advance(SimDuration::from_ms(3));
        b.advance(SimDuration::from_ms(11));
        assert_eq!(a.now().as_us(), 3_000);
        assert_eq!(b.now().as_us(), 11_000);
    }

    #[test]
    fn batched_worker_thread_charges_merge_after_flush() {
        use std::sync::Arc;
        let c = Arc::new(VirtualClock::new());
        c.set_batched(true);
        c.advance(SimDuration::from_ms(1));
        let worker = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for _ in 0..100 {
                    c.advance(SimDuration::from_us(10));
                }
                c.flush_local();
            })
        };
        worker.join().expect("worker");
        assert_eq!(c.now().as_us(), 2_000);
    }

    #[test]
    fn reads_are_monotone_under_concurrent_advances() {
        use std::sync::Arc;
        let c = Arc::new(VirtualClock::new());
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..20_000 {
                        c.advance(SimDuration::from_us(1));
                    }
                })
            })
            .collect();
        let mut last = c.now();
        for _ in 0..20_000 {
            let now = c.now();
            assert!(now >= last, "clock went backwards: {now:?} < {last:?}");
            last = now;
        }
        for w in writers {
            w.join().expect("writer panicked");
        }
        assert_eq!(c.now().as_us(), 80_000);
    }

    #[test]
    fn concurrent_advances_accumulate() {
        use std::sync::Arc;
        let c = Arc::new(VirtualClock::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.advance(SimDuration::from_us(1));
                }
            }));
        }
        for h in handles {
            h.join().expect("thread panicked");
        }
        assert_eq!(c.now().as_us(), 8000);
    }
}
