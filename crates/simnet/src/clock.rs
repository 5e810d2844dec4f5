//! The clock components charge virtual time against: one single-writer
//! word.
//!
//! The paper's methodology measures the *elapsed time of one operation at
//! light load*: a single logical thread of control moves through the client,
//! the HNS, the NSMs, and the underlying name services. We reproduce that by
//! letting every component advance a shared [`VirtualClock`] by its
//! calibrated cost as the (real, synchronous) call proceeds. The total
//! virtual time elapsed across an operation is exactly the paper's elapsed
//! time, computed deterministically.

use obs::word::OwnedWord;

use crate::time::{SimDuration, SimTime};

/// The monotonically-advancing virtual clock.
///
/// Elapsed microseconds in one [`OwnedWord`]: the thread driving the
/// simulation — the first to advance it — adds with a plain load and
/// store, any other thread with one `fetch_add` into the word's shared
/// half, and [`VirtualClock::now`] sums the two. Safe to advance from any
/// thread, and no advance is lost; both halves only grow, so a reader's
/// successive `now()` calls are monotone even with `Relaxed` loads.
///
/// # Examples
///
/// ```
/// use simnet::clock::VirtualClock;
/// use simnet::time::SimDuration;
///
/// let clock = VirtualClock::new();
/// clock.advance(SimDuration::from_ms(27));
/// assert_eq!(clock.now().as_us(), 27_000);
/// ```
#[derive(Debug, Default)]
pub struct VirtualClock {
    elapsed_us: OwnedWord,
}

impl VirtualClock {
    /// Creates a clock at the origin of virtual time.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the current virtual instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime::from_us(self.elapsed_us.get())
    }

    /// Advances virtual time by `d`.
    #[inline]
    pub fn advance(&self, d: SimDuration) {
        self.elapsed_us.add(d.as_us());
    }

    /// Does nothing. The thread-local batched charging mode this used to
    /// select is gone (one uncontended word is as cheap).
    ///
    /// Pinned by `benchmark/`; goes in ROADMAP item 1(c).
    pub fn set_batched(&self, _: bool) {}
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
