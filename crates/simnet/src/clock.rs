//! The clock components charge virtual time against, and its ledger of
//! what the time went on.
//!
//! The paper's methodology measures the *elapsed time of one operation at
//! light load*: a single logical thread of control moves through the client,
//! the HNS, the NSMs, and the underlying name services. We reproduce that by
//! letting every component advance a shared [`VirtualClock`] by its
//! calibrated cost as the (real, synchronous) call proceeds. The total
//! virtual time elapsed across an operation is exactly the paper's elapsed
//! time, computed deterministically.
//!
//! Each advance is filed under its [`Kind`]: the clock keeps one row per
//! kind — a count, the units charged and the microseconds — and a
//! [`Ledger`] is a reading of them. Every microsecond the clock moves by
//! lands in exactly one row, so the rows sum to the clock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use obs::word::Owner;

use crate::costs::Kind;
use crate::time::{SimDuration, SimTime};
use crate::world::CounterSnapshot;

/// The monotonically-advancing virtual clock and its ledger.
///
/// A single-writer structure, as `obs::word::OwnedWord` is: the thread
/// driving the simulation — the first to charge — adds to its own half
/// with plain loads and stores, any other thread with a `fetch_add` each
/// into the shared half, and a reading sums the two. One owner check
/// covers the clock and the row a charge files. Safe to charge from any
/// thread, and no charge is lost; every word only grows, so a reader's
/// successive `now()` calls are monotone even with `Relaxed` loads.
///
/// # Examples
///
/// ```
/// use simnet::clock::VirtualClock;
/// use simnet::costs::Kind;
///
/// let clock = VirtualClock::new();
/// clock.charge(Kind::Wait, 0, 27_000);
/// assert_eq!(clock.now().as_us(), 27_000);
/// assert_eq!(clock.ledger().row(Kind::Wait).us, 27_000);
/// ```
#[derive(Debug, Default)]
pub struct VirtualClock {
    owner: Owner,
    own: Half,
    shared: Half,
    /// Whether any thread has added to `shared`'s rows: until one does, a
    /// reading of the ledger reads only `own`'s.
    shared_rows: AtomicBool,
}

/// One half of a [`VirtualClock`]: the elapsed microseconds and a row of
/// words per kind.
#[derive(Debug)]
struct Half {
    elapsed_us: AtomicU64,
    rows: [Words; Kind::COUNT],
}

/// A row's words: what [`Row`] reads.
#[derive(Debug, Default)]
struct Words {
    count: AtomicU64,
    units: AtomicU64,
    us: AtomicU64,
}

impl Words {
    fn read(&self) -> Row {
        Row {
            count: self.count.load(Relaxed),
            units: self.units.load(Relaxed),
            us: self.us.load(Relaxed),
        }
    }
}

impl Default for Half {
    fn default() -> Self {
        Half {
            elapsed_us: AtomicU64::new(0),
            rows: std::array::from_fn(|_| Words::default()),
        }
    }
}

impl Half {
    /// The owner's add: no other thread writes this half, so each word is
    /// a relaxed load and store.
    #[inline]
    fn add_owned(&self, kind: Kind, units: u64, us: u64) {
        let add =
            |word: &AtomicU64, n: u64| word.store(word.load(Relaxed).wrapping_add(n), Relaxed);
        let row = &self.rows[kind as usize];
        add(&self.elapsed_us, us);
        add(&row.count, 1);
        add(&row.us, us);
        if units != 0 {
            add(&row.units, units);
        }
    }

    /// Whether the rows' microseconds sum to the elapsed ones.
    fn balanced(&self) -> bool {
        let rows =
            (self.rows.iter()).fold(0, |sum: u64, row| sum.wrapping_add(row.us.load(Relaxed)));
        rows == self.elapsed_us.load(Relaxed)
    }

    /// A foreign thread's add, one `fetch_add` a word.
    #[cold]
    fn add_shared(&self, kind: Kind, units: u64, us: u64) {
        let row = &self.rows[kind as usize];
        self.elapsed_us.fetch_add(us, Relaxed);
        row.count.fetch_add(1, Relaxed);
        row.us.fetch_add(us, Relaxed);
        row.units.fetch_add(units, Relaxed);
    }
}

impl VirtualClock {
    /// Creates a clock at the origin of virtual time, its ledger empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the current virtual instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        let (own, shared) = (&self.own.elapsed_us, &self.shared.elapsed_us);
        SimTime::from_us(own.load(Relaxed).wrapping_add(shared.load(Relaxed)))
    }

    /// Advances virtual time by `us` and files it in `kind`'s row, with
    /// `units`: the ledger's add.
    #[inline]
    pub fn charge(&self, kind: Kind, units: u64, us: u64) {
        if self.owner.is_mine() {
            self.own.add_owned(kind, units, us);
        } else {
            self.shared_rows.store(true, Relaxed);
            self.shared.add_shared(kind, units, us);
        }
    }

    /// Whether the calling thread's charges, if it owns the clock, were
    /// each filed in a row: its half of the rows sums to its half of the
    /// clock. Only the owner writes that half, so its own reading is
    /// exact whatever other threads do.
    pub(crate) fn owner_balanced(&self) -> bool {
        !self.owner.is_mine() || self.own.balanced()
    }

    /// A reading of the ledger: every row, and the clock.
    pub fn ledger(&self) -> Ledger {
        let mut ledger = Ledger::ZERO;
        self.since(&mut ledger);
        ledger
    }

    /// Turns `ledger`, an earlier reading of this clock's ledger, into
    /// what was charged since: the rowwise difference, made in place in
    /// one pass, so that no copy of a reading is read back at once.
    pub(crate) fn since(&self, ledger: &mut Ledger) {
        let shared = self.shared_rows.load(Relaxed);
        ledger.elapsed_us = self.now().as_us().wrapping_sub(ledger.elapsed_us);
        for (kind, row) in ledger.rows.iter_mut().enumerate() {
            let mut now = self.own.rows[kind].read();
            if shared {
                now = now.plus(self.shared.rows[kind].read(), u64::wrapping_add);
            }
            *row = now.plus(*row, u64::wrapping_sub);
        }
    }

    /// Does nothing. The thread-local batched charging mode this used to
    /// select is gone (one uncontended word is as cheap).
    ///
    /// Pinned by `benchmark/`; goes in ROADMAP item 1(c).
    pub fn set_batched(&self, _: bool) {}
}

/// What was charged under one [`Kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Row {
    /// The charges made.
    pub count: u64,
    /// The bytes, records or reads they carried.
    pub units: u64,
    /// The microseconds they moved the clock by.
    pub us: u64,
}

impl Row {
    /// `op` of each of the two rows' fields.
    fn plus(self, other: Row, op: fn(u64, u64) -> u64) -> Row {
        Row {
            count: op(self.count, other.count),
            units: op(self.units, other.units),
            us: op(self.us, other.us),
        }
    }
}

/// A reading of a clock's ledger (`World::ledger`), or what was charged
/// between two (`World::measure`): one [`Row`] per [`Kind`], and what
/// the clock moved by. The rows' microseconds sum to [`Ledger::total`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    elapsed_us: u64,
    rows: [Row; Kind::COUNT],
}

impl Ledger {
    /// The ledger of a clock at the origin: nothing charged.
    pub(crate) const ZERO: Ledger = Ledger {
        elapsed_us: 0,
        rows: [Row {
            count: 0,
            units: 0,
            us: 0,
        }; Kind::COUNT],
    };

    /// `kind`'s row.
    pub fn row(&self, kind: Kind) -> Row {
        self.rows[kind as usize]
    }

    /// Every row, in the order `kinds!` lists them.
    pub fn rows(&self) -> impl Iterator<Item = (Kind, Row)> + '_ {
        Kind::ALL.iter().map(|&kind| (kind, self.row(kind)))
    }

    /// The virtual time the clock moved by: an op's duration.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_us(self.elapsed_us)
    }

    /// The `net` counters, read off the rows: a remote call is a
    /// [`Kind::RemoteRequest`] and its bytes that row's units, a local
    /// call a [`Kind::LocalCall`], and a lookup a [`Kind::BindLookup`] or
    /// a [`Kind::ChRead`].
    pub fn counters(&self) -> CounterSnapshot {
        let remote = self.row(Kind::RemoteRequest);
        CounterSnapshot {
            remote_calls: remote.count,
            local_calls: self.row(Kind::LocalCall).count,
            bytes_sent: remote.units,
            ns_lookups: self.row(Kind::BindLookup).count + self.row(Kind::ChRead).count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait(clock: &VirtualClock, us: u64) {
        clock.charge(Kind::Wait, 0, us);
    }

    #[test]
    fn advances_and_reads() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        wait(&c, 5_000);
        c.charge(Kind::ReplyBytes, 64, 250);
        assert_eq!(c.now().as_us(), 5250);
        let ledger = c.ledger();
        assert_eq!(ledger.total().as_us(), 5250);
        let row = Row {
            count: 1,
            units: 64,
            us: 250,
        };
        assert_eq!(ledger.row(Kind::ReplyBytes), row);
        let mut delta = ledger;
        c.since(&mut delta);
        assert_eq!(delta, Ledger::ZERO);
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
                        wait(&c, 1);
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

    /// The owner's charges and every foreign thread's land in the same
    /// rows, none lost, and the rows still sum to the clock.
    #[test]
    fn concurrent_advances_accumulate() {
        use std::sync::Arc;
        let c = Arc::new(VirtualClock::new());
        c.charge(Kind::CacheProbe, 0, 50);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.charge(Kind::RemoteRequest, 3, 1);
                }
            }));
        }
        for h in handles {
            h.join().expect("thread panicked");
        }
        let ledger = c.ledger();
        assert_eq!(c.now().as_us(), 8050);
        let remote = ledger.row(Kind::RemoteRequest);
        assert_eq!(
            (remote.count, remote.units, remote.us),
            (8000, 24_000, 8000)
        );
        let rows: u64 = ledger.rows().map(|(_, row)| row.us).sum();
        assert_eq!(rows, ledger.total().as_us());
    }
}
