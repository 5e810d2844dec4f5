//! The single-writer word: a `u64` total that one thread — its owner, the
//! first to add to it — adds to with a plain load and store, and any other
//! thread with a `fetch_add` into a second word beside it.
//!
//! A counter, a histogram's cells and the virtual clock are added to
//! millions of times a second by the thread driving the simulation and
//! seldom by another. A lock-prefixed read-modify-write costs that thread
//! several times what the owner's plain load and store do.
//! Nothing is lost to a foreign thread: it never writes the owner's word,
//! and its own adds are atomic. A reader sums the two words, wrapping.
//!
//! Each thread's identity is its token, a nonzero number drawn once from a
//! process-wide sequence and never reused, held in the one thread-local
//! the workspace keeps. A word whose owner has exited stays owned by it;
//! every later thread adds to the shared half.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The next token to hand out; 0 means "no owner".
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The calling thread's token, 0 until it first asks.
    static TOKEN: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's token: nonzero, and no other thread's, ever.
#[inline]
fn token() -> u64 {
    TOKEN.with(|token| match token.get() {
        0 => {
            let fresh = NEXT_TOKEN.fetch_add(1, Relaxed);
            token.set(fresh);
            fresh
        }
        known => known,
    })
}

/// Which thread may write a single-writer structure's own half: the first
/// to ask. A structure of several words — a histogram's cells, the
/// virtual clock and its ledger — asks once for all of them.
#[derive(Debug, Default)]
pub struct Owner(AtomicU64);

impl Owner {
    /// Whether the calling thread owns this, claiming it if no thread does.
    #[inline]
    pub fn is_mine(&self) -> bool {
        let me = token();
        match self.0.load(Relaxed) {
            0 => self.0.compare_exchange(0, me, Relaxed, Relaxed).is_ok(),
            owner => owner == me,
        }
    }
}

/// A `u64` total: the owner's word, written by the owner alone, plus a
/// shared word every other thread adds to atomically.
///
/// Totals are exact under any interleaving, and wrap at 2^64 as a
/// `fetch_add` does. Each word only grows, so one reader's successive
/// [`OwnedWord::get`]s are monotone (read-read coherence on each word).
///
/// # Examples
///
/// ```
/// use obs::word::OwnedWord;
///
/// let word = OwnedWord::new();
/// word.add(40); // this thread now owns the word
/// std::thread::scope(|s| {
///     s.spawn(|| word.add(2)); // a foreign add, atomic
/// });
/// assert_eq!(word.get(), 42);
/// ```
#[derive(Default)]
pub struct OwnedWord {
    owner: Owner,
    own: AtomicU64,
    shared: AtomicU64,
}

impl OwnedWord {
    /// A zero total with no owner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`. The owner's add is a relaxed load and store, no
    /// lock-prefixed instruction; any other thread's is one `fetch_add`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.owner.is_mine() {
            self.own
                .store(self.own.load(Relaxed).wrapping_add(n), Relaxed);
        } else {
            self.shared.fetch_add(n, Relaxed);
        }
    }

    /// The total: the two words summed, wrapping.
    #[inline]
    pub fn get(&self) -> u64 {
        self.own
            .load(Relaxed)
            .wrapping_add(self.shared.load(Relaxed))
    }
}

impl std::fmt::Debug for OwnedWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("OwnedWord").field(&self.get()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn the_first_adder_owns_and_others_share() {
        let word = OwnedWord::new();
        word.add(5);
        std::thread::scope(|s| {
            s.spawn(|| word.add(7));
        });
        word.add(1);
        assert_eq!(word.own.load(Relaxed), 6);
        assert_eq!(word.shared.load(Relaxed), 7);
        assert_eq!(word.get(), 13);
    }

    #[test]
    fn tokens_are_distinct_per_thread_and_stable() {
        let mine = token();
        assert_ne!(mine, 0);
        assert_eq!(token(), mine);
        let theirs = std::thread::scope(|s| s.spawn(token).join().expect("token thread"));
        assert_ne!(theirs, mine);
    }

    #[test]
    fn totals_wrap_as_fetch_add_does() {
        let word = OwnedWord::new();
        word.add(u64::MAX);
        std::thread::scope(|s| {
            s.spawn(|| word.add(3));
        });
        assert_eq!(word.get(), 2);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Real threads — the owner and up to three foreign ones,
            /// released together — add random amounts; after the join the
            /// word holds the plain (wrapping) sum of them all.
            #[test]
            fn concurrent_adds_sum_exactly(
                owner in proptest::collection::vec(any::<u64>(), 1..2_000),
                foreign in proptest::collection::vec(
                    proptest::collection::vec(any::<u64>(), 0..2_000), 1..4),
            ) {
                let word = OwnedWord::new();
                word.add(owner[0]);
                let start = Barrier::new(foreign.len() + 1);
                std::thread::scope(|s| {
                    for amounts in &foreign {
                        let (word, start) = (&word, &start);
                        s.spawn(move || {
                            start.wait();
                            amounts.iter().for_each(|&n| word.add(n));
                        });
                    }
                    start.wait();
                    owner[1..].iter().for_each(|&n| word.add(n));
                });
                let expected = owner
                    .iter()
                    .chain(foreign.iter().flatten())
                    .fold(0u64, |sum, &n| sum.wrapping_add(n));
                prop_assert_eq!(word.get(), expected);
                let owned = owner.iter().fold(0u64, |sum, &n| sum.wrapping_add(n));
                prop_assert_eq!(word.own.load(Relaxed), owned);
            }
        }
    }
}
