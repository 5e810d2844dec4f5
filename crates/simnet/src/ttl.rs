//! The TTL-cache core: one expiry map under every cache.
//!
//! "Cached data is tagged with a time-to-live field for cache invalidation.
//! While this simplistic mechanism can cause cache consistency problems, it
//! would not make sense to use a more sophisticated scheme because the
//! source of our cached data (BIND) also uses this mechanism."
//!
//! The paper has that one mechanism in three places ("both the HNS and the
//! NSMs were modified to cache the results of remote lookups", plus the
//! BIND resolver), so it is written once: [`TtlMap`] owns the table and
//! its lock, the `now < expires_at` test, the retention rule, the
//! capacity, the probe counters and the exporter. The HNS meta cache, the
//! composed binding cache, the NSM result cache and the resolver's record
//! cache each wrap one and add only what is theirs (storage forms,
//! negative entries, min-TTL insert).
//!
//! One behaviour, no options:
//!
//! * An entry is live while `now < expires_at`; at `now == expires_at` it
//!   is expired.
//! * An expired entry is hidden from [`TtlMap::probe`] but **retained**
//!   until overwritten or until the map is full — it is what
//!   [`TtlMap::probe_stale`] serves when the authoritative server is
//!   unreachable (paper §4: naming data changes slowly, so stale data
//!   beats no data).
//! * A map holds at most [`CAPACITY`] entries. The bound is enforced in
//!   one place, the insert of a *new* key into a full map, by one rule:
//!   every expired entry goes, and if that frees less than an eighth of
//!   the map, the live entries soonest to expire go too until an eighth is
//!   free. An overwrite never evicts, a probe never does, and while the
//!   map has room nothing is ever dropped: a cache that never fills
//!   behaves as if it had no bound.
//! * Every [`TtlMap::probe`] moves exactly one of `hits` / `absent` /
//!   `expired`; the first probe to see an entry expired also moves
//!   `expirations`, once per entry lifetime.
//! * A value is handed to a caller-supplied reader while the map is
//!   locked; readers clone a handle out (`Arc`, `Copy` data) and do any
//!   real work — a demarshal — after the lock is released.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use obs::MetricsRegistry;
use parking_lot::Mutex;

use crate::time::{SimDuration, SimTime};

/// The most entries one [`TtlMap`] holds, expired ones included: every
/// cache in the tower has this bound and no way to choose another.
pub const CAPACITY: usize = 65_536;

struct Slot<V> {
    value: V,
    expires_at: SimTime,
    /// Whether a probe has already seen (and counted) this entry expired.
    expiry_seen: bool,
}

impl<V> Slot<V> {
    /// Validity left at `now`, rounded up to whole seconds so a fresh
    /// entry reports its full TTL.
    fn remaining_secs(&self, now: SimTime) -> u32 {
        let us = self.expires_at.saturating_since(now).as_us();
        u32::try_from(us.div_ceil(1_000_000)).unwrap_or(u32::MAX)
    }
}

/// Outcome of [`TtlMap::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe<R> {
    /// A live entry: what the reader returned, and the validity left.
    Live {
        /// The reader's result.
        value: R,
        /// Seconds of validity the entry still has.
        remaining_secs: u32,
    },
    /// An entry is resident but its TTL has lapsed.
    Expired,
    /// Nothing is resident under the key.
    Absent,
}

/// A [`TtlMap`]'s counters: `TtlStats<AtomicU64>` is the live block every
/// probe and insert moves, `TtlStats` (plain `u64`s) a snapshot of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TtlStats<T = u64> {
    /// Probes that found a live entry.
    pub hits: T,
    /// Probes that found nothing resident.
    pub absent: T,
    /// Probes that found an entry past its TTL.
    pub expired: T,
    /// Entries first observed past their TTL (once per entry lifetime).
    pub expirations: T,
    /// Entries inserted, overwrites included.
    pub inserts: T,
    /// Expired entries handed out by [`TtlMap::probe_stale`].
    pub stale_serves: T,
    /// Entries dropped to make room in a full map, expired or live.
    pub evictions: T,
    /// Entries resident now, expired ones included.
    pub resident: T,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

type Entries<K, V> = HashMap<K, Slot<V>>;

/// The capacity rule, run on a full map about to take a new key: drops
/// every entry expired at `now`, then — only if that freed less than an
/// eighth of the map — the live entries soonest to expire, until an
/// eighth is free. Returns how many entries went. One pass over the map
/// buys room for an eighth of a map of inserts.
fn make_room<K, V>(entries: &mut Entries<K, V>, now: SimTime) -> usize {
    let full = entries.len();
    entries.retain(|_, slot| now < slot.expires_at);
    let keep = full - (full / 8).max(1);
    if entries.len() > keep {
        let excess = entries.len() - keep;
        let mut expiries: Vec<SimTime> = entries.values().map(|slot| slot.expires_at).collect();
        let (sooner, cutoff, _) = expiries.select_nth_unstable(excess - 1);
        let cutoff = *cutoff;
        // Entries that expire at the cutoff itself go only as far as needed.
        let mut at_cutoff = excess - sooner.iter().filter(|at| **at < cutoff).count();
        entries.retain(|_, slot| {
            if slot.expires_at == cutoff && at_cutoff > 0 {
                at_cutoff -= 1;
                return false;
            }
            slot.expires_at >= cutoff
        });
    }
    full - entries.len()
}

/// A map, behind one lock, whose entries expire in virtual time.
pub struct TtlMap<K, V> {
    entries: Mutex<Entries<K, V>>,
    /// Entries the map holds before an insert makes room.
    capacity: usize,
    counters: TtlStats<AtomicU64>,
}

impl<K: Hash + Eq, V> Default for TtlMap<K, V> {
    fn default() -> Self {
        Self::with_capacity(CAPACITY)
    }
}

impl<K: Hash + Eq, V> TtlMap<K, V> {
    /// Tests reach the bound with a small one; everything else gets
    /// [`CAPACITY`] through `default`.
    fn with_capacity(capacity: usize) -> Self {
        TtlMap {
            entries: Mutex::new(HashMap::new()),
            capacity,
            counters: TtlStats::default(),
        }
    }

    /// Probes `key` at virtual time `now`, handing a live value to `read`
    /// under the lock. Counts one of hits / absent / expired.
    pub fn probe<Q, R>(&self, now: SimTime, key: &Q, read: impl FnOnce(&V) -> R) -> Probe<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut entries = self.entries.lock();
        match entries.get_mut(key) {
            Some(slot) if now < slot.expires_at => {
                bump(&self.counters.hits);
                Probe::Live {
                    value: read(&slot.value),
                    remaining_secs: slot.remaining_secs(now),
                }
            }
            Some(slot) => {
                bump(&self.counters.expired);
                if !slot.expiry_seen {
                    slot.expiry_seen = true;
                    bump(&self.counters.expirations);
                }
                Probe::Expired
            }
            None => {
                bump(&self.counters.absent);
                Probe::Absent
            }
        }
    }

    /// Counts an `absent` probe for something that cannot be a key — a
    /// string the interner has never seen — without interning it, so a
    /// scan of absent names costs and counts the same but pins no memory.
    pub fn count_absent(&self) {
        bump(&self.counters.absent);
    }

    /// The serve-stale probe: hands an **expired** entry to `read` and
    /// returns what it made of it with how long the entry has been stale.
    /// `read` returns `None` for an entry that is not servable (a cached
    /// absence). Live and absent keys return `None`. Counts one
    /// `stale_serves` on success and nothing otherwise.
    pub fn probe_stale<Q, R>(
        &self,
        now: SimTime,
        key: &Q,
        read: impl FnOnce(&V) -> Option<R>,
    ) -> Option<(R, SimDuration)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let entries = self.entries.lock();
        let slot = entries.get(key).filter(|slot| now >= slot.expires_at)?;
        let value = read(&slot.value)?;
        bump(&self.counters.stale_serves);
        Some((value, now.since(slot.expires_at)))
    }

    /// Reads a live entry (with its remaining seconds, as
    /// [`Probe::Live`] reports them) without counting anything.
    pub fn peek_live<Q, R>(
        &self,
        now: SimTime,
        key: &Q,
        read: impl FnOnce(&V) -> R,
    ) -> Option<(R, u32)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let entries = self.entries.lock();
        let slot = entries.get(key).filter(|slot| now < slot.expires_at)?;
        Some((read(&slot.value), slot.remaining_secs(now)))
    }

    /// Inserts `value` under `key`, valid for `ttl_secs` from `now`. An
    /// existing entry — live or expired — is overwritten in place; a new
    /// key finding the map full makes room first (the module's
    /// capacity rule), which is the only time anything is evicted.
    pub fn insert(&self, now: SimTime, key: K, value: V, ttl_secs: u32) {
        let slot = Slot {
            value,
            expires_at: now + SimDuration::from_ms(u64::from(ttl_secs) * 1000),
            expiry_seen: false,
        };
        let mut entries = self.entries.lock();
        if entries.len() >= self.capacity && !entries.contains_key(&key) {
            let evicted = make_room(&mut entries, now) as u64;
            self.counters
                .evictions
                .fetch_add(evicted, Ordering::Relaxed);
            self.counters.resident.fetch_sub(evicted, Ordering::Relaxed);
        }
        if entries.insert(key, slot).is_none() {
            bump(&self.counters.resident);
        }
        bump(&self.counters.inserts);
    }

    /// Drops an entry whose value a live probe handed out but the caller
    /// then found unusable (wire bytes that no longer decode), and refiles
    /// that probe from `hits` to `absent`: the cache answered nothing.
    pub fn discard<Q>(&self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if self.entries.lock().remove(key).is_some() {
            self.counters.resident.fetch_sub(1, Ordering::Relaxed);
        }
        self.counters.hits.fetch_sub(1, Ordering::Relaxed);
        bump(&self.counters.absent);
    }

    /// Drops every entry; the counters keep running.
    pub fn clear(&self) {
        let mut entries = self.entries.lock();
        self.counters
            .resident
            .fetch_sub(entries.len() as u64, Ordering::Relaxed);
        entries.clear();
    }

    /// Entries resident, expired ones included; never more than
    /// [`CAPACITY`].
    pub fn resident(&self) -> usize {
        self.counters.resident.load(Ordering::Relaxed) as usize
    }

    /// Entries not yet observed expired — what a cache that evicted on
    /// expiry would report as its size.
    pub fn live(&self) -> usize {
        let entries = self.entries.lock();
        entries.values().filter(|slot| !slot.expiry_seen).count()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TtlStats {
        let c = &self.counters;
        TtlStats {
            hits: c.hits.load(Ordering::Relaxed),
            absent: c.absent.load(Ordering::Relaxed),
            expired: c.expired.load(Ordering::Relaxed),
            expirations: c.expirations.load(Ordering::Relaxed),
            inserts: c.inserts.load(Ordering::Relaxed),
            stale_serves: c.stale_serves.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            resident: c.resident.load(Ordering::Relaxed),
        }
    }

    /// Publishes a cache's counters into `metrics` under `component`: the
    /// rows of `view` (each wrapper's published names, computed from
    /// [`TtlMap::stats`]), `stale_serves`, and `evictions` with
    /// `resident`. Those are registered only once `stale_serves`, resp.
    /// `evictions`, is nonzero, so the snapshot of a run with no fault and
    /// no full map stays byte-for-byte what it was before either existed.
    pub fn export(&self, metrics: &MetricsRegistry, component: &str, view: &[(&str, u64)]) {
        for (name, value) in view {
            metrics.set_counter(component, name, *value);
        }
        let stats = self.stats();
        if stats.stale_serves > 0 {
            metrics.set_counter(component, "stale_serves", stats.stale_serves);
        }
        if stats.evictions > 0 {
            metrics.set_counter(component, "evictions", stats.evictions);
            metrics.set_counter(component, "resident", stats.resident);
        }
    }
}

impl<K: Hash + Eq, V> std::fmt::Debug for TtlMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TtlMap")
            .field("resident", &self.resident())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The reference the map is checked against: one ordered map
    /// of `key -> (value, expires_at, expiry seen)` and plain counters.
    #[derive(Default)]
    struct Model {
        entries: BTreeMap<u8, (u32, SimTime, bool)>,
        stats: TtlStats,
    }

    /// The stale reader used on both sides: odd values are "not servable"
    /// (what a cached absence is to the HNS cache).
    fn servable(value: &u32) -> Option<u32> {
        value.is_multiple_of(2).then_some(*value)
    }

    proptest! {
        /// Seeded sequences of insert / probe / probe_stale / peek_live /
        /// discard / count_absent / clear / advance-clock: every answer,
        /// every counter and both sizes agree with the model after every
        /// step. Clock steps and TTLs are whole and half seconds, so
        /// `now == expires_at` (expired) comes up constantly.
        #[test]
        fn map_matches_the_naive_model(
            ops in proptest::collection::vec((0u8..9, 0u8..12, any::<u32>(), 0u32..4), 1..150),
        ) {
            let map: TtlMap<u8, u32> = TtlMap::default();
            let mut model = Model::default();
            let mut now = SimTime::ZERO;
            for (op, key, value, n) in ops {
                match op {
                    0 | 1 => {
                        map.insert(now, key, value, n);
                        let expires_at = now + SimDuration::from_ms(u64::from(n) * 1000);
                        // Overwriting starts a new lifetime: the expiry
                        // of the old entry no longer counts as seen.
                        model.entries.insert(key, (value, expires_at, false));
                        model.stats.inserts += 1;
                    }
                    2 | 3 => {
                        let expected = match model.entries.get_mut(&key) {
                            Some((v, expires_at, _)) if now < *expires_at => {
                                model.stats.hits += 1;
                                let left = expires_at.since(now).as_us().div_ceil(1_000_000);
                                Probe::Live { value: *v, remaining_secs: left as u32 }
                            }
                            Some((_, _, seen)) => {
                                model.stats.expired += 1;
                                if !*seen {
                                    *seen = true;
                                    model.stats.expirations += 1;
                                }
                                Probe::Expired
                            }
                            None => {
                                model.stats.absent += 1;
                                Probe::Absent
                            }
                        };
                        let got = map.probe(now, &key, |v| *v);
                        prop_assert_eq!(got, expected);
                        // `discard` follows a live probe whose value the
                        // caller could not use: the entry goes and the
                        // probe is refiled from hits to absent.
                        if op == 3 && matches!(got, Probe::Live { .. }) {
                            map.discard(&key);
                            model.entries.remove(&key);
                            model.stats.hits -= 1;
                            model.stats.absent += 1;
                        }
                    }
                    4 => {
                        let expected = match model.entries.get(&key) {
                            Some((v, expires_at, _)) if now >= *expires_at => {
                                servable(v).map(|v| (v, now.since(*expires_at)))
                            }
                            _ => None,
                        };
                        model.stats.stale_serves += u64::from(expected.is_some());
                        prop_assert_eq!(map.probe_stale(now, &key, servable), expected);
                    }
                    5 => {
                        let expected = match model.entries.get(&key) {
                            Some((v, expires_at, _)) if now < *expires_at => {
                                let left = expires_at.since(now).as_us().div_ceil(1_000_000);
                                Some((*v, left as u32))
                            }
                            _ => None,
                        };
                        prop_assert_eq!(map.peek_live(now, &key, |v| *v), expected);
                    }
                    6 => {
                        map.count_absent();
                        model.stats.absent += 1;
                    }
                    7 if n == 0 => {
                        map.clear();
                        model.entries.clear();
                    }
                    _ => now += SimDuration::from_ms(u64::from(n) * 500),
                }
                model.stats.resident = model.entries.len() as u64;
                prop_assert_eq!(map.stats(), model.stats);
                prop_assert_eq!(map.resident(), model.entries.len());
                let unseen = model.entries.values().filter(|(_, _, seen)| !seen).count();
                prop_assert_eq!(map.live(), unseen);
            }
        }
    }

    proptest! {
        /// The capacity rule against the same kind of model, on a map
        /// small enough to fill (4 entries, 256 keys): the model learns
        /// what an insert dropped by asking the map which of its keys it
        /// still holds, and checks that against the rule
        /// — it cannot predict *which* of several entries expiring at the
        /// same instant went, only how many.
        #[test]
        fn a_full_map_sheds_expired_entries_first_and_the_soonest_to_expire_next(
            ops in proptest::collection::vec((0u8..4, any::<u8>(), 0u32..6), 1..400),
        ) {
            const CAPACITY: usize = 4;
            let map: TtlMap<u8, u32> = TtlMap::with_capacity(CAPACITY);
            let holds = |key: u8| map.entries.lock().contains_key(&key);
            let mut model: BTreeMap<u8, SimTime> = BTreeMap::new();
            let mut evictions = 0;
            let mut now = SimTime::ZERO;
            for (op, key, n) in ops {
                match op {
                    0 | 1 => {
                        let before: Vec<(u8, SimTime)> =
                            model.iter().map(|(k, at)| (*k, *at)).collect();
                        map.insert(now, key, u32::from(key), n);
                        let (kept, dropped): (Vec<_>, Vec<_>) =
                            before.iter().partition(|(k, _)| holds(*k));
                        if before.len() < CAPACITY || model.contains_key(&key) {
                            prop_assert!(dropped.is_empty(), "evicted with room, or on overwrite");
                        } else {
                            let expired = before.iter().filter(|(_, at)| now >= *at).count();
                            prop_assert_eq!(dropped.len(), expired.max(1));
                            // Only if no expired entry was there to take
                            // did a live one go, and then the soonest.
                            for (_, at) in dropped.iter().filter(|(_, at)| now < *at) {
                                prop_assert_eq!(expired, 0);
                                prop_assert!(kept.iter().all(|(_, kept_at)| at <= kept_at));
                            }
                            prop_assert!(kept.iter().all(|(_, at)| now < *at));
                        }
                        evictions += dropped.len() as u64;
                        for (k, _) in dropped {
                            model.remove(&k);
                        }
                        model.insert(key, now + SimDuration::from_ms(u64::from(n) * 1000));
                        prop_assert!(holds(key));
                    }
                    2 => {
                        // Probes answer from what is left, and drop nothing.
                        let expected = match model.get(&key) {
                            Some(at) if now < *at => Some(u32::from(key)),
                            _ => None,
                        };
                        prop_assert_eq!(map.peek_live(now, &key, |v| *v).map(|(v, _)| v), expected);
                        let _ = map.probe(now, &key, |v| *v);
                        prop_assert_eq!(holds(key), model.contains_key(&key));
                    }
                    _ => now += SimDuration::from_ms(u64::from(n) * 500),
                }
                prop_assert_eq!(map.resident(), model.len());
                prop_assert_eq!(map.stats().evictions, evictions);
                prop_assert!(map.entries.lock().len() <= CAPACITY);
            }
        }
    }

    /// At a realistic size the rule frees an eighth: a map of live
    /// entries loses exactly its soonest-to-expire eighth, one whose
    /// expired entries already make up an eighth loses only those.
    #[test]
    fn a_full_map_frees_an_eighth() {
        let map: TtlMap<u64, u64> = TtlMap::with_capacity(64);
        let mut keys = 0u64..;
        // TTLs 1..=64 s, so the key inserted i-th expires i-th.
        let filled: Vec<u64> = keys.by_ref().take(64).collect();
        for (i, key) in filled.iter().enumerate() {
            map.insert(SimTime::ZERO, *key, *key, i as u32 + 1);
        }
        assert_eq!((map.resident(), map.stats().evictions), (64, 0));
        let holds = |key: &u64| map.entries.lock().contains_key(key);

        // All live: the eight soonest to expire go.
        map.insert(SimTime::ZERO, keys.next().expect("key"), 0, 100);
        assert_eq!((map.resident(), map.stats().evictions), (57, 8));
        assert!(!filled[..8].iter().any(holds) && filled[8..].iter().all(holds));

        // Refill; by 20 s the twelve oldest left have expired, which is
        // more than an eighth: they all go and no live entry does.
        for key in keys.by_ref().take(7) {
            map.insert(SimTime::ZERO, key, 0, 100);
        }
        assert_eq!(map.resident(), 64);
        map.insert(SimTime::from_ms(20_000), keys.next().expect("key"), 0, 100);
        assert_eq!((map.resident(), map.stats().evictions), (53, 20));
        assert!(!filled[..20].iter().any(holds) && filled[20..].iter().all(holds));
    }

    #[test]
    fn export_publishes_the_view_and_stale_serves_only_once_nonzero() {
        let map: TtlMap<&str, u32> = TtlMap::default();
        map.insert(SimTime::ZERO, "k", 2, 1);
        let metrics = MetricsRegistry::new();
        map.export(&metrics, "c", &[("hits", 3), ("entries", 1)]);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("c", "hits"), Some(3));
        assert_eq!(snap.counter("c", "entries"), Some(1));
        assert_eq!(snap.counter("c", "stale_serves"), None);
        assert!(map
            .probe_stale(SimTime::from_ms(1_000), "k", servable)
            .is_some());
        map.export(&metrics, "c", &[]);
        assert_eq!(metrics.snapshot().counter("c", "stale_serves"), Some(1));
    }

    #[test]
    fn export_publishes_evictions_and_resident_only_once_something_was_evicted() {
        let map: TtlMap<u64, u64> = TtlMap::with_capacity(2);
        let metrics = MetricsRegistry::new();
        let mut keys = 0u64..;
        for key in keys.by_ref().take(2) {
            map.insert(SimTime::ZERO, key, key, 1);
        }
        map.export(&metrics, "c", &[]);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("c", "evictions"), None);
        assert_eq!(snap.counter("c", "resident"), None);
        map.insert(SimTime::ZERO, keys.next().expect("key"), 0, 1);
        map.export(&metrics, "c", &[]);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("c", "evictions"), Some(1));
        assert_eq!(snap.counter("c", "resident"), Some(2));
    }

    /// Eight threads on disjoint keys of one map: the lock must lose no
    /// update, so the totals come out exact.
    #[test]
    fn concurrent_totals_are_exact() {
        const THREADS: u64 = 8;
        const KEYS: u64 = 500;
        let map: TtlMap<(u64, u64), u64> = TtlMap::default();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let map = &map;
                scope.spawn(move || {
                    for k in 0..KEYS {
                        assert_eq!(map.probe(SimTime::ZERO, &(t, k), |v| *v), Probe::Absent);
                        map.insert(SimTime::ZERO, (t, k), k, 1);
                        assert!(matches!(
                            map.probe(SimTime::ZERO, &(t, k), |v| *v),
                            Probe::Live { value, .. } if value == k
                        ));
                        let late = SimTime::from_ms(1_000);
                        assert_eq!(map.probe(late, &(t, k), |v| *v), Probe::Expired);
                        assert_eq!(map.probe(late, &(t, k), |v| *v), Probe::Expired);
                    }
                });
            }
        });
        let n = THREADS * KEYS;
        let expected = TtlStats {
            hits: n,
            absent: n,
            expired: 2 * n,
            expirations: n,
            inserts: n,
            stale_serves: 0,
            evictions: 0,
            resident: n,
        };
        assert_eq!(map.stats(), expected);
        assert_eq!(map.resident() as u64, n);
        assert_eq!(map.live(), 0);
    }
}
