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
//! capacity, the probe counters and their snapshot rows. The HNS meta
//! cache, the composed binding cache, the NSM result cache and the
//! resolver's record cache each wrap one and add only what is theirs
//! (storage forms, negative entries, min-TTL insert).
//!
//! One behaviour, no options:
//!
//! * Freshness is an instant. An insert files its entry under the
//!   `expires_at` its caller computed once, where the TTL arrived
//!   ([`SimTime::after_secs`]), and a live probe hands that instant back,
//!   so a cache built from several entries can expire with the earliest of
//!   them, to the microsecond. An instant at or before `now` files an
//!   entry that is already expired, as a TTL of 0 does.
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
//!
//! The table is a slab and an index: entries in one dense `Vec` in no
//! particular order, found through a [`crate::index::Index`] of `u32` slab
//! positions under the fixed hash — the zone's owner store and body table
//! use the same index, three quarters full. A map's index is at most half
//! full (at three quarters, set-ups that fill maps from empty ran slower)
//! and doubles with the slab up to twice the capacity, so a full map holds
//! one slot per entry and two index words, and never pays for a last table
//! doubling. The capacity rule `retain`s the slab and rebuilds the index; a
//! [`TtlMap::discard`] frees its index slot by backward shift and moves the
//! slab's last entry into its place.
//!
//! **Keys are bytes.** A cache hands each key over as the byte strings
//! whose concatenation it is ([`Key`]; a cache its caller keys takes
//! anything that yields them, [`KeyParts`]); a probe hashes and compares
//! them where they lie, and an insert copies a new key into an arena the map
//! owns beside its slab, the slot keeping the key's offset and length, not
//! the key. So an entry pins nothing outside its map, and a probe copies
//! and allocates nothing. The arena grows in step with the slab, so a map
//! that fills holds its keys' bytes and not a doubling's worth of slack;
//! the capacity rule compacts it, `clear` empties it, and a discarded
//! key's bytes stay until the next of those. [`TtlMap::resident_bytes`]
//! counts slab, index and arena at capacity plus what each cache says its
//! values hold.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::index::Index;
use crate::time::SimTime;

/// The most entries one [`TtlMap`] holds, expired ones included: every
/// cache in the tower has this bound and no way to choose another.
pub const CAPACITY: usize = 65_536;

/// Index slots a map starts with once it holds anything.
const MIN_SLOTS: usize = 8;

/// Ends a text part of a key that another part follows: UTF-8 never
/// contains this byte, so a key of text parts and fixed-width numbers
/// reads back one way only.
pub const END: u8 = 0xFF;

/// A key as the map is asked about it: byte strings whose concatenation
/// is the key, each left where it lies. A cache lays its key out as text
/// parts, each but a last one ended by [`END`], and fixed-width numbers;
/// nothing is copied to ask, as the hash is gathered from the parts
/// ([`crate::index::hash_parts`]) and a candidate compared with them.
pub type Key<'a> = [&'a [u8]];

/// What a cache its caller keys is handed a key as: anything that can
/// hand over the byte strings whose concatenation the key is. The HNS
/// meta cache and the NSM result cache take one each probe and insert.
pub trait KeyParts {
    /// Hands `f` the key's parts, in order.
    fn with_parts<R>(&self, f: impl FnOnce(&Key<'_>) -> R) -> R;
}

/// A string is its bytes.
impl KeyParts for str {
    fn with_parts<R>(&self, f: impl FnOnce(&Key<'_>) -> R) -> R {
        f(&[self.as_bytes()])
    }
}

impl KeyParts for String {
    fn with_parts<R>(&self, f: impl FnOnce(&Key<'_>) -> R) -> R {
        self.as_str().with_parts(f)
    }
}

/// A key laid out in parts where they lie.
impl<const N: usize> KeyParts for [&[u8]; N] {
    fn with_parts<R>(&self, f: impl FnOnce(&Key<'_>) -> R) -> R {
        f(self)
    }
}

impl<T: KeyParts + ?Sized> KeyParts for &T {
    fn with_parts<R>(&self, f: impl FnOnce(&Key<'_>) -> R) -> R {
        (**self).with_parts(f)
    }
}

/// Whether `stored` is the concatenation of `parts`.
fn is_key(stored: &[u8], parts: &Key<'_>) -> bool {
    let mut rest = stored;
    for part in parts {
        match rest.split_at_checked(part.len()) {
            Some((head, tail)) if head == *part => rest = tail,
            _ => return false,
        }
    }
    rest.is_empty()
}

struct Slot<V> {
    /// Where the key's bytes start in the map's arena, and how many.
    key_at: u32,
    key_len: u16,
    /// Whether a probe has already seen (and counted) this entry expired.
    expiry_seen: bool,
    value: V,
    expires_at: SimTime,
}

impl<V> Slot<V> {
    /// The slot's key, read from `arena`.
    fn key<'a>(&self, arena: &'a [u8]) -> &'a [u8] {
        &arena[self.key_at as usize..][..usize::from(self.key_len)]
    }
}

/// Outcome of [`TtlMap::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe<R> {
    /// A live entry: what the reader returned, and when the entry expires.
    Live {
        /// The reader's result.
        value: R,
        /// The instant the entry was filed to expire at.
        expires_at: SimTime,
    },
    /// An entry is resident but its TTL has lapsed.
    Expired,
    /// Nothing is resident under the key.
    Absent,
}

/// A [`TtlMap`]'s counters, as [`TtlMap::stats`] reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TtlStats {
    /// Probes that found a live entry.
    pub hits: u64,
    /// Probes that found nothing resident.
    pub absent: u64,
    /// Probes that found an entry past its TTL.
    pub expired: u64,
    /// Entries first observed past their TTL (once per entry lifetime).
    pub expirations: u64,
    /// Entries inserted, overwrites included.
    pub inserts: u64,
    /// Expired entries handed out by [`TtlMap::probe_stale`].
    pub stale_serves: u64,
    /// Entries dropped to make room in a full map, expired or live.
    pub evictions: u64,
    /// Entries resident now, expired ones included: the slab's length.
    pub resident: u64,
}

/// Bytes of an `Arc` allocation holding `len` bytes: two counts and the
/// data, rounded up to a word.
pub fn arc_bytes(len: usize) -> usize {
    (2 * std::mem::size_of::<usize>() + len).next_multiple_of(std::mem::size_of::<usize>())
}

/// One holder's share of an `Arc`'s allocation: its [`arc_bytes`] divided
/// among the `Arc`s that hold it. What a heap count passed to
/// [`TtlMap::resident_bytes`] charges an entry for a shared allocation.
pub fn arc_share<T: ?Sized>(arc: &Arc<T>) -> usize {
    arc_bytes(std::mem::size_of_val::<T>(arc)) / Arc::strong_count(arc)
}

/// The entries of a map, in no particular order, the index that finds
/// each by its key's hash — at most half full, doubling as the slab grows,
/// up to twice the map's capacity — the arena holding the keys, and the
/// counters, kept under the lock every probe and insert already takes.
struct Entries<V> {
    slab: Vec<Slot<V>>,
    index: Index,
    /// Each resident key's bytes at its slot's span, and a discarded key's
    /// until the next [`Entries::compact`] or clear.
    arena: Vec<u8>,
    /// Every counter but `resident`, which is the slab's length.
    stats: TtlStats,
    /// The hash a test files keys under, to make them collide.
    #[cfg(test)]
    hash: fn(&Key<'_>) -> u64,
}

impl<V> Entries<V> {
    fn new() -> Self {
        Entries {
            slab: Vec::new(),
            index: Index::default(),
            arena: Vec::new(),
            stats: TtlStats::default(),
            #[cfg(test)]
            hash: crate::index::hash_parts,
        }
    }

    /// The hash keys are filed under.
    #[cfg(not(test))]
    fn hasher(&self) -> fn(&Key<'_>) -> u64 {
        crate::index::hash_parts
    }

    #[cfg(test)]
    fn hasher(&self) -> fn(&Key<'_>) -> u64 {
        self.hash
    }

    /// The index slot and slab position of `key`, whose hash is `hash`,
    /// or the free slot its entry would take.
    fn find(&self, hash: u64, key: &Key<'_>) -> Result<(usize, u32), usize> {
        self.index.find(hash, |id| {
            is_key(self.slab[id as usize].key(&self.arena), key)
        })
    }

    fn get(&self, key: &Key<'_>) -> Option<&Slot<V>> {
        let (_, id) = self.find(self.hasher()(key), key).ok()?;
        Some(&self.slab[id as usize])
    }

    /// Appends a new key's entry, whose key hashes to `hash`, and copies
    /// the key into the arena. The index doubles (up to `max_slots`) when
    /// the entry would leave it over half full.
    #[expect(
        clippy::expect_used,
        reason = "every key is made by the simulation, none near 64 KiB, so the arena stays far below 4 GiB"
    )]
    fn push(&mut self, key: &Key<'_>, hash: u64, value: V, expires_at: SimTime, max_slots: usize) {
        let len = key.iter().map(|part| part.len()).sum();
        self.slab.push(Slot {
            key_at: u32::try_from(self.arena.len()).expect("an arena under 4 GiB"),
            key_len: u16::try_from(len).expect("a key under 64 KiB"),
            expiry_seen: false,
            value,
            expires_at,
        });
        self.store_key(key, len);
        let id = self.slab.len() - 1;
        if 2 * self.slab.len() > self.index.slots() {
            self.reindex((2 * self.index.slots()).max(MIN_SLOTS).min(max_slots));
        } else {
            let free = self.index.free_slot(hash);
            self.index.set(free, id as u32, hash);
        }
    }

    /// Appends the key of the slot just pushed, `len` bytes, to the arena.
    /// When it must grow, the arena grows in step with the slab — to room
    /// for as many keys of the mean length as the slab has room for slots —
    /// and by at least an eighth, so a map that fills holds about its keys'
    /// bytes.
    fn store_key(&mut self, key: &Key<'_>, len: usize) {
        let arena = &mut self.arena;
        if arena.capacity() - arena.len() < len {
            let needed = arena.len() + len;
            let mean = needed.div_ceil(self.slab.len());
            let want = (mean * self.slab.capacity()).max(needed + arena.len() / 8);
            arena.reserve_exact(want - arena.len());
        }
        for part in key {
            arena.extend_from_slice(part);
        }
    }

    /// Drops the entry of `key`, if any: its index slot is freed by
    /// backward shift, and the slab's last entry moves into its place. The
    /// key's bytes stay in the arena until it is next compacted.
    fn remove(&mut self, key: &Key<'_>) {
        let hash = self.hasher();
        let Ok((slot, id)) = self.find(hash(key), key) else {
            return;
        };
        let (slab, arena) = (&self.slab, &self.arena);
        self.index
            .remove(slot, |id| hash(&[slab[id as usize].key(arena)]));
        let (id, last) = (id as usize, self.slab.len() - 1);
        self.slab.swap_remove(id);
        if id != last {
            let moved = hash(&[self.slab[id].key(&self.arena)]);
            if let Ok((slot, _)) = self.index.find(moved, |at| at as usize == last) {
                self.index.set(slot, id as u32, moved);
            }
        }
    }

    /// Rebuilds the index at `slots` slots over the slab as it stands.
    fn reindex(&mut self, slots: usize) {
        let hash = self.hasher();
        let hashes = self.slab.iter().map(|slot| hash(&[slot.key(&self.arena)]));
        self.index.rebuild(slots, hashes);
    }

    /// Moves every resident key down over the bytes of keys gone, keeping
    /// the arena's capacity for the keys to come.
    fn compact(&mut self) {
        let Entries { slab, arena, .. } = self;
        let mut end = 0;
        let mut settle = |slot: &mut Slot<V>| {
            let at = slot.key_at as usize;
            let len = usize::from(slot.key_len);
            arena.copy_within(at..at + len, end);
            slot.key_at = end as u32;
            end += len;
        };
        // A key only moves down, so keys move in arena order and none is
        // overwritten before it has moved. That is the slab's order unless
        // a discard moved a slot out of it.
        if slab.is_sorted_by_key(|slot| slot.key_at) {
            slab.iter_mut().for_each(settle);
        } else {
            let mut order: Vec<usize> = (0..slab.len()).collect();
            order.sort_unstable_by_key(|&id| slab[id].key_at);
            for id in order {
                settle(&mut slab[id]);
            }
        }
        arena.truncate(end);
    }

    fn clear(&mut self) {
        self.slab.clear();
        self.index.clear();
        self.arena.clear();
    }
}

/// The capacity rule, run on a full map about to take a new key: drops
/// every entry expired at `now`, then — only if that freed less than an
/// eighth of the map — the live entries soonest to expire, until an
/// eighth is free. Returns how many entries went. One pass over the map
/// buys room for an eighth of a map of inserts.
fn make_room<V>(entries: &mut Entries<V>, now: SimTime) -> usize {
    let slab = &mut entries.slab;
    let full = slab.len();
    slab.retain(|slot| now < slot.expires_at);
    let keep = full - (full / 8).max(1);
    if slab.len() > keep {
        let excess = slab.len() - keep;
        let mut expiries: Vec<SimTime> = slab.iter().map(|slot| slot.expires_at).collect();
        let (sooner, cutoff, _) = expiries.select_nth_unstable(excess - 1);
        let cutoff = *cutoff;
        // Entries that expire at the cutoff itself go only as far as needed.
        let mut at_cutoff = excess - sooner.iter().filter(|at| **at < cutoff).count();
        slab.retain(|slot| {
            if slot.expires_at == cutoff && at_cutoff > 0 {
                at_cutoff -= 1;
                return false;
            }
            slot.expires_at >= cutoff
        });
    }
    let evicted = full - slab.len();
    entries.compact();
    entries.reindex(entries.index.slots());
    evicted
}

/// A map, behind one lock, from byte-string keys to entries that expire
/// in virtual time.
pub struct TtlMap<V> {
    entries: Mutex<Entries<V>>,
    /// Entries the map holds before an insert makes room.
    capacity: usize,
}

impl<V> Default for TtlMap<V> {
    fn default() -> Self {
        Self::with_capacity(CAPACITY)
    }
}

impl<V> TtlMap<V> {
    /// Tests reach the bound with a small one; everything else gets
    /// [`CAPACITY`] through `default`.
    fn with_capacity(capacity: usize) -> Self {
        TtlMap {
            entries: Mutex::new(Entries::new()),
            capacity,
        }
    }

    /// Probes `key` at virtual time `now`, handing a live value to `read`
    /// under the lock. Counts one of hits / absent / expired.
    pub fn probe<R>(&self, now: SimTime, key: &Key<'_>, read: impl FnOnce(&V) -> R) -> Probe<R> {
        let entries = &mut *self.entries.lock();
        let Ok((_, id)) = entries.find(entries.hasher()(key), key) else {
            entries.stats.absent += 1;
            return Probe::Absent;
        };
        let (slot, stats) = (&mut entries.slab[id as usize], &mut entries.stats);
        if now < slot.expires_at {
            stats.hits += 1;
            return Probe::Live {
                value: read(&slot.value),
                expires_at: slot.expires_at,
            };
        }
        stats.expired += 1;
        if !slot.expiry_seen {
            slot.expiry_seen = true;
            stats.expirations += 1;
        }
        Probe::Expired
    }

    /// The serve-stale probe: hands an **expired** entry to `read` and
    /// returns what it made of it with the instant the entry lapsed at.
    /// `read` returns `None` for an entry that is not servable (a cached
    /// absence). Live and absent keys return `None`. Counts one
    /// `stale_serves` on success and nothing otherwise.
    pub fn probe_stale<R>(
        &self,
        now: SimTime,
        key: &Key<'_>,
        read: impl FnOnce(&V) -> Option<R>,
    ) -> Option<(R, SimTime)> {
        let entries = &mut *self.entries.lock();
        let slot = entries.get(key).filter(|slot| now >= slot.expires_at)?;
        let served = (read(&slot.value)?, slot.expires_at);
        entries.stats.stale_serves += 1;
        Some(served)
    }

    /// Reads a live entry without counting anything.
    pub fn peek_live<R>(
        &self,
        now: SimTime,
        key: &Key<'_>,
        read: impl FnOnce(&V) -> R,
    ) -> Option<R> {
        let entries = self.entries.lock();
        let slot = entries.get(key).filter(|slot| now < slot.expires_at)?;
        Some(read(&slot.value))
    }

    /// Inserts `value` under `key`, to expire at `expires_at` — already
    /// expired if that is not after `now`. An existing entry — live or
    /// expired — is overwritten in place; a new key finding the map full
    /// makes room first (the module's capacity rule), which is the only
    /// time anything is evicted.
    pub fn insert(&self, now: SimTime, key: &Key<'_>, value: V, expires_at: SimTime) {
        let mut entries = self.entries.lock();
        let hash = entries.hasher()(key);
        match entries.find(hash, key) {
            Ok((_, id)) => {
                let slot = &mut entries.slab[id as usize];
                (slot.value, slot.expires_at, slot.expiry_seen) = (value, expires_at, false);
            }
            Err(_) => {
                if entries.slab.len() >= self.capacity {
                    entries.stats.evictions += make_room(&mut entries, now) as u64;
                }
                entries.push(key, hash, value, expires_at, 2 * self.capacity);
            }
        }
        entries.stats.inserts += 1;
    }

    /// Drops an entry whose value a live probe handed out but the caller
    /// then found unusable (wire bytes that no longer decode), and refiles
    /// that probe from `hits` to `absent`: the cache answered nothing.
    pub fn discard(&self, key: &Key<'_>) {
        let mut entries = self.entries.lock();
        entries.remove(key);
        entries.stats.hits -= 1;
        entries.stats.absent += 1;
    }

    /// Drops every entry; the counters keep running.
    pub fn clear(&self) {
        self.entries.lock().clear();
    }

    /// Entries resident, expired ones included; never more than
    /// [`CAPACITY`].
    pub fn resident(&self) -> usize {
        self.entries.lock().slab.len()
    }

    /// Entries not yet observed expired — what a cache that evicted on
    /// expiry would report as its size.
    pub fn live(&self) -> usize {
        let entries = self.entries.lock();
        entries.slab.iter().filter(|slot| !slot.expiry_seen).count()
    }

    /// Bytes the map holds: its slab, index and key arena at their
    /// capacity, and what `heap` says each value holds beyond its slot.
    /// Each cache supplies its own `heap`; the four in the workspace count
    /// a shared allocation as the share of it their entry holds.
    pub fn resident_bytes(&self, heap: impl Fn(&V) -> usize) -> usize {
        let entries = self.entries.lock();
        let held: usize = entries.slab.iter().map(|slot| heap(&slot.value)).sum();
        entries.slab.capacity() * std::mem::size_of::<Slot<V>>()
            + entries.index.resident_bytes()
            + entries.arena.capacity()
            + held
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TtlStats {
        let entries = self.entries.lock();
        TtlStats {
            resident: entries.slab.len() as u64,
            ..entries.stats
        }
    }

    /// A cache's counter rows, as its [`obs::CounterSource`] hands them
    /// over: those of `view` (each wrapper's published names, computed
    /// from [`TtlMap::stats`]), `stale_serves`, and `evictions` with
    /// `resident`. Those are rows only once `stale_serves`, resp.
    /// `evictions`, is nonzero, so the snapshot of a run with no fault and
    /// no full map stays byte-for-byte what it was before either existed.
    /// A cache whose every view row reads zero — nothing has probed or
    /// filled it — has no rows at all, as a counter never added to has
    /// none.
    pub fn export(&self, view: &[(&'static str, u64)], row: &mut dyn FnMut(&'static str, u64)) {
        if view.iter().all(|&(_, value)| value == 0) {
            return;
        }
        for &(name, value) in view {
            row(name, value);
        }
        let stats = self.stats();
        if stats.stale_serves > 0 {
            row("stale_serves", stats.stale_serves);
        }
        if stats.evictions > 0 {
            row("evictions", stats.evictions);
            row("resident", stats.resident);
        }
    }
}

impl<V> std::fmt::Debug for TtlMap<V> {
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
    use crate::time::SimDuration;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The bytes model key `k` is filed under: `k` once to five times, and
    /// nothing for 0, so keys of several lengths, the empty one among
    /// them, share the arena.
    fn key(k: u8) -> Vec<u8> {
        vec![k; usize::from(k % 5) + usize::from(k != 0)]
    }

    /// `key` as two parts, split `at` bytes in (or at its end): a key is
    /// found however it is split.
    fn split(key: &[u8], at: u32) -> [&[u8]; 2] {
        let (head, tail) = key.split_at((at as usize).min(key.len()));
        [head, tail]
    }

    /// The reference the map is checked against: one ordered map
    /// of `key -> (value, expires_at, expiry seen)`, plain counters, and
    /// the bytes of keys discarded since the arena was last compacted or
    /// cleared.
    #[derive(Default)]
    struct Model {
        entries: BTreeMap<u8, (u32, SimTime, bool)>,
        stats: TtlStats,
        discarded: usize,
    }

    /// The stale reader used on both sides: odd values are "not servable"
    /// (what a cached absence is to the HNS cache).
    fn servable(value: &u32) -> Option<u32> {
        value.is_multiple_of(2).then_some(*value)
    }

    /// The arena against the keys the map should hold: each slot's span
    /// holds a key, the keys so read are exactly `keys`, and the arena
    /// holds no more than their bytes and the `discarded` ones.
    fn check_arena<V>(map: &TtlMap<V>, keys: impl Iterator<Item = u8>, discarded: usize) {
        let entries = map.entries.lock();
        let mut held: Vec<&[u8]> = entries
            .slab
            .iter()
            .map(|slot| slot.key(&entries.arena))
            .collect();
        let mut expected: Vec<Vec<u8>> = keys.map(key).collect();
        held.sort_unstable();
        expected.sort_unstable();
        prop_assert!(
            held.iter().eq(expected.iter()),
            "{:?} vs {:?}",
            held,
            expected
        );
        let live: usize = expected.iter().map(Vec::len).sum();
        prop_assert!(
            entries.arena.len() <= live + discarded,
            "arena {} B, keys {} B, discarded {} B",
            entries.arena.len(),
            live,
            discarded
        );
    }

    proptest! {
        /// Seeded sequences of insert / probe / probe_stale / peek_live /
        /// discard / clear / advance-clock: every answer, every counter,
        /// both sizes and the arena agree with the model after every step.
        /// Clock steps and TTLs are whole and half seconds, so
        /// `now == expires_at` (expired) comes up constantly.
        #[test]
        fn map_matches_the_naive_model(
            ops in proptest::collection::vec((0u8..9, 0u8..12, any::<u32>(), 0u32..4), 1..150),
        ) {
            let map: TtlMap<u32> = TtlMap::default();
            let mut model = Model::default();
            let mut now = SimTime::ZERO;
            for (op, k, value, n) in ops {
                match op {
                    0..=2 => {
                        let expires_at = now.after_secs(n);
                        map.insert(now, &split(&key(k), n), value, expires_at);
                        // Overwriting starts a new lifetime: the expiry
                        // of the old entry no longer counts as seen.
                        model.entries.insert(k, (value, expires_at, false));
                        model.stats.inserts += 1;
                    }
                    3 | 4 => {
                        let expected = match model.entries.get_mut(&k) {
                            Some((v, expires_at, _)) if now < *expires_at => {
                                model.stats.hits += 1;
                                Probe::Live { value: *v, expires_at: *expires_at }
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
                        let got = map.probe(now, &split(&key(k), n), |v| *v);
                        prop_assert_eq!(got, expected);
                        // `discard` follows a live probe whose value the
                        // caller could not use: the entry goes and the
                        // probe is refiled from hits to absent.
                        if op == 4 && matches!(got, Probe::Live { .. }) {
                            map.discard(&split(&key(k), n + 1));
                            model.entries.remove(&k);
                            model.stats.hits -= 1;
                            model.stats.absent += 1;
                            model.discarded += key(k).len();
                        }
                    }
                    5 => {
                        let expected = match model.entries.get(&k) {
                            Some((v, expires_at, _)) if now >= *expires_at => {
                                servable(v).map(|v| (v, *expires_at))
                            }
                            _ => None,
                        };
                        model.stats.stale_serves += u64::from(expected.is_some());
                        prop_assert_eq!(map.probe_stale(now, &split(&key(k), n), servable), expected);
                    }
                    6 => {
                        let expected = match model.entries.get(&k) {
                            Some((v, expires_at, _)) if now < *expires_at => Some(*v),
                            _ => None,
                        };
                        prop_assert_eq!(map.peek_live(now, &split(&key(k), n), |v| *v), expected);
                    }
                    7 if n == 0 => {
                        map.clear();
                        model.entries.clear();
                        model.discarded = 0;
                    }
                    _ => now += SimDuration::from_ms(u64::from(n) * 500),
                }
                model.stats.resident = model.entries.len() as u64;
                prop_assert_eq!(map.stats(), model.stats);
                prop_assert_eq!(map.resident(), model.entries.len());
                prop_assert_eq!(map.resident(), map.entries.lock().slab.len());
                let unseen = model.entries.values().filter(|(_, _, seen)| !seen).count();
                prop_assert_eq!(map.live(), unseen);
                check_arena(&map, model.entries.keys().copied(), model.discarded);
            }
        }
    }

    proptest! {
        /// The capacity rule against the same kind of model, on a map
        /// small enough to fill (4 entries, 256 keys): the model learns
        /// what an insert dropped by asking the map which of its keys it
        /// still holds, and checks that against the rule
        /// — it cannot predict *which* of several entries expiring at the
        /// same instant went, only how many. The arena is compacted by
        /// every insert that makes room.
        #[test]
        fn a_full_map_sheds_expired_entries_first_and_the_soonest_to_expire_next(
            ops in proptest::collection::vec((0u8..4, any::<u8>(), 0u32..6), 1..400),
        ) {
            const CAPACITY: usize = 4;
            let map: TtlMap<u32> = TtlMap::with_capacity(CAPACITY);
            let holds = |k: u8| map.entries.lock().get(&[&key(k)]).is_some();
            let mut model: BTreeMap<u8, SimTime> = BTreeMap::new();
            let mut evictions = 0;
            let mut now = SimTime::ZERO;
            for (op, k, n) in ops {
                match op {
                    0 | 1 => {
                        let before: Vec<(u8, SimTime)> =
                            model.iter().map(|(k, at)| (*k, *at)).collect();
                        map.insert(now, &split(&key(k), n), u32::from(k), now.after_secs(n));
                        let (kept, dropped): (Vec<_>, Vec<_>) =
                            before.iter().partition(|(k, _)| holds(*k));
                        if before.len() < CAPACITY || model.contains_key(&k) {
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
                        model.insert(k, now.after_secs(n));
                        prop_assert!(holds(k));
                    }
                    2 => {
                        // Probes answer from what is left, and drop nothing.
                        let expected = match model.get(&k) {
                            Some(at) if now < *at => Some(u32::from(k)),
                            _ => None,
                        };
                        prop_assert_eq!(map.peek_live(now, &split(&key(k), n), |v| *v), expected);
                        let _ = map.probe(now, &split(&key(k), n), |v| *v);
                        prop_assert_eq!(holds(k), model.contains_key(&k));
                    }
                    _ => now += SimDuration::from_ms(u64::from(n) * 500),
                }
                prop_assert_eq!(map.resident(), model.len());
                prop_assert_eq!(map.resident(), map.entries.lock().slab.len());
                prop_assert_eq!(map.stats().evictions, evictions);
                prop_assert!(map.entries.lock().slab.len() <= CAPACITY);
                check_arena(&map, model.keys().copied(), 0);
            }
        }
    }

    /// A hash of three values whatever the key, by its first byte: two of
    /// every four keys to the word whose home is the last slot of any
    /// index, so their chain wraps past the end, one to the word homed at
    /// the first slot, which the wrapped chain runs into, and one to a
    /// word homed mid-index. Keys of one class share the whole hash, tag
    /// included, so they are told apart only by comparing their bytes.
    fn clash(key: &Key<'_>) -> u64 {
        let k = key
            .iter()
            .find_map(|part| part.first())
            .copied()
            .unwrap_or(0);
        [u64::MAX, u64::MAX, 0, 1 << 63][usize::from(k % 4)]
    }

    proptest! {
        /// The index where open addressing breaks: a map of eight entries
        /// (an index of up to sixteen slots) whose keys hash by [`clash`],
        /// so every chain is long, one wraps past the end into another,
        /// and `discard` deletes from the middle of them. Seeded inserts,
        /// probes, discards, full-map `make_room`s, clears and clock steps
        /// against the model: every probe answers and counts as the model
        /// says, what an insert into a full map dropped obeys the rule (the
        /// model learns which entries went by asking the map, as above),
        /// after every step every key the model holds is found with its
        /// value and no other key is found at all, and the arena holds
        /// exactly those keys at their slots' spans.
        #[test]
        fn colliding_keys_match_the_model(
            ops in proptest::collection::vec((0u8..10, 0u8..24, any::<u32>(), 0u32..5), 1..300),
        ) {
            const CAPACITY: usize = 8;
            let map: TtlMap<u32> = TtlMap::with_capacity(CAPACITY);
            map.entries.lock().hash = clash;
            let mut model = Model::default();
            let mut now = SimTime::ZERO;
            for (op, k, value, n) in ops {
                match op {
                    0..=3 => {
                        let before: Vec<(u8, SimTime)> =
                            model.entries.iter().map(|(k, (_, at, _))| (*k, *at)).collect();
                        map.insert(now, &split(&key(k), n), value, now.after_secs(n));
                        if before.len() == CAPACITY && !model.entries.contains_key(&k) {
                            let expired = before.iter().filter(|(_, at)| now >= *at).count();
                            let (kept, dropped): (Vec<_>, Vec<_>) = before
                                .iter()
                                .partition(|(k, _)| map.entries.lock().get(&[&key(*k)]).is_some());
                            prop_assert_eq!(dropped.len(), expired.max(1));
                            for (_, at) in dropped.iter().filter(|(_, at)| now < *at) {
                                prop_assert_eq!(expired, 0);
                                prop_assert!(kept.iter().all(|(_, kept_at)| at <= kept_at));
                            }
                            model.stats.evictions += dropped.len() as u64;
                            for (k, _) in dropped {
                                model.entries.remove(&k);
                            }
                            model.discarded = 0;
                        }
                        model.entries.insert(k, (value, now.after_secs(n), false));
                        model.stats.inserts += 1;
                    }
                    4..=6 => {
                        let expected = match model.entries.get_mut(&k) {
                            Some((v, expires_at, _)) if now < *expires_at => {
                                model.stats.hits += 1;
                                Probe::Live { value: *v, expires_at: *expires_at }
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
                        let got = map.probe(now, &split(&key(k), n), |v| *v);
                        prop_assert_eq!(got, expected);
                        if op != 4 && matches!(got, Probe::Live { .. }) {
                            map.discard(&split(&key(k), n + 1));
                            model.entries.remove(&k);
                            model.stats.hits -= 1;
                            model.stats.absent += 1;
                            model.discarded += key(k).len();
                        }
                    }
                    7 if n == 0 => {
                        map.clear();
                        model.entries.clear();
                        model.discarded = 0;
                    }
                    _ => now += SimDuration::from_ms(u64::from(n) * 500),
                }
                model.stats.resident = model.entries.len() as u64;
                prop_assert_eq!(map.stats(), model.stats);
                prop_assert_eq!(map.resident(), map.entries.lock().slab.len());
                {
                    let entries = map.entries.lock();
                    prop_assert!(2 * entries.slab.len() <= entries.index.slots());
                    prop_assert!(entries.index.slots() <= 2 * CAPACITY);
                    for k in 0..24 {
                        let held = entries.get(&[&key(k)]).map(|slot| slot.value);
                        prop_assert_eq!(held, model.entries.get(&k).map(|(v, _, _)| *v), "{}", k);
                    }
                }
                check_arena(&map, model.entries.keys().copied(), model.discarded);
            }
        }
    }

    /// At a realistic size the rule frees an eighth: a map of live
    /// entries loses exactly its soonest-to-expire eighth, one whose
    /// expired entries already make up an eighth loses only those.
    #[test]
    fn a_full_map_frees_an_eighth() {
        let map: TtlMap<u64> = TtlMap::with_capacity(64);
        let mut keys = 0u64..;
        // TTLs 1..=64 s, so the key inserted i-th expires i-th.
        let filled: Vec<u64> = keys.by_ref().take(64).collect();
        for (i, key) in filled.iter().enumerate() {
            let expires_at = SimTime::ZERO.after_secs(i as u32 + 1);
            map.insert(SimTime::ZERO, &[&key.to_le_bytes()], *key, expires_at);
        }
        assert_eq!((map.resident(), map.stats().evictions), (64, 0));
        let holds = |key: &u64| map.entries.lock().get(&[&key.to_le_bytes()]).is_some();

        // All live: the eight soonest to expire go.
        let late = SimTime::ZERO.after_secs(100);
        map.insert(SimTime::ZERO, &[&64u64.to_le_bytes()], 0, late);
        assert_eq!((map.resident(), map.stats().evictions), (57, 8));
        assert!(!filled[..8].iter().any(holds) && filled[8..].iter().all(holds));

        // Refill; by 20 s the twelve oldest left have expired, which is
        // more than an eighth: they all go and no live entry does.
        for key in (65u64..).take(7) {
            map.insert(SimTime::ZERO, &[&key.to_le_bytes()], 0, late);
        }
        assert_eq!(map.resident(), 64);
        map.insert(SimTime::from_ms(20_000), &[&72u64.to_le_bytes()], 0, late);
        assert_eq!((map.resident(), map.stats().evictions), (53, 20));
        assert!(!filled[..20].iter().any(holds) && filled[20..].iter().all(holds));
    }

    /// A map filled to its capacity holds its keys' bytes and less than
    /// an eighth more, not the doubling a `Vec` would leave.
    #[test]
    fn a_full_maps_arena_is_its_keys_and_little_more() {
        let map: TtlMap<()> = TtlMap::default();
        let keys = (0..CAPACITY as u64).map(|i| format!("n{i}.cell0.hns"));
        let mut bytes = 0;
        for key in keys {
            map.insert(
                SimTime::ZERO,
                &[key.as_bytes()],
                (),
                SimTime::ZERO.after_secs(60),
            );
            bytes += key.len();
        }
        let arena = map.entries.lock().arena.capacity();
        assert!(
            arena >= bytes && 8 * arena <= 9 * bytes,
            "{arena} B for {bytes} B of keys"
        );
    }

    /// The rows `export` hands over, in order.
    fn rows<V>(map: &TtlMap<V>, view: &[(&'static str, u64)]) -> Vec<(&'static str, u64)> {
        let mut rows = Vec::new();
        map.export(view, &mut |name, value| rows.push((name, value)));
        rows
    }

    #[test]
    fn export_publishes_the_view_and_stale_serves_only_once_nonzero() {
        let map: TtlMap<u32> = TtlMap::default();
        map.insert(SimTime::ZERO, &[b"k"], 2, SimTime::ZERO.after_secs(1));
        let view = [("hits", 3), ("entries", 1)];
        assert_eq!(rows(&map, &view), view);
        assert!(map
            .probe_stale(SimTime::from_ms(1_000), &[b"k"], servable)
            .is_some());
        let view = [("hits", 3), ("entries", 0)];
        assert_eq!(rows(&map, &view), [view[0], view[1], ("stale_serves", 1)]);
    }

    /// An untouched cache — its view all zeros — has no rows.
    #[test]
    fn export_of_an_all_zero_view_is_no_rows() {
        let map: TtlMap<u32> = TtlMap::default();
        assert_eq!(rows(&map, &[("hits", 0), ("entries", 0)]), []);
    }

    #[test]
    fn export_publishes_evictions_and_resident_only_once_something_was_evicted() {
        let map: TtlMap<u64> = TtlMap::with_capacity(2);
        for key in 0u64..2 {
            map.insert(
                SimTime::ZERO,
                &[&key.to_le_bytes()],
                key,
                SimTime::ZERO.after_secs(1),
            );
        }
        assert_eq!(rows(&map, &[("entries", 2)]), [("entries", 2)]);
        map.insert(
            SimTime::ZERO,
            &[&2u64.to_le_bytes()],
            0,
            SimTime::ZERO.after_secs(1),
        );
        let rows = rows(&map, &[("entries", 2)]);
        assert_eq!(rows, [("entries", 2), ("evictions", 1), ("resident", 2)]);
    }

    /// Eight threads on disjoint keys of one map: the lock must lose no
    /// update, so the totals come out exact.
    #[test]
    fn concurrent_totals_are_exact() {
        const THREADS: u64 = 8;
        const KEYS: u64 = 500;
        let map: TtlMap<u64> = TtlMap::default();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let map = &map;
                scope.spawn(move || {
                    for k in 0..KEYS {
                        let (t, k8) = (t.to_le_bytes(), k.to_le_bytes());
                        let key: [&[u8]; 2] = [&t, &k8];
                        assert_eq!(map.probe(SimTime::ZERO, &key, |v| *v), Probe::Absent);
                        map.insert(SimTime::ZERO, &key, k, SimTime::ZERO.after_secs(1));
                        assert!(matches!(
                            map.probe(SimTime::ZERO, &key, |v| *v),
                            Probe::Live { value, .. } if value == k
                        ));
                        let late = SimTime::from_ms(1_000);
                        assert_eq!(map.probe(late, &key, |v| *v), Probe::Expired);
                        assert_eq!(map.probe(late, &key, |v| *v), Probe::Expired);
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
