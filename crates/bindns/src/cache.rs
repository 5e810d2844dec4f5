//! The resolver's TTL cache.
//!
//! "Cached data is tagged with a time-to-live field for cache invalidation.
//! While this simplistic mechanism can cause cache consistency problems, it
//! would not make sense to use a more sophisticated scheme because the
//! source of our cached data (BIND) also uses this mechanism."
//!
//! The mechanism itself — the locked table, expiry, retention of expired
//! entries for the serve-stale fallback until the map is full, the capacity
//! ([`simnet::ttl::CAPACITY`] entries), counters — is
//! [`simnet::ttl::TtlMap`], shared with the HNS and NSM caches. What is
//! this cache's own: the key is the record type's code and the owner
//! name's text, handed to the map as those two parts — a suffix of a
//! name's text is probed where it lies — and copied into the map's arena
//! by an insert, so an entry keeps no handle on any name and evicting one
//! frees all it held; a set is valid for the minimum TTL among its
//! records; and what an entry keeps of the set. A one-record
//! answer owned by the key's own name — nearly every answer a resolver
//! caches — keeps only its body (type, TTL, rdata), not a second copy of
//! the name: a hit that hands out the set rebuilds the record on the
//! asker's [`DomainName`], in one allocation, the `Arc` the caller
//! receives. Any other set (a `CNAME` chain, a referral and its glue) is
//! kept whole, and a hit shares it. A reader that wants less than the set
//! — its length and first record of a type, as a BIND-backed NSM does —
//! reads the entry in place while the probe holds it
//! ([`crate::resolver::StdResolver::query_first`]) and builds nothing.

use std::sync::Arc;

use simnet::obs::CounterSource;
use simnet::time::{SimDuration, SimTime};
use simnet::ttl::{arc_share, Key, Probe, TtlMap};
use simnet::world::World;

use crate::name::DomainName;
use crate::rr::{RData, RType, Records, ResourceRecord};
use crate::zone::RrBody;

/// Hit/miss statistics, a view of the core's counters
/// ([`simnet::ttl::TtlStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or only an expired entry).
    pub misses: u64,
    /// Entries observed past their TTL (counted once per expiry).
    pub expirations: u64,
    /// Expired entries served anyway because the authoritative server
    /// was unreachable (the resolver's serve-stale fallback).
    pub stale_serves: u64,
}

/// Hands `f` what an entry of (`name`, `rtype`) is stored under:
/// `rtype ‖ name`, the type as its wire code, little-endian, and the name
/// as canonical dotted text. The type is fixed-width and the name ends the
/// key, so no byte need mark where either ends; the type goes first
/// because a hash reads a key's varying length best at its end.
fn with_key<R>(name: &str, rtype: RType, f: impl FnOnce(&Key<'_>) -> R) -> R {
    f(&[&rtype.code().to_le_bytes(), name.as_bytes()])
}

/// What an entry keeps of a record set; what a reader is handed while
/// the probe holds it ([`TtlCache::read`]).
#[derive(Debug, Clone)]
pub(crate) enum Entry {
    /// The one record of the set, owned by the key's own name: its body.
    Body(RrBody),
    /// Any other set, whole.
    Records(Arc<[ResourceRecord]>),
}

impl Entry {
    /// What to keep of `records`, the set at `owner`.
    fn of(owner: &DomainName, records: Arc<[ResourceRecord]>) -> Entry {
        match &records[..] {
            [only] if only.name == *owner => Entry::Body(RrBody::of(only)),
            _ => Entry::Records(records),
        }
    }

    /// How many records the set holds.
    pub(crate) fn len(&self) -> usize {
        match self {
            Entry::Body(_) => 1,
            Entry::Records(records) => records.len(),
        }
    }

    /// The TTL and data of the set's first record of `rtype`; the data
    /// is shared ([`RData`]'s clone bumps a count), nothing is rebuilt.
    pub(crate) fn first(&self, rtype: RType) -> Option<(u32, RData)> {
        match self {
            Entry::Body(body) => (body.rtype == rtype).then(|| (body.ttl, body.rdata.clone())),
            Entry::Records(records) => records
                .iter()
                .find(|r| r.rtype == rtype)
                .map(|r| (r.ttl, r.rdata.clone())),
        }
    }

    /// The set as [`Records`], a body's record owned by `owner()`; the
    /// data is shared, as [`Entry::first`] shares it.
    pub(crate) fn to_records(&self, owner: impl FnOnce() -> DomainName) -> Records {
        match self {
            Entry::Body(body) => Records::of(owner(), [body.clone()]),
            Entry::Records(records) => records.iter().cloned().collect(),
        }
    }

    /// The set again, a body's record rebuilt on `owner()`'s name.
    pub(crate) fn records(self, owner: impl FnOnce() -> DomainName) -> Arc<[ResourceRecord]> {
        match self {
            Entry::Body(RrBody { rtype, ttl, rdata }) => Arc::from([ResourceRecord {
                name: owner(),
                rtype,
                ttl,
                rdata,
            }]),
            Entry::Records(records) => records,
        }
    }

    /// Bytes the entry holds beyond its slot: its share of each shared
    /// allocation it points at.
    fn resident_bytes(&self) -> usize {
        match self {
            Entry::Body(body) => rdata_bytes(&body.rdata),
            Entry::Records(records) => {
                let inner: usize = records
                    .iter()
                    .map(|r| r.name.resident_share() + rdata_bytes(&r.rdata))
                    .sum();
                arc_share(records) + inner / Arc::strong_count(records)
            }
        }
    }
}

/// What `rdata` holds on the heap, a shared allocation as its share.
fn rdata_bytes(rdata: &RData) -> usize {
    match rdata {
        RData::Addr(_) => 0,
        RData::Domain(name) => name.resident_share(),
        RData::Text(text) => arc_share(text),
        RData::Opaque(payload) => arc_share(payload),
        RData::Soa(soa) => arc_share(soa) + soa.primary.resident_share() / Arc::strong_count(soa),
    }
}

/// A TTL-invalidated record cache, safe to share between threads.
#[derive(Debug, Default)]
pub struct TtlCache {
    map: TtlMap<Entry>,
}

impl TtlCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache whose statistics every snapshot of
    /// `world`'s registry reads under `component`, summed with those of
    /// the component's other live caches, until it is dropped.
    pub fn exported(world: &World, component: &'static str) -> Arc<Self> {
        let cache = Arc::new(TtlCache::new());
        world.metrics().register(component, &cache);
        cache
    }

    /// Looks up live records for (`name`, `rtype`) at virtual time `now`.
    ///
    /// A set kept whole is shared (`Arc` clone, no per-record clone); a
    /// kept body comes back as one record on `name`. An entry observed
    /// past its TTL is counted as both a miss and an expiration (once per
    /// expiry) but *retained* while the map has room, so
    /// [`TtlCache::get_stale`] can serve it if the authoritative server
    /// turns out to be unreachable.
    pub fn get(
        &self,
        now: SimTime,
        name: &DomainName,
        rtype: RType,
    ) -> Option<Arc<[ResourceRecord]>> {
        self.live(now, name.as_str(), rtype, || name.clone())
    }

    /// [`TtlCache::get`] for a name held as canonical text — a suffix
    /// borrowed from a [`DomainName`] is one, so probing a name's
    /// ancestors builds no `DomainName` (a kept body's hit builds the one
    /// its record is owned by).
    pub(crate) fn get_text(
        &self,
        now: SimTime,
        name: &str,
        rtype: RType,
    ) -> Option<Arc<[ResourceRecord]>> {
        self.live(now, name, rtype, || DomainName::of_canonical(name))
    }

    /// The probe under [`TtlCache::get`] and [`TtlCache::get_text`]; the
    /// entry is rebuilt after the map's lock is released.
    fn live(
        &self,
        now: SimTime,
        name: &str,
        rtype: RType,
        owner: impl FnOnce() -> DomainName,
    ) -> Option<Arc<[ResourceRecord]>> {
        self.read(now, name, rtype, Entry::clone)
            .map(|entry| entry.records(owner))
    }

    /// The probe under every live read: hands the live entry of (`name`,
    /// held as canonical text, `rtype`) to `read` while the probe holds
    /// it, and returns what `read` made of it. Counted as
    /// [`TtlCache::get`] counts.
    pub(crate) fn read<T>(
        &self,
        now: SimTime,
        name: &str,
        rtype: RType,
        read: impl FnOnce(&Entry) -> T,
    ) -> Option<T> {
        match with_key(name, rtype, |key| self.map.probe(now, key, read)) {
            Probe::Live { value, .. } => Some(value),
            Probe::Expired | Probe::Absent => None,
        }
    }

    /// [`TtlCache::read`] of a retained *expired* entry, with how long it
    /// has been stale: the probe under [`TtlCache::get_stale`], counted
    /// as it counts.
    pub(crate) fn read_stale<T>(
        &self,
        now: SimTime,
        name: &str,
        rtype: RType,
        read: impl FnOnce(&Entry) -> T,
    ) -> Option<(T, SimDuration)> {
        let (value, lapsed) = with_key(name, rtype, |key| {
            self.map.probe_stale(now, key, |entry| Some(read(entry)))
        })?;
        Some((value, now.since(lapsed)))
    }

    /// Drops the entry a [`TtlCache::get_text`] hit just handed out and
    /// the caller found unusable, refiling that hit as a miss.
    pub(crate) fn discard(&self, name: &str, rtype: RType) {
        with_key(name, rtype, |key| self.map.discard(key));
    }

    /// Returns a retained *expired* record set for (`name`, `rtype`),
    /// with how long it has been stale, or `None` if nothing (or only a
    /// live entry) is cached. Counts one `stale_serves` when it returns
    /// an entry and leaves the hit/miss statistics alone: callers use
    /// this only after a fresh fetch failed, to serve what it returns.
    pub fn get_stale(
        &self,
        now: SimTime,
        name: &DomainName,
        rtype: RType,
    ) -> Option<(Arc<[ResourceRecord]>, SimDuration)> {
        let (entry, stale_for) = self.read_stale(now, name.as_str(), rtype, Entry::clone)?;
        Some((entry.records(|| name.clone()), stale_for))
    }

    /// Inserts records, valid for the minimum TTL among them.
    ///
    /// Empty record sets are not cached (negative caching is not modelled,
    /// as in 1987 BIND).
    pub fn insert(
        &self,
        now: SimTime,
        name: DomainName,
        rtype: RType,
        records: impl Into<Arc<[ResourceRecord]>>,
    ) {
        let records = records.into();
        let Some(ttl) = records.iter().map(|r| r.ttl).min() else {
            return;
        };
        let entry = Entry::of(&name, records);
        with_key(name.as_str(), rtype, |key| {
            self.map.insert(now, key, entry, now.after_secs(ttl))
        });
    }

    /// Removes everything.
    pub fn clear(&self) {
        self.map.clear();
    }

    /// Number of resident entries not yet observed as expired. Entries
    /// whose expiry has been observed stay resident while the map has
    /// room (serve-stale fodder) but are not counted here;
    /// [`TtlCache::resident`] counts them too.
    pub fn len(&self) -> usize {
        self.map.live()
    }

    /// True if nothing is resident, retained expired entries included.
    pub fn is_empty(&self) -> bool {
        self.map.resident() == 0
    }

    /// Entries resident, expired ones included: at most
    /// [`simnet::ttl::CAPACITY`].
    pub fn resident(&self) -> usize {
        self.map.resident()
    }

    /// Bytes the cache holds ([`TtlMap::resident_bytes`]): slab, index
    /// and key arena at capacity, and what each entry keeps, an allocation
    /// shared with others — a payload a zone serves, a name's text — counted
    /// as this cache's share. Not exported as a metric.
    pub fn resident_bytes(&self) -> usize {
        self.map.resident_bytes(Entry::resident_bytes)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        let s = self.map.stats();
        CacheStats {
            hits: s.hits,
            misses: s.absent + s.expired,
            expirations: s.expirations,
            stale_serves: s.stale_serves,
        }
    }
}

impl CounterSource for TtlCache {
    fn rows(&self, row: &mut dyn FnMut(&'static str, u64)) {
        let s = self.stats();
        let view = [
            ("hits", s.hits),
            ("misses", s.misses),
            ("expirations", s.expirations),
            ("entries", self.len() as u64),
        ];
        self.map.export(&view, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::obs::MetricsRegistry;
    use simnet::topology::{HostId, NetAddr};

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).expect("valid name")
    }

    fn rr(ttl: u32) -> ResourceRecord {
        ResourceRecord::a(name("fiji.cs.washington.edu"), ttl, NetAddr::of(HostId(1)))
    }

    #[test]
    fn min_ttl_governs_mixed_sets() {
        let c = TtlCache::new();
        c.insert(SimTime::ZERO, name("a.b"), RType::A, vec![rr(1), rr(100)]);
        assert!(c
            .get(SimTime::from_ms(2_000), &name("a.b"), RType::A)
            .is_none());
    }

    #[test]
    fn empty_sets_are_not_cached() {
        let c = TtlCache::new();
        c.insert(SimTime::ZERO, name("a.b"), RType::A, vec![]);
        assert!(c.is_empty());
    }

    #[test]
    fn miss_on_absent_key_and_type() {
        let c = TtlCache::new();
        c.insert(SimTime::ZERO, name("a.b"), RType::A, vec![rr(60)]);
        assert!(c.get(SimTime::ZERO, &name("c.d"), RType::A).is_none());
        assert!(c.get(SimTime::ZERO, &name("a.b"), RType::Txt).is_none());
        assert_eq!(c.stats().misses, 2);
    }

    /// An entry's key is bytes in the map's arena: the cache keeps no
    /// handle on the name it was given.
    #[test]
    fn an_entry_keeps_no_handle_on_its_names_text() {
        let c = TtlCache::new();
        let n = name("a.b");
        c.insert(SimTime::ZERO, n.clone(), RType::A, vec![rr(60)]);
        let whole = simnet::ttl::arc_bytes("a.b".len());
        assert_eq!(n.resident_share(), whole, "the name's text is ours alone");
        assert!(c.get(SimTime::ZERO, &n, RType::A).is_some());
        assert!(c.get_text(SimTime::ZERO, "a.b", RType::A).is_some());
        assert!(c.get_text(SimTime::ZERO, "b", RType::A).is_none());
        assert!(c
            .get_stale(SimTime::from_ms(60_000), &n, RType::A)
            .is_some());
    }

    /// One name under two record types is two keys and two entries.
    #[test]
    fn one_name_under_two_types_is_two_entries() {
        let bytes = |rtype| with_key("a.b", rtype, |key| key.concat());
        assert_ne!(bytes(RType::A), bytes(RType::Txt));
        let c = TtlCache::new();
        let txt = ResourceRecord {
            name: name("a.b"),
            rtype: RType::Txt,
            ttl: 60,
            rdata: RData::Text("text".into()),
        };
        c.insert(SimTime::ZERO, name("a.b"), RType::A, vec![rr(60)]);
        c.insert(SimTime::ZERO, name("a.b"), RType::Txt, vec![txt.clone()]);
        assert_eq!(c.resident(), 2);
        let got = |rtype| c.get(SimTime::ZERO, &name("a.b"), rtype).expect("hit");
        assert_eq!(got(RType::A)[0].rtype, RType::A);
        assert_eq!(got(RType::Txt)[0], txt);
    }

    /// The root's text is `.` to a probe, so it is to an insert.
    #[test]
    fn the_root_name_is_cached_under_its_dot() {
        let c = TtlCache::new();
        let root_ns = ResourceRecord {
            name: DomainName::root(),
            rtype: RType::Ns,
            ttl: 60,
            rdata: crate::rr::RData::Domain(name("a.root-servers.net")),
        };
        c.insert(SimTime::ZERO, DomainName::root(), RType::Ns, vec![root_ns]);
        assert!(c
            .get(SimTime::ZERO, &DomainName::root(), RType::Ns)
            .is_some());
        assert!(c.get_text(SimTime::ZERO, ".", RType::Ns).is_some());
    }

    #[test]
    fn every_snapshot_reads_the_stats() {
        let m = MetricsRegistry::new();
        let c = Arc::new(TtlCache::new());
        m.register("bindns_cache", &c);
        c.insert(SimTime::ZERO, name("a.b"), RType::A, vec![rr(1)]);
        let _ = c.get(SimTime::ZERO, &name("a.b"), RType::A); // hit
        let _ = c.get(SimTime::from_ms(2_000), &name("a.b"), RType::A); // expired
        let _ = c.get(SimTime::ZERO, &name("x.y"), RType::A); // miss
        let snap = m.snapshot();
        assert_eq!(snap.counter("bindns_cache", "hits"), Some(1));
        assert_eq!(snap.counter("bindns_cache", "misses"), Some(2));
        assert_eq!(snap.counter("bindns_cache", "expirations"), Some(1));
        assert_eq!(snap.counter("bindns_cache", "entries"), Some(0));
        assert_eq!(
            snap.counter("bindns_cache", "stale_serves"),
            None,
            "stale_serves is absent until a stale entry is actually served"
        );

        let stale = c.get_stale(SimTime::from_ms(2_000), &name("a.b"), RType::A);
        assert!(stale.is_some(), "the expired entry is still resident");
        let snap = m.snapshot();
        assert_eq!(snap.counter("bindns_cache", "stale_serves"), Some(1));
    }

    /// Satellite: 8 threads × >10k ops each over one shared cache; the
    /// atomic hit/miss/expiration totals must come out exact (the
    /// scripted per-thread workload has known counts, so any lost update
    /// or double count shows up as a wrong total).
    #[test]
    fn stress_totals_are_exact_across_threads() {
        const THREADS: u64 = 8;
        const WARM_KEYS: u64 = 100;
        const HIT_GETS: u64 = 5_000;
        const MISS_GETS: u64 = 5_000;
        const EXPIRING: u64 = 1_000;

        let c = Arc::new(TtlCache::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let t0 = SimTime::ZERO;
                    // Warm keys, hit repeatedly while live.
                    for k in 0..WARM_KEYS {
                        c.insert(
                            t0,
                            name(&format!("warm{k}.t{t}.edu")),
                            RType::A,
                            vec![rr(60)],
                        );
                    }
                    for i in 0..HIT_GETS {
                        let k = i % WARM_KEYS;
                        assert!(c
                            .get(t0, &name(&format!("warm{k}.t{t}.edu")), RType::A)
                            .is_some());
                    }
                    // Absent keys miss.
                    for i in 0..MISS_GETS {
                        assert!(c
                            .get(t0, &name(&format!("ghost{i}.t{t}.edu")), RType::A)
                            .is_none());
                    }
                    // Short-TTL keys observed after expiry.
                    for k in 0..EXPIRING {
                        c.insert(
                            t0,
                            name(&format!("short{k}.t{t}.edu")),
                            RType::A,
                            vec![rr(1)],
                        );
                    }
                    let late = SimTime::from_ms(5_000);
                    for k in 0..EXPIRING {
                        assert!(c
                            .get(late, &name(&format!("short{k}.t{t}.edu")), RType::A)
                            .is_none());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thread panicked");
        }
        let stats = c.stats();
        assert_eq!(stats.hits, THREADS * HIT_GETS);
        assert_eq!(stats.misses, THREADS * (MISS_GETS + EXPIRING));
        assert_eq!(stats.expirations, THREADS * EXPIRING);
        // Only the warm keys are unexpired; nothing filled the map, so
        // the expired ones are still resident.
        assert_eq!(c.len(), (THREADS * WARM_KEYS) as usize);
        assert_eq!(c.resident() as u64, THREADS * (WARM_KEYS + EXPIRING));
    }
}
