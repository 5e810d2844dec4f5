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
//! this cache's own: the key is `(owner name, record type)` with the name
//! as the [`DomainName`]'s own shared text — an entry allocates no copy of
//! it and pins nothing outside itself, so evicting one frees all it held
//! — probed on borrowed `(&str, RType)`; a hit hands back the stored
//! `Arc`-shared record set, and a set is valid for the minimum TTL among
//! its records.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use simnet::obs::MetricsRegistry;
use simnet::time::{SimDuration, SimTime};
use simnet::ttl::{Probe, TtlMap};
use simnet::world::World;

use crate::name::DomainName;
use crate::rr::{RType, ResourceRecord};

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

/// What an entry is stored under: canonical dotted text, shared with the
/// [`DomainName`] it was inserted with, and the record type.
#[derive(Debug, PartialEq, Eq)]
struct Key(Arc<str>, RType);

/// A key as a probe sees it, owned or borrowed. [`Key`] borrows as one, so
/// the map is probed with `(&str, RType)` — a suffix of a name's text —
/// and nothing is allocated to ask.
trait KeyView {
    fn view(&self) -> (&str, RType);
}

impl KeyView for Key {
    fn view(&self) -> (&str, RType) {
        (&self.0, self.1)
    }
}

impl KeyView for (&str, RType) {
    fn view(&self) -> (&str, RType) {
        *self
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for Key {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state);
    }
}

// `Borrow` requires the owned key to hash as its view does.
impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state);
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for dyn KeyView + '_ {}

/// A TTL-invalidated record cache, safe to share between threads.
#[derive(Debug, Default)]
pub struct TtlCache {
    map: TtlMap<Key, Arc<[ResourceRecord]>>,
}

impl TtlCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache that publishes its statistics under
    /// `component` on every [`World::export_all_caches`] (sampler ticks,
    /// end-of-run snapshots). The exporter holds a `Weak`, so a dropped
    /// cache goes inert; with several caches of one component on one
    /// world the last-registered live one wins, matching the
    /// last-writer-wins semantics of `set_counter` exports.
    pub fn exported(world: &World, component: &'static str) -> Arc<Self> {
        let cache = Arc::new(TtlCache::new());
        let weak = Arc::downgrade(&cache);
        world.register_cache_exporter(Box::new(move |metrics| {
            if let Some(cache) = weak.upgrade() {
                cache.export_metrics(metrics, component);
            }
        }));
        cache
    }

    /// Looks up live records for (`name`, `rtype`) at virtual time `now`.
    ///
    /// Hits share the stored record set (`Arc` clone, no per-record
    /// clone); an entry observed past its TTL is counted as both a miss
    /// and an expiration (once per expiry) but *retained* while the map
    /// has room, so [`TtlCache::get_stale`] can serve it if the
    /// authoritative server turns out to be unreachable.
    pub fn get(
        &self,
        now: SimTime,
        name: &DomainName,
        rtype: RType,
    ) -> Option<Arc<[ResourceRecord]>> {
        self.get_text(now, name.as_str(), rtype)
    }

    /// [`TtlCache::get`] for a name held as canonical text — a suffix
    /// borrowed from a [`DomainName`] is one, so probing a name's
    /// ancestors builds no `DomainName`.
    pub(crate) fn get_text(
        &self,
        now: SimTime,
        name: &str,
        rtype: RType,
    ) -> Option<Arc<[ResourceRecord]>> {
        let key: &dyn KeyView = &(name, rtype);
        match self.map.probe(now, key, Arc::clone) {
            Probe::Live { value, .. } => Some(value),
            Probe::Expired | Probe::Absent => None,
        }
    }

    /// Drops the entry a [`TtlCache::get_text`] hit just handed out and
    /// the caller found unusable, refiling that hit as a miss.
    pub(crate) fn discard(&self, name: &str, rtype: RType) {
        let key: &dyn KeyView = &(name, rtype);
        self.map.discard(key);
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
        let key: &dyn KeyView = &(name.as_str(), rtype);
        self.map
            .probe_stale(now, key, |records| Some(Arc::clone(records)))
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
        let Some(min_ttl) = records.iter().map(|r| r.ttl).min() else {
            return;
        };
        self.map
            .insert(now, Key(name.into_text(), rtype), records, min_ttl);
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

    /// Publishes the cache's statistics into `metrics` under `component`
    /// (snapshot-time export, like the HNS cache).
    pub fn export_metrics(&self, metrics: &MetricsRegistry, component: &str) {
        let s = self.stats();
        self.map.export(
            metrics,
            component,
            &[
                ("hits", s.hits),
                ("misses", s.misses),
                ("expirations", s.expirations),
                ("entries", self.len() as u64),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// An entry is keyed on its name's own text: the cache interns
    /// nothing, copies no name, and an entry that goes gives the text back.
    #[test]
    fn an_entry_shares_its_names_text_and_frees_it_when_dropped() {
        let c = TtlCache::new();
        let n = name("a.b");
        let before = intern::global().len();
        c.insert(SimTime::ZERO, n.clone(), RType::A, vec![rr(60)]);
        assert_eq!(
            Arc::strong_count(&n.clone().into_text()),
            3,
            "ours, the key, this"
        );
        assert!(c.get(SimTime::ZERO, &n, RType::A).is_some());
        assert!(c.get_text(SimTime::ZERO, "b", RType::A).is_none());
        assert!(c
            .get_stale(SimTime::from_ms(60_000), &n, RType::A)
            .is_some());
        c.clear();
        assert_eq!(Arc::strong_count(&n.into_text()), 1);
        assert_eq!(
            intern::global().len(),
            before,
            "nothing in this crate interns"
        );
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
    fn export_metrics_publishes_stats() {
        let m = MetricsRegistry::new();
        let c = TtlCache::new();
        c.insert(SimTime::ZERO, name("a.b"), RType::A, vec![rr(1)]);
        let _ = c.get(SimTime::ZERO, &name("a.b"), RType::A); // hit
        let _ = c.get(SimTime::from_ms(2_000), &name("a.b"), RType::A); // expired
        let _ = c.get(SimTime::ZERO, &name("x.y"), RType::A); // miss
        c.export_metrics(&m, "bindns_cache");
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
        c.export_metrics(&m, "bindns_cache");
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
