//! The NSM-side result cache.
//!
//! "Both the HNS and the NSMs were modified to cache the results of remote
//! lookups." An NSM caches completed results (e.g. a finished HRPC binding)
//! keyed by the query it answered, with the same marshalled/demarshalled
//! form distinction as the HNS cache — literally the same: the expiry map
//! is [`simnet::ttl::TtlMap`] and the form-aware store/load pair is
//! [`hns_core::cache::Stored`]. As the HNS cache is, it is generic over
//! what it keeps (a wire [`Value`] by default, the typed
//! [`hrpc::HrpcBinding`] for the binding NSMs) and adds the `(hits,
//! misses)` view the NSMs report. A key is bytes ([`KeyParts`]): a string's
//! own, or the parts an NSM lays a query of several fields out in, handed
//! to the map where they lie; an insert copies a new key into the map's
//! arena.

use std::sync::Arc;

use hns_core::cache::{Cacheable, HeapBytes, Stored};
use simnet::costs::Term;
use simnet::obs::trace::CacheOutcome;
use simnet::obs::CounterSource;
use simnet::ttl::{KeyParts, Probe, TtlMap};
use simnet::world::World;
use wire::Value;

/// Storage form for NSM cache entries: the HNS cache's mode enum under the
/// name the NSM constructors have always taken.
pub use hns_core::cache::CacheMode as NsmCacheForm;

/// A cache of completed NSM results.
pub struct NsmCache<V = Value> {
    form: NsmCacheForm,
    /// Each value with its record count (which sets the Table 3.2 cost).
    map: TtlMap<(Stored<V>, usize)>,
}

impl NsmCache {
    /// Creates a cache of wire [`Value`]s — [`NsmCache::of`] for the
    /// default value, so that a bare `NsmCache::new(form)` needs no
    /// annotation.
    pub fn new(form: NsmCacheForm) -> Self {
        NsmCache::of(form)
    }
}

impl<V: Cacheable> NsmCache<V> {
    /// Creates a cache with the given storage form, of whatever value its
    /// NSM keeps.
    pub fn of(form: NsmCacheForm) -> Self {
        NsmCache {
            form,
            map: TtlMap::default(),
        }
    }

    /// Looks up a completed result, charging probe + form-dependent cost.
    /// A demarshalled hit shares the stored value. An entry that no longer
    /// decodes is dropped and the probe counts as a miss, as in the HNS
    /// cache.
    pub fn get(&self, world: &World, key: &(impl KeyParts + ?Sized)) -> Option<Arc<V>> {
        if self.form == NsmCacheForm::Disabled {
            return None;
        }
        world.charge(Term::CacheProbe);
        let probe = key.with_parts(|parts| self.map.probe(world.now(), parts, Clone::clone));
        let (outcome, value) = match probe {
            // The map's lock is released: a marshalled entry is
            // demarshalled here, not under it.
            Probe::Live {
                value: (stored, rrs),
                ..
            } => match stored.load(world, rrs) {
                Some(value) => (CacheOutcome::Hit, Some(value)),
                None => {
                    key.with_parts(|parts| self.map.discard(parts));
                    (CacheOutcome::Miss, None)
                }
            },
            Probe::Expired => (CacheOutcome::Expired, None),
            Probe::Absent => (CacheOutcome::Miss, None),
        };
        world.cache_outcome(outcome);
        value
    }

    /// Inserts a completed result, valid for `ttl_secs` from now.
    pub fn insert(&self, world: &World, key: impl KeyParts, value: &V, rrs: usize, ttl_secs: u32)
    where
        V: Clone,
    {
        if let Some(stored) = Stored::store(self.form, value) {
            let (now, entry) = (world.now(), (stored, rrs));
            key.with_parts(|parts| self.map.insert(now, parts, entry, now.after_secs(ttl_secs)));
        }
    }

    /// Bytes the cache holds ([`TtlMap::resident_bytes`]): slab, index
    /// and key arena at capacity and each entry's stored form, a shared
    /// one as its share. Not exported as a metric.
    pub fn resident_bytes(&self) -> usize
    where
        V: HeapBytes,
    {
        self.map.resident_bytes(|(stored, _)| stored.heap_bytes())
    }

    /// (hits, misses) so far; an expired entry is a miss.
    pub fn stats(&self) -> (u64, u64) {
        let s = self.map.stats();
        (s.hits, s.absent + s.expired)
    }

    /// Drops all entries.
    pub fn clear(&self) {
        self.map.clear();
    }
}

/// Every snapshot reads the hit and miss totals; a disabled cache counts
/// nothing, so it has no rows ([`TtlMap::export`]). `entries` counts what
/// has not yet been observed expired.
impl<V: Cacheable + Send + Sync> CounterSource for NsmCache<V> {
    fn rows(&self, row: &mut dyn FnMut(&'static str, u64)) {
        let (hits, misses) = self.stats();
        let view = [
            ("hits", hits),
            ("misses", misses),
            ("entries", self.map.live() as u64),
        ];
        self.map.export(&view, row);
    }
}

impl<V> std::fmt::Debug for NsmCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NsmCache")
            .field("form", &self.form)
            .field("map", &self.map)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_form_never_caches() {
        let world = simnet::World::paper();
        let cache = NsmCache::new(NsmCacheForm::Disabled);
        cache.insert(&world, "k", &Value::U32(1), 1, 600);
        assert!(cache.get(&world, "k").is_none());
    }

    #[test]
    fn marshalled_hit_cost() {
        let world = simnet::World::paper();
        let cache = NsmCache::new(NsmCacheForm::Marshalled);
        cache.insert(&world, "k", &Value::U32(1), 2, 600);
        let (got, ledger) = world.measure(|| cache.get(&world, "k"));
        let took = ledger.total();
        assert_eq!(got.as_deref(), Some(&Value::U32(1)));
        // probe 0.05 + 8.10 + 2*3.01 = 14.17
        assert!((took.as_ms_f64() - 14.17).abs() < 0.1, "took {took}");
        assert_eq!(cache.stats(), (1, 0));
    }

    #[test]
    fn demarshalled_hit_is_cheap() {
        let world = simnet::World::paper();
        let cache = NsmCache::new(NsmCacheForm::Demarshalled);
        cache.insert(&world, "k", &Value::U32(1), 2, 600);
        let (_, ledger) = world.measure(|| cache.get(&world, "k"));
        let took = ledger.total();
        assert!(took.as_ms_f64() < 1.1, "took {took}");
    }

    #[test]
    fn clear_empties() {
        let world = simnet::World::paper();
        let cache = NsmCache::new(NsmCacheForm::Demarshalled);
        cache.insert(&world, "k", &Value::U32(1), 1, 600);
        cache.clear();
        assert!(cache.get(&world, "k").is_none());
    }

    /// Wire bytes that no longer decode: the entry is dropped, the probe
    /// is a miss and is recorded as one, so hits + misses = probes.
    #[test]
    fn undecodable_entry_is_dropped_and_counts_as_a_miss() {
        let world = simnet::World::paper();
        world.tracer.set_enabled(true);
        let cache = NsmCache::new(NsmCacheForm::Marshalled);
        let garbage = Stored::Bytes([0xff_u8; 3].as_slice().into());
        cache.map.insert(
            world.now(),
            &[b"k"],
            (garbage, 1),
            world.now().after_secs(600),
        );
        let span = world.span(None, simnet::obs::trace::TraceKind::Nsm, "probe");
        assert!(cache.get(&world, "k").is_none());
        drop(span);
        assert_eq!(cache.stats(), (0, 1));
        assert_eq!(cache.map.resident(), 0, "the undecodable entry is gone");
        let spans = world.tracer.spans();
        assert_eq!(
            spans.last().and_then(|s| s.cache),
            Some(CacheOutcome::Miss),
            "the probe's outcome reaches the span"
        );
    }
}
