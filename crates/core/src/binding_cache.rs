//! The composed `FindNSM` binding caches.
//!
//! The per-mapping [`HnsCache`](crate::cache::HnsCache) makes a warm
//! `FindNSM` free of *remote* work, but the walk itself still runs all
//! six mappings: five meta-key constructions, six cache probes and the
//! virtual-time bookkeeping of each. (The cached records themselves are
//! typed and read by reference; a hit parses nothing.) At hundreds of
//! thousands of queries per second that per-mapping tax *is* the hot
//! path.
//!
//! This cache composes the walk at two levels, both holding the final
//! [`HrpcBinding`] tagged with the **minimum remaining TTL across the
//! constituent mapping entries** observed while the walk ran:
//!
//! * **(query class, context)** — all six mappings. A warm `FindNSM`
//!   is one probe returning a `Copy` binding, nothing allocated.
//! * **(query class, name service)** — mappings 2–6, which are a
//!   function of that pair alone: every context of one name service
//!   shares them. This is the paper's "locality of reference to query
//!   class and name system type". When a context's own entry has
//!   lapsed, the walk runs mapping 1 and then probes here: two probes
//!   instead of six, and the one walk that refreshes mappings 2–6
//!   refreshes them for every context of the service. The first level
//!   is kept because its hit skips mapping 1 too (DESIGN.md "Composed
//!   caches: two levels").
//!
//! Both levels key on `qc ‖ FF ‖ scope`, handed to the map as the strings
//! the walk was asked with and copied into its arena by an insert, so
//! neither a probe nor an insert goes through the interner.
//!
//! Until a composed TTL lapses, no constituent can have expired by TTL
//! either. That alone does not make it as fresh as re-walking the
//! per-mapping cache: a preload overwrites parts in place, so every
//! preload that ships records clears both levels, as
//! [`Hns::clear_cache`](crate::service::Hns::clear_cache) does. A walk
//! that served a part stale reports TTL 0 for it and is not cached at a
//! level that covers that part.
//!
//! Disabled by default: the paper's measured shape (Table 3.1) is the
//! six-mapping walk, and every golden experiment keeps that shape.
//! `benchmark/` enables it per instance via
//! [`Hns::set_binding_cache`](crate::service::Hns::set_binding_cache);
//! while disabled neither level is consulted, charged or published.

use std::sync::atomic::{AtomicBool, Ordering};

use hrpc::HrpcBinding;
use simnet::ttl::{Probe, TtlMap, END};
use simnet::world::World;

/// Statistics of one level of a [`BindingCache`]: the counters of its
/// [`simnet::ttl::TtlMap`] under the names this cache publishes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BindingCacheStats {
    /// Probes answered by a live composed entry.
    pub hits: u64,
    /// Probes that found nothing composed (the walk ran).
    pub misses: u64,
    /// Probes that found an entry whose composed TTL had lapsed.
    pub expired: u64,
    /// Composed entries inserted after successful walks.
    pub inserts: u64,
}

/// One composed level: bindings under `qc ‖ FF ‖ scope`, the scope being
/// a context or a name service. A probe hands the map the two strings as
/// they are and an insert copies them into the map's arena: nothing is
/// interned, so a scope seen once pins nothing once its entry is gone.
#[derive(Debug, Default)]
struct Level {
    /// Each entry expires when the *earliest* constituent mapping entry
    /// of the walk that produced it does.
    map: TtlMap<HrpcBinding>,
}

/// The key of `scope` under query class `qc`, as the map takes it.
fn key<'a>(qc: &'a str, scope: &'a str) -> [&'a [u8]; 3] {
    [qc.as_bytes(), &[END], scope.as_bytes()]
}

impl Level {
    /// One probe, charging one cache-probe cost.
    fn lookup(&self, world: &World, qc: &str, scope: &str) -> Probe<HrpcBinding> {
        world.charge_ms(world.costs.cache_probe);
        self.map.probe(world.now(), &key(qc, scope), |b| *b)
    }

    /// A zero TTL (a stale-served part) is not cached.
    fn insert(&self, world: &World, qc: &str, scope: &str, binding: HrpcBinding, ttl_secs: u32) {
        if ttl_secs == 0 {
            return;
        }
        self.map
            .insert(world.now(), &key(qc, scope), binding, ttl_secs);
    }

    fn stats(&self) -> BindingCacheStats {
        let s = self.map.stats();
        BindingCacheStats {
            hits: s.hits,
            misses: s.absent,
            expired: s.expired,
            inserts: s.inserts,
        }
    }
}

/// A cache of composed `FindNSM` results, at two levels (see the module
/// docs): the whole walk per `(query class, context)` — the individual
/// name plays no part in the mapping walk, so all names in a context
/// share one entry per query class — and mappings 2–6 per
/// `(query class, name service)`, shared by every context of the
/// service.
#[derive(Debug, Default)]
pub struct BindingCache {
    enabled: AtomicBool,
    by_context: Level,
    by_service: Level,
}

impl BindingCache {
    /// Creates a disabled, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables the cache. Disabling clears both levels, so a
    /// re-enable starts cold.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.clear();
        }
    }

    /// Whether the cache is consulted at all.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Drops every composed entry of both levels; the counters keep
    /// running.
    pub fn clear(&self) {
        self.by_context.map.clear();
        self.by_service.map.clear();
    }

    /// Probes for a live whole-walk binding, charging one cache-probe
    /// cost. Returns `None` (without charging) when disabled.
    pub fn lookup(&self, world: &World, qc: &str, context: &str) -> Option<HrpcBinding> {
        if !self.enabled() {
            return None;
        }
        match self.by_context.lookup(world, qc, context) {
            Probe::Live { value, .. } => Some(value),
            Probe::Expired | Probe::Absent => None,
        }
    }

    /// Inserts a whole-walk result whose earliest constituent expires in
    /// `min_ttl_secs`. A zero TTL (a stale-served walk) is not cached.
    pub fn insert(
        &self,
        world: &World,
        qc: &str,
        context: &str,
        binding: HrpcBinding,
        min_ttl_secs: u32,
    ) {
        if self.enabled() {
            self.by_context
                .insert(world, qc, context, binding, min_ttl_secs);
        }
    }

    /// Probes for the result of mappings 2–6 under `name_service`: live,
    /// it is the binding and the seconds until the earliest of those
    /// mappings expires. Charges one cache-probe cost; [`Probe::Absent`]
    /// (without charging or counting) when disabled.
    pub fn lookup_service(
        &self,
        world: &World,
        qc: &str,
        name_service: &str,
    ) -> Probe<HrpcBinding> {
        if !self.enabled() {
            return Probe::Absent;
        }
        self.by_service.lookup(world, qc, name_service)
    }

    /// Inserts the result of mappings 2–6 under `name_service`, the
    /// earliest of which expires in `min_ttl_secs`. A zero TTL is not
    /// cached.
    pub fn insert_service(
        &self,
        world: &World,
        qc: &str,
        name_service: &str,
        binding: HrpcBinding,
        min_ttl_secs: u32,
    ) {
        if self.enabled() {
            self.by_service
                .insert(world, qc, name_service, binding, min_ttl_secs);
        }
    }

    /// Bytes both levels hold ([`simnet::ttl::TtlMap::resident_bytes`]):
    /// slab, index and key arena at capacity. A binding holds nothing
    /// beyond its slot. Not exported as a metric.
    pub fn resident_bytes(&self) -> usize {
        let level = |level: &Level| level.map.resident_bytes(|_| 0);
        level(&self.by_context) + level(&self.by_service)
    }

    /// Statistics of the `(query class, context)` level.
    pub fn stats(&self) -> BindingCacheStats {
        self.by_context.stats()
    }

    /// Statistics of the `(query class, name service)` level.
    pub fn service_stats(&self) -> BindingCacheStats {
        self.by_service.stats()
    }

    /// Exports the current statistics of both levels into a metrics
    /// registry under `component` (published at snapshot time like the
    /// per-mapping cache's stats; never registered while the cache is
    /// disabled and untouched, so default-configuration snapshots are
    /// unchanged).
    pub fn export_metrics(&self, metrics: &simnet::obs::MetricsRegistry, component: &str) {
        let (c, s) = (self.stats(), self.service_stats());
        self.by_context.map.export(
            metrics,
            component,
            &[
                ("hits", c.hits),
                ("misses", c.misses),
                ("expired", c.expired),
                ("inserts", c.inserts),
                ("service_hits", s.hits),
                ("service_misses", s.misses),
                ("service_expired", s.expired),
                ("service_inserts", s.inserts),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrpc::ProgramId;
    use simnet::topology::{HostId, NetAddr};

    fn binding(host: u32) -> HrpcBinding {
        HrpcBinding {
            host: HostId(host),
            addr: NetAddr::of(HostId(host)),
            program: ProgramId(17),
            port: 1234,
            components: hrpc::ComponentSet::sun(),
        }
    }

    #[test]
    fn disabled_cache_is_inert() {
        let w = World::paper();
        let c = BindingCache::new();
        c.insert(&w, "hrpc_binding", "dept0", binding(1), 600);
        assert_eq!(c.lookup(&w, "hrpc_binding", "dept0"), None);
        assert_eq!(c.stats(), BindingCacheStats::default());
        // Probes of a disabled cache charge nothing.
        assert_eq!(w.now().as_us(), 0);
    }

    #[test]
    fn hit_until_composed_ttl_lapses_then_expired() {
        let w = World::paper();
        let c = BindingCache::new();
        c.set_enabled(true);
        assert_eq!(c.lookup(&w, "qc", "ctx"), None, "cold miss");
        c.insert(&w, "qc", "ctx", binding(2), 2);
        assert_eq!(c.lookup(&w, "qc", "ctx"), Some(binding(2)));
        w.charge_ms(2_000.0);
        assert_eq!(c.lookup(&w, "qc", "ctx"), None, "composed TTL lapsed");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.expired, s.inserts), (1, 1, 1, 1));
    }

    #[test]
    fn zero_ttl_walks_are_not_cached() {
        let w = World::paper();
        let c = BindingCache::new();
        c.set_enabled(true);
        c.insert(&w, "qc", "ctx", binding(3), 0);
        assert_eq!(c.lookup(&w, "qc", "ctx"), None);
        assert_eq!(c.stats().inserts, 0);
    }

    #[test]
    fn disabling_clears_both_levels() {
        let w = World::paper();
        let c = BindingCache::new();
        c.set_enabled(true);
        c.insert(&w, "qc", "ctx", binding(4), 600);
        c.insert_service(&w, "qc", "BIND", binding(4), 600);
        c.set_enabled(false);
        assert_eq!(c.lookup_service(&w, "qc", "BIND"), Probe::Absent);
        assert_eq!(w.now().as_us(), 0, "a disabled probe charges nothing");
        c.set_enabled(true);
        assert_eq!(c.lookup(&w, "qc", "ctx"), None, "re-enable starts cold");
        assert_eq!(c.lookup_service(&w, "qc", "BIND"), Probe::Absent);
    }

    /// A service-level entry is inserted with the minimum remaining TTL
    /// of mappings 2–6, reports what is left of it (which bounds the
    /// context entries made from it), and lapses with it.
    #[test]
    fn service_entry_never_outlives_the_earliest_of_mappings_2_to_6() {
        let w = World::paper();
        let c = BindingCache::new();
        c.set_enabled(true);
        assert_eq!(c.lookup_service(&w, "qc", "BIND"), Probe::Absent);
        let (ttl2, ttl3, ttl4, ttl5, ttl6) = (600u32, 90, 600, 600, 300);
        let min_ttl = ttl2.min(ttl3).min(ttl4).min(ttl5).min(ttl6);
        c.insert_service(&w, "qc", "BIND", binding(7), min_ttl);
        w.charge_ms(60_000.0);
        match c.lookup_service(&w, "qc", "BIND") {
            Probe::Live {
                value,
                remaining_secs,
            } => {
                assert_eq!(value, binding(7));
                assert_eq!(remaining_secs, 30, "what mapping 3 has left");
            }
            other => panic!("expected a live entry, got {other:?}"),
        }
        w.charge_ms(30_000.0);
        assert_eq!(c.lookup_service(&w, "qc", "BIND"), Probe::Expired);
        let s = c.service_stats();
        assert_eq!((s.hits, s.misses, s.expired, s.inserts), (1, 1, 1, 1));
        // The levels count apart: nothing above touched the context one.
        assert_eq!(c.stats(), BindingCacheStats::default());
    }

    #[test]
    fn zero_ttl_service_results_are_not_cached() {
        let w = World::paper();
        let c = BindingCache::new();
        c.set_enabled(true);
        c.insert_service(&w, "qc", "BIND", binding(8), 0);
        assert_eq!(c.lookup_service(&w, "qc", "BIND"), Probe::Absent);
        assert_eq!(c.service_stats().inserts, 0);
    }

    #[test]
    fn levels_do_not_share_keys() {
        let w = World::paper();
        let c = BindingCache::new();
        c.set_enabled(true);
        // A context may be named like a name service.
        c.insert(&w, "qc", "BIND", binding(9), 600);
        assert_eq!(c.lookup_service(&w, "qc", "BIND"), Probe::Absent);
        c.insert_service(&w, "qc", "BIND", binding(10), 600);
        assert_eq!(c.lookup(&w, "qc", "BIND"), Some(binding(9)));
        c.clear();
        assert_eq!(c.lookup(&w, "qc", "BIND"), None);
        assert_eq!(c.lookup_service(&w, "qc", "BIND"), Probe::Absent);
    }

    #[test]
    fn entries_are_per_query_class_and_context() {
        let w = World::paper();
        let c = BindingCache::new();
        c.set_enabled(true);
        c.insert(&w, "a", "ctx", binding(5), 600);
        c.insert(&w, "b", "ctx", binding(6), 600);
        assert_eq!(c.lookup(&w, "a", "ctx"), Some(binding(5)));
        assert_eq!(c.lookup(&w, "b", "ctx"), Some(binding(6)));
        assert_eq!(c.lookup(&w, "a", "other"), None);
    }

    /// A `(query class, scope)` pair split at two places is two keys, and
    /// two entries.
    #[test]
    fn a_pair_split_at_two_places_is_two_entries() {
        assert_ne!(key("ab", "c").concat(), key("a", "bc").concat());
        let w = World::paper();
        let c = BindingCache::new();
        c.set_enabled(true);
        c.insert(&w, "ab", "c", binding(11), 600);
        c.insert(&w, "a", "bc", binding(12), 600);
        assert_eq!(c.lookup(&w, "ab", "c"), Some(binding(11)));
        assert_eq!(c.lookup(&w, "a", "bc"), Some(binding(12)));
        c.insert_service(&w, "ab", "c", binding(13), 600);
        assert_eq!(c.lookup_service(&w, "a", "bc"), Probe::Absent);
    }

    /// Neither level goes through the interner: 10^4 distinct contexts
    /// inserted and probed at both levels cost and count like any others,
    /// and none of them is interned afterwards.
    #[test]
    fn contexts_inserted_and_probed_are_never_interned() {
        let w = World::paper();
        let c = BindingCache::new();
        c.set_enabled(true);
        let contexts: Vec<String> = (0..10_000)
            .map(|i| format!("never-interned-context-{i}"))
            .collect();
        for ctx in &contexts {
            assert_eq!(c.lookup(&w, "hrpc_binding", ctx), None);
            assert_eq!(c.lookup_service(&w, "hrpc_binding", ctx), Probe::Absent);
            c.insert(&w, "hrpc_binding", ctx, binding(1), 600);
            c.insert_service(&w, "hrpc_binding", ctx, binding(2), 600);
            assert_eq!(c.lookup(&w, "hrpc_binding", ctx), Some(binding(1)));
            assert!(matches!(
                c.lookup_service(&w, "hrpc_binding", ctx),
                Probe::Live { value, .. } if value == binding(2)
            ));
        }
        for stats in [c.stats(), c.service_stats()] {
            assert_eq!(
                (stats.hits, stats.misses, stats.inserts),
                (10_000, 10_000, 10_000)
            );
        }
        // Other tests in this binary intern concurrently, so check the
        // contexts themselves rather than the global count.
        assert!(contexts
            .iter()
            .all(|ctx| intern::global().get(ctx).is_none()));
        // Each probe charged the cache-probe cost.
        let expected_ms = 40_000.0 * w.costs.cache_probe;
        assert!((w.now().as_ms_f64() - expected_ms).abs() < 1.0);
    }
}
