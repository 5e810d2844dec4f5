//! The composed `FindNSM` binding cache.
//!
//! The per-mapping [`HnsCache`](crate::cache::HnsCache) makes a warm
//! `FindNSM` free of *remote* work, but the walk itself still runs all
//! six mappings: six meta-key constructions, six shard probes, and —
//! the dominant cost at load — re-parsing the cached payload strings
//! into `ContextInfo` / NSM-name / `NsmInfo` structures on every query.
//! At hundreds of thousands of queries per second that parse-and-alloc
//! tax *is* the hot path.
//!
//! This cache composes the whole walk: the final [`HrpcBinding`] for a
//! `(query class, context)` pair, tagged with the **minimum remaining
//! TTL across every constituent mapping entry** observed while the walk
//! ran. Until that composed TTL lapses, no constituent can have expired
//! either (meta entries only leave the cache by TTL; dynamic updates
//! re-register and bump serials before any TTL math would let a
//! composed entry outlive its parts), so serving the composed binding
//! is exactly as fresh as re-walking the per-mapping cache. A warm
//! `FindNSM` becomes one shard probe returning a `Copy` binding.
//!
//! Disabled by default: the paper's measured shape (Table 3.1) is the
//! six-mapping walk, and every golden experiment keeps that shape.
//! The load engine enables it per instance via
//! [`Hns::set_binding_cache`](crate::service::Hns::set_binding_cache).

use std::sync::atomic::{AtomicBool, Ordering};

use hrpc::HrpcBinding;
use intern::NameId;
use simnet::ttl::{Probe, TtlMap};
use simnet::world::World;

/// Statistics of a [`BindingCache`]: the counters of its
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

/// A cache of composed `FindNSM` results.
///
/// Keys are interned `(query class, context)` ids — the individual
/// name plays no part in the mapping walk, so all names in a context
/// share one entry per query class. Probing with [`NameId`]s keeps the
/// warm path free of per-query key allocation: the seed keyed shards
/// by `(String, String)` and cloned both strings on every probe.
#[derive(Debug, Default)]
pub struct BindingCache {
    enabled: AtomicBool,
    /// Each entry expires when the *earliest* constituent mapping entry
    /// of the walk that produced it does.
    map: TtlMap<(NameId, NameId), HrpcBinding>,
}

impl BindingCache {
    /// Creates a disabled, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables the cache. Disabling clears it, so a
    /// re-enable starts cold.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.map.clear();
        }
    }

    /// Whether the cache is consulted at all.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Probes for a live composed binding, charging one cache-probe
    /// cost. Returns `None` (without charging more) when disabled.
    pub fn lookup(&self, world: &World, qc: &str, context: &str) -> Option<HrpcBinding> {
        if !self.enabled() {
            return None;
        }
        world.charge_ms(world.costs.cache_probe);
        // Probes never intern: a string the interner has not seen cannot
        // be part of a key, and interning it would pin one string per
        // distinct absent context for the life of the process.
        let names = intern::global();
        let (Some(qc), Some(context)) = (names.get(qc), names.get(context)) else {
            self.map.count_absent();
            return None;
        };
        match self.map.probe(world.now(), &(qc, context), |b| *b) {
            Probe::Live { value, .. } => Some(value),
            Probe::Expired | Probe::Absent => None,
        }
    }

    /// Inserts a composed result whose earliest constituent expires in
    /// `min_ttl_secs`. A zero TTL (a stale-served walk) is not cached.
    pub fn insert(
        &self,
        world: &World,
        qc: &str,
        context: &str,
        binding: HrpcBinding,
        min_ttl_secs: u32,
    ) {
        if !self.enabled() || min_ttl_secs == 0 {
            return;
        }
        let key = (intern::intern(qc), intern::intern(context));
        self.map.insert(world.now(), key, binding, min_ttl_secs);
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> BindingCacheStats {
        let s = self.map.stats();
        BindingCacheStats {
            hits: s.hits,
            misses: s.absent,
            expired: s.expired,
            inserts: s.inserts,
        }
    }

    /// Exports the current statistics into a metrics registry under
    /// `component` (published at snapshot time like the per-mapping
    /// cache's stats; never registered while the cache is disabled and
    /// untouched, so default-configuration snapshots are unchanged).
    pub fn export_metrics(&self, metrics: &simnet::obs::MetricsRegistry, component: &str) {
        let s = self.stats();
        self.map.export(
            metrics,
            component,
            &[
                ("hits", s.hits),
                ("misses", s.misses),
                ("expired", s.expired),
                ("inserts", s.inserts),
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
    fn disabling_clears_entries() {
        let w = World::paper();
        let c = BindingCache::new();
        c.set_enabled(true);
        c.insert(&w, "qc", "ctx", binding(4), 600);
        c.set_enabled(false);
        c.set_enabled(true);
        assert_eq!(c.lookup(&w, "qc", "ctx"), None, "re-enable starts cold");
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

    /// A scan of never-cached contexts must cost and count like any other
    /// miss without pinning one interned string per context forever.
    #[test]
    fn absent_probes_do_not_grow_the_interner() {
        let w = World::paper();
        let c = BindingCache::new();
        c.set_enabled(true);
        let contexts: Vec<String> = (0..10_000)
            .map(|i| format!("never-composed-context-{i}"))
            .collect();
        for ctx in &contexts {
            assert_eq!(c.lookup(&w, "hrpc_binding", ctx), None);
        }
        assert_eq!(c.stats().misses, 10_000);
        // Other tests in this binary intern concurrently, so check the
        // scan's own strings rather than the global count.
        assert!(contexts
            .iter()
            .all(|ctx| intern::global().get(ctx).is_none()));
        // Each probe still charged the cache-probe cost.
        let expected_ms = 10_000.0 * w.costs.cache_probe;
        assert!((w.now().as_ms_f64() - expected_ms).abs() < 1.0);
    }
}
