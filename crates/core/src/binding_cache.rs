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
//! [`HrpcBinding`] filed to expire at the **earliest expiry instant among
//! the constituent mapping entries** the walk read:
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
//! the walk was asked with and copied into its arena by an insert.
//!
//! Each part's instant is computed once, where its TTL arrived, and is the
//! one its per-mapping entry is filed under, so a composed entry lapses no
//! later than its earliest part, to the microsecond, however long the walk
//! that built it took. That alone does not make it as fresh as re-walking
//! the per-mapping cache: a preload overwrites parts in place, so every
//! preload that ships records clears both levels, as
//! [`Hns::clear_cache`](crate::service::Hns::clear_cache) does. A part
//! served stale carries the instant it lapsed at, so no level that covers
//! it takes the result: a level refuses an instant at or before `now`.
//!
//! Disabled by default: the paper's measured shape (Table 3.1) is the
//! six-mapping walk, and every golden experiment keeps that shape. An
//! instance is built with it on or off
//! ([`HnsConfig::composed`](crate::service::HnsConfig::composed)), and
//! `benchmark/` builds its fast stacks with it on; while disabled neither
//! level is consulted, charged or published.

use std::sync::atomic::{AtomicBool, Ordering};

use hrpc::HrpcBinding;
use simnet::costs::Term;
use simnet::obs::CounterSource;
use simnet::time::SimTime;
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
/// they are and an insert copies them into the map's arena, so a scope
/// seen once pins nothing once its entry is gone.
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
        world.charge(Term::CacheProbe);
        self.map.probe(world.now(), &key(qc, scope), |b| *b)
    }

    /// Files `binding` to expire at `at`, unless that is not after `now`
    /// (a part was served stale, or lapsed while the walk ran).
    fn insert(&self, world: &World, qc: &str, scope: &str, binding: HrpcBinding, at: SimTime) {
        let now = world.now();
        if at > now {
            self.map.insert(now, &key(qc, scope), binding, at);
        }
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

    /// Creates an empty cache, on or off for good: what
    /// [`HnsConfig::composed`](crate::service::HnsConfig::composed) says.
    pub fn of(enabled: bool) -> Self {
        BindingCache {
            enabled: AtomicBool::new(enabled),
            ..Self::default()
        }
    }

    /// Enables or disables the cache of a live instance. Disabling clears
    /// both levels, so a re-enable starts cold; [`BindingCache::of`]
    /// fixes it at construction instead.
    ///
    /// Pinned by `benchmark/`; goes in ROADMAP item 1(c).
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

    /// [`BindingCache::insert_until`] `ttl_secs` from now: the seconds
    /// form, which `benchmark/src/probes.rs` times.
    ///
    /// Pinned by `benchmark/`; goes in ROADMAP item 1(c).
    pub fn insert(&self, world: &World, qc: &str, ctx: &str, b: HrpcBinding, ttl_secs: u32) {
        self.insert_until(world, qc, ctx, b, world.now().after_secs(ttl_secs));
    }

    /// Inserts a whole-walk result to expire at `at`, when its earliest
    /// part does. An instant at or before `now` is not cached.
    pub fn insert_until(&self, world: &World, qc: &str, ctx: &str, b: HrpcBinding, at: SimTime) {
        if self.enabled() {
            self.by_context.insert(world, qc, ctx, b, at);
        }
    }

    /// Probes for the result of mappings 2–6 under `name_service`: live,
    /// it is the binding and the instant the earliest of those mappings
    /// expires. Charges one cache-probe cost; [`Probe::Absent`] (without
    /// charging or counting) when disabled.
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

    /// Inserts the result of mappings 2–6 under `ns` to expire at `at`,
    /// when the earliest of them does. An instant at or before `now` is
    /// not cached.
    pub fn insert_service(&self, world: &World, qc: &str, ns: &str, b: HrpcBinding, at: SimTime) {
        if self.enabled() {
            self.by_service.insert(world, qc, ns, b, at);
        }
    }

    /// [`BindingCache::lookup`] as the context level answers it: live,
    /// with the instant the entry expires.
    #[cfg(test)]
    pub(crate) fn lookup_context(&self, world: &World, qc: &str, ctx: &str) -> Probe<HrpcBinding> {
        self.by_context.lookup(world, qc, ctx)
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
}

/// Every snapshot reads the statistics of both levels while the cache is
/// on; an off cache has no rows, so default-configuration snapshots have
/// none of this component.
impl CounterSource for BindingCache {
    fn rows(&self, row: &mut dyn FnMut(&'static str, u64)) {
        if !self.enabled() {
            return;
        }
        let (c, s) = (self.stats(), self.service_stats());
        let view = [
            ("hits", c.hits),
            ("misses", c.misses),
            ("expired", c.expired),
            ("inserts", c.inserts),
            ("service_hits", s.hits),
            ("service_misses", s.misses),
            ("service_expired", s.expired),
            ("service_inserts", s.inserts),
        ];
        self.by_context.map.export(&view, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrpc::ProgramId;
    use simnet::time::SimDuration;
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
        let at = w.now().after_secs(600);
        c.insert_until(&w, "hrpc_binding", "dept0", binding(1), at);
        assert_eq!(c.lookup(&w, "hrpc_binding", "dept0"), None);
        assert_eq!(c.stats(), BindingCacheStats::default());
        // Probes of a disabled cache charge nothing.
        assert_eq!(w.now().as_us(), 0);
    }

    #[test]
    fn hit_until_composed_ttl_lapses_then_expired() {
        let w = World::paper();
        let c = BindingCache::of(true);
        assert_eq!(c.lookup(&w, "qc", "ctx"), None, "cold miss");
        c.insert_until(&w, "qc", "ctx", binding(2), w.now().after_secs(2));
        assert_eq!(c.lookup(&w, "qc", "ctx"), Some(binding(2)));
        w.wait(SimDuration::from_ms(2_000));
        assert_eq!(c.lookup(&w, "qc", "ctx"), None, "composed TTL lapsed");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.expired, s.inserts), (1, 1, 1, 1));
    }

    /// An instant at or before `now` — a part served stale, or one that
    /// lapsed while the walk ran — is refused by both levels, whichever
    /// form it arrives in; one microsecond later is taken.
    #[test]
    fn both_levels_refuse_an_instant_at_or_before_now() {
        let w = World::paper();
        let c = BindingCache::of(true);
        w.wait(SimDuration::from_ms(5_000));
        let now = w.now();
        for at in [SimTime::ZERO, SimTime::from_ms(4_999), now] {
            c.insert_until(&w, "qc", "ctx", binding(3), at);
            c.insert_service(&w, "qc", "BIND", binding(3), at);
        }
        c.insert_until(&w, "qc", "ctx", binding(3), w.now().after_secs(0));
        assert_eq!((c.stats().inserts, c.service_stats().inserts), (0, 0));
        assert_eq!(w.now(), now, "a refused insert charges nothing");
        let next = SimTime::from_us(now.as_us() + 1);
        c.insert_until(&w, "qc", "ctx", binding(3), next);
        c.insert_service(&w, "qc", "BIND", binding(3), next);
        assert_eq!((c.stats().inserts, c.service_stats().inserts), (1, 1));
    }

    /// The rule of the pinned switch: disabling clears both levels.
    #[test]
    fn disabling_clears_both_levels() {
        let w = World::paper();
        let c = BindingCache::of(true);
        c.insert_until(&w, "qc", "ctx", binding(4), w.now().after_secs(600));
        c.insert_service(&w, "qc", "BIND", binding(4), w.now().after_secs(600));
        c.set_enabled(false);
        assert_eq!(c.lookup_service(&w, "qc", "BIND"), Probe::Absent);
        assert_eq!(w.now().as_us(), 0, "a disabled probe charges nothing");
        c.set_enabled(true);
        assert_eq!(c.lookup(&w, "qc", "ctx"), None, "re-enable starts cold");
        assert_eq!(c.lookup_service(&w, "qc", "BIND"), Probe::Absent);
    }

    /// A service-level entry is inserted at the earliest instant of
    /// mappings 2–6, reports that instant (which bounds the context
    /// entries made from it), and lapses at it.
    #[test]
    fn service_entry_never_outlives_the_earliest_of_mappings_2_to_6() {
        let w = World::paper();
        let c = BindingCache::of(true);
        assert_eq!(c.lookup_service(&w, "qc", "BIND"), Probe::Absent);
        let mapping3 = w.now().after_secs(90);
        let parts = [600, 600, 600, 300].map(|ttl| w.now().after_secs(ttl));
        let earliest = parts.into_iter().fold(mapping3, SimTime::min);
        c.insert_service(&w, "qc", "BIND", binding(7), earliest);
        w.wait(SimDuration::from_ms(60_000));
        assert_eq!(
            c.lookup_service(&w, "qc", "BIND"),
            Probe::Live {
                value: binding(7),
                expires_at: mapping3
            },
            "mapping 3's instant"
        );
        // The probe charges its cost first, so it looks at mapping 3's
        // instant itself.
        let probe = SimDuration::from_ms_f64(w.price(Term::CacheProbe));
        w.wait(SimDuration::from_ms(30_000) - probe - probe);
        assert_eq!(c.lookup_service(&w, "qc", "BIND"), Probe::Expired);
        assert_eq!(w.now(), mapping3);
        let s = c.service_stats();
        assert_eq!((s.hits, s.misses, s.expired, s.inserts), (1, 1, 1, 1));
        // The levels count apart: nothing above touched the context one.
        assert_eq!(c.stats(), BindingCacheStats::default());
    }

    #[test]
    fn levels_do_not_share_keys() {
        let w = World::paper();
        let c = BindingCache::of(true);
        // A context may be named like a name service.
        c.insert_until(&w, "qc", "BIND", binding(9), w.now().after_secs(600));
        assert_eq!(c.lookup_service(&w, "qc", "BIND"), Probe::Absent);
        c.insert_service(&w, "qc", "BIND", binding(10), w.now().after_secs(600));
        assert_eq!(c.lookup(&w, "qc", "BIND"), Some(binding(9)));
        c.clear();
        assert_eq!(c.lookup(&w, "qc", "BIND"), None);
        assert_eq!(c.lookup_service(&w, "qc", "BIND"), Probe::Absent);
    }

    #[test]
    fn entries_are_per_query_class_and_context() {
        let w = World::paper();
        let c = BindingCache::of(true);
        c.insert_until(&w, "a", "ctx", binding(5), w.now().after_secs(600));
        c.insert_until(&w, "b", "ctx", binding(6), w.now().after_secs(600));
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
        let c = BindingCache::of(true);
        c.insert_until(&w, "ab", "c", binding(11), w.now().after_secs(600));
        c.insert_until(&w, "a", "bc", binding(12), w.now().after_secs(600));
        assert_eq!(c.lookup(&w, "ab", "c"), Some(binding(11)));
        assert_eq!(c.lookup(&w, "a", "bc"), Some(binding(12)));
        c.insert_service(&w, "ab", "c", binding(13), w.now().after_secs(600));
        assert_eq!(c.lookup_service(&w, "a", "bc"), Probe::Absent);
    }

    /// 10^4 distinct contexts inserted and probed at both levels cost and
    /// count like any others.
    #[test]
    fn ten_thousand_contexts_cost_and_count_like_any_others() {
        let w = World::paper();
        let c = BindingCache::of(true);
        for i in 0..10_000 {
            let ctx = format!("context-{i}");
            assert_eq!(c.lookup(&w, "hrpc_binding", &ctx), None);
            assert_eq!(c.lookup_service(&w, "hrpc_binding", &ctx), Probe::Absent);
            let at = w.now().after_secs(600);
            c.insert_until(&w, "hrpc_binding", &ctx, binding(1), at);
            c.insert_service(&w, "hrpc_binding", &ctx, binding(2), at);
            assert_eq!(c.lookup(&w, "hrpc_binding", &ctx), Some(binding(1)));
            assert!(matches!(
                c.lookup_service(&w, "hrpc_binding", &ctx),
                Probe::Live { value, .. } if value == binding(2)
            ));
        }
        for stats in [c.stats(), c.service_stats()] {
            assert_eq!(
                (stats.hits, stats.misses, stats.inserts),
                (10_000, 10_000, 10_000)
            );
        }
        // Each probe charged the cache-probe cost.
        let expected_ms = 40_000.0 * w.price(Term::CacheProbe);
        assert!((w.now().as_ms_f64() - expected_ms).abs() < 1.0);
    }
}
