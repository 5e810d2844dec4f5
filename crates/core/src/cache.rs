//! The HNS meta-naming cache.
//!
//! "Because our approach introduces a level of indirection, we use a
//! specialized caching scheme based on locality of reference to query class
//! and name system type to provide acceptable performance."
//!
//! Two storage forms exist, the subject of Table 3.2:
//!
//! * **Marshalled** — entries are kept in wire form and demarshalled
//!   through the generated routines on every hit (the initial
//!   implementation: "we kept data in its marshalled form, and demarshalled
//!   it upon every access, expecting that marshalling was a minor expense").
//! * **Demarshalled** — entries are kept decoded; a hit is a map lookup
//!   plus a reference-count bump ("by simply changing the cache to keep
//!   demarshalled information, the times decreased dramatically").
//!
//! Entries are TTL-tagged, inheriting BIND's invalidation regime; the
//! expiry map, its retention of expired entries for serve-stale
//! and its probe counters are [`simnet::ttl::TtlMap`], shared with the
//! other caches. On top of it this cache adds what is its own:
//!
//! * **Storage forms** — [`Stored`], the form-aware store/load pair that
//!   charges Table 3.2's access costs (shared with the NSM result cache).
//!   A marshalled entry is cloned out (`Arc<[u8]>`) under the map's lock
//!   and demarshalled after it is released. The cache is generic over the
//!   decoded form ([`Cacheable`]): a wire [`Value`] by default, the typed
//!   [`crate::meta::MetaRecord`] for the HNS's own, whose demarshalled hit
//!   is then the record the mapping chain reads — not copied, not parsed.
//! * **Negative caching** — a `NotFound` can be remembered via
//!   [`HnsCache::insert_negative`] for a (short, separate) TTL, so
//!   repeated lookups of absent names do not hammer the meta server.
//!
//! A miss is not gated: two threads that miss one key both fetch, and the
//! second insert overwrites an equal record.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use intern::NameId;
use simnet::trace::{CacheOutcome, TraceKind};
use simnet::ttl::{Probe, TtlMap};
use simnet::world::World;
use simnet::CacheForm;
use wire::Value;

/// TTL for negative entries, seconds. Deliberately much shorter than the
/// positive [`crate::meta::META_TTL`]: absence is the cheapest fact to
/// recompute and the most dangerous to over-remember.
pub const NEGATIVE_TTL: u32 = 30;

/// Whether and how a cache stores its entries — the HNS meta cache and,
/// under the name `NsmCacheForm`, the NSM result caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// No caching (the paper's column-A/no-cache interpretation).
    Disabled,
    /// Cache in wire form; every hit pays a generated demarshal.
    Marshalled,
    /// Cache decoded values; hits are nearly free.
    Demarshalled,
}

/// Keys for the six data mappings a `FindNSM` performs.
///
/// Meta-store mappings (context, NSM-name, NSM-info records) are keyed by
/// their meta-zone domain name, so the zone-transfer preload path produces
/// exactly the same keys as the demand-fetch path.
///
/// Keys carry interned [`NameId`]s rather than owned strings: a key is
/// `Copy`, eight bytes, hashes as one or two `u32`s, and a million cached
/// mappings share one stored copy of each distinct name. `Debug` resolves
/// the ids so traces stay human-readable.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetaKey {
    /// Mappings 1–5: a record set in the meta zone.
    Meta(NameId),
    /// Mapping 6: a (name service, host name) → address result obtained
    /// via the linked host-address NSM.
    HostAddr(NameId, NameId),
}

impl MetaKey {
    /// Keys a meta-zone record set by its domain name.
    pub fn meta(name: &bindns::name::DomainName) -> MetaKey {
        MetaKey::Meta(intern::intern(name.as_str()))
    }

    /// Keys a host-address result by `(name service, host name)`.
    pub fn host_addr(ns: &str, host: &str) -> MetaKey {
        MetaKey::HostAddr(intern::intern(ns), intern::intern(host))
    }
}

impl std::fmt::Debug for MetaKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaKey::Meta(id) => write!(f, "Meta({:?})", &*intern::display(*id)),
            MetaKey::HostAddr(ns, host) => write!(
                f,
                "HostAddr({:?}, {:?})",
                &*intern::display(*ns),
                &*intern::display(*host)
            ),
        }
    }
}

/// A decoded form the cache can also keep marshalled.
pub trait Cacheable: Sized {
    /// The wire form; `None` if the value has none.
    fn marshal(&self) -> Option<Vec<u8>>;
    /// Back from the wire form; `None` if the bytes do not decode.
    fn demarshal(bytes: &[u8]) -> Option<Self>;
}

/// A wire value marshals as what it is.
impl Cacheable for Value {
    fn marshal(&self) -> Option<Vec<u8>> {
        wire::xdr::encode(self).ok()
    }

    fn demarshal(bytes: &[u8]) -> Option<Self> {
        wire::xdr::decode(bytes).ok()
    }
}

/// A binding marshals as the tree it describes (what the binding NSMs'
/// result cache keeps).
impl Cacheable for hrpc::HrpcBinding {
    fn marshal(&self) -> Option<Vec<u8>> {
        self.to_value().marshal()
    }

    fn demarshal(bytes: &[u8]) -> Option<Self> {
        hrpc::HrpcBinding::from_value(&Value::demarshal(bytes)?).ok()
    }
}

/// One cached value in its storage form (Table 3.2).
#[derive(Debug)]
pub enum Stored<V = Value> {
    /// Wire form; every load pays a demarshal.
    Bytes(Arc<[u8]>),
    /// Decoded form; a load is a reference-count bump.
    Decoded(Arc<V>),
}

/// Either form is shared, so a clone copies no value.
impl<V> Clone for Stored<V> {
    fn clone(&self) -> Self {
        match self {
            Stored::Bytes(bytes) => Stored::Bytes(Arc::clone(bytes)),
            Stored::Decoded(value) => Stored::Decoded(Arc::clone(value)),
        }
    }
}

impl<V: Cacheable> Stored<V> {
    /// Puts `value` into the form `mode` asks for, the decoded form being
    /// a copy; `None` when the cache is disabled (or the value has no
    /// wire form).
    pub fn store(mode: CacheMode, value: &V) -> Option<Stored<V>>
    where
        V: Clone,
    {
        Self::store_with(mode, value, || Arc::new(value.clone()))
    }

    /// [`Stored::store`] of a value that is shared already: the decoded
    /// form is that allocation.
    pub fn share(mode: CacheMode, value: &Arc<V>) -> Option<Stored<V>> {
        Self::store_with(mode, value, || Arc::clone(value))
    }

    fn store_with(
        mode: CacheMode,
        value: &V,
        decoded: impl FnOnce() -> Arc<V>,
    ) -> Option<Stored<V>> {
        match mode {
            CacheMode::Disabled => None,
            CacheMode::Marshalled => Some(Stored::Bytes(value.marshal()?.into())),
            CacheMode::Demarshalled => Some(Stored::Decoded(decoded())),
        }
    }

    /// Takes the value back out, charging the form-dependent access cost
    /// of Table 3.2 for an entry of `rrs` records. Call it on a clone
    /// taken out of the cache, after the map's lock is released: the
    /// marshalled form runs a real demarshal. `None` means the bytes no
    /// longer decode and the entry should be dropped.
    pub fn load(self, world: &World, rrs: usize) -> Option<Arc<V>> {
        let (form, value) = match self {
            Stored::Bytes(bytes) => (CacheForm::Marshalled, V::demarshal(&bytes).map(Arc::new)),
            Stored::Decoded(value) => (CacheForm::Demarshalled, Some(value)),
        };
        world.charge_ms(world.costs.cache_hit(form, rrs));
        value
    }
}

/// What the HNS cache keeps under a key: a value with its record count,
/// or `None` for a name that was authoritatively absent when cached.
type Cached<V> = Option<(Stored<V>, usize)>;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HnsCacheStats {
    /// Live-entry hits.
    pub hits: u64,
    /// Probes that found nothing cached (absent or decode failure —
    /// TTL expirations are counted in [`HnsCacheStats::expired`]).
    pub misses: u64,
    /// Probes that found an entry whose TTL had lapsed.
    pub expired: u64,
    /// Probes answered by a live negative entry.
    pub negative_hits: u64,
    /// Entries inserted (negatives not counted).
    pub inserts: u64,
    /// Entries inserted by preload.
    pub preloaded: u64,
    /// Expired entries served anyway because the authoritative server
    /// was unreachable (serve-stale).
    pub stale_serves: u64,
}

/// Result of a cost-charged cache probe.
#[derive(Debug)]
pub enum CacheLookup<V = Value> {
    /// A live entry: the (shared) value and its remaining TTL in seconds,
    /// rounded up so a just-inserted entry reports its full TTL.
    Hit {
        /// The cached value; demarshalled hits share the stored allocation.
        value: Arc<V>,
        /// Seconds of validity the entry still has.
        remaining_ttl_secs: u32,
    },
    /// A live negative entry: the name was authoritatively absent within
    /// the negative TTL.
    NegativeHit,
    /// Nothing cached (absent, expired, or undecodable).
    Miss,
}

/// The HNS cache: TTL-tagged, form-aware and negative-caching.
#[derive(Debug)]
pub struct HnsCache<V = Value> {
    mode: CacheMode,
    map: TtlMap<MetaKey, Cached<V>>,
    own: OwnCounters,
}

/// What this cache counts itself, next to the map's counters.
#[derive(Debug, Default)]
struct OwnCounters {
    negative_hits: AtomicU64,
    negative_inserts: AtomicU64,
    preloaded: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl HnsCache {
    /// Creates a cache of wire [`Value`]s in the given mode —
    /// [`HnsCache::of`] for the default decoded form, so that a bare
    /// `HnsCache::new(mode)` needs no annotation.
    pub fn new(mode: CacheMode) -> Self {
        HnsCache::of(mode)
    }
}

impl<V: Cacheable> HnsCache<V> {
    /// Creates a cache in the given mode, of whatever decoded form its
    /// user keeps in it.
    pub fn of(mode: CacheMode) -> Self {
        HnsCache {
            mode,
            map: TtlMap::default(),
            own: OwnCounters::default(),
        }
    }

    /// The storage mode, fixed at construction.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Probes `key`, charging the probe cost and, on a hit, the
    /// form-dependent access cost of Table 3.2. Demarshalled hits share
    /// the stored `Arc` — no value clone; a marshalled entry is
    /// demarshalled after the map's lock is released.
    ///
    /// Counts one of hits / misses / expired / negative_hits per call and
    /// annotates the calling thread's current trace span with that
    /// [`simnet::trace::CacheOutcome`].
    pub fn lookup(&self, world: &World, key: &MetaKey) -> CacheLookup<V> {
        if self.mode == CacheMode::Disabled {
            return CacheLookup::Miss;
        }
        world.charge_ms(world.costs.cache_probe);
        let (outcome, answer) = match self.map.probe(world.now(), key, Clone::clone) {
            Probe::Live { value: None, .. } => {
                bump(&self.own.negative_hits);
                (CacheOutcome::NegativeHit, CacheLookup::NegativeHit)
            }
            Probe::Live {
                value: Some((stored, rrs)),
                remaining_secs: remaining_ttl_secs,
            } => match stored.load(world, rrs) {
                Some(value) => {
                    world.trace(None, TraceKind::Cache, || format!("hit {key:?}"));
                    let hit = CacheLookup::Hit {
                        value,
                        remaining_ttl_secs,
                    };
                    (CacheOutcome::Hit, hit)
                }
                None => {
                    self.map.discard(key);
                    (CacheOutcome::Miss, CacheLookup::Miss)
                }
            },
            Probe::Expired => (CacheOutcome::Expired, CacheLookup::Miss),
            Probe::Absent => (CacheOutcome::Miss, CacheLookup::Miss),
        };
        world.cache_outcome(outcome);
        answer
    }

    /// Looks up `key`, cloning the value out on a hit. Negative hits
    /// report as `None`, like plain misses.
    pub fn get(&self, world: &World, key: &MetaKey) -> Option<V>
    where
        V: Clone,
    {
        match self.lookup(world, key) {
            CacheLookup::Hit { value, .. } => Some((*value).clone()),
            CacheLookup::NegativeHit | CacheLookup::Miss => None,
        }
    }

    /// Probes `key` for an **expired** positive entry — the serve-stale
    /// fallback used when the authoritative meta server is unreachable
    /// (paper §4: meta-naming data changes slowly, so stale data beats
    /// no data). Charges the probe plus the form-dependent hit cost and
    /// counts one `stale_serves` when it finds one. Live entries, negatives,
    /// absent keys, and a disabled cache all return `None` — the normal
    /// lookup path is never bypassed for live data.
    pub fn lookup_stale(&self, world: &World, key: &MetaKey) -> Option<Arc<V>> {
        if self.mode == CacheMode::Disabled {
            return None;
        }
        world.charge_ms(world.costs.cache_probe);
        // `Clone::clone` is the reader: a negative entry clones to
        // `None`, which is how the map is told it is not servable.
        let ((stored, rrs), _stale_for) = self.map.probe_stale(world.now(), key, Clone::clone)?;
        stored.load(world, rrs)
    }

    /// True if a live (positive) entry exists. Charges nothing and moves
    /// no statistics — this is a structural peek, used to decide whether
    /// a speculative batch fetch is worthwhile.
    pub fn contains_live(&self, world: &World, key: &MetaKey) -> bool {
        self.mode != CacheMode::Disabled
            && matches!(
                self.map.peek_live(world.now(), key, Option::is_some),
                Some((true, _))
            )
    }

    /// Inserts a value fetched from the meta store or an NSM; the decoded
    /// form keeps a copy of it.
    pub fn insert(&self, world: &World, key: MetaKey, value: &V, rrs: usize, ttl_secs: u32)
    where
        V: Clone,
    {
        self.keep(world, key, Stored::store(self.mode, value), rrs, ttl_secs);
    }

    /// [`HnsCache::insert`] of a value the caller shares: the decoded
    /// form keeps that allocation, so a later hit hands back the very
    /// value that was fetched.
    pub fn insert_shared(
        &self,
        world: &World,
        key: MetaKey,
        value: &Arc<V>,
        rrs: usize,
        ttl_secs: u32,
    ) {
        self.keep(world, key, Stored::share(self.mode, value), rrs, ttl_secs);
    }

    /// [`HnsCache::insert_shared`] on behalf of the preload path.
    pub fn preload_insert(
        &self,
        world: &World,
        key: MetaKey,
        value: &Arc<V>,
        rrs: usize,
        ttl_secs: u32,
    ) {
        if self.keep(world, key, Stored::share(self.mode, value), rrs, ttl_secs) {
            bump(&self.own.preloaded);
        }
    }

    /// Files what [`Stored`] made of a value; false if that was nothing.
    fn keep(
        &self,
        world: &World,
        key: MetaKey,
        stored: Option<Stored<V>>,
        rrs: usize,
        ttl_secs: u32,
    ) -> bool {
        let Some(stored) = stored else {
            return false;
        };
        self.map
            .insert(world.now(), key, Some((stored, rrs)), ttl_secs);
        true
    }

    /// Remembers that `key` was authoritatively absent, for
    /// [`NEGATIVE_TTL`]. Not counted in [`HnsCacheStats::inserts`].
    pub fn insert_negative(&self, world: &World, key: MetaKey) {
        if self.mode == CacheMode::Disabled {
            return;
        }
        self.map.insert(world.now(), key, None, NEGATIVE_TTL);
        bump(&self.own.negative_inserts);
    }

    /// Drops everything.
    pub fn clear(&self) {
        self.map.clear();
    }

    /// Number of entries (negative and expired entries included).
    pub fn len(&self) -> usize {
        self.map.resident()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics snapshot: a view of the map's counters
    /// ([`simnet::ttl::TtlStats`]) with this cache's own set apart — a
    /// live negative entry is a `hits` probe to the map and a negative
    /// insert an `inserts`, and both are published under their own names.
    pub fn stats(&self) -> HnsCacheStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        // Each correction is bumped after the map counter it corrects and
        // read before it, so a concurrent snapshot cannot see it ahead.
        let negative_hits = load(&self.own.negative_hits);
        let negative_inserts = load(&self.own.negative_inserts);
        let map = self.map.stats();
        HnsCacheStats {
            hits: map.hits.saturating_sub(negative_hits),
            misses: map.absent,
            expired: map.expired,
            negative_hits,
            inserts: map.inserts.saturating_sub(negative_inserts),
            preloaded: load(&self.own.preloaded),
            stale_serves: map.stale_serves,
        }
    }

    /// Exports the current statistics into a metrics registry under
    /// `component` (the hot probe path keeps its own atomics; this
    /// publishes them at snapshot time).
    pub fn export_metrics(&self, metrics: &simnet::obs::MetricsRegistry, component: &str) {
        let s = self.stats();
        self.map.export(
            metrics,
            component,
            &[
                ("hits", s.hits),
                ("misses", s.misses),
                ("expired", s.expired),
                ("negative_hits", s.negative_hits),
                ("inserts", s.inserts),
                ("preloaded", s.preloaded),
                ("entries", self.len() as u64),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> MetaKey {
        MetaKey::meta(&bindns::name::DomainName::parse("ctx.bind-uw.hns").expect("name"))
    }

    fn value() -> Value {
        Value::str("ns=BIND;map=id")
    }

    #[test]
    fn disabled_mode_stores_nothing() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Disabled);
        cache.insert(&world, key(), &value(), 1, 600);
        assert!(cache.get(&world, &key()).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), HnsCacheStats::default());
    }

    #[test]
    fn marshalled_hits_cost_table_3_2() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Marshalled);
        cache.insert(&world, key(), &value(), 1, 600);
        let (got, took, _) = world.measure(|| cache.get(&world, &key()));
        assert_eq!(got, Some(value()));
        // probe (0.05) + marshalled hit for 1 RR (11.11).
        assert!((took.as_ms_f64() - 11.16).abs() < 0.1, "took {took}");
    }

    #[test]
    fn demarshalled_hits_are_nearly_free() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert(&world, key(), &value(), 1, 600);
        let (got, took, _) = world.measure(|| cache.get(&world, &key()));
        assert_eq!(got, Some(value()));
        // probe (0.05) + demarshalled hit (0.83).
        assert!((took.as_ms_f64() - 0.88).abs() < 0.05, "took {took}");
    }

    #[test]
    fn six_record_entries_cost_more() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Marshalled);
        cache.insert(&world, key(), &value(), 6, 600);
        let (_, took, _) = world.measure(|| cache.get(&world, &key()));
        // probe + 26.17 (Table 3.2, 6 RRs marshalled).
        assert!((took.as_ms_f64() - 26.22).abs() < 0.1, "took {took}");
    }

    #[test]
    fn lookup_stale_never_serves_negatives_absent_or_disabled() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        assert!(cache.lookup_stale(&world, &key()).is_none(), "absent");
        cache.insert_negative(&world, key());
        world.charge_ms(f64::from(NEGATIVE_TTL) * 1000.0 + 500.0);
        assert!(
            cache.lookup_stale(&world, &key()).is_none(),
            "an expired negative is not servable data"
        );
        let disabled = HnsCache::new(CacheMode::Disabled);
        assert!(disabled.lookup_stale(&world, &key()).is_none());
        assert_eq!(cache.stats().stale_serves, 0);
    }

    #[test]
    fn lookup_stale_decodes_marshalled_entries() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Marshalled);
        cache.insert(&world, key(), &value(), 1, 1);
        world.charge_ms(1_500.0);
        let (stale, took, _) = world.measure(|| cache.lookup_stale(&world, &key()));
        let stale = stale.expect("stale fallback");
        assert_eq!(*stale, value());
        // probe (0.05) + marshalled hit for 1 RR (11.11): stale hits pay
        // the same access cost a live hit would.
        assert!((took.as_ms_f64() - 11.16).abs() < 0.1, "took {took}");
    }

    /// The typed instance the HNS keeps: a demarshalled hit is the very
    /// record that was inserted, a marshalled one an equal record decoded
    /// afresh, and each is charged what the `Value` instance is.
    #[test]
    fn a_shared_insert_is_handed_back_as_it_was() {
        use crate::meta::MetaRecord;
        let world = simnet::World::paper();
        let record = Arc::new(MetaRecord::NsmName("nsm-hrpcbinding-bind".into()));
        for (mode, shared, hit_ms) in [
            (CacheMode::Demarshalled, true, 0.88),
            (CacheMode::Marshalled, false, 11.16),
        ] {
            let cache = HnsCache::of(mode);
            cache.insert_shared(&world, key(), &record, 1, 600);
            let (hit, took, _) = world.measure(|| cache.lookup(&world, &key()));
            let CacheLookup::Hit { value, .. } = hit else {
                panic!("{mode:?}: expected a hit, got {hit:?}");
            };
            assert_eq!(value, record);
            assert_eq!(Arc::ptr_eq(&value, &record), shared, "{mode:?}");
            assert!(
                (took.as_ms_f64() - hit_ms).abs() < 0.1,
                "{mode:?} took {took}"
            );
        }
        let disabled = HnsCache::of(CacheMode::Disabled);
        disabled.insert_shared(&world, key(), &record, 1, 600);
        assert!(disabled.is_empty());
    }

    #[test]
    fn preload_counts_separately() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Marshalled);
        cache.preload_insert(&world, key(), &Arc::new(value()), 1, 600);
        let stats = cache.stats();
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.preloaded, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        let dn = |s: &str| bindns::name::DomainName::parse(s).expect("name");
        let k1 = MetaKey::meta(&dn("map.bind--hrpcbinding.hns"));
        let k2 = MetaKey::meta(&dn("map.bind--hostaddress.hns"));
        let k3 = MetaKey::meta(&dn("info.nsm-x.hns"));
        let k4 = MetaKey::host_addr("BIND", "fiji");
        cache.insert(&world, k1, &Value::str("a"), 1, 600);
        cache.insert(&world, k2, &Value::str("b"), 1, 600);
        cache.insert(&world, k3, &Value::str("c"), 1, 600);
        cache.insert(&world, k4, &Value::str("d"), 1, 600);
        assert_eq!(cache.get(&world, &k1), Some(Value::str("a")));
        assert_eq!(cache.get(&world, &k2), Some(Value::str("b")));
        assert_eq!(cache.get(&world, &k3), Some(Value::str("c")));
        assert_eq!(cache.get(&world, &k4), Some(Value::str("d")));
    }

    #[test]
    fn lookup_reports_remaining_ttl() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert(&world, key(), &value(), 1, 600);
        match cache.lookup(&world, &key()) {
            CacheLookup::Hit {
                remaining_ttl_secs, ..
            } => assert_eq!(remaining_ttl_secs, 600, "fresh entry reports full TTL"),
            other => panic!("expected hit, got {other:?}"),
        }
        world.charge_ms(250_000.0); // 250 s elapse.
        match cache.lookup(&world, &key()) {
            CacheLookup::Hit {
                remaining_ttl_secs, ..
            } => assert_eq!(remaining_ttl_secs, 350),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn negative_entries_hit_until_their_ttl_lapses() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert_negative(&world, key());
        assert!(matches!(
            cache.lookup(&world, &key()),
            CacheLookup::NegativeHit
        ));
        let stats = cache.stats();
        assert_eq!(stats.negative_hits, 1);
        assert_eq!(stats.inserts, 0, "negatives are not inserts");
        world.charge_ms(f64::from(NEGATIVE_TTL) * 1000.0 + 500.0);
        assert!(matches!(cache.lookup(&world, &key()), CacheLookup::Miss));
    }

    #[test]
    fn negative_hit_charges_only_the_probe() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert_negative(&world, key());
        let (_, took, _) = world.measure(|| cache.lookup(&world, &key()));
        assert!(
            (took.as_ms_f64() - 0.05).abs() < 0.01,
            "negative hit took {took}"
        );
    }

    #[test]
    fn positive_insert_overwrites_negative() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert_negative(&world, key());
        cache.insert(&world, key(), &value(), 1, 600);
        assert_eq!(cache.get(&world, &key()), Some(value()));
    }

    #[test]
    fn contains_live_is_structural() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        assert!(!cache.contains_live(&world, &key()));
        cache.insert(&world, key(), &value(), 1, 1);
        let before = cache.stats();
        let (found, took, _) = world.measure(|| cache.contains_live(&world, &key()));
        assert!(found);
        assert_eq!(took.as_us(), 0, "peek must be cost-free");
        world.charge_ms(1_500.0);
        assert!(!cache.contains_live(&world, &key()), "expired is not live");
        assert_eq!(cache.stats(), before, "no stats moved");
        cache.insert_negative(&world, key());
        assert!(
            !cache.contains_live(&world, &key()),
            "negative is not a live positive"
        );
    }

    /// Each probe moves exactly one counter: a cold probe is a miss, the
    /// probe after the insert a hit, and the one after the TTL an expiry —
    /// not a second miss.
    #[test]
    fn lookup_counts_one_outcome_per_probe() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        assert!(matches!(cache.lookup(&world, &key()), CacheLookup::Miss));
        cache.insert(&world, key(), &value(), 1, 1);
        assert!(matches!(
            cache.lookup(&world, &key()),
            CacheLookup::Hit { .. }
        ));
        world.charge_ms(1_500.0);
        assert!(matches!(cache.lookup(&world, &key()), CacheLookup::Miss));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.expired), (1, 1, 1));
    }

    /// Wire bytes that no longer decode: the entry is dropped and the
    /// probe is a miss, so hits + misses still equals probes.
    #[test]
    fn undecodable_entry_is_dropped_and_counts_as_a_miss() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Marshalled);
        let garbage = Stored::Bytes([0xff_u8; 3].as_slice().into());
        cache
            .map
            .insert(world.now(), key(), Some((garbage, 1)), 600);
        assert!(matches!(cache.lookup(&world, &key()), CacheLookup::Miss));
        assert!(cache.is_empty(), "the undecodable entry is gone");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.expired), (0, 1, 0));
        // The next probe finds nothing at all.
        assert!(matches!(cache.lookup(&world, &key()), CacheLookup::Miss));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn export_metrics_publishes_stats() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert(&world, key(), &value(), 1, 600);
        let _ = cache.get(&world, &key());
        let metrics = simnet::obs::MetricsRegistry::new();
        cache.export_metrics(&metrics, "hns_cache");
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("hns_cache", "hits"), Some(1));
        assert_eq!(snap.counter("hns_cache", "inserts"), Some(1));
        assert_eq!(snap.counter("hns_cache", "entries"), Some(1));
    }
}
