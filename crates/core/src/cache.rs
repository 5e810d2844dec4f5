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
//! expiry map, its retention of expired entries for serve-stale, its
//! probe counters and its arena of key bytes are [`simnet::ttl::TtlMap`],
//! shared with the other caches. On top of it this cache adds what is its
//! own:
//!
//! * **Text keys** ([`KeyParts`]) — a meta record set (mappings 1–5) is
//!   filed under its meta-zone name's canonical text, so the preload path
//!   files exactly the keys the demand-fetch path probes, and a mapping-6
//!   result under [`host_addr_key`]. No name contains [`END`], so the two
//!   kinds never share bytes. An insert copies the key into the map's
//!   arena, so a name is resident only while its entry is; nothing is
//!   interned.
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

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use intern::NameId;
use simnet::costs::Term;
use simnet::obs::trace::{CacheOutcome, TraceKind};
use simnet::obs::CounterSource;
use simnet::time::SimTime;
use simnet::ttl::{arc_share, Key, KeyParts, Probe, TtlMap, END};
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

/// The key of a mapping-6 result, the address a linked host-address NSM
/// gave for host `host` of name service `ns`: `ns ‖ END ‖ host`, in parts.
pub fn host_addr_key<'a>(ns: &'a str, host: &'a str) -> [&'a [u8]; 3] {
    [ns.as_bytes(), &[END], host.as_bytes()]
}

/// How a trace line names a key: `Meta("ctx.a.hns")`, or
/// `HostAddr("BIND", "fiji")` for a [`host_addr_key`].
fn describe(key: &(impl KeyParts + ?Sized)) -> String {
    let bytes = key.with_parts(|parts| parts.concat());
    let text = String::from_utf8_lossy;
    match bytes.iter().position(|&byte| byte == END) {
        None => format!("Meta({:?})", text(&bytes)),
        Some(at) => format!(
            "HostAddr({:?}, {:?})",
            text(&bytes[..at]),
            text(&bytes[at + 1..])
        ),
    }
}

/// A host-address key as a `Copy` pair of interned ids, which `benchmark/`
/// copies out of a reference. It resolves its ids to the parts of the
/// [`host_addr_key`] of the same text, so both find the same entry.
///
/// Pinned by `benchmark/`; goes in ROADMAP item 1(c).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetaKey(NameId, NameId);

impl MetaKey {
    /// Keys a host-address result by `(name service, host name)`.
    pub fn host_addr(ns: &str, host: &str) -> MetaKey {
        MetaKey(intern::intern(ns), intern::intern(host))
    }
}

impl KeyParts for MetaKey {
    fn with_parts<R>(&self, f: impl FnOnce(&Key<'_>) -> R) -> R {
        let (ns, host) = (intern::display(self.0), intern::display(self.1));
        host_addr_key(&ns, &host).with_parts(f)
    }
}

impl std::fmt::Debug for MetaKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&describe(self))
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

/// Bytes a value holds on the heap beyond its own size: what a cache
/// entry keeping it keeps resident besides its slot
/// ([`simnet::ttl::TtlMap::resident_bytes`]).
pub trait HeapBytes {
    /// Heap bytes held, at capacity.
    fn heap_bytes(&self) -> usize;
}

impl HeapBytes for Value {
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        match self {
            Value::Str(s) => s.capacity(),
            Value::Bytes(bytes) => bytes.capacity(),
            Value::List(items) => {
                items.capacity() * size_of::<Value>()
                    + items.iter().map(Value::heap_bytes).sum::<usize>()
            }
            Value::Struct(fields) => {
                let name = |name: &Cow<'static, str>| match name {
                    Cow::Owned(name) => name.capacity(),
                    Cow::Borrowed(_) => 0,
                };
                fields.capacity() * size_of::<(Cow<'static, str>, Value)>()
                    + fields
                        .iter()
                        .map(|(n, value)| name(n) + value.heap_bytes())
                        .sum::<usize>()
            }
            Value::Opt(Some(inner)) => size_of::<Value>() + inner.heap_bytes(),
            Value::Void
            | Value::Bool(_)
            | Value::U32(_)
            | Value::I32(_)
            | Value::U64(_)
            | Value::Opt(None) => 0,
        }
    }
}

impl HeapBytes for hrpc::HrpcBinding {
    fn heap_bytes(&self) -> usize {
        0
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

/// The stored form, as this holder's share of the `Arc` it is kept in.
impl<V: HeapBytes> HeapBytes for Stored<V> {
    fn heap_bytes(&self) -> usize {
        match self {
            Stored::Bytes(bytes) => arc_share(bytes),
            Stored::Decoded(value) => {
                arc_share(value) + value.heap_bytes() / Arc::strong_count(value)
            }
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
        world.charge(Term::CacheHit { form, rrs });
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
    /// A live entry: the (shared) value and the instant the entry expires
    /// at — the one it was filed under, computed where its TTL arrived,
    /// which a composed entry built on it may not outlive.
    Hit {
        /// The cached value; demarshalled hits share the stored allocation.
        value: Arc<V>,
        /// When the entry expires; always after the probe's `now`.
        expires_at: SimTime,
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
    map: TtlMap<Cached<V>>,
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
    /// [`simnet::obs::trace::CacheOutcome`].
    pub fn lookup(&self, world: &World, key: &(impl KeyParts + ?Sized)) -> CacheLookup<V> {
        if self.mode == CacheMode::Disabled {
            return CacheLookup::Miss;
        }
        world.charge(Term::CacheProbe);
        let probe = key.with_parts(|parts| self.map.probe(world.now(), parts, Clone::clone));
        let (outcome, answer) = match probe {
            Probe::Live { value: None, .. } => {
                bump(&self.own.negative_hits);
                (CacheOutcome::NegativeHit, CacheLookup::NegativeHit)
            }
            Probe::Live {
                value: Some((stored, rrs)),
                expires_at,
            } => match stored.load(world, rrs) {
                Some(value) => {
                    world.trace(None, TraceKind::Cache, || format!("hit {}", describe(key)));
                    (CacheOutcome::Hit, CacheLookup::Hit { value, expires_at })
                }
                None => {
                    key.with_parts(|parts| self.map.discard(parts));
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
    pub fn get(&self, world: &World, key: &(impl KeyParts + ?Sized)) -> Option<V>
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
    /// no data) — and returns it with the instant it lapsed at, which no
    /// composed entry can be filed under. Charges the probe plus the
    /// form-dependent hit cost and counts one `stale_serves` when it finds
    /// one. Live entries, negatives, absent keys, and a disabled cache all
    /// return `None` — the normal lookup path is never bypassed for live
    /// data.
    pub fn lookup_stale(
        &self,
        world: &World,
        key: &(impl KeyParts + ?Sized),
    ) -> Option<(Arc<V>, SimTime)> {
        if self.mode == CacheMode::Disabled {
            return None;
        }
        world.charge(Term::CacheProbe);
        // `Clone::clone` is the reader: a negative entry clones to
        // `None`, which is how the map is told it is not servable.
        let ((stored, rrs), lapsed) =
            key.with_parts(|parts| self.map.probe_stale(world.now(), parts, Clone::clone))?;
        Some((stored.load(world, rrs)?, lapsed))
    }

    /// True if a live (positive) entry exists. Charges nothing and moves
    /// no statistics — this is a structural peek, used to decide whether
    /// a speculative batch fetch is worthwhile.
    pub fn contains_live(&self, world: &World, key: &(impl KeyParts + ?Sized)) -> bool {
        self.mode != CacheMode::Disabled
            && matches!(
                key.with_parts(|parts| self.map.peek_live(world.now(), parts, Option::is_some)),
                Some(true)
            )
    }

    /// Inserts a value fetched from the meta store or an NSM, valid for
    /// `ttl_secs` from now; the decoded form keeps a copy of it.
    pub fn insert(&self, world: &World, key: impl KeyParts, value: &V, rrs: usize, ttl_secs: u32)
    where
        V: Clone,
    {
        let expires_at = world.now().after_secs(ttl_secs);
        self.keep(world, key, Stored::store(self.mode, value), rrs, expires_at);
    }

    /// [`HnsCache::insert`] of a value the caller shares, to expire at
    /// `expires_at`: the decoded form keeps that allocation, so a later
    /// hit hands back the very value that was fetched.
    pub fn insert_shared(
        &self,
        world: &World,
        key: impl KeyParts,
        value: &Arc<V>,
        rrs: usize,
        expires_at: SimTime,
    ) {
        self.keep(world, key, Stored::share(self.mode, value), rrs, expires_at);
    }

    /// [`HnsCache::insert_shared`] on behalf of the preload path.
    pub fn preload_insert(
        &self,
        world: &World,
        key: impl KeyParts,
        value: &Arc<V>,
        rrs: usize,
        expires_at: SimTime,
    ) {
        if self.keep(world, key, Stored::share(self.mode, value), rrs, expires_at) {
            bump(&self.own.preloaded);
        }
    }

    /// Files what [`Stored`] made of a value; false if that was nothing.
    fn keep(
        &self,
        world: &World,
        key: impl KeyParts,
        stored: Option<Stored<V>>,
        rrs: usize,
        expires_at: SimTime,
    ) -> bool {
        let Some(stored) = stored else {
            return false;
        };
        key.with_parts(|parts| {
            self.map
                .insert(world.now(), parts, Some((stored, rrs)), expires_at)
        });
        true
    }

    /// Remembers that `key` was authoritatively absent, for
    /// [`NEGATIVE_TTL`]. Not counted in [`HnsCacheStats::inserts`].
    pub fn insert_negative(&self, world: &World, key: impl KeyParts) {
        if self.mode == CacheMode::Disabled {
            return;
        }
        let (now, expires_at) = (world.now(), world.now().after_secs(NEGATIVE_TTL));
        key.with_parts(|parts| self.map.insert(now, parts, None, expires_at));
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

    /// Bytes the cache holds ([`TtlMap::resident_bytes`]): slab, index
    /// and key arena at capacity — each key's text among them — and each
    /// entry's stored form, a shared one as its share. Not exported as a
    /// metric.
    pub fn resident_bytes(&self) -> usize
    where
        V: HeapBytes,
    {
        self.map
            .resident_bytes(|cached| cached.as_ref().map_or(0, |(stored, _)| stored.heap_bytes()))
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
}

/// Every snapshot reads the statistics. A disabled cache counts nothing,
/// so it has no rows ([`TtlMap::export`]).
impl<V: Cacheable + Send + Sync> CounterSource for HnsCache<V> {
    fn rows(&self, row: &mut dyn FnMut(&'static str, u64)) {
        let s = self.stats();
        let view = [
            ("hits", s.hits),
            ("misses", s.misses),
            ("expired", s.expired),
            ("negative_hits", s.negative_hits),
            ("inserts", s.inserts),
            ("preloaded", s.preloaded),
            ("entries", self.len() as u64),
        ];
        self.map.export(&view, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimDuration;

    fn key() -> &'static str {
        "ctx.bind-uw.hns"
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
        let (got, ledger) = world.measure(|| cache.get(&world, &key()));
        let took = ledger.total();
        assert_eq!(got, Some(value()));
        // probe (0.05) + marshalled hit for 1 RR (11.11).
        assert!((took.as_ms_f64() - 11.16).abs() < 0.1, "took {took}");
    }

    #[test]
    fn demarshalled_hits_are_nearly_free() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert(&world, key(), &value(), 1, 600);
        let (got, ledger) = world.measure(|| cache.get(&world, &key()));
        let took = ledger.total();
        assert_eq!(got, Some(value()));
        // probe (0.05) + demarshalled hit (0.83).
        assert!((took.as_ms_f64() - 0.88).abs() < 0.05, "took {took}");
    }

    #[test]
    fn six_record_entries_cost_more() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Marshalled);
        cache.insert(&world, key(), &value(), 6, 600);
        let (_, ledger) = world.measure(|| cache.get(&world, &key()));
        let took = ledger.total();
        // probe + 26.17 (Table 3.2, 6 RRs marshalled).
        assert!((took.as_ms_f64() - 26.22).abs() < 0.1, "took {took}");
    }

    #[test]
    fn lookup_stale_never_serves_negatives_absent_or_disabled() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        assert!(cache.lookup_stale(&world, &key()).is_none(), "absent");
        cache.insert_negative(&world, key());
        world.wait(SimDuration::from_ms(u64::from(NEGATIVE_TTL) * 1000 + 500));
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
        world.wait(SimDuration::from_ms(1_500));
        let (stale, ledger) = world.measure(|| cache.lookup_stale(&world, &key()));
        let took = ledger.total();
        let (stale, lapsed) = stale.expect("stale fallback");
        assert_eq!(*stale, value());
        assert_eq!(
            lapsed,
            SimTime::ZERO.after_secs(1),
            "the instant it lapsed at"
        );
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
            cache.insert_shared(&world, key(), &record, 1, world.now().after_secs(600));
            let (hit, ledger) = world.measure(|| cache.lookup(&world, &key()));
            let took = ledger.total();
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
        disabled.insert_shared(&world, key(), &record, 1, world.now().after_secs(600));
        assert!(disabled.is_empty());
    }

    #[test]
    fn preload_counts_separately() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Marshalled);
        let expires_at = world.now().after_secs(600);
        cache.preload_insert(&world, key(), &Arc::new(value()), 1, expires_at);
        let stats = cache.stats();
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.preloaded, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        let (k1, k2, k3) = (
            "map.bind--hrpcbinding.hns",
            "map.bind--hostaddress.hns",
            "info.nsm-x.hns",
        );
        let k4 = host_addr_key("BIND", "fiji");
        cache.insert(&world, k1, &Value::str("a"), 1, 600);
        cache.insert(&world, k2, &Value::str("b"), 1, 600);
        cache.insert(&world, k3, &Value::str("c"), 1, 600);
        cache.insert(&world, k4, &Value::str("d"), 1, 600);
        assert_eq!(cache.get(&world, k1), Some(Value::str("a")));
        assert_eq!(cache.get(&world, k2), Some(Value::str("b")));
        assert_eq!(cache.get(&world, k3), Some(Value::str("c")));
        assert_eq!(cache.get(&world, &k4), Some(Value::str("d")));
    }

    /// Meta names and host-address keys whose texts run together are
    /// different bytes and different entries: no name holds `END`.
    #[test]
    fn keys_of_the_two_kinds_never_share_bytes() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        let names = ["BINDfiji", "BIND.fiji", ""];
        let pairs = [
            host_addr_key("BIND", "fiji"),
            host_addr_key("BINDf", "iji"),
            host_addr_key("", "BINDfiji"),
            host_addr_key("BINDfiji", ""),
        ];
        let keys: Vec<Vec<u8>> = names
            .iter()
            .map(|name| name.as_bytes().to_vec())
            .chain(pairs.iter().map(|pair| pair.concat()))
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        for (i, name) in (0u32..).zip(names) {
            cache.insert(&world, name, &Value::U32(i), 1, 600);
        }
        for (i, pair) in (10u32..).zip(pairs) {
            cache.insert(&world, pair, &Value::U32(i), 1, 600);
        }
        assert_eq!(cache.len(), keys.len());
        for (i, name) in (0u32..).zip(names) {
            assert_eq!(cache.get(&world, name), Some(Value::U32(i)));
        }
        for (i, pair) in (10u32..).zip(&pairs) {
            assert_eq!(cache.get(&world, pair), Some(Value::U32(i)));
        }
    }

    /// The pinned key resolves its ids to the text key's parts: each
    /// finds the entry the other filed, and a trace line names either as
    /// it names the text.
    #[test]
    fn a_pinned_key_and_its_text_find_one_entry() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        let pinned = MetaKey::host_addr("BIND", "fiji");
        cache.insert(&world, host_addr_key("BIND", "fiji"), &value(), 1, 600);
        assert_eq!(cache.get(&world, &pinned), Some(value()));
        cache.insert(&world, pinned, &Value::U32(1), 1, 600);
        assert_eq!(
            cache.get(&world, &host_addr_key("BIND", "fiji")),
            Some(Value::U32(1))
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(format!("{pinned:?}"), r#"HostAddr("BIND", "fiji")"#);
        assert_eq!(
            describe(&host_addr_key("BIND", "fiji")),
            r#"HostAddr("BIND", "fiji")"#
        );
        assert_eq!(describe(key()), r#"Meta("ctx.bind-uw.hns")"#);
    }

    /// A hit reports the instant its entry was filed under, however much
    /// of it is left: to the microsecond, with no rounding.
    #[test]
    fn lookup_reports_the_filed_instant() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        world.wait(SimDuration::from_us(250));
        let filed = world.now().after_secs(600);
        cache.insert(&world, key(), &value(), 1, 600);
        let shared = host_addr_key("BIND", "fiji");
        cache.insert_shared(&world, shared, &Arc::new(value()), 1, filed);
        fn expires_at(cache: &HnsCache, world: &World, key: impl KeyParts) -> SimTime {
            match cache.lookup(world, &key) {
                CacheLookup::Hit { expires_at, .. } => expires_at,
                other => panic!("expected hit, got {other:?}"),
            }
        }
        for elapse_ms in [0, 250_000, 349_000] {
            world.wait(SimDuration::from_ms(elapse_ms));
            assert_eq!(expires_at(&cache, &world, key()), filed);
            assert_eq!(expires_at(&cache, &world, shared), filed);
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
        world.wait(SimDuration::from_ms(u64::from(NEGATIVE_TTL) * 1000 + 500));
        assert!(matches!(cache.lookup(&world, &key()), CacheLookup::Miss));
    }

    #[test]
    fn negative_hit_charges_only_the_probe() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert_negative(&world, key());
        let (_, ledger) = world.measure(|| cache.lookup(&world, &key()));
        let took = ledger.total();
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
        let (found, ledger) = world.measure(|| cache.contains_live(&world, &key()));
        let took = ledger.total();
        assert!(found);
        assert_eq!(took.as_us(), 0, "peek must be cost-free");
        world.wait(SimDuration::from_ms(1_500));
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
        world.wait(SimDuration::from_ms(1_500));
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
        key().with_parts(|parts| {
            cache.map.insert(
                world.now(),
                parts,
                Some((garbage, 1)),
                world.now().after_secs(600),
            )
        });
        assert!(matches!(cache.lookup(&world, &key()), CacheLookup::Miss));
        assert!(cache.is_empty(), "the undecodable entry is gone");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.expired), (0, 1, 0));
        // The next probe finds nothing at all.
        assert!(matches!(cache.lookup(&world, &key()), CacheLookup::Miss));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn every_snapshot_reads_the_stats_of_an_enabled_cache() {
        let world = simnet::World::paper();
        let metrics = world.metrics();
        let cache = Arc::new(HnsCache::new(CacheMode::Demarshalled));
        let off = Arc::new(HnsCache::new(CacheMode::Disabled));
        metrics.register("hns_cache", &cache);
        metrics.register("hns_cache", &off);
        cache.insert(&world, key(), &value(), 1, 600);
        let _ = cache.get(&world, &key());
        let _ = off.get(&world, &key());
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("hns_cache", "hits"), Some(1));
        assert_eq!(snap.counter("hns_cache", "misses"), Some(0));
        assert_eq!(snap.counter("hns_cache", "inserts"), Some(1));
        assert_eq!(snap.counter("hns_cache", "entries"), Some(1));
    }
}
