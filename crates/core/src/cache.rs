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
//! Entries are TTL-tagged, inheriting BIND's invalidation regime.
//!
//! Beyond the paper's design, this cache is built for a multi-threaded
//! HNS:
//!
//! * **Lock striping** — entries live in [`SHARDS`] independently-locked
//!   shards, so concurrent lookups on different keys never contend.
//! * **Arc-shared hits** — demarshalled entries are stored as
//!   `Arc<Value>` and hits hand back a clone of the `Arc`, not of the
//!   value.
//! * **Miss coalescing** — [`HnsCache::begin_fetch`] is a singleflight
//!   gate: of K threads missing on the same key, one becomes the
//!   [`FetchTicket::Leader`] and performs the remote fetch while the
//!   others block until it finishes, then re-probe the cache.
//! * **Negative caching** — a `NotFound` can be remembered via
//!   [`HnsCache::insert_negative`] for a (short, separate) TTL, so
//!   repeated lookups of absent names do not hammer the meta server.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

use intern::NameId;
use parking_lot::Mutex;
use simnet::time::{SimDuration, SimTime};
use simnet::world::World;
use simnet::CacheForm;
use wire::Value;

/// Number of lock-striped shards.
pub const SHARDS: usize = 16;

/// Default TTL for negative entries, seconds. Deliberately much shorter
/// than the positive [`crate::meta::META_TTL`]: absence is the cheapest
/// fact to recompute and the most dangerous to over-remember.
pub const NEGATIVE_TTL: u32 = 30;

/// Whether and how the HNS caches meta information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// No caching (the paper's column-A/no-cache interpretation).
    Disabled,
    /// Cache in wire form; every hit pays a generated demarshal.
    Marshalled,
    /// Cache decoded values; hits are nearly free.
    Demarshalled,
}

impl CacheMode {
    fn to_u8(self) -> u8 {
        match self {
            CacheMode::Disabled => 0,
            CacheMode::Marshalled => 1,
            CacheMode::Demarshalled => 2,
        }
    }

    fn from_u8(v: u8) -> CacheMode {
        match v {
            1 => CacheMode::Marshalled,
            2 => CacheMode::Demarshalled,
            _ => CacheMode::Disabled,
        }
    }
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
        MetaKey::Meta(name.interned())
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

#[derive(Debug)]
enum Stored {
    Bytes(Vec<u8>),
    Decoded(Arc<Value>),
    /// The name was authoritatively absent when cached.
    Negative,
}

#[derive(Debug)]
struct Entry {
    stored: Stored,
    rrs: usize,
    expires_at: SimTime,
}

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
    /// Fetches avoided by coalescing onto another thread's in-flight
    /// fetch for the same key.
    pub coalesced: u64,
    /// Entries inserted (negatives not counted).
    pub inserts: u64,
    /// Entries inserted by preload.
    pub preloaded: u64,
    /// Expired entries served anyway because the authoritative server
    /// was unreachable (serve-stale).
    pub stale_serves: u64,
}

#[derive(Default)]
struct AtomicStats {
    hits: AtomicU64,
    misses: AtomicU64,
    expired: AtomicU64,
    negative_hits: AtomicU64,
    coalesced: AtomicU64,
    inserts: AtomicU64,
    preloaded: AtomicU64,
    stale_serves: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> HnsCacheStats {
        HnsCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            negative_hits: self.negative_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            preloaded: self.preloaded.load(Ordering::Relaxed),
            stale_serves: self.stale_serves.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.expired.store(0, Ordering::Relaxed);
        self.negative_hits.store(0, Ordering::Relaxed);
        self.coalesced.store(0, Ordering::Relaxed);
        self.inserts.store(0, Ordering::Relaxed);
        self.preloaded.store(0, Ordering::Relaxed);
        self.stale_serves.store(0, Ordering::Relaxed);
    }
}

/// One in-flight fetch that other threads can wait on.
///
/// Built on `std::sync` primitives (not `parking_lot`) because waiters
/// must tolerate a leader that panicked mid-fetch: the guard's `Drop`
/// still completes the flight, and lock poisoning is explicitly absorbed.
struct Flight {
    done: StdMutex<bool>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            done: StdMutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = self.cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn complete(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        *done = true;
        drop(done);
        self.cv.notify_all();
    }
}

struct Shard {
    entries: Mutex<HashMap<MetaKey, Entry>>,
    in_flight: Mutex<HashMap<MetaKey, Arc<Flight>>>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            entries: Mutex::new(HashMap::new()),
            in_flight: Mutex::new(HashMap::new()),
        }
    }
}

/// Result of a cost-charged cache probe.
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// A live entry: the (shared) value and its remaining TTL in seconds,
    /// rounded up so a just-inserted entry reports its full TTL.
    Hit {
        /// The cached value; demarshalled hits share the stored allocation.
        value: Arc<Value>,
        /// Seconds of validity the entry still has.
        remaining_ttl_secs: u32,
    },
    /// A live negative entry: the name was authoritatively absent within
    /// the negative TTL.
    NegativeHit,
    /// Nothing cached (absent, expired, or undecodable).
    Miss,
}

/// Internal probe result; plain misses are counted by the caller.
enum Probe {
    Hit {
        value: Arc<Value>,
        remaining_ttl_secs: u32,
    },
    Negative,
    Miss {
        /// An entry existed but its TTL had lapsed (already counted).
        expired: bool,
    },
}

/// Outcome of [`HnsCache::lookup_or_fetch`]: either the cache (or a
/// coalesced leader's fetch) answered, or this caller owns the fetch.
pub enum LookupOrFetch<'a> {
    /// A live entry: the (shared) value and its remaining TTL, seconds.
    Hit {
        /// The cached value; demarshalled hits share the stored allocation.
        value: Arc<Value>,
        /// Seconds of validity the entry still has.
        remaining_ttl_secs: u32,
    },
    /// A live negative entry: the name is authoritatively absent.
    NegativeHit,
    /// This caller must fetch; keep the guard alive until the insert.
    Lead(FlightGuard<'a>),
}

/// An expired positive entry returned by [`HnsCache::lookup_stale`].
#[derive(Debug, Clone)]
pub struct StaleEntry {
    /// The cached value; demarshalled entries share the stored `Arc`.
    pub value: Arc<Value>,
    /// Record count of the entry.
    pub rrs: usize,
    /// Whole seconds since the entry's TTL lapsed.
    pub stale_for_secs: u32,
}

/// Outcome of [`HnsCache::begin_fetch`] after a miss.
pub enum FetchTicket<'a> {
    /// This caller owns the fetch; the guard must stay alive until the
    /// fetched value has been inserted (or the fetch abandoned) — dropping
    /// it releases every coalesced waiter.
    Leader(FlightGuard<'a>),
    /// Another thread was already fetching this key; its fetch has now
    /// completed (successfully or not). Re-probe the cache.
    Coalesced,
}

/// RAII token held by the leader of an in-flight fetch. On drop — normal
/// return, error, or panic — the flight is deregistered and all coalesced
/// waiters are released.
pub struct FlightGuard<'a> {
    cache: &'a HnsCache,
    key: MetaKey,
    /// `None` for the ungated lead a disabled cache hands out.
    flight: Option<Arc<Flight>>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if let Some(flight) = &self.flight {
            self.cache
                .shard(&self.key)
                .in_flight
                .lock()
                .remove(&self.key);
            flight.complete();
        }
    }
}

/// The HNS cache: lock-striped, miss-coalescing, TTL-tagged.
pub struct HnsCache {
    mode: AtomicU8,
    negative_ttl: AtomicU32,
    shards: Vec<Shard>,
    stats: AtomicStats,
}

impl HnsCache {
    /// Creates a cache in the given mode.
    pub fn new(mode: CacheMode) -> Self {
        HnsCache {
            mode: AtomicU8::new(mode.to_u8()),
            negative_ttl: AtomicU32::new(NEGATIVE_TTL),
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
            stats: AtomicStats::default(),
        }
    }

    /// Current mode.
    pub fn mode(&self) -> CacheMode {
        CacheMode::from_u8(self.mode.load(Ordering::Relaxed))
    }

    /// Switches mode, clearing the cache (entries are stored per-form).
    pub fn set_mode(&self, mode: CacheMode) {
        self.mode.store(mode.to_u8(), Ordering::Relaxed);
        self.clear();
    }

    /// TTL applied to negative entries, seconds.
    pub fn negative_ttl(&self) -> u32 {
        self.negative_ttl.load(Ordering::Relaxed)
    }

    /// Sets the TTL applied to subsequently inserted negative entries.
    pub fn set_negative_ttl(&self, ttl_secs: u32) {
        self.negative_ttl.store(ttl_secs, Ordering::Relaxed);
    }

    fn shard(&self, key: &MetaKey) -> &Shard {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    fn remaining_secs(expires_at: SimTime, now: SimTime) -> u32 {
        let us = expires_at.saturating_since(now).as_us();
        us.div_ceil(1_000_000) as u32
    }

    /// Probes `key`, charging the probe cost and, on a hit, the
    /// form-dependent access cost of Table 3.2. Demarshalled hits share
    /// the stored `Arc` — no value clone.
    ///
    /// Counts one of hits / misses / expired / negative_hits per call.
    /// Callers that follow a miss through the singleflight gate should
    /// prefer [`HnsCache::lookup_or_fetch`], whose accounting counts
    /// each logical operation exactly once even when it coalesces.
    pub fn lookup(&self, world: &World, key: &MetaKey) -> CacheLookup {
        if self.mode() == CacheMode::Disabled {
            return CacheLookup::Miss;
        }
        match self.probe(world, key, true) {
            Probe::Hit {
                value,
                remaining_ttl_secs,
            } => CacheLookup::Hit {
                value,
                remaining_ttl_secs,
            },
            Probe::Negative => CacheLookup::NegativeHit,
            Probe::Miss { expired } => {
                if !expired {
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                }
                CacheLookup::Miss
            }
        }
    }

    /// The shared probe. Counts hits / negative_hits / expired when
    /// `record_stats` is set; never counts plain misses (the caller
    /// decides whether the miss is this operation's outcome or a
    /// re-probe after a coalesced wait).
    fn probe(&self, world: &World, key: &MetaKey, record_stats: bool) -> Probe {
        world.charge_ms(world.costs.cache_probe);
        let now = world.now();
        let mut entries = self.shard(key).entries.lock();
        match entries.get(key) {
            Some(entry) if entry.expires_at > now => {
                let remaining_ttl_secs = Self::remaining_secs(entry.expires_at, now);
                let value = match &entry.stored {
                    Stored::Bytes(bytes) => {
                        // The real demarshal, plus its calibrated cost.
                        world.charge_ms(world.costs.cache_hit(CacheForm::Marshalled, entry.rrs));
                        match wire::xdr::decode(bytes) {
                            Ok(v) => Arc::new(v),
                            Err(_) => {
                                entries.remove(key);
                                return Probe::Miss { expired: false };
                            }
                        }
                    }
                    Stored::Decoded(v) => {
                        world.charge_ms(world.costs.cache_hit(CacheForm::Demarshalled, entry.rrs));
                        Arc::clone(v)
                    }
                    Stored::Negative => {
                        if record_stats {
                            self.stats.negative_hits.fetch_add(1, Ordering::Relaxed);
                        }
                        return Probe::Negative;
                    }
                };
                if record_stats {
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    world.trace(None, simnet::trace::TraceKind::Cache, || {
                        format!("hit {key:?}")
                    });
                }
                Probe::Hit {
                    value,
                    remaining_ttl_secs,
                }
            }
            Some(_) => {
                // The entry is dead for normal reads but deliberately
                // *retained*: it is the serve-stale fallback when the
                // authoritative meta server is unreachable (paper §4 —
                // meta-naming data changes slowly, so stale data beats
                // no data). A successful refetch overwrites it in place.
                if record_stats {
                    self.stats.expired.fetch_add(1, Ordering::Relaxed);
                }
                Probe::Miss { expired: true }
            }
            None => Probe::Miss { expired: false },
        }
    }

    /// Probes `key` and, on a miss, enters the singleflight gate —
    /// looping through coalesced waits until the operation resolves as
    /// a hit, a negative hit, or leadership of the fetch.
    ///
    /// Accounting contract (the `HnsCacheStats` double-count fix): each
    /// logical operation moves **exactly one** of `hits`, `misses`,
    /// `expired`, `negative_hits`, or `coalesced`. In particular a
    /// coalesced waiter counts only `coalesced` — its initial probe is
    /// not a `miss` (it never fetched) and its post-wait re-probe is
    /// not a `hit` (the leader's fetch, not the cache, answered it).
    ///
    /// Also annotates the calling thread's current trace span with the
    /// operation's [`simnet::trace::CacheOutcome`].
    pub fn lookup_or_fetch(&self, world: &World, key: &MetaKey) -> LookupOrFetch<'_> {
        use simnet::trace::CacheOutcome;
        let mut waited = false;
        loop {
            if self.mode() == CacheMode::Disabled {
                // A disabled cache stores nothing for a waiter to find,
                // so a gate would only queue same-key fetches behind
                // each other (and allocate a flight per mapping of every
                // cold walk): every caller leads, ungated.
                if !waited {
                    world.cache_outcome(CacheOutcome::Miss);
                }
                return LookupOrFetch::Lead(FlightGuard {
                    cache: self,
                    key: *key,
                    flight: None,
                });
            }
            match self.probe(world, key, !waited) {
                Probe::Hit {
                    value,
                    remaining_ttl_secs,
                } => {
                    if !waited {
                        world.cache_outcome(CacheOutcome::Hit);
                    }
                    return LookupOrFetch::Hit {
                        value,
                        remaining_ttl_secs,
                    };
                }
                Probe::Negative => {
                    if !waited {
                        world.cache_outcome(CacheOutcome::NegativeHit);
                    }
                    return LookupOrFetch::NegativeHit;
                }
                Probe::Miss { expired } => match self.begin_fetch(key) {
                    FetchTicket::Leader(guard) => {
                        // An expiry was already counted by the probe; a
                        // clean miss is counted here, at the moment this
                        // operation commits to fetching.
                        if !expired {
                            self.stats.misses.fetch_add(1, Ordering::Relaxed);
                        }
                        if !waited {
                            world.cache_outcome(if expired {
                                CacheOutcome::Expired
                            } else {
                                CacheOutcome::Miss
                            });
                        }
                        return LookupOrFetch::Lead(guard);
                    }
                    FetchTicket::Coalesced => {
                        if !waited {
                            world.cache_outcome(CacheOutcome::Coalesced);
                        }
                        waited = true;
                    }
                },
            }
        }
    }

    /// Looks up `key`, cloning the value out on a hit. Negative hits
    /// report as `None`, like plain misses.
    pub fn get(&self, world: &World, key: &MetaKey) -> Option<Value> {
        match self.lookup(world, key) {
            CacheLookup::Hit { value, .. } => Some((*value).clone()),
            CacheLookup::NegativeHit | CacheLookup::Miss => None,
        }
    }

    /// Probes `key` for an **expired** positive entry — the serve-stale
    /// fallback used when the authoritative meta server is unreachable
    /// (paper §4: meta-naming data changes slowly, so stale data beats
    /// no data). Charges the probe plus the form-dependent hit cost and
    /// counts one `stale_serves` on success. Live entries, negatives,
    /// absent keys, and a disabled cache all return `None` — the normal
    /// lookup path is never bypassed for live data.
    pub fn lookup_stale(&self, world: &World, key: &MetaKey) -> Option<StaleEntry> {
        if self.mode() == CacheMode::Disabled {
            return None;
        }
        world.charge_ms(world.costs.cache_probe);
        let now = world.now();
        let entries = self.shard(key).entries.lock();
        let entry = entries.get(key)?;
        if entry.expires_at > now {
            return None;
        }
        let value = match &entry.stored {
            Stored::Bytes(bytes) => {
                world.charge_ms(world.costs.cache_hit(CacheForm::Marshalled, entry.rrs));
                Arc::new(wire::xdr::decode(bytes).ok()?)
            }
            Stored::Decoded(v) => {
                world.charge_ms(world.costs.cache_hit(CacheForm::Demarshalled, entry.rrs));
                Arc::clone(v)
            }
            Stored::Negative => return None,
        };
        let stale_for_secs = (now.saturating_since(entry.expires_at).as_us() / 1_000_000) as u32;
        self.stats.stale_serves.fetch_add(1, Ordering::Relaxed);
        Some(StaleEntry {
            value,
            rrs: entry.rrs,
            stale_for_secs,
        })
    }

    /// True if a live (positive) entry exists. Charges nothing and moves
    /// no statistics — this is a structural peek, used to decide whether
    /// a speculative batch fetch is worthwhile.
    pub fn contains_live(&self, world: &World, key: &MetaKey) -> bool {
        if self.mode() == CacheMode::Disabled {
            return false;
        }
        let now = world.now();
        let entries = self.shard(key).entries.lock();
        matches!(
            entries.get(key),
            Some(entry) if entry.expires_at > now && !matches!(entry.stored, Stored::Negative)
        )
    }

    /// Enters the singleflight gate for `key` after a miss.
    ///
    /// Returns [`FetchTicket::Leader`] if this caller should perform the
    /// fetch (keep the guard alive until after the insert), or
    /// [`FetchTicket::Coalesced`] once another thread's in-flight fetch
    /// for the same key has finished — in which case re-probe the cache
    /// and, if it is still a miss, call `begin_fetch` again.
    pub fn begin_fetch(&self, key: &MetaKey) -> FetchTicket<'_> {
        let shard = self.shard(key);
        let existing = {
            let mut flights = shard.in_flight.lock();
            match flights.get(key) {
                Some(flight) => Some(Arc::clone(flight)),
                None => {
                    let flight = Arc::new(Flight::new());
                    flights.insert(*key, Arc::clone(&flight));
                    drop(flights);
                    return FetchTicket::Leader(FlightGuard {
                        cache: self,
                        key: *key,
                        flight: Some(flight),
                    });
                }
            }
        };
        let flight = existing.expect("checked above");
        self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
        flight.wait();
        FetchTicket::Coalesced
    }

    /// Inserts a value fetched from the meta store or an NSM.
    pub fn insert(&self, world: &World, key: MetaKey, value: &Value, rrs: usize, ttl_secs: u32) {
        self.insert_inner(world, key, value, rrs, ttl_secs, false);
    }

    fn insert_inner(
        &self,
        world: &World,
        key: MetaKey,
        value: &Value,
        rrs: usize,
        ttl_secs: u32,
        preload: bool,
    ) {
        let mode = self.mode();
        if mode == CacheMode::Disabled {
            return;
        }
        let stored = match mode {
            CacheMode::Marshalled => match wire::xdr::encode(value) {
                Ok(bytes) => Stored::Bytes(bytes),
                Err(_) => return,
            },
            CacheMode::Demarshalled => Stored::Decoded(Arc::new(value.clone())),
            CacheMode::Disabled => unreachable!("checked above"),
        };
        let expires_at = world.now() + SimDuration::from_ms(u64::from(ttl_secs) * 1000);
        self.shard(&key).entries.lock().insert(
            key,
            Entry {
                stored,
                rrs,
                expires_at,
            },
        );
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        if preload {
            self.stats.preloaded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Remembers that `key` was authoritatively absent, for the negative
    /// TTL. Not counted in [`HnsCacheStats::inserts`].
    pub fn insert_negative(&self, world: &World, key: MetaKey) {
        if self.mode() == CacheMode::Disabled {
            return;
        }
        let ttl = u64::from(self.negative_ttl());
        let expires_at = world.now() + SimDuration::from_ms(ttl * 1000);
        self.shard(&key).entries.lock().insert(
            key,
            Entry {
                stored: Stored::Negative,
                rrs: 0,
                expires_at,
            },
        );
    }

    /// Inserts an entry on behalf of the preload path.
    pub fn preload_insert(
        &self,
        world: &World,
        key: MetaKey,
        value: &Value,
        rrs: usize,
        ttl_secs: u32,
    ) {
        self.insert_inner(world, key, value, rrs, ttl_secs, true);
    }

    /// Drops everything.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.entries.lock().clear();
        }
    }

    /// Number of entries (negative entries included).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.entries.lock().len()).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> HnsCacheStats {
        self.stats.snapshot()
    }

    /// Resets statistics.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Exports the current statistics into a metrics registry under
    /// `component` (the hot probe path keeps its own atomics; this
    /// publishes them at snapshot time).
    pub fn export_metrics(&self, metrics: &simnet::obs::MetricsRegistry, component: &str) {
        let s = self.stats();
        metrics.set_counter(component, "hits", s.hits);
        metrics.set_counter(component, "misses", s.misses);
        metrics.set_counter(component, "expired", s.expired);
        metrics.set_counter(component, "negative_hits", s.negative_hits);
        metrics.set_counter(component, "coalesced", s.coalesced);
        metrics.set_counter(component, "inserts", s.inserts);
        metrics.set_counter(component, "preloaded", s.preloaded);
        // Published only once exercised, preserving fault-free snapshots
        // byte-for-byte (the same lazy-registration convention the
        // handle-cached counters follow).
        if s.stale_serves > 0 {
            metrics.set_counter(component, "stale_serves", s.stale_serves);
        }
        metrics.set_counter(component, "entries", self.len() as u64);
    }
}

impl std::fmt::Debug for HnsCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HnsCache")
            .field("mode", &self.mode())
            .field("entries", &self.len())
            .finish()
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
    fn ttl_expiry_hides_but_retains_the_entry() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert(&world, key(), &value(), 1, 1); // 1 second
        world.charge_ms(1_500.0);
        assert!(cache.get(&world, &key()).is_none(), "dead for normal reads");
        assert_eq!(cache.len(), 1, "retained as the serve-stale fallback");
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.expired, 1, "expiry is its own counter");
        assert_eq!(stats.misses, 0, "an expiry is not a plain miss");
    }

    #[test]
    fn lookup_stale_serves_only_expired_positives() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert(&world, key(), &value(), 1, 1);
        assert!(
            cache.lookup_stale(&world, &key()).is_none(),
            "live entries go through the normal path"
        );
        world.charge_ms(3_500.0);
        let stale = cache.lookup_stale(&world, &key()).expect("stale fallback");
        assert_eq!(*stale.value, value());
        assert_eq!(stale.rrs, 1);
        assert_eq!(stale.stale_for_secs, 2, "3.5 s elapsed on a 1 s TTL");
        assert_eq!(cache.stats().stale_serves, 1);
        // A refetch overwrites the stale entry in place.
        cache.insert(&world, key(), &value(), 1, 600);
        assert_eq!(cache.get(&world, &key()), Some(value()));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lookup_stale_never_serves_negatives_absent_or_disabled() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        assert!(cache.lookup_stale(&world, &key()).is_none(), "absent");
        cache.set_negative_ttl(1);
        cache.insert_negative(&world, key());
        world.charge_ms(2_000.0);
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
        assert_eq!(*stale.value, value());
        // probe (0.05) + marshalled hit for 1 RR (11.11): stale hits pay
        // the same access cost a live hit would.
        assert!((took.as_ms_f64() - 11.16).abs() < 0.1, "took {took}");
    }

    #[test]
    fn cold_probe_counts_as_miss() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        assert!(cache.get(&world, &key()).is_none());
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.expired, 0);
    }

    #[test]
    fn mode_switch_clears_entries() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Marshalled);
        cache.insert(&world, key(), &value(), 1, 600);
        cache.set_mode(CacheMode::Demarshalled);
        assert!(cache.is_empty());
        assert_eq!(cache.mode(), CacheMode::Demarshalled);
    }

    #[test]
    fn preload_counts_separately() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Marshalled);
        cache.preload_insert(&world, key(), &value(), 1, 600);
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
    fn stats_reset() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert(&world, key(), &value(), 1, 600);
        let _ = cache.get(&world, &key());
        cache.reset_stats();
        assert_eq!(cache.stats(), HnsCacheStats::default());
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
    fn demarshalled_hits_share_the_stored_allocation() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert(&world, key(), &value(), 1, 600);
        let a = match cache.lookup(&world, &key()) {
            CacheLookup::Hit { value, .. } => value,
            other => panic!("expected hit, got {other:?}"),
        };
        let b = match cache.lookup(&world, &key()) {
            CacheLookup::Hit { value, .. } => value,
            other => panic!("expected hit, got {other:?}"),
        };
        assert!(Arc::ptr_eq(&a, &b), "hits must share one allocation");
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
    fn negative_ttl_is_configurable() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.set_negative_ttl(2);
        cache.insert_negative(&world, key());
        world.charge_ms(1_000.0);
        assert!(matches!(
            cache.lookup(&world, &key()),
            CacheLookup::NegativeHit
        ));
        world.charge_ms(1_500.0);
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

    #[test]
    fn singleflight_leader_then_coalesced() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        let guard = match cache.begin_fetch(&key()) {
            FetchTicket::Leader(guard) => guard,
            FetchTicket::Coalesced => panic!("first caller must lead"),
        };
        // Leader inserts and releases; a later caller gets a fresh flight.
        cache.insert(&world, key(), &value(), 1, 600);
        drop(guard);
        assert!(matches!(cache.begin_fetch(&key()), FetchTicket::Leader(_)));
    }

    #[test]
    fn abandoned_flight_allows_a_new_leader() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        match cache.begin_fetch(&key()) {
            FetchTicket::Leader(guard) => drop(guard), // fetch failed; no insert
            FetchTicket::Coalesced => panic!("first caller must lead"),
        }
        assert!(matches!(cache.begin_fetch(&key()), FetchTicket::Leader(_)));
        let _ = world; // silence unused
    }

    #[test]
    fn lookup_or_fetch_counts_cold_miss_once() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        let guard = match cache.lookup_or_fetch(&world, &key()) {
            LookupOrFetch::Lead(guard) => guard,
            _ => panic!("cold probe must lead"),
        };
        cache.insert(&world, key(), &value(), 1, 600);
        drop(guard);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.coalesced, 0);
        // Warm path is a plain hit.
        assert!(matches!(
            cache.lookup_or_fetch(&world, &key()),
            LookupOrFetch::Hit { .. }
        ));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn disabled_cache_leads_every_caller_ungated() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Disabled);
        // Two leads for one key may be alive at once: nothing would be
        // stored for the second to find, so it is not made to wait.
        let first = cache.lookup_or_fetch(&world, &key());
        let second = cache.lookup_or_fetch(&world, &key());
        assert!(matches!(first, LookupOrFetch::Lead(_)));
        assert!(matches!(second, LookupOrFetch::Lead(_)));
        assert_eq!(cache.stats(), HnsCacheStats::default());
    }

    #[test]
    fn lookup_or_fetch_expired_counts_expiry_not_miss() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert(&world, key(), &value(), 1, 1);
        world.charge_ms(1_500.0);
        match cache.lookup_or_fetch(&world, &key()) {
            LookupOrFetch::Lead(_guard) => {}
            _ => panic!("expired entry must lead a refetch"),
        }
        let stats = cache.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.misses, 0, "an expiry is not a plain miss");
    }

    /// Regression (ISSUE 2 satellite): a coalesced waiter must count
    /// exactly one `coalesced` — not a `miss` for its initial probe and
    /// not a `hit` for its post-wait re-probe.
    #[test]
    fn coalesced_waiters_are_not_double_counted() {
        const WAITERS: usize = 4;
        let world = simnet::World::paper();
        let cache = Arc::new(HnsCache::new(CacheMode::Demarshalled));

        let guard = match cache.lookup_or_fetch(&world, &key()) {
            LookupOrFetch::Lead(guard) => guard,
            _ => panic!("leader expected"),
        };

        let barrier = Arc::new(std::sync::Barrier::new(WAITERS + 1));
        let handles: Vec<_> = (0..WAITERS)
            .map(|_| {
                let world = Arc::clone(&world);
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    match cache.lookup_or_fetch(&world, &key()) {
                        LookupOrFetch::Hit { value, .. } => (*value).clone(),
                        _ => panic!("waiter must see the leader's insert"),
                    }
                })
            })
            .collect();

        barrier.wait();
        // Deterministic ordering: every waiter registers in the flight
        // (bumping `coalesced`) before the fetch completes, so each one
        // resolves via its quiet post-wait re-probe.
        while cache.stats().coalesced < WAITERS as u64 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        cache.insert(&world, key(), &value(), 1, 600);
        drop(guard);
        for h in handles {
            assert_eq!(h.join().expect("join"), value());
        }

        let stats = cache.stats();
        // Exactly one stat per logical operation.
        assert_eq!(stats.misses, 1, "only the leader's fetch is a miss");
        assert_eq!(stats.coalesced, WAITERS as u64);
        assert_eq!(
            stats.hits, 0,
            "a coalesced waiter's re-probe must not count a hit: {stats:?}"
        );
        assert_eq!(stats.expired, 0);
        assert_eq!(stats.negative_hits, 0);
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
