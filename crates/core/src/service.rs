//! The HNS itself: "a collection of library routines" plus the `FindNSM`
//! operation.
//!
//! `FindNSM` "maps a context and query class to the information, called an
//! HRPC Binding, needed for making an HRPC call to the NSM", implemented as
//! three separate mappings:
//!
//! 1. Context → Name Service Name
//! 2. Name Service Name, Query Class → NSM Name
//! 3. NSM Name → HRPC Binding for the NSM
//!
//! Mapping 3 stores the NSM's *host name*, so resolving it "is in itself an
//! HNS naming operation" — mappings 1 and 2 run again for the host-address
//! query class. "Further recursion is avoided by linking instances of the
//! NSMs that perform this mapping directly with the HNS, so that their
//! network addresses need not be found." On a cold cache this costs six
//! remote data mappings; each is individually cached.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use simnet::obs::{LazyCounter, LazyHistogram};
use simnet::topology::{HostId, NetAddr};
use simnet::trace::TraceKind;
use simnet::ttl::Probe;
use simnet::world::World;

use bindns::name::DomainName;
use bindns::resolver::HrpcResolver;
use hrpc::net::RpcNet;
use hrpc::{HrpcBinding, RpcError};
use wire::Value;

use simnet::time::SimDuration;
use simnet::trace::CacheOutcome;

use crate::binding_cache::{BindingCache, BindingCacheStats};
use crate::cache::{CacheMode, HnsCache, HnsCacheStats, LookupOrFetch, MetaKey};
use crate::error::{HnsError, HnsResult};
use crate::meta::{ContextInfo, Fetched, MetaStore};
use crate::name::{Context, HnsName, NameMapping};
use crate::nsm::{Nsm, NsmInfo};
use crate::query::QueryClass;

/// One HNS instance: meta-store client, cache, and linked NSMs.
///
/// Instances can be linked into a client process, run as a remote server
/// (see [`crate::colocation::HnsService`]), or linked into an agent — the
/// colocation arrangements of Table 3.1.
pub struct Hns {
    net: Arc<RpcNet>,
    host: HostId,
    meta: MetaStore,
    meta_binding: HrpcBinding,
    cache: Arc<HnsCache>,
    /// Composed `FindNSM` results (off by default; see
    /// [`crate::binding_cache`]).
    binding_cache: Arc<BindingCache>,
    /// The query class of mapping 5, built once: a `QueryClass` owns a
    /// lowercased copy of its name.
    host_address_qc: QueryClass,
    /// Linked NSM registry. Read-mostly: linking happens at deployment,
    /// mapping 6 reads on every cold walk. Readers take an `Arc`
    /// snapshot; writers rebuild and swap.
    linked_nsms: RwLock<Arc<HashMap<String, Arc<dyn Nsm>>>>,
    batching: AtomicBool,
    handles: HnsMetricHandles,
    /// Serve-stale fallbacks performed, for the per-query
    /// [`FindNsmReport::stale_served`] marker (the cache keeps its own
    /// aggregate in `HnsCacheStats::stale_serves`).
    stale_serves: AtomicU64,
    /// Meta-zone serial of the last successful preload; later preloads
    /// ask for only the delta since it (IXFR).
    preload_serial: parking_lot::Mutex<Option<u32>>,
}

/// Cached registry handles for the per-query metrics, resolved on first
/// use so a query costs striped atomic ops — not registry lookups with
/// their key allocations and read locks — per metric update.
#[derive(Default)]
struct HnsMetricHandles {
    find_nsm_calls: LazyCounter,
    find_nsm_errors: LazyCounter,
    find_nsm_remote_round_trips: LazyCounter,
    round_trips_sequential: LazyHistogram,
    round_trips_batched: LazyHistogram,
    find_nsm_us: LazyHistogram,
    mapping_us: [LazyHistogram; 6],
    batch_prefetch_us: LazyHistogram,
    linked_calls: LazyCounter,
    stale_served: LazyCounter,
}

/// Record sets piggybacked by the meta server on a batched fetch, keyed by
/// meta name. Consulted before the cache so the batch also serves
/// [`CacheMode::Disabled`] runs; its demarshalling cost was already charged
/// when the `MQUERY` reply was decoded.
type BatchOverlay = HashMap<DomainName, Fetched<Vec<String>>>;

/// The payload strings of one meta record set as the walk reads them: a
/// cache hit lends the cached list itself, so the parsers read it in
/// place; a fetch (or the overlay) owns what it decoded.
enum Payloads {
    /// A cached list of strings, its shape checked by [`Payloads::cached`].
    Cached(Arc<Value>),
    Owned(Vec<String>),
}

impl Payloads {
    /// Wraps a cached value, refusing anything but a list of strings.
    fn cached(value: Arc<Value>) -> HnsResult<Payloads> {
        for payload in value.as_list()? {
            payload.as_str()?;
        }
        Ok(Payloads::Cached(value))
    }

    fn iter(&self) -> impl Iterator<Item = &str> {
        let (cached, owned): (&[Value], &[String]) = match self {
            Payloads::Cached(value) => (value.as_list().unwrap_or_default(), &[]),
            Payloads::Owned(payloads) => (&[], payloads),
        };
        let cached = cached.iter().filter_map(|payload| payload.as_str().ok());
        cached.chain(owned.iter().map(String::as_str))
    }
}

/// Per-query accounting attached to a `FindNSM` by
/// [`Hns::find_nsm_report`].
///
/// Round trips are derived from the world's remote-call counter delta
/// across the query, so they are exact for the single-threaded
/// experiment drivers (concurrent queries on one world attribute each
/// other's calls; the per-span `round_trips` from tracing are not
/// affected).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FindNsmReport {
    /// Remote round trips the query performed (6 on the sequential cold
    /// path; ≤ 2 with batching; 0 warm).
    pub remote_round_trips: u64,
    /// Whether the batched MQUERY pipeline was enabled for this query.
    pub batched: bool,
    /// Whether any mapping fell back to an expired cache entry because
    /// the authoritative server was unreachable (serve-stale, paper §4).
    pub stale_served: bool,
    /// Virtual time the query took.
    pub took: SimDuration,
}

/// How a preload obtained its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreloadMode {
    /// Full zone transfer (first preload, or the delta log was
    /// truncated past our serial).
    Full,
    /// Incremental transfer: only names changed since our last preload.
    Incremental,
    /// Our copy was already current; nothing shipped.
    Unchanged,
}

/// Result of a cache preload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreloadReport {
    /// Meta records transferred.
    pub records: usize,
    /// Zone bytes transferred.
    pub bytes: usize,
    /// Cache entries created.
    pub entries: usize,
    /// How the data was obtained.
    pub mode: PreloadMode,
    /// Meta-zone serial this instance is now current to.
    pub serial: u32,
}

impl Hns {
    /// Creates an HNS instance running on `host`, speaking to the modified
    /// BIND behind `meta_binding` whose meta zone is rooted at `origin`.
    pub fn new(
        net: Arc<RpcNet>,
        host: HostId,
        meta_binding: HrpcBinding,
        origin: DomainName,
        cache_mode: CacheMode,
    ) -> Self {
        let resolver = HrpcResolver::new(Arc::clone(&net), host, meta_binding);
        let cache = Arc::new(HnsCache::new(cache_mode));
        let binding_cache = Arc::new(BindingCache::new());
        // Snapshot-time stats flush through `World::export_all_caches`:
        // `Weak` captures keep dropped instances (e.g. the short-lived
        // registrar HNSes the harness builds) from re-publishing stale
        // totals, and disabled caches stay silent so a Disabled
        // instance sharing the world never clobbers a live one's rows
        // with zeros.
        let weak_cache = Arc::downgrade(&cache);
        let weak_binding = Arc::downgrade(&binding_cache);
        net.world()
            .register_cache_exporter(Box::new(move |metrics| {
                if let Some(cache) = weak_cache.upgrade() {
                    if cache.mode() != CacheMode::Disabled {
                        cache.export_metrics(metrics, "hns_cache");
                    }
                }
                if let Some(binding_cache) = weak_binding.upgrade() {
                    if binding_cache.enabled() {
                        binding_cache.export_metrics(metrics, "hns_binding_cache");
                    }
                }
            }));
        Hns {
            net,
            host,
            meta: MetaStore::new(resolver, origin),
            meta_binding,
            cache,
            binding_cache,
            host_address_qc: QueryClass::host_address(),
            linked_nsms: RwLock::new(Arc::new(HashMap::new())),
            batching: AtomicBool::new(false),
            handles: HnsMetricHandles::default(),
            stale_serves: AtomicU64::new(0),
            preload_serial: parking_lot::Mutex::new(None),
        }
    }

    /// Enables or disables the batched meta pipeline. Off by default: the
    /// sequential six-round-trip pipeline is the paper's measured shape;
    /// batching is the ablation on top of it.
    pub fn set_batching(&self, enabled: bool) {
        self.batching.store(enabled, Ordering::Relaxed);
    }

    /// Whether the batched meta pipeline is enabled.
    pub fn batching(&self) -> bool {
        self.batching.load(Ordering::Relaxed)
    }

    /// The host this instance runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The fabric.
    pub fn net(&self) -> &Arc<RpcNet> {
        &self.net
    }

    /// The simulation environment.
    pub fn world(&self) -> &Arc<World> {
        self.net.world()
    }

    /// The meta store (for registration tooling).
    pub fn meta(&self) -> &MetaStore {
        &self.meta
    }

    /// Links an NSM instance directly with this HNS (the recursion-breaking
    /// arrangement for host-address NSMs).
    pub fn link_nsm(&self, nsm: Arc<dyn Nsm>) {
        let mut nsms = self.linked_nsms.write();
        let mut next = HashMap::clone(&nsms);
        next.insert(nsm.nsm_name().to_string(), nsm);
        *nsms = Arc::new(next);
    }

    /// Registers a context with its name service and name mapping.
    pub fn register_context(
        &self,
        context: &Context,
        name_service: &str,
        mapping: &NameMapping,
    ) -> HnsResult<()> {
        self.meta.register_context(context, name_service, mapping)
    }

    /// Registers which NSM serves a (name service, query class) pair.
    ///
    /// "Registering an NSM with the HNS extends the functionality of all
    /// machines at once."
    pub fn register_nsm(
        &self,
        name_service: &str,
        qc: &QueryClass,
        nsm_name: &str,
    ) -> HnsResult<()> {
        self.meta.register_nsm(name_service, qc, nsm_name)
    }

    /// Registers an NSM's binding information.
    pub fn register_nsm_info(&self, info: &NsmInfo) -> HnsResult<()> {
        self.meta.register_nsm_info(info)
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> HnsCacheStats {
        self.cache.stats()
    }

    /// Enables or disables the composed binding cache (disabling clears
    /// it). Off by default: the per-mapping walk is the paper's measured
    /// shape; composing it is a throughput optimization on top.
    pub fn set_binding_cache(&self, enabled: bool) {
        self.binding_cache.set_enabled(enabled);
    }

    /// Whether the composed binding cache is enabled.
    pub fn binding_cache_enabled(&self) -> bool {
        self.binding_cache.enabled()
    }

    /// Composed binding-cache statistics of the (query class, context)
    /// level.
    pub fn binding_cache_stats(&self) -> BindingCacheStats {
        self.binding_cache.stats()
    }

    /// Composed binding-cache statistics of the (query class, name
    /// service) level.
    pub fn binding_cache_service_stats(&self) -> BindingCacheStats {
        self.binding_cache.service_stats()
    }

    /// Clears the per-mapping cache and both composed levels: the next
    /// `FindNSM` is a cold walk.
    pub fn clear_cache(&self) {
        self.cache.clear();
        self.binding_cache.clear();
    }

    /// One cached meta fetch: the payload strings at `key` and their
    /// remaining TTL in seconds (0 when served stale).
    ///
    /// The overlay (record sets piggybacked by the current batched fetch)
    /// is consulted first, then the cache; a miss enters the singleflight
    /// gate, so of several threads missing on the same key only one
    /// performs the remote fetch. A `NotFound` from the meta store is
    /// remembered as a negative entry.
    fn cached_fetch_with(
        &self,
        key: &DomainName,
        overlay: Option<&BatchOverlay>,
    ) -> HnsResult<(Payloads, u32)> {
        self.world().charge_ms(self.world().costs.hns_bookkeeping);
        if let Some(fetched) = overlay.and_then(|o| o.get(key)) {
            self.world().cache_outcome(CacheOutcome::Overlay);
            return Ok((Payloads::Owned(fetched.value.clone()), fetched.ttl_secs));
        }
        let cache_key = MetaKey::meta(key);
        // `lookup_or_fetch` loops through coalesced waits internally and
        // annotates the current span with the cache outcome.
        match self.cache.lookup_or_fetch(self.world(), &cache_key) {
            LookupOrFetch::Hit {
                value,
                remaining_ttl_secs,
            } => Ok((Payloads::cached(value)?, remaining_ttl_secs)),
            LookupOrFetch::NegativeHit => Err(HnsError::Rpc(RpcError::NotFound(key.to_string()))),
            LookupOrFetch::Lead(_guard) => {
                let fetched = match self.meta.fetch(key) {
                    Ok(fetched) => fetched,
                    Err(HnsError::Rpc(RpcError::NotFound(n))) => {
                        self.cache.insert_negative(self.world(), cache_key);
                        return Err(HnsError::Rpc(RpcError::NotFound(n)));
                    }
                    Err(HnsError::Rpc(err)) if err.is_unreachable() => {
                        // Serve-stale (paper §4): the meta server is down
                        // or cut off, but an expired entry may still be
                        // in the cache — meta-naming data changes slowly,
                        // so stale data beats no data. The entry stays
                        // expired; the next walk retries the fetch and a
                        // success overwrites it.
                        if let Some(stale) = self.cache.lookup_stale(self.world(), &cache_key) {
                            self.note_stale_serve(|| format!("meta {key} ({err})"));
                            return Ok((Payloads::cached(stale)?, 0));
                        }
                        return Err(HnsError::Rpc(err));
                    }
                    Err(other) => return Err(other),
                };
                self.cache_payloads(cache_key, &fetched);
                Ok((Payloads::Owned(fetched.value), fetched.ttl_secs))
            }
        }
    }

    /// Accounts one serve-stale fallback: bumps the per-instance marker
    /// counter and the `faults/stale_served` metric, annotates the
    /// current span with [`CacheOutcome::Stale`], and traces the event
    /// (label built lazily — this path only runs under faults, but the
    /// convention keeps tracing free when disabled).
    fn note_stale_serve(&self, label: impl FnOnce() -> String) {
        self.stale_serves.fetch_add(1, Ordering::Relaxed);
        let world = self.world();
        world.cache_outcome(CacheOutcome::Stale);
        self.handles
            .stale_served
            .get(world.metrics(), "faults", "stale_served")
            .inc();
        world.trace(Some(self.host), TraceKind::Hns, || {
            format!("stale_served: {}", label())
        });
    }

    /// Internal mapping helpers return `(parsed, remaining TTL secs)`;
    /// the walk folds the TTLs into the composed binding cache's
    /// freshness bound. A serve-stale result reports TTL 0, which keeps
    /// the composed entry uncacheable.
    fn context_info_with(
        &self,
        context: &Context,
        overlay: Option<&BatchOverlay>,
    ) -> HnsResult<(ContextInfo, u32)> {
        let key = self.meta.context_key(context)?;
        let (payloads, ttl) = self.cached_fetch_with(&key, overlay).map_err(|e| match e {
            HnsError::Rpc(RpcError::NotFound(_)) => {
                HnsError::NoSuchContext(context.as_str().to_string())
            }
            other => other,
        })?;
        Ok((MetaStore::parse_context(payloads.iter())?, ttl))
    }

    /// Mapping 1 (or 4): context → name service, through the cache.
    pub fn context_info(&self, context: &Context) -> HnsResult<ContextInfo> {
        self.context_info_with(context, None).map(|(info, _)| info)
    }

    fn nsm_name_with(
        &self,
        name_service: &str,
        qc: &QueryClass,
        overlay: Option<&BatchOverlay>,
    ) -> HnsResult<(String, u32)> {
        let key = self.meta.nsm_name_key(name_service, qc)?;
        let (payloads, ttl) = self.cached_fetch_with(&key, overlay).map_err(|e| match e {
            HnsError::Rpc(RpcError::NotFound(_)) => HnsError::NoSuchNsm {
                name_service: name_service.to_string(),
                query_class: qc.as_str().to_string(),
            },
            other => other,
        })?;
        Ok((MetaStore::parse_nsm_name(payloads.iter())?, ttl))
    }

    /// Mapping 2 (or 5): (name service, query class) → NSM name.
    pub fn nsm_name(&self, name_service: &str, qc: &QueryClass) -> HnsResult<String> {
        self.nsm_name_with(name_service, qc, None)
            .map(|(name, _)| name)
    }

    fn nsm_info_with(
        &self,
        nsm_name: &str,
        overlay: Option<&BatchOverlay>,
    ) -> HnsResult<(NsmInfo, u32)> {
        let key = self.meta.nsm_info_key(nsm_name)?;
        let (payloads, ttl) = self.cached_fetch_with(&key, overlay)?;
        Ok((NsmInfo::from_records(nsm_name, payloads.iter())?, ttl))
    }

    /// Mapping 3 (first half): NSM name → binding information.
    pub fn nsm_info(&self, nsm_name: &str) -> HnsResult<NsmInfo> {
        self.nsm_info_with(nsm_name, None).map(|(info, _)| info)
    }

    /// Mapping 6: NSM host name → address, via the linked host-address NSM
    /// for the host's name service, through the cache.
    fn host_address(
        &self,
        host_ns: &str,
        ha_nsm_name: &str,
        host_name: &str,
        host_context: &Context,
    ) -> HnsResult<(HostId, u32)> {
        self.world().charge_ms(self.world().costs.hns_bookkeeping);
        let cache_key = MetaKey::host_addr(host_ns, host_name);
        let _guard = match self.cache.lookup_or_fetch(self.world(), &cache_key) {
            LookupOrFetch::Hit {
                value,
                remaining_ttl_secs,
            } => {
                return Ok((
                    HostId(value.u32_field("host").map_err(HnsError::from)?),
                    remaining_ttl_secs,
                ));
            }
            // Host-address keys never cache negatives; fetch directly.
            LookupOrFetch::NegativeHit => None,
            LookupOrFetch::Lead(guard) => Some(guard),
        };
        let linked = Arc::clone(&self.linked_nsms.read())
            .get(ha_nsm_name)
            .cloned()
            .ok_or_else(|| HnsError::NoLinkedHostAddrNsm(host_ns.to_string()))?;
        let hns_name = HnsName::new(host_context.clone(), host_name)?;
        let world = self.world();
        self.handles
            .linked_calls
            .get(world.metrics(), "nsm", "linked_calls")
            .inc();
        let reply = {
            let span = world.span_lazy(Some(self.host), TraceKind::Nsm, || {
                format!("linked NSM {ha_nsm_name}: {host_name} -> address")
            });
            let reply = linked.handle(&hns_name, &Value::Void);
            drop(span);
            reply
        };
        let reply = match reply {
            Ok(reply) => reply,
            Err(err) if err.is_unreachable() => {
                // Serve-stale for mapping 6: an expired host-address
                // entry still names the right host far more often than
                // not (paper §4).
                if let Some(stale) = self.cache.lookup_stale(self.world(), &cache_key) {
                    self.note_stale_serve(|| format!("hostaddr {host_name} ({err})"));
                    return Ok((HostId(stale.u32_field("host").map_err(HnsError::from)?), 0));
                }
                return Err(HnsError::Rpc(err));
            }
            Err(err) => return Err(HnsError::Rpc(err)),
        };
        let host = HostId(reply.u32_field("host").map_err(HnsError::from)?);
        let ttl = reply.u32_field("ttl").unwrap_or(crate::meta::META_TTL);
        self.cache.insert(self.world(), cache_key, &reply, 1, ttl);
        Ok((host, ttl))
    }

    /// Speculatively fetches the whole meta-mapping chain for (`context`,
    /// `qc`) in one `MQUERY`, seeding the cache and returning the overlay
    /// for this `FindNSM`'s own mapping walk.
    ///
    /// Skipped (returning an empty overlay) when the context record is
    /// already live in the cache — a warm walk needs no round trips at
    /// all, so a batch would only add one.
    fn prefetch_meta_batch(&self, context: &Context, qc: &QueryClass) -> HnsResult<BatchOverlay> {
        let ctx_key = self.meta.context_key(context)?;
        let mut overlay = BatchOverlay::new();
        if self
            .cache
            .contains_live(self.world(), &MetaKey::meta(&ctx_key))
        {
            return Ok(overlay);
        }
        self.world().charge_ms(self.world().costs.hns_bookkeeping);
        let batch = self
            .meta
            .fetch_batch(&ctx_key, &[qc.as_str().to_string()])?;
        match batch.primary {
            Some(fetched) => self.stash(&mut overlay, ctx_key, fetched),
            None => {
                self.cache
                    .insert_negative(self.world(), MetaKey::meta(&ctx_key));
            }
        }
        for (owner, fetched) in batch.additional {
            self.stash(&mut overlay, owner, fetched);
        }
        Ok(overlay)
    }

    /// Seeds one batched record set into both the cache and the overlay.
    fn stash(&self, overlay: &mut BatchOverlay, key: DomainName, fetched: Fetched<Vec<String>>) {
        self.cache_payloads(MetaKey::meta(&key), &fetched);
        overlay.insert(key, fetched);
    }

    /// Caches one fetched record set as a list-of-strings value. A
    /// disabled cache stores nothing, so the value is not built for it.
    fn cache_payloads(&self, key: MetaKey, fetched: &Fetched<Vec<String>>) {
        if self.cache.mode() == CacheMode::Disabled {
            return;
        }
        let value = Value::List(fetched.value.iter().map(Value::str).collect());
        self.cache
            .insert(self.world(), key, &value, fetched.rrs, fetched.ttl_secs);
    }

    /// The primary HNS function: maps a context and query class to an HRPC
    /// binding for the NSM that can serve the query.
    pub fn find_nsm(&self, qc: &QueryClass, name: &HnsName) -> HnsResult<HrpcBinding> {
        self.find_nsm_report(qc, name).map(|(binding, _)| binding)
    }

    /// [`Hns::find_nsm`] plus per-query accounting: the remote round
    /// trips the query made (6 sequential cold, ≤ 2 batched cold, 0
    /// warm), whether batching was on, and the virtual time it took.
    ///
    /// When tracing is enabled the query also records a root span named
    /// `FindNSM(query class …, name …)` with one child span per meta
    /// mapping; per-mapping latency lands in the `hns_meta` histograms
    /// and the round-trip distributions in `hns/find_nsm_round_trips_*`
    /// either way.
    pub fn find_nsm_report(
        &self,
        qc: &QueryClass,
        name: &HnsName,
    ) -> HnsResult<(HrpcBinding, FindNsmReport)> {
        let world = Arc::clone(self.world());
        let batched = self.batching();

        // Composed fast path: a live (query class, context) entry answers
        // the whole query in one probe. Only the context matters — the
        // individual name plays no part in the mapping walk.
        if self.binding_cache.enabled() {
            let t0 = world.now();
            if let Some(binding) =
                self.binding_cache
                    .lookup(&world, qc.as_str(), name.context.as_str())
            {
                world.cache_outcome(CacheOutcome::Hit);
                let took = world.now().since(t0);
                self.record_query_metrics(&world, batched, 0, took, false);
                return Ok((
                    binding,
                    FindNsmReport {
                        remote_round_trips: 0,
                        batched,
                        stale_served: false,
                        took,
                    },
                ));
            }
        }

        let span = world.span_lazy(Some(self.host), TraceKind::Hns, || {
            format!("FindNSM(query class {qc}, name {name})")
        });
        let t0 = world.now();
        let calls0 = world.counters().remote_calls;
        let stale0 = self.stale_serves.load(Ordering::Relaxed);
        let result = self.find_nsm_inner(qc, name, batched);
        let took = world.now().since(t0);
        let remote_round_trips = world.counters().remote_calls.saturating_sub(calls0);
        let stale_served = self.stale_serves.load(Ordering::Relaxed) > stale0;
        span.add_round_trips(remote_round_trips);
        drop(span);

        self.record_query_metrics(&world, batched, remote_round_trips, took, result.is_err());

        let (binding, min_ttl) = result?;
        // A zero `min_ttl` (some constituent was stale-served) is refused
        // by the insert, so composed entries never outlive their parts.
        self.binding_cache
            .insert(&world, qc.as_str(), name.context.as_str(), binding, min_ttl);
        Ok((
            binding,
            FindNsmReport {
                remote_round_trips,
                batched,
                stale_served,
                took,
            },
        ))
    }

    /// Per-query metric updates shared by the composed fast path and the
    /// full mapping walk.
    fn record_query_metrics(
        &self,
        world: &World,
        batched: bool,
        remote_round_trips: u64,
        took: SimDuration,
        is_err: bool,
    ) {
        let metrics = world.metrics();
        self.handles
            .find_nsm_calls
            .get(metrics, "hns", "find_nsm_calls")
            .inc();
        // The error counter registers unconditionally (add of 0), exactly
        // as the seed did — snapshots must keep showing the `= 0` line.
        self.handles
            .find_nsm_errors
            .get(metrics, "hns", "find_nsm_errors")
            .add(u64::from(is_err));
        self.handles
            .find_nsm_remote_round_trips
            .get(metrics, "hns", "find_nsm_remote_round_trips")
            .add(remote_round_trips);
        let (rt_handle, rt_name) = if batched {
            (
                &self.handles.round_trips_batched,
                "find_nsm_round_trips_batched",
            )
        } else {
            (
                &self.handles.round_trips_sequential,
                "find_nsm_round_trips_sequential",
            )
        };
        rt_handle
            .get(metrics, "hns", rt_name)
            .record(remote_round_trips);
        self.handles
            .find_nsm_us
            .record_ms(metrics, "hns", "find_nsm_us", took.as_ms_f64());
    }

    /// Runs `f` inside a `mapping {idx}` child span and records its
    /// virtual latency in the `hns_meta/mapping{idx}_us` histogram.
    fn with_mapping<T>(
        &self,
        idx: usize,
        label: impl FnOnce() -> String,
        f: impl FnOnce() -> HnsResult<T>,
    ) -> HnsResult<T> {
        const HIST: [&str; 6] = [
            "mapping1_us",
            "mapping2_us",
            "mapping3_us",
            "mapping4_us",
            "mapping5_us",
            "mapping6_us",
        ];
        let world = self.world();
        let span = world.span_lazy(Some(self.host), TraceKind::Hns, || {
            format!("mapping {idx}: {}", label())
        });
        let t0 = world.now();
        let result = f();
        let took_ms = world.now().since(t0).as_ms_f64();
        drop(span);
        self.handles.mapping_us[idx - 1].record_ms(
            world.metrics(),
            "hns_meta",
            HIST[idx - 1],
            took_ms,
        );
        result
    }

    /// The mapping walk. Returns the binding plus the minimum remaining
    /// TTL across the six mapping entries consulted — the freshness
    /// bound for a composed (query class, context) entry.
    ///
    /// Mappings 2–6 depend on the context only through its name service,
    /// so with the composed cache on, their result is probed (and, after
    /// a walk, kept) under (query class, name service): a context whose
    /// own entry lapsed costs two probes, not six.
    fn find_nsm_inner(
        &self,
        qc: &QueryClass,
        name: &HnsName,
        batched: bool,
    ) -> HnsResult<(HrpcBinding, u32)> {
        // With batching enabled, one MQUERY fetches mapping 1 and lets the
        // meta server's chaser piggyback mappings 2-5; the walk below then
        // runs against the overlay instead of making per-mapping calls.
        let overlay = if batched {
            let world = self.world();
            let span = world.span_lazy(Some(self.host), TraceKind::Hns, || {
                format!("MQUERY batch prefetch (context {}, {qc})", name.context)
            });
            let t0 = world.now();
            let prefetched = self.prefetch_meta_batch(&name.context, qc);
            let took_ms = world.now().since(t0).as_ms_f64();
            drop(span);
            self.handles.batch_prefetch_us.record_ms(
                world.metrics(),
                "hns_meta",
                "batch_prefetch_us",
                took_ms,
            );
            Some(prefetched?)
        } else {
            None
        };
        let overlay = overlay.as_ref();
        // Mapping 1: Context -> Name Service Name.
        let (ctx_info, ttl1) = self.with_mapping(
            1,
            || format!("context {} -> name service", name.context),
            || self.context_info_with(&name.context, overlay),
        )?;
        if self.binding_cache.enabled() {
            // The outcome lands on the `FindNSM` span: mapping 1's own
            // span has closed.
            let world = self.world();
            match self
                .binding_cache
                .lookup_service(world, qc.as_str(), &ctx_info.name_service)
            {
                Probe::Live {
                    value,
                    remaining_secs,
                } => {
                    world.cache_outcome(CacheOutcome::Hit);
                    return Ok((value, ttl1.min(remaining_secs)));
                }
                Probe::Expired => world.cache_outcome(CacheOutcome::Expired),
                Probe::Absent => world.cache_outcome(CacheOutcome::Miss),
            }
        }
        // Mapping 2: Name Service Name, Query Class -> NSM Name.
        let (nsm_name, ttl2) = self.with_mapping(
            2,
            || format!("({}, {qc}) -> NSM name", ctx_info.name_service),
            || self.nsm_name_with(&ctx_info.name_service, qc, overlay),
        )?;
        // Mapping 3: NSM Name -> HRPC Binding for the NSM. The stored info
        // names the NSM's host; translating that is itself an HNS naming
        // operation (mappings 4-6).
        let (info, ttl3) = self.with_mapping(
            3,
            || format!("NSM {nsm_name} -> binding info"),
            || self.nsm_info_with(&nsm_name, overlay),
        )?;
        let (host_ctx_info, ttl4) = self.with_mapping(
            4,
            || format!("host context {} -> name service", info.host_context),
            || self.context_info_with(&info.host_context, overlay),
        )?;
        let (ha_nsm, ttl5) = self.with_mapping(
            5,
            || {
                format!(
                    "({}, hostaddress) -> HA-NSM name",
                    host_ctx_info.name_service
                )
            },
            || self.nsm_name_with(&host_ctx_info.name_service, &self.host_address_qc, overlay),
        )?;
        let (host, ttl6) = self.with_mapping(
            6,
            || format!("host {} -> address", info.host_name),
            || {
                self.host_address(
                    &host_ctx_info.name_service,
                    &ha_nsm,
                    &info.host_name,
                    &info.host_context,
                )
            },
        )?;
        let binding = HrpcBinding {
            host,
            addr: NetAddr::of(host),
            program: info.program,
            port: info.port,
            components: info.suite.components(info.port),
        };
        self.world().trace(Some(self.host), TraceKind::Hns, || {
            format!("FindNSM -> {nsm_name} at {host}:{}", info.port)
        });
        let service_ttl = ttl2.min(ttl3).min(ttl4).min(ttl5).min(ttl6);
        // Refused while the composed cache is off, and for a zero TTL.
        self.binding_cache.insert_service(
            self.world(),
            qc.as_str(),
            &ctx_info.name_service,
            binding,
            service_ttl,
        );
        Ok((binding, ttl1.min(service_ttl)))
    }

    /// Publishes this instance's cache statistics into the world's
    /// metrics registry (component `hns_cache`, plus
    /// `hns_binding_cache` when the composed cache is enabled — gated so
    /// default-configuration snapshots are unchanged). A Disabled cache
    /// publishes nothing: several instances share one component, and a
    /// disabled instance exporting zeros would clobber a live one's
    /// rows (the same rule [`World::export_all_caches`] applies on
    /// every sampler tick).
    pub fn export_metrics(&self) {
        if self.cache.mode() != CacheMode::Disabled {
            self.cache
                .export_metrics(self.world().metrics(), "hns_cache");
        }
        if self.binding_cache.enabled() {
            self.binding_cache
                .export_metrics(self.world().metrics(), "hns_binding_cache");
        }
    }

    /// Preloads the cache by zone transfer of the whole meta zone.
    ///
    /// "The cost of the many remote lookups required on the initial
    /// reference ... might exceed the cost of preloading the relatively
    /// small amount of information (currently about 2KB) required to
    /// guarantee HNS cache hits."
    pub fn preload(&self) -> HnsResult<PreloadReport> {
        let last_serial = *self.preload_serial.lock();
        let report = match last_serial {
            // Warm instance: ask for only the delta since our serial.
            // The server falls back to shipping the whole zone when its
            // delta log is truncated past us.
            Some(from) => {
                let xfer = bindns::axfr::transfer_zone_incremental(
                    &self.net,
                    self.host,
                    &self.meta_binding,
                    self.meta.origin(),
                    from,
                )
                .map_err(HnsError::Rpc)?;
                let (mode, records) = match &xfer.contents {
                    bindns::axfr::IxfrContents::Unchanged => (PreloadMode::Unchanged, &[][..]),
                    bindns::axfr::IxfrContents::Incremental { records, .. } => {
                        (PreloadMode::Incremental, records.as_slice())
                    }
                    bindns::axfr::IxfrContents::Full { records } => {
                        (PreloadMode::Full, records.as_slice())
                    }
                };
                let entries = self.preload_records(records)?;
                PreloadReport {
                    records: records.len(),
                    bytes: xfer.size_bytes,
                    entries,
                    mode,
                    serial: xfer.serial,
                }
            }
            // Cold instance: full zone transfer.
            None => {
                let xfer = bindns::axfr::transfer_zone(
                    &self.net,
                    self.host,
                    &self.meta_binding,
                    self.meta.origin(),
                )
                .map_err(HnsError::Rpc)?;
                let entries = self.preload_records(&xfer.records)?;
                PreloadReport {
                    records: xfer.records.len(),
                    bytes: xfer.size_bytes,
                    entries,
                    mode: PreloadMode::Full,
                    serial: xfer.serial,
                }
            }
        };
        *self.preload_serial.lock() = Some(report.serial);
        let metrics = self.world().metrics();
        match report.mode {
            PreloadMode::Full => metrics.inc("hns_preload", "full_transfers"),
            PreloadMode::Incremental => metrics.inc("hns_preload", "incremental_transfers"),
            PreloadMode::Unchanged => metrics.inc("hns_preload", "unchanged_probes"),
        }
        metrics.add("hns_preload", "bytes_shipped", report.bytes as u64);
        Ok(report)
    }

    /// Groups transferred meta records by owner name and seeds the cache.
    /// Returns the number of cache entries created. Grouping preserves
    /// owner and record order; an index map keeps it linear in the batch.
    fn preload_records(&self, records: &[bindns::rr::ResourceRecord]) -> HnsResult<usize> {
        let mut grouped: Vec<(DomainName, Vec<String>, u32)> = Vec::new();
        let mut index: HashMap<DomainName, usize> = HashMap::new();
        for rr in records {
            let payload = match &rr.rdata {
                bindns::rr::RData::Opaque(bytes) => std::str::from_utf8(bytes)
                    .map_err(|_| HnsError::BadMetaRecord("non-UTF-8 payload".into()))?
                    .to_string(),
                _ => continue, // Only UNSPEC meta records preload.
            };
            match index.get(&rr.name) {
                Some(&i) => {
                    let (_, payloads, ttl) = &mut grouped[i];
                    payloads.push(payload);
                    *ttl = (*ttl).min(rr.ttl);
                }
                None => {
                    index.insert(rr.name.clone(), grouped.len());
                    grouped.push((rr.name.clone(), vec![payload], rr.ttl));
                }
            }
        }
        let entries = grouped.len();
        for (name, payloads, ttl) in grouped {
            let rrs = payloads.len();
            let value = Value::List(payloads.iter().map(Value::str).collect());
            self.cache
                .preload_insert(self.world(), MetaKey::meta(&name), &value, rrs, ttl);
        }
        Ok(entries)
    }
}

impl std::fmt::Debug for Hns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hns")
            .field("host", &self.host)
            .field("cache", &self.cache)
            .finish()
    }
}
