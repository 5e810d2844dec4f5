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
//! remote data mappings, each individually cached by the one
//! `cached_fetch`; the chain over the five in the meta zone is
//! [`crate::meta`]'s, run here against overlay, cache and meta server.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use simnet::obs::{LazyCounter, LazyHistogram, MetricsRegistry};
use simnet::time::SimDuration;
use simnet::topology::{HostId, NetAddr};
use simnet::trace::{CacheOutcome, TraceKind};
use simnet::ttl::Probe;
use simnet::world::World;

use bindns::name::DomainName;
use bindns::resolver::HrpcResolver;
use bindns::rr::{RType, ResourceRecord};
use hrpc::net::RpcNet;
use hrpc::{HrpcBinding, ProgramId, RpcError};

use crate::binding_cache::{BindingCache, BindingCacheStats};
use crate::cache::{CacheLookup, CacheMode, HnsCache, HnsCacheStats, MetaKey};
use crate::error::{HnsError, HnsResult};
use crate::meta::{self, Chased, Fetch, Fetched, Kind, MetaRecord, MetaStore, Step};
use crate::name::{Context, HnsName, NameMapping};
use crate::nsm::{HostAddress, Nsm, NsmInfo, NsmRequest, NsmService, QueryArgs, EXPORT_SUITE};
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
    cache: Arc<HnsCache<MetaRecord>>,
    /// Composed `FindNSM` results (off by default; see
    /// [`crate::binding_cache`]).
    binding_cache: Arc<BindingCache>,
    /// Linked NSM registry, by NSM name. Mapping 6 clones out the one
    /// NSM it calls and releases the lock before calling it.
    linked_nsms: RwLock<HashMap<String, Arc<dyn Nsm>>>,
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
/// use so a query costs atomic adds — not registry lookups with
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

/// Records piggybacked by the meta server on a batched fetch, each with
/// its TTL in seconds, keyed by meta name. Consulted before the cache so
/// the batch also serves [`CacheMode::Disabled`] runs; its demarshalling
/// cost was already charged when the `MQUERY` reply was decoded.
type BatchOverlay = HashMap<DomainName, (Arc<MetaRecord>, u32)>;

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
        let cache = Arc::new(HnsCache::of(cache_mode));
        let binding_cache = Arc::new(BindingCache::new());
        // Snapshot-time stats flush through `World::export_all_caches`:
        // `Weak` captures keep dropped instances (e.g. the short-lived
        // registrar HNSes the harness builds) from re-publishing stale
        // totals.
        let weak_cache = Arc::downgrade(&cache);
        let weak_binding = Arc::downgrade(&binding_cache);
        net.world()
            .register_cache_exporter(Box::new(move |metrics| {
                if let (Some(cache), Some(binding)) = (weak_cache.upgrade(), weak_binding.upgrade())
                {
                    export_caches(&cache, &binding, metrics);
                }
            }));
        Hns {
            net,
            host,
            meta: MetaStore::new(resolver, origin),
            meta_binding,
            cache,
            binding_cache,
            linked_nsms: RwLock::default(),
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
        self.linked_nsms
            .write()
            .insert(nsm.nsm_name().to_string(), nsm);
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

    /// Registers which NSM serves a (name service, query class) pair:
    /// mapping 2 alone, for re-pointing a pair ([`Hns::deploy_nsm`] is
    /// the whole operation).
    pub fn register_nsm(
        &self,
        name_service: &str,
        qc: &QueryClass,
        nsm_name: &str,
    ) -> HnsResult<()> {
        self.meta.register_nsm(name_service, qc, nsm_name)
    }

    /// Registers an NSM's binding information: mapping 3 alone, for
    /// moving a registered NSM.
    pub fn register_nsm_info(&self, info: &NsmInfo) -> HnsResult<()> {
        self.meta.register_nsm_info(info)
    }

    /// Registers an NSM with the HNS — the paper's one step of evolution:
    /// "registering an NSM with the HNS extends the functionality of all
    /// machines at once."
    ///
    /// Exports `nsm` on `host` under `program`, writes mapping 2
    /// ((`name_service`, the NSM's query class) → its name) and mapping 3
    /// (its six records of binding information, the host under the name
    /// the topology gives it, to be resolved in `host_context`), and
    /// returns the binding `FindNSM` now designates. A failed write leaves
    /// the export standing; registering again replaces all three.
    pub fn deploy_nsm(
        &self,
        name_service: &str,
        nsm: Arc<dyn Nsm>,
        host: HostId,
        program: ProgramId,
        host_context: &Context,
        owner: &str,
    ) -> HnsResult<HrpcBinding> {
        let host_name = self
            .world()
            .topology
            .host_name(host)
            .ok_or_else(|| HnsError::BadName(format!("{host} has no name in the topology")))?;
        let (query_class, nsm_name) = (nsm.query_class(), nsm.nsm_name().to_string());
        let binding = NsmService::export(&self.net, host, program, nsm);
        self.register_nsm(name_service, &query_class, &nsm_name)?;
        self.register_nsm_info(&NsmInfo {
            nsm_name,
            host_name,
            host_context: host_context.clone(),
            program,
            port: binding.port,
            suite: EXPORT_SUITE,
            version: 1,
            owner: owner.to_string(),
        })?;
        Ok(binding)
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

    /// The cache, if it stores anything. A disabled one is handed no key:
    /// deriving a key interns its text, and nothing would be kept under it.
    fn storing_cache(&self) -> Option<&HnsCache<MetaRecord>> {
        (self.cache.mode() != CacheMode::Disabled).then_some(&*self.cache)
    }

    /// One cached fetch, the same for all six mappings: probe `key`; on a
    /// miss run `fetch` and cache what it returns. Comes back with the record — a
    /// demarshalled hit's is the cached one itself, neither copied nor
    /// parsed — and its remaining TTL in seconds, 0 when served stale, so a
    /// composed entry over it is uncacheable. What differs between the
    /// meta zone and a linked NSM is passed in: `fetch`, whether its
    /// `NotFound` is `remembered` (negatively), and its `label` in the
    /// serve-stale trace. `key` is derived by a cache that stores, only.
    fn cached_fetch(
        &self,
        key: impl FnOnce() -> MetaKey,
        (label, name): (&str, &dyn Display),
        remembered: bool,
        fetch: impl FnOnce() -> HnsResult<Fetched<MetaRecord>>,
    ) -> HnsResult<(Arc<MetaRecord>, u32)> {
        let world = self.world();
        // `None` from a disabled cache: nothing probed, nothing to fall
        // back on, nothing remembered.
        let cached = self.storing_cache().map(|cache| (cache, key()));
        match cached.map(|(cache, key)| cache.lookup(world, &key)) {
            Some(CacheLookup::Hit {
                value,
                remaining_ttl_secs,
            }) => return Ok((value, remaining_ttl_secs)),
            Some(CacheLookup::NegativeHit) => {
                return Err(HnsError::Rpc(RpcError::NotFound(name.to_string())))
            }
            Some(CacheLookup::Miss) => {}
            None => world.cache_outcome(CacheOutcome::Miss),
        }
        let fetched = match fetch() {
            Ok(fetched) => fetched,
            Err(HnsError::Rpc(err)) if err.is_unreachable() => {
                // Serve-stale (paper §4): the server is down or cut off,
                // but an expired entry may still be in the cache —
                // meta-naming data changes slowly and an old host address
                // still names the right host far more often than not, so
                // stale data beats no data. The entry stays expired; the
                // next walk retries the fetch and a success overwrites it.
                let Some(stale) = cached.and_then(|(cache, key)| cache.lookup_stale(world, &key))
                else {
                    return Err(HnsError::Rpc(err));
                };
                self.stale_serves.fetch_add(1, Ordering::Relaxed);
                world.cache_outcome(CacheOutcome::Stale);
                self.handles
                    .stale_served
                    .get(world.metrics(), "faults", "stale_served")
                    .inc();
                world.trace(Some(self.host), TraceKind::Hns, || {
                    format!("stale_served: {label} {name} ({err})")
                });
                return Ok((stale, 0));
            }
            Err(err) => {
                let absent = matches!(err, HnsError::Rpc(RpcError::NotFound(_)));
                if let Some((cache, key)) = cached.filter(|_| remembered && absent) {
                    cache.insert_negative(world, key);
                }
                return Err(err);
            }
        };
        let record = Arc::new(fetched.value);
        if let Some((cache, key)) = cached {
            cache.insert_shared(world, key, &record, fetched.rrs, fetched.ttl_secs);
        }
        Ok((record, fetched.ttl_secs))
    }

    /// Mappings 1–5: the record at `key` in the meta zone. The overlay
    /// (sets piggybacked by this query's batched fetch) is consulted
    /// before the cache.
    fn meta_fetch(
        &self,
        key: &DomainName,
        overlay: Option<&BatchOverlay>,
    ) -> HnsResult<(Arc<MetaRecord>, u32)> {
        if let Some((record, ttl_secs)) = overlay.and_then(|o| o.get(key)) {
            self.world().cache_outcome(CacheOutcome::Overlay);
            return Ok((Arc::clone(record), *ttl_secs));
        }
        let fetch = || self.meta.fetch(key);
        self.cached_fetch(|| MetaKey::meta(key), ("meta", key), true, fetch)
    }

    /// Mapping 6: NSM host name → address, via the linked host-address NSM
    /// the chain found for the host's name service.
    fn host_address(&self, chased: &Chased<'_>) -> HnsResult<(HostId, u32)> {
        let (info, ha_nsm_name) = (chased.info, chased.host_addr_nsm);
        let (host_ns, host_name) = (&chased.host_context.name_service, &info.host_name);
        let fetch = || {
            let linked = self
                .linked_nsms
                .read()
                .get(ha_nsm_name)
                .cloned()
                .ok_or_else(|| HnsError::NoLinkedHostAddrNsm(host_ns.to_string()))?;
            let hns_name = HnsName::new(info.host_context.clone(), host_name)?;
            let request = NsmRequest::new(hns_name, QueryArgs::None);
            let world = self.world();
            self.handles
                .linked_calls
                .get(world.metrics(), "nsm", "linked_calls")
                .inc();
            let span = world.span_lazy(Some(self.host), TraceKind::Nsm, || {
                format!("linked NSM {ha_nsm_name}: {host_name} -> address")
            });
            let reply = linked.handle(&request);
            drop(span);
            // Read here, so that a reply without a host is never cached.
            let HostAddress { host, ttl } = reply?.read(HostAddress::from_value)?;
            Ok(Fetched {
                value: MetaRecord::HostAddr(host),
                rrs: 1,
                ttl_secs: ttl,
            })
        };
        let key = || MetaKey::host_addr(host_ns, host_name);
        // A linked NSM's `NotFound` is one name service's word about one
        // host, not the meta zone's about a name: it is not remembered.
        let (record, ttl) = self.cached_fetch(key, ("hostaddr", host_name), false, fetch)?;
        Ok((record.as_host_addr()?, ttl))
    }

    /// Speculatively fetches the whole meta-mapping chain for (`context`,
    /// `qc`) in one `MQUERY`, seeding the cache and returning the overlay
    /// for this `FindNSM`'s own mapping walk.
    ///
    /// Skipped (returning an empty overlay) when the context record is
    /// already live in the cache — a warm walk needs no round trips at
    /// all, so a batch would only add one.
    fn prefetch_meta_batch(&self, context: &Context, qc: &QueryClass) -> HnsResult<BatchOverlay> {
        let ctx_key = Step::Context(context).key(self.meta.origin())?;
        let mut overlay = BatchOverlay::new();
        let (world, cache) = (self.world(), self.storing_cache());
        if cache.is_some_and(|cache| cache.contains_live(world, &MetaKey::meta(&ctx_key))) {
            return Ok(overlay);
        }
        world.charge_ms(world.costs.hns_bookkeeping);
        let batch = self
            .meta
            .fetch_batch(&ctx_key, &[qc.as_str().to_string()])?;
        if let (None, Some(cache)) = (&batch.primary, cache) {
            cache.insert_negative(world, MetaKey::meta(&ctx_key));
        }
        // Every set the reply carried seeds both the cache and the overlay.
        let primary = batch.primary.map(|fetched| (ctx_key, fetched));
        for (key, fetched) in primary.into_iter().chain(batch.additional) {
            let record = Arc::new(fetched.value);
            if let Some(cache) = cache {
                let (rrs, ttl_secs) = (fetched.rrs, fetched.ttl_secs);
                cache.insert_shared(world, MetaKey::meta(&key), &record, rrs, ttl_secs);
            }
            overlay.insert(key, (record, fetched.ttl_secs));
        }
        Ok(overlay)
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

    /// Runs `f` inside a child span named `label` and records its virtual
    /// latency in the `hns_meta/{name}` histogram behind `handle`.
    fn timed<T>(
        &self,
        (handle, name): (&LazyHistogram, &str),
        label: impl Display,
        f: impl FnOnce() -> HnsResult<T>,
    ) -> HnsResult<T> {
        let world = self.world();
        let span = world.span_lazy(Some(self.host), TraceKind::Hns, || label.to_string());
        let t0 = world.now();
        let result = f();
        let took_ms = world.now().since(t0).as_ms_f64();
        drop(span);
        handle.record_ms(world.metrics(), "hns_meta", name, took_ms);
        result
    }

    /// Runs `f` as mapping `idx`: timed under `mapping {idx}: {label}`,
    /// after the bookkeeping every mapping is charged.
    fn with_mapping<T>(
        &self,
        idx: usize,
        label: impl Display,
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
        let histogram = (&self.handles.mapping_us[idx - 1], HIST[idx - 1]);
        self.timed(histogram, format_args!("mapping {idx}: {label}"), || {
            self.world().charge_ms(self.world().costs.hns_bookkeeping);
            f()
        })
    }

    /// The mapping walk. Returns the binding plus the minimum remaining
    /// TTL across the six mapping entries consulted — the freshness
    /// bound for a composed (query class, context) entry.
    ///
    /// The chain is [`crate::meta`]'s; supplied here are its record sets
    /// (overlay, cache, meta server) and what surrounds each fetch (span,
    /// histogram). Mappings 2–6 depend on the context only through its
    /// name service, so with the composed cache on, their result is
    /// probed (and, after a walk, kept) under (query class, name
    /// service): a context whose own entry lapsed costs two probes, not
    /// six.
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
            let histogram = (&self.handles.batch_prefetch_us, "batch_prefetch_us");
            let label = format_args!("MQUERY batch prefetch (context {}, {qc})", name.context);
            Some(self.timed(histogram, label, || {
                self.prefetch_meta_batch(&name.context, qc)
            })?)
        } else {
            None
        };
        let origin = self.meta.origin();
        let fetch: &mut Fetch<'_> = &mut |step, key| {
            self.with_mapping(step.mapping(), step, || {
                self.meta_fetch(key, overlay.as_ref())
            })
        };
        // Mapping 1: Context -> Name Service Name.
        let (record, ttl1) = meta::ask(origin, Step::Context(&name.context), fetch)?;
        let ctx_info = record.as_context()?;
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
        // Mappings 2-5: name service, query class -> NSM name -> binding
        // info, then the same two steps for the host that info names.
        let name_service = &ctx_info.name_service;
        meta::chase(origin, name_service, qc.as_str(), fetch, |chased| {
            let info = chased.info;
            // Mapping 6: NSM host name -> address.
            let label = format_args!("host {} -> address", info.host_name);
            let (host, ttl6) = self.with_mapping(6, label, || self.host_address(&chased))?;
            let binding = HrpcBinding {
                host,
                addr: NetAddr::of(host),
                program: info.program,
                port: info.port,
                components: info.suite.components(info.port),
            };
            self.world().trace(Some(self.host), TraceKind::Hns, || {
                format!("FindNSM -> {} at {host}:{}", chased.nsm_name, info.port)
            });
            let service_ttl = chased.min_ttl.min(ttl6);
            // Refused while the composed cache is off, and for a zero TTL.
            self.binding_cache.insert_service(
                self.world(),
                qc.as_str(),
                name_service,
                binding,
                service_ttl,
            );
            Ok((binding, ttl1.min(service_ttl)))
        })
    }

    /// Publishes this instance's cache statistics into the world's
    /// metrics registry, as [`World::export_all_caches`] does for every
    /// instance on each sampler tick.
    pub fn export_metrics(&self) {
        export_caches(&self.cache, &self.binding_cache, self.world().metrics());
    }

    /// Preloads the cache by zone transfer of the meta zone: all of it
    /// the first time, then what changed since the last preload's serial
    /// (all of it again if the server's delta log is truncated past it).
    ///
    /// "The cost of the many remote lookups required on the initial
    /// reference ... might exceed the cost of preloading the relatively
    /// small amount of information (currently about 2KB) required to
    /// guarantee HNS cache hits."
    pub fn preload(&self) -> HnsResult<PreloadReport> {
        use bindns::axfr::{self, IxfrContents};
        let (net, origin) = (&self.net, self.meta.origin());
        let last_serial = *self.preload_serial.lock();
        let (serial, bytes, contents) = match last_serial {
            None => {
                let xfer = axfr::transfer_zone(net, self.host, &self.meta_binding, origin)?;
                let records = xfer.records;
                (xfer.serial, xfer.size_bytes, IxfrContents::Full { records })
            }
            Some(from) => {
                let binding = &self.meta_binding;
                let xfer = axfr::transfer_zone_incremental(net, self.host, binding, origin, from)?;
                (xfer.serial, xfer.size_bytes, xfer.contents)
            }
        };
        let (mode, tally, records, removed) = match contents {
            IxfrContents::Unchanged => (PreloadMode::Unchanged, "unchanged_probes", vec![], vec![]),
            IxfrContents::Incremental { records, removed } => (
                PreloadMode::Incremental,
                "incremental_transfers",
                records,
                removed,
            ),
            IxfrContents::Full { records } => {
                (PreloadMode::Full, "full_transfers", records, vec![])
            }
        };
        // A name the server says is gone gets what a demand fetch would
        // now store for it, and no composed binding built over it stays.
        if let Some(cache) = self.storing_cache() {
            for name in &removed {
                cache.insert_negative(self.world(), MetaKey::meta(name));
            }
        }
        if !removed.is_empty() {
            self.binding_cache.clear();
        }
        let entries = self.preload_records(&records);
        *self.preload_serial.lock() = Some(serial);
        let metrics = self.world().metrics();
        metrics.inc("hns_preload", tally);
        metrics.add("hns_preload", "bytes_shipped", bytes as u64);
        Ok(PreloadReport {
            records: records.len(),
            bytes,
            entries,
            mode,
            serial,
        })
    }

    /// Seeds the cache with the transferred meta record sets — what a
    /// demand fetch would be answered with, the `UNSPEC` records at each
    /// meta key — one entry per owner name, and returns how many that
    /// made. A set that is no mapping of the chain's (its key of no
    /// [`meta::Kind`], its payloads not what the kind holds) is left out:
    /// nothing would ask the cache for it, or the demand fetch that does
    /// will say what is wrong with it.
    fn preload_records(&self, records: &[ResourceRecord]) -> usize {
        let Some(cache) = self.storing_cache() else {
            return 0;
        };
        let mut sets: BTreeMap<&DomainName, Vec<&ResourceRecord>> = BTreeMap::new();
        for rr in records {
            if rr.rtype == RType::Unspec && Kind::of_key(&rr.name).is_some() {
                sets.entry(&rr.name).or_default().push(rr);
            }
        }
        let mut entries = 0;
        for (name, set) in &sets {
            let Ok(fetched) = meta::decode_records(name, set) else {
                continue;
            };
            let (record, key) = (Arc::new(fetched.value), MetaKey::meta(name));
            cache.preload_insert(self.world(), key, &record, fetched.rrs, fetched.ttl_secs);
            entries += 1;
        }
        entries
    }
}

/// Publishes the statistics of one instance's caches: component
/// `hns_cache`, plus `hns_binding_cache` when the composed cache is
/// enabled (so default-configuration snapshots do not grow rows). A
/// disabled cache publishes nothing: several instances share one
/// component, and a disabled one exporting zeros would clobber a live
/// one's rows.
fn export_caches(
    cache: &HnsCache<MetaRecord>,
    binding_cache: &BindingCache,
    metrics: &MetricsRegistry,
) {
    if cache.mode() != CacheMode::Disabled {
        cache.export_metrics(metrics, "hns_cache");
    }
    if binding_cache.enabled() {
        binding_cache.export_metrics(metrics, "hns_binding_cache");
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
