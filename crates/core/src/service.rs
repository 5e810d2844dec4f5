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

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use simnet::costs::Term;
use simnet::obs::trace::{CacheOutcome, TraceKind};
use simnet::obs::{LazyCounter, LazyHistogram};
use simnet::time::{SimDuration, SimTime};
use simnet::topology::{HostId, NetAddr};
use simnet::ttl::{KeyParts, Probe};
use simnet::world::World;

use bindns::name::DomainName;
use bindns::resolver::HrpcResolver;
use bindns::rr::{RType, Records, ResourceRecord};
use hrpc::net::RpcNet;
use hrpc::server::ReplySlot;
use hrpc::{HrpcBinding, ProgramId, RpcError};

use crate::binding_cache::{BindingCache, BindingCacheStats};
use crate::cache::{host_addr_key, CacheLookup, CacheMode, HnsCache, HnsCacheStats};
use crate::error::{HnsError, HnsResult};
use crate::meta::{self, Chased, Fetch, Fetched, Held, Kind, MetaRecord, MetaStore, Step};
use crate::name::{Context, HnsName, NameMapping};
use crate::nsm::{
    HostAddress, Nsm, NsmBinding, NsmInfo, NsmRequest, NsmService, QueryArgs, EXPORT_SUITE,
};
use crate::query::QueryClass;

/// How an instance caches, fixed when it is built: the per-mapping
/// cache's form, and whether the composed `FindNSM` levels
/// ([`crate::binding_cache`]) sit on top of it. A [`CacheMode`] alone is
/// the paper's shape, the composed cache off. Batching is not here: it
/// holds no state, so [`Hns::set_batching`] may switch it on a live
/// instance (DESIGN.md "One configuration, taken at construction").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HnsConfig {
    /// The per-mapping cache's form.
    pub cache: CacheMode,
    /// Whether the composed binding cache is on.
    pub composed: bool,
}

impl From<CacheMode> for HnsConfig {
    fn from(cache: CacheMode) -> Self {
        HnsConfig {
            cache,
            composed: false,
        }
    }
}

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
/// its expiry, keyed by meta name. Consulted before the cache so the
/// batch also serves [`CacheMode::Disabled`] runs; its demarshalling
/// cost was already charged when the `MQUERY` reply was decoded.
type BatchOverlay = HashMap<DomainName, (Arc<MetaRecord>, SimTime)>;

/// When a part of a walk expires, and whether it was served stale: an
/// expired entry handed out because its server was unreachable, whose
/// instant is the past one it lapsed at. Folded over a walk's parts, it
/// is when the composed result expires and whether the query served
/// anything stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expiry {
    at: SimTime,
    stale: bool,
}

impl Expiry {
    /// What a walk that has read no part yet folds from.
    const NEVER: Expiry = Expiry::fresh(SimTime::MAX);

    const fn fresh(at: SimTime) -> Expiry {
        Expiry { at, stale: false }
    }

    /// The earlier instant; stale if either is.
    fn min(self, other: Expiry) -> Expiry {
        Expiry {
            at: self.at.min(other.at),
            stale: self.stale || other.stale,
        }
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
    /// BIND behind `meta_binding` whose meta zone is rooted at `origin`,
    /// caching as `config` says (a [`CacheMode`] alone: the paper's shape).
    pub fn new(
        net: Arc<RpcNet>,
        host: HostId,
        meta_binding: HrpcBinding,
        origin: DomainName,
        config: impl Into<HnsConfig>,
    ) -> Self {
        let HnsConfig { cache, composed } = config.into();
        let resolver = HrpcResolver::new(Arc::clone(&net), host, meta_binding);
        let cache = Arc::new(HnsCache::of(cache));
        let binding_cache = Arc::new(BindingCache::of(composed));
        // Every snapshot sums these with the other live instances' caches;
        // a dropped instance leaves it.
        let metrics = net.world().metrics();
        metrics.register("hns_cache", &cache);
        metrics.register("hns_binding_cache", &binding_cache);
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
            preload_serial: parking_lot::Mutex::new(None),
        }
    }

    /// Enables or disables the batched meta pipeline. Off by default: the
    /// sequential six-round-trip pipeline is the paper's measured shape;
    /// batching is the ablation on top of it. It holds no state (the
    /// `MQUERY` overlay lives for one walk), so unlike the caches it may
    /// be switched on a live instance.
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

    /// Unregisters a context, the inverse of [`Hns::register_context`]:
    /// mapping 1's record set is deleted. How long an instance that had
    /// it may still answer from it: TESTING.md "Retiring a binding".
    pub fn unregister_context(&self, context: &Context) -> HnsResult<()> {
        let key = Step::Context(context).key(self.meta.origin())?;
        self.meta.write(key, Vec::new())
    }

    /// Retires an NSM, the inverse of [`Hns::deploy_nsm`]: unexports it
    /// from where `binding` (what `deploy_nsm` returned) says it answers,
    /// then deletes mapping 3 (`nsm_name`'s binding information), then
    /// mapping 2 ((`name_service`, `query_class`) → `nsm_name`). Both keys
    /// are derived first, so a name with none retires nothing. How long an
    /// instance may still hand out the old binding: TESTING.md "Retiring
    /// a binding".
    pub fn retire_nsm(
        &self,
        name_service: &str,
        query_class: &QueryClass,
        nsm_name: &str,
        binding: &HrpcBinding,
    ) -> HnsResult<()> {
        let origin = self.meta.origin();
        let info = Step::NsmInfo(nsm_name).key(origin)?;
        let pair = Step::NsmName(name_service, query_class.as_str()).key(origin)?;
        self.net.unexport(binding.host, binding.port);
        self.meta.write(info, Vec::new())?;
        self.meta.write(pair, Vec::new())
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
            binding: NsmBinding {
                host_name,
                host_context: host_context.clone(),
                program,
                port: binding.port,
                suite: EXPORT_SUITE,
                version: 1,
                owner: owner.to_string(),
            },
        })?;
        Ok(binding)
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> HnsCacheStats {
        self.cache.stats()
    }

    /// Enables or disables the composed binding cache of a live instance
    /// (disabling clears it); [`HnsConfig::composed`] fixes it at
    /// construction instead.
    ///
    /// Pinned by `benchmark/`; goes in ROADMAP item 1(c).
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
    /// `FindNSM` is a cold walk. The preload serial goes too, so the next
    /// [`Hns::preload`] is a full transfer, not an empty delta.
    pub fn clear_cache(&self) {
        self.cache.clear();
        self.binding_cache.clear();
        *self.preload_serial.lock() = None;
    }

    /// The cache, if it stores anything. A disabled one is not probed,
    /// and what is fetched past it is handed to the walk by value.
    fn storing_cache(&self) -> Option<&HnsCache<MetaRecord>> {
        (self.cache.mode() != CacheMode::Disabled).then_some(&*self.cache)
    }

    /// One cached fetch, the same for all six mappings: probe `key`; on a
    /// miss run `fetch` and cache what it returns. Comes back with the record — a
    /// demarshalled hit's is the cached one itself, neither copied nor
    /// parsed, and with no cache that stores, the decoded record itself,
    /// by value — and its expiry, computed here once where the TTL arrives,
    /// or the past instant it lapsed at, marked stale, when served stale.
    /// What differs between the meta zone and a linked NSM is passed in:
    /// `fetch`, whether its `NotFound` is `remembered` (negatively), and
    /// its `label` in the serve-stale trace.
    fn cached_fetch(
        &self,
        key: &(impl KeyParts + ?Sized),
        (label, name): (&str, &dyn Display),
        remembered: bool,
        fetch: impl FnOnce() -> HnsResult<Fetched<MetaRecord>>,
    ) -> HnsResult<(Held, Expiry)> {
        let world = self.world();
        // `None` from a disabled cache: nothing probed, nothing to fall
        // back on, nothing remembered.
        let cache = self.storing_cache();
        match cache.map(|cache| cache.lookup(world, key)) {
            Some(CacheLookup::Hit { value, expires_at }) => {
                return Ok((Held::Shared(value), Expiry::fresh(expires_at)))
            }
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
                let Some((record, lapsed)) = cache.and_then(|cache| cache.lookup_stale(world, key))
                else {
                    return Err(HnsError::Rpc(err));
                };
                world.cache_outcome(CacheOutcome::Stale);
                self.handles
                    .stale_served
                    .get(world.metrics(), "faults", "stale_served")
                    .inc();
                world.trace(Some(self.host), TraceKind::Hns, || {
                    format!("stale_served: {label} {name} ({err})")
                });
                let stale = Expiry {
                    at: lapsed,
                    stale: true,
                };
                return Ok((Held::Shared(record), stale));
            }
            Err(err) => {
                let absent = matches!(err, HnsError::Rpc(RpcError::NotFound(_)));
                if let Some(cache) = cache.filter(|_| remembered && absent) {
                    cache.insert_negative(world, key);
                }
                return Err(err);
            }
        };
        let expires_at = world.now().after_secs(fetched.ttl_secs);
        let Some(cache) = cache else {
            // Nothing keeps it: the walk reads it and drops it.
            return Ok((Held::Owned(fetched.value), Expiry::fresh(expires_at)));
        };
        let record = Arc::new(fetched.value);
        cache.insert_shared(world, key, &record, fetched.rrs, expires_at);
        Ok((Held::Shared(record), Expiry::fresh(expires_at)))
    }

    /// Mappings 1–5: the record at `key` in the meta zone. The overlay
    /// (sets piggybacked by this query's batched fetch) is consulted
    /// before the cache.
    fn meta_fetch(
        &self,
        key: &DomainName,
        overlay: Option<&BatchOverlay>,
    ) -> HnsResult<(Held, Expiry)> {
        if let Some((record, expires_at)) = overlay.and_then(|o| o.get(key)) {
            self.world().cache_outcome(CacheOutcome::Overlay);
            let expiry = Expiry::fresh(*expires_at);
            return Ok((Held::Shared(Arc::clone(record)), expiry));
        }
        let fetch = || self.meta.fetch(key);
        self.cached_fetch(key.as_str(), ("meta", key), true, fetch)
    }

    /// Mapping 6: NSM host name → address, via the linked host-address NSM
    /// the chain found for the host's name service.
    fn host_address(&self, chased: &Chased<'_>) -> HnsResult<(HostId, Expiry)> {
        let (info, ha_nsm_name) = (chased.info, chased.host_addr_nsm);
        let (host_ns, host_name) = (&chased.host_context.name_service, &info.host_name);
        let fetch = || {
            let linked = self
                .linked_nsms
                .read()
                .get(ha_nsm_name)
                .cloned()
                .ok_or_else(|| HnsError::NoLinkedHostAddrNsm(host_ns.to_string()))?;
            let hns_name = HnsName::new(info.host_context.clone(), host_name.as_str())?;
            let request = NsmRequest::new(hns_name, QueryArgs::None);
            let world = self.world();
            self.handles
                .linked_calls
                .get(world.metrics(), "nsm", "linked_calls")
                .inc();
            let span = world.span_lazy(Some(self.host), TraceKind::Nsm, || {
                format!("linked NSM {ha_nsm_name}: {host_name} -> address")
            });
            let reply = ReplySlot::fill::<HostAddress>(|reply| linked.handle(&request, reply));
            drop(span);
            // Read here, so that a reply without a host is never cached.
            let HostAddress { host, ttl } =
                reply?.or_else(|tree| HostAddress::from_value(&tree))?;
            Ok(Fetched {
                value: MetaRecord::HostAddr(host),
                rrs: 1,
                ttl_secs: ttl,
            })
        };
        let key = host_addr_key(host_ns, host_name);
        // A linked NSM's `NotFound` is one name service's word about one
        // host, not the meta zone's about a name: it is not remembered.
        let (record, expires_at) =
            self.cached_fetch(&key, ("hostaddr", host_name), false, fetch)?;
        Ok((record.as_host_addr()?, expires_at))
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
        let (world, cache) = (self.world(), &self.cache);
        if cache.contains_live(world, ctx_key.as_str()) {
            return Ok(overlay);
        }
        world.charge(Term::HnsBookkeeping);
        let batch = self
            .meta
            .fetch_batch(&ctx_key, &[qc.as_str().to_string()])?;
        if batch.primary.is_none() {
            cache.insert_negative(world, ctx_key.as_str());
        }
        // Every set the reply carried seeds both the cache and the overlay.
        let primary = batch.primary.map(|fetched| (ctx_key, fetched));
        for (key, fetched) in primary.into_iter().chain(batch.additional) {
            let expires_at = world.now().after_secs(fetched.ttl_secs);
            let record = Arc::new(fetched.value);
            cache.insert_shared(world, key.as_str(), &record, fetched.rrs, expires_at);
            overlay.insert(key, (record, expires_at));
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
        let world = self.world();
        let batched = self.batching();

        // Composed fast path: a live (query class, context) entry answers
        // the whole query in one probe. Only the context matters — the
        // individual name plays no part in the mapping walk.
        if self.binding_cache.enabled() {
            let t0 = world.now();
            if let Some(binding) =
                self.binding_cache
                    .lookup(world, qc.as_str(), name.context.as_str())
            {
                world.cache_outcome(CacheOutcome::Hit);
                let took = world.now().since(t0);
                self.record_query_metrics(world, batched, 0, took, false);
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
        let (result, walk) = world.measure(|| self.find_nsm_inner(qc, name, batched));
        let (took, remote_round_trips) = (walk.total(), walk.counters().remote_calls);
        span.add_round_trips(remote_round_trips);
        drop(span);

        self.record_query_metrics(world, batched, remote_round_trips, took, result.is_err());

        let (binding, expiry) = result?;
        // An instant at or before now (a part was served stale, or lapsed
        // while the walk ran) is refused by the insert.
        let context = name.context.as_str();
        self.binding_cache
            .insert_until(world, qc.as_str(), context, binding, expiry.at);
        Ok((
            binding,
            FindNsmReport {
                remote_round_trips,
                batched,
                stale_served: expiry.stale,
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
            .get(metrics, "hns", "find_nsm_us")
            .record(took.as_us());
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
        let took = world.now().since(t0);
        drop(span);
        handle
            .get(world.metrics(), "hns_meta", name)
            .record(took.as_us());
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
            self.world().charge(Term::HnsBookkeeping);
            f()
        })
    }

    /// The mapping walk. Returns the binding plus the earliest expiry of
    /// the six parts it read, folded here as each arrives — when a
    /// composed (query class, context) entry of it must expire, and
    /// whether this query served any part stale.
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
    ) -> HnsResult<(HrpcBinding, Expiry)> {
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
        // The earliest expiry among the parts fetched since it was reset.
        let earliest = Cell::new(Expiry::NEVER);
        let fetch: &mut Fetch<'_> = &mut |step, key| {
            let (record, expiry) = self.with_mapping(step.mapping(), step, || {
                self.meta_fetch(key, overlay.as_ref())
            })?;
            earliest.set(earliest.get().min(expiry));
            Ok(record)
        };
        // Mapping 1: Context -> Name Service Name.
        let record = meta::ask(origin, Step::Context(&name.context), fetch)?;
        let mapping1 = earliest.replace(Expiry::NEVER);
        let ctx_info = record.as_context()?;
        if self.binding_cache.enabled() {
            // The outcome lands on the `FindNSM` span: mapping 1's own
            // span has closed.
            let world = self.world();
            match self
                .binding_cache
                .lookup_service(world, qc.as_str(), &ctx_info.name_service)
            {
                Probe::Live { value, expires_at } => {
                    world.cache_outcome(CacheOutcome::Hit);
                    return Ok((value, mapping1.min(Expiry::fresh(expires_at))));
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
            let (host, mapping6) = self.with_mapping(6, label, || self.host_address(&chased))?;
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
            let service = earliest.get().min(mapping6);
            // Refused while the composed cache is off, and at or before now.
            self.binding_cache.insert_service(
                self.world(),
                qc.as_str(),
                name_service,
                binding,
                service.at,
            );
            Ok((binding, mapping1.min(service)))
        })
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
        use bindns::axfr::{self, IxfrMode};
        let (net, origin) = (&self.net, self.meta.origin());
        let last_serial = *self.preload_serial.lock();
        let (serial, bytes, mode, records, removed) = match last_serial {
            None => {
                let x = axfr::transfer_zone(net, self.host, &self.meta_binding, origin)?;
                (x.serial, x.size_bytes, IxfrMode::Full, x.records, vec![])
            }
            Some(from) => {
                let binding = &self.meta_binding;
                let x = axfr::transfer_zone_incremental(net, self.host, binding, origin, from)?;
                (x.serial, x.size_bytes, x.mode, x.records, x.removed)
            }
        };
        let (mode, tally) = match mode {
            IxfrMode::Unchanged => (PreloadMode::Unchanged, "unchanged_probes"),
            IxfrMode::Incremental => (PreloadMode::Incremental, "incremental_transfers"),
            IxfrMode::Full => (PreloadMode::Full, "full_transfers"),
        };
        // A name the server says is gone gets what a demand fetch would
        // now store for it. No composed binding survives a transfer that
        // shipped anything: a changed set rides `records`, not `removed`.
        for name in &removed {
            self.cache.insert_negative(self.world(), name.as_str());
        }
        if mode != PreloadMode::Unchanged {
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
        let mut sets: BTreeMap<&DomainName, Records> = BTreeMap::new();
        for rr in records {
            if rr.rtype == RType::Unspec && Kind::of_key(&rr.name).is_some() {
                let (name, body) = rr.clone().into_parts();
                sets.entry(&rr.name)
                    .or_insert_with(Records::none)
                    .push(name, body);
            }
        }
        let mut entries = 0;
        for (name, set) in &sets {
            let Ok(fetched) = meta::decode_records(name, set) else {
                continue;
            };
            let (world, record) = (self.world(), Arc::new(fetched.value));
            let expires_at = world.now().after_secs(fetched.ttl_secs);
            cache.preload_insert(world, name.as_str(), &record, fetched.rrs, expires_at);
            entries += 1;
        }
        entries
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaser::MetaChaser;
    use crate::nsm::SuiteTag;
    use bindns::server::{deploy, single_zone_server};
    use bindns::zone::Zone;
    use proptest::prelude::*;
    use simnet::faults::FaultPlan;
    use wire::Value;

    /// Mapping 6: a linked host-address NSM answering after `delay_ms`
    /// with a TTL of `ttl` seconds.
    struct SlowHostAddr {
        world: Arc<World>,
        ttl: u32,
        delay_ms: f64,
    }

    impl Nsm for SlowHostAddr {
        fn nsm_name(&self) -> &str {
            "nsm-ha"
        }
        fn query_class(&self) -> QueryClass {
            QueryClass::host_address()
        }
        fn handle(&self, _: &NsmRequest, reply: &mut ReplySlot<'_>) -> Result<(), RpcError> {
            self.world.wait(SimDuration::from_ms_f64(self.delay_ms));
            reply.put(Value::record([
                ("host", Value::U32(7)),
                ("ttl", Value::U32(self.ttl)),
            ]));
            Ok(())
        }
    }

    fn ctx(name: &str) -> Context {
        Context::new(name).expect("context")
    }

    /// An HNS over a meta server whose chain for `ctx-a` and `ctx-b` (both
    /// on `NS`) has record TTLs `ttls` — mapping 1 of `ctx-a`, mappings
    /// 2–5, mapping 6 (the linked NSM's answer), mapping 1 of `ctx-b` —
    /// with every call to the meta server slowed by `meta_ms` and the
    /// linked NSM by `linked_ms`. A cache probe charges its cost before
    /// it looks. The composed cache is on, built so, or switched on by the
    /// pinned wrapper once everything is registered if `via_wrapper`.
    fn hns(ttls: [u32; 7], meta_ms: f64, linked_ms: f64, via_wrapper: bool) -> Hns {
        let world = World::paper();
        let (client, meta_host) = (world.add_host("client"), world.add_host("meta"));
        let net = RpcNet::new(Arc::clone(&world));
        let origin = DomainName::parse("hns").expect("origin");
        let zone = Zone::new(origin.clone(), 600);
        let meta = deploy(&net, meta_host, single_zone_server("meta", zone, true));
        meta.server
            .set_additional_provider(MetaChaser::new(origin.clone()));
        let config = HnsConfig {
            cache: CacheMode::Demarshalled,
            composed: !via_wrapper,
        };
        let hns = Hns::new(net, client, meta.hrpc_binding, origin, config);
        let ns_context = |name: &str, ttl| {
            hns.meta().set_record_ttl(ttl);
            hns.register_context(&ctx(name), "NS", &NameMapping::Identity)
        };
        ns_context("ctx-a", ttls[0]).expect("mapping 1");
        hns.meta().set_record_ttl(ttls[1]);
        hns.register_nsm("NS", &QueryClass::hrpc_binding(), "nsm-q")
            .expect("mapping 2");
        hns.meta().set_record_ttl(ttls[2]);
        hns.register_nsm_info(&NsmInfo {
            nsm_name: "nsm-q".into(),
            binding: NsmBinding {
                host_name: "nsm-host".into(),
                host_context: ctx("ctx-h"),
                program: ProgramId(300_001),
                port: 1025,
                suite: SuiteTag::Sun,
                version: 1,
                owner: "hcs".into(),
            },
        })
        .expect("mapping 3");
        ns_context("ctx-h", ttls[3]).expect("mapping 4");
        hns.meta().set_record_ttl(ttls[4]);
        hns.register_nsm("NS", &QueryClass::host_address(), "nsm-ha")
            .expect("mapping 5");
        ns_context("ctx-b", ttls[6]).expect("mapping 1 of ctx-b");
        let (ttl, delay_ms) = (ttls[5], linked_ms);
        let world = Arc::clone(&world);
        hns.link_nsm(Arc::new(SlowHostAddr {
            world,
            ttl,
            delay_ms,
        }));
        if via_wrapper {
            hns.set_binding_cache(true);
        }
        let mut plan = FaultPlan::new();
        plan.latency_spike(client, meta_host, SimTime::ZERO, None, meta_ms);
        hns.world().set_faults(Some(plan));
        hns
    }

    /// What an instance shows over a cold walk of `ctx-a`, a warm one, a
    /// first `ctx-b` (its mapping 1 and a service-level hit), `ctx-b`
    /// again once its mapping 1 has lapsed, and `ctx-a` once everything
    /// has: each binding and report, the clock, and both composed
    /// levels' statistics after it.
    fn composed_script(via_wrapper: bool) -> Vec<ComposedStep> {
        let hns = hns([600, 600, 600, 600, 600, 600, 60], 0.0, 0.0, via_wrapper);
        let world = Arc::clone(hns.world());
        let mut seen = Vec::new();
        for (context, wait_ms) in [
            ("ctx-a", 0),
            ("ctx-a", 0),
            ("ctx-b", 0),
            ("ctx-b", 61_000),
            ("ctx-a", 601_000),
        ] {
            world.wait(SimDuration::from_ms(wait_ms));
            let name = HnsName::new(ctx(context), "x").expect("name");
            let (binding, report) = hns
                .find_nsm_report(&QueryClass::hrpc_binding(), &name)
                .expect("the walk");
            let stats = (hns.binding_cache_stats(), hns.binding_cache_service_stats());
            seen.push((binding, report, world.now(), stats));
        }
        seen
    }

    type ComposedStep = (
        HrpcBinding,
        FindNsmReport,
        SimTime,
        (BindingCacheStats, BindingCacheStats),
    );

    /// An instance built with the composed cache on answers, charges and
    /// counts as one built without it and switched on by the pinned
    /// wrapper, on cold, warm, service-level and lapsed walks.
    #[test]
    fn the_config_and_the_wrapper_compose_alike() {
        let (built, switched) = (composed_script(false), composed_script(true));
        assert_eq!(built, switched);
        let trips: Vec<_> = built
            .iter()
            .map(|(_, r, ..)| r.remote_round_trips)
            .collect();
        assert_eq!(trips, [5, 0, 1, 1, 5]);
        let (by_context, by_service) = built[4].3;
        assert_eq!((by_context.hits, by_context.expired), (1, 2));
        assert_eq!((by_service.hits, by_service.expired), (2, 1));
    }

    /// When the part `key` names expires: the instant its per-mapping
    /// entry was filed under, live or lapsed.
    fn part(hns: &Hns, key: impl KeyParts) -> SimTime {
        match hns.cache.lookup(hns.world(), &key) {
            CacheLookup::Hit { expires_at, .. } => expires_at,
            _ => hns.cache.lookup_stale(hns.world(), &key).expect("a part").1,
        }
    }

    /// Both composed levels of a walk just made in `context` expire with
    /// their earliest part, to the microsecond: the service level with
    /// mappings 2–6, the context level with those and mapping 1. A probe
    /// of a live level says its instant; a level whose earliest part had
    /// lapsed by the probe holds nothing live.
    fn check_composed(hns: &Hns, context: &str) {
        let (world, qc) = (hns.world(), QueryClass::hrpc_binding());
        let meta = |step: Step<'_>| part(hns, step.key(hns.meta.origin()).expect("key").as_str());
        let (ctx_h, host_address) = (ctx("ctx-h"), QueryClass::host_address());
        let parts = [
            meta(Step::NsmName("NS", qc.as_str())),
            meta(Step::NsmInfo("nsm-q")),
            meta(Step::HostContext(&ctx_h)),
            meta(Step::HostAddrNsm("NS", host_address.as_str())),
            part(hns, host_addr_key("NS", "nsm-host")),
        ];
        let service = parts.into_iter().min().expect("five parts");
        let whole = service.min(meta(Step::Context(&ctx(context))));
        let service_level = hns.binding_cache.lookup_service(world, qc.as_str(), "NS");
        let context_level = hns
            .binding_cache
            .lookup_context(world, qc.as_str(), context);
        for (level, at) in [(service_level, service), (context_level, whole)] {
            match level {
                Probe::Live { expires_at, .. } => assert_eq!(expires_at, at),
                _ => assert!(at <= world.now(), "{at:?} is after {:?}", world.now()),
            }
        }
    }

    /// Mapping 6 as a linked NSM that, once armed, runs one more
    /// `FindNSM` on the same instance in `ctx-b` from inside its answer,
    /// and keeps that query's report.
    #[derive(Default)]
    struct Reentrant {
        armed: parking_lot::Mutex<Option<Arc<Hns>>>,
        nested: parking_lot::Mutex<Option<FindNsmReport>>,
    }

    impl Nsm for Reentrant {
        fn nsm_name(&self) -> &str {
            "nsm-ha"
        }
        fn query_class(&self) -> QueryClass {
            QueryClass::host_address()
        }
        fn handle(&self, _: &NsmRequest, reply: &mut ReplySlot<'_>) -> Result<(), RpcError> {
            let armed = self.armed.lock().take();
            if let Some(hns) = armed {
                let name = HnsName::new(ctx("ctx-b"), "x").expect("name");
                let (_, report) = hns
                    .find_nsm_report(&QueryClass::hrpc_binding(), &name)
                    .expect("the nested query");
                *self.nested.lock() = Some(report);
            }
            reply.put(Value::record([
                ("host", Value::U32(7)),
                ("ttl", Value::U32(1)),
            ]));
            Ok(())
        }
    }

    /// A query's report says whether *it* served stale, whatever another
    /// query on the same instance served meanwhile: here a second query,
    /// run inside the first one's walk, serves mapping 1 of `ctx-b`
    /// stale; the first one reads every part live or fresh.
    #[test]
    fn stale_served_is_the_querys_own() {
        // `ctx-b`'s mapping 1 and mapping 6 lapse after a second; the
        // rest of both chains lives ten minutes.
        let hns = Arc::new(hns([600, 600, 600, 600, 600, 1, 1], 0.0, 0.0, false));
        let reentrant = Arc::new(Reentrant::default());
        hns.link_nsm(Arc::clone(&reentrant) as Arc<dyn Nsm>);
        let find = |context: &str| {
            let name = HnsName::new(ctx(context), "x").expect("name");
            let found = hns.find_nsm_report(&QueryClass::hrpc_binding(), &name);
            found.expect("the walk").1
        };
        find("ctx-a");
        find("ctx-b");
        let world = hns.world();
        world.wait(SimDuration::from_ms(2_000));
        let mut plan = FaultPlan::new();
        plan.crash(hns.meta_binding.host, world.now(), None);
        world.set_faults(Some(plan));

        *reentrant.armed.lock() = Some(Arc::clone(&hns));
        let outer = find("ctx-a");
        let nested = reentrant
            .nested
            .lock()
            .take()
            .expect("the nested query ran");
        assert!(
            nested.stale_served,
            "ctx-b's mapping 1 came from its lapsed entry"
        );
        assert!(!outer.stale_served, "{outer:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The composed expiry is the earliest part expiry, to the
        /// microsecond, over random part TTLs and walk delays, in the
        /// three shapes a composed entry is made in: a cold walk, a walk
        /// served from the batch overlay, and a service-level hit under a
        /// freshly fetched mapping 1, its service parts `left_us` short of
        /// lapsing — under a second, often — when that walk began (or,
        /// when one lapses while mapping 1 is fetched, a walk over the
        /// parts still cached).
        #[test]
        fn a_composed_entry_expires_with_its_earliest_part(
            ttls in proptest::collection::vec(prop_oneof![1u32..=8, 9u32..=600], 7..8),
            meta_ms in 0.0f64..1_500.0,
            linked_ms in 0.0f64..1_500.0,
            shape in 0u8..3,
            left_us in 0u64..1_500_000,
        ) {
            let hns = hns(ttls.try_into().expect("seven TTLs"), meta_ms, linked_ms, false);
            let find = |context: &str| {
                let name = HnsName::new(ctx(context), "x").expect("name");
                let found = hns.find_nsm_report(&QueryClass::hrpc_binding(), &name);
                found.expect("the walk").1.remote_round_trips
            };
            hns.set_batching(shape == 1);
            // Five meta fetches, or one batch that the overlay serves.
            prop_assert_eq!(find("ctx-a"), if shape == 1 { 1 } else { 5 });
            if shape == 2 {
                let world = hns.world();
                let qc = QueryClass::hrpc_binding();
                if let Probe::Live { expires_at, .. } =
                    hns.binding_cache.lookup_service(world, qc.as_str(), "NS")
                {
                    let left = expires_at.since(world.now());
                    world.wait(left.saturating_sub(SimDuration::from_us(left_us)));
                }
                find("ctx-b");
                check_composed(&hns, "ctx-b");
            } else {
                check_composed(&hns, "ctx-a");
            }
        }
    }
}
