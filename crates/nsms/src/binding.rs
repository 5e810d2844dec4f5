//! The HRPC-binding NSMs.
//!
//! This is the paper's worked example: "The NSM looks up the local name
//! ('fiji.cs.washington.edu') in the name service, and then determines the
//! needed port number for the ServiceName, using whatever binding protocol
//! is appropriate for that particular system." The NSM is written once,
//! over the adapter of either service, and what differs completely
//! between the two is the adapter's: a public BIND lookup and the Sun
//! portmapper on one side, an authenticated Clearinghouse lookup and the
//! Courier exchange protocol on the other. "The client does not need to be
//! aware of which name service it is calling."
//!
//! Client interface for the `HRPCBinding` query class (identical across
//! NSMs): the request's own fields `service` and `program`
//! ([`hns_core::nsm::QueryArgs::Binding`]); reply: the [`HrpcBinding`]
//! itself.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use bindns::resolver::StdResolver;
use clearinghouse::client::ChClient;
use hns_core::name::NameMapping;
use hns_core::nsm::{Nsm, NsmRequest};
use hns_core::query::QueryClass;
use hrpc::bindproto;
use hrpc::error::RpcResult;
use hrpc::net::RpcNet;
use hrpc::server::Reply;
use hrpc::{HrpcBinding, ProgramId};
use simnet::topology::{HostId, NetAddr};

use crate::adapter::{Adapter, HostLookup};
use crate::nsm_cache::{NsmCache, NsmCacheForm};

/// Resource records' worth of marshalling a completed binding structure
/// costs through the generated routines (the multi-field binding record).
const BINDING_MARSHAL_RRS: usize = 6;
/// Records a cached completed binding occupies.
const CACHED_BINDING_RRS: usize = 2;

/// What a completed binding is cached under: the host's local name, the
/// service and its program — the query, field by field, so that no two
/// queries share an entry.
#[derive(Debug, PartialEq, Eq)]
struct Key {
    local: String,
    service: String,
    program: ProgramId,
}

/// A key as a probe sees it, owned or borrowed. [`Key`] borrows as one,
/// so the cache is probed with the query's own strings and nothing is
/// allocated to ask (as `bindns::TtlCache` is).
trait KeyView {
    fn view(&self) -> (&str, &str, ProgramId);
}

impl KeyView for Key {
    fn view(&self) -> (&str, &str, ProgramId) {
        (&self.local, &self.service, self.program)
    }
}

impl KeyView for (&str, &str, ProgramId) {
    fn view(&self) -> (&str, &str, ProgramId) {
        *self
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for Key {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state);
    }
}

// `Borrow` requires the owned key to hash as its view does.
impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state);
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for dyn KeyView + '_ {}

/// The binding NSM over the name service whose client is `S`. Its adapter
/// supplies the host lookup, the emulation suite native to the target
/// service, and how long a completed binding may be cached.
#[derive(Debug)]
pub struct BindingNsm<S> {
    name: String,
    net: Arc<RpcNet>,
    host: HostId,
    adapter: Adapter<S>,
    cache: NsmCache<Key, HrpcBinding>,
}

/// The binding NSM for BIND/Sun systems.
pub type BindingBindNsm = BindingNsm<StdResolver>;
/// The binding NSM for Clearinghouse/Courier systems.
pub type BindingChNsm = BindingNsm<ChClient>;

impl<S> BindingNsm<S> {
    /// Creates the NSM under a custom registered name — used when a second
    /// subsystem of the same kind joins the federation and needs its own
    /// NSM instance.
    ///
    /// `host` is where this NSM instance executes (its calls originate
    /// there — the colocation arrangement decides this).
    pub fn named(
        name: impl Into<String>,
        net: Arc<RpcNet>,
        host: HostId,
        service: Arc<S>,
        mapping: NameMapping,
        cache_form: NsmCacheForm,
    ) -> Arc<Self> {
        Arc::new(BindingNsm {
            name: name.into(),
            net,
            host,
            adapter: Adapter::new(service, mapping),
            cache: NsmCache::of(cache_form),
        })
    }

    /// Cache statistics (hits, misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Clears the result cache.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Publishes this NSM's cache stats into `metrics` under `component`.
    pub fn export_metrics(&self, metrics: &simnet::obs::MetricsRegistry, component: &str) {
        self.cache.export_metrics(metrics, component);
    }
}

impl BindingBindNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-hrpcbinding-bind";

    /// Creates the NSM.
    pub fn new(
        net: Arc<RpcNet>,
        host: HostId,
        resolver: Arc<StdResolver>,
        mapping: NameMapping,
        cache_form: NsmCacheForm,
    ) -> Arc<Self> {
        Self::named(Self::NAME, net, host, resolver, mapping, cache_form)
    }
}

impl BindingChNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-hrpcbinding-ch";

    /// Creates the NSM.
    pub fn new(
        net: Arc<RpcNet>,
        host: HostId,
        client: Arc<ChClient>,
        mapping: NameMapping,
        cache_form: NsmCacheForm,
    ) -> Arc<Self> {
        Self::named(Self::NAME, net, host, client, mapping, cache_form)
    }
}

impl<S> Nsm for BindingNsm<S>
where
    Adapter<S>: HostLookup,
{
    fn nsm_name(&self) -> &str {
        &self.name
    }

    fn query_class(&self) -> QueryClass {
        QueryClass::hrpc_binding()
    }

    fn handle(&self, request: &NsmRequest) -> RpcResult<Reply> {
        let world = self.net.world();
        let (service, program) = request.args.binding()?;

        // Translate the individual name to the local name.
        let local = self.adapter.translate(&request.name)?;

        let asked: &dyn KeyView = &(local.as_str(), service, program);
        if let Some(cached) = self.cache.get(world, asked) {
            world.charge_ms(world.costs.nsm_assemble);
            return Ok(Reply::typed(*cached));
        }

        // 1. Look the host up in the name service.
        let (host, ttl) = self.adapter.address(&local)?;

        // 2. Determine the port with the system's own binding protocol
        //    (Sun portmapper, Courier exchange).
        let components = Adapter::<S>::suite();
        let port =
            bindproto::resolve_port(&self.net, self.host, host, program, service, components)?;

        // 3. Assemble the completed binding, charged as marshalled
        //    through the generated routines.
        let binding = HrpcBinding {
            host,
            addr: NetAddr::of(host),
            program,
            port,
            components,
        };
        world.charge_ms(world.costs.generated_miss(BINDING_MARSHAL_RRS) + world.costs.nsm_assemble);
        let key = Key {
            local,
            service: service.to_string(),
            program,
        };
        self.cache
            .insert(world, key, &binding, CACHED_BINDING_RRS, ttl);
        Ok(Reply::typed(binding))
    }
}
